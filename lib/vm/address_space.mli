(** A process virtual address space.

    Virtual pages are handed out by a bump allocator (real [mmap] also
    returns fresh ranges) and are backed either by anonymous frames or
    by pages of an in-memory file ([MAP_SHARED]) — the aliasing that
    consolidated unique page allocation relies on: two virtual pages
    mapped onto the same file page resolve, through
    {!backing_of_vpage} and {!Memfd.frame_of_page}, to one physical
    frame.  No simulated operation carries data, so the space holds
    mappings, not bytes. *)

type t

type backing =
  | Anon of Phys_mem.frame
  | File_shared of Memfd.t * int  (** file and file-page index *)

val create : Phys_mem.t -> t
val phys : t -> Phys_mem.t

(** {1 Mapping} *)

val mmap_anon : t -> pages:int -> Kard_mpk.Page.addr
(** Map fresh zeroed frames; returns the base address. *)

val mmap_file : t -> Memfd.t -> file_page:int -> pages:int -> Kard_mpk.Page.addr
(** Map [pages] consecutive file pages starting at [file_page],
    [MAP_SHARED].  The file must already be large enough. *)

val reserve : t -> pages:int -> Kard_mpk.Page.addr
(** Reserve address space with no backing (PROT_NONE-like); accessing
    it raises. Used to keep guard gaps between unique object pages. *)

val munmap : t -> base:Kard_mpk.Page.addr -> pages:int -> unit
(** Unmap; anonymous frames are freed, file pages stay in the file. *)

val backing_of_vpage : t -> Kard_mpk.Page.vpage -> backing option
val is_mapped : t -> Kard_mpk.Page.addr -> bool
val mapped_pages : t -> int

val page_table_pages : t -> int
(** Last-level page-table pages needed for the current mappings: the
    number of distinct 512-entry groups the mapped pages fall into.
    Feeds the modeled-RSS page-table component. *)

val peak_page_table_pages : t -> int

val peak_mapped_pages : t -> int
(** High-water mark of simultaneously live virtual page mappings.
    Models what /proc RSS reports: shared physical pages are counted
    once {e per mapping}, which is precisely why consolidated unique
    page allocation still shows large RSS numbers (section 7.5). *)
