module Page = Kard_mpk.Page

type frame = int

(* Frame contents are materialized lazily: simulated workloads rarely
   inspect data, and eagerly backing multi-GiB address spaces with
   real bytes would make large-array workloads unsimulatable. *)
type cell = { mutable data : bytes option }

type t = {
  frames : (frame, cell) Hashtbl.t;
  mutable next_frame : frame;
  mutable resident : int;
  mutable peak : int;
  mutable total_allocated : int;
}

(* [frames] is only looked up and counted, never iterated, so it starts
   small, on the minor heap (DESIGN.md §5). *)
let create () =
  { frames = Hashtbl.create 64; next_frame = 0; resident = 0; peak = 0; total_allocated = 0 }

let alloc_frame t =
  let frame = t.next_frame in
  t.next_frame <- frame + 1;
  Hashtbl.replace t.frames frame { data = None };
  t.resident <- t.resident + 1;
  t.total_allocated <- t.total_allocated + 1;
  if t.resident > t.peak then t.peak <- t.resident;
  frame

let free_frame t frame =
  if not (Hashtbl.mem t.frames frame) then
    invalid_arg (Printf.sprintf "Phys_mem.free_frame: frame %d not resident" frame);
  Hashtbl.remove t.frames frame;
  t.resident <- t.resident - 1

let bytes_of_frame t frame =
  match Hashtbl.find_opt t.frames frame with
  | Some cell -> begin
    match cell.data with
    | Some b -> b
    | None ->
      let b = Bytes.make Page.size '\000' in
      cell.data <- Some b;
      b
  end
  | None -> invalid_arg (Printf.sprintf "Phys_mem.bytes_of_frame: frame %d not resident" frame)

let resident_frames t = t.resident
let resident_bytes t = t.resident * Page.size
let peak_resident_bytes t = t.peak * Page.size
let total_allocated_frames t = t.total_allocated
let frame_to_int frame = frame
let frame_of_int i = i
