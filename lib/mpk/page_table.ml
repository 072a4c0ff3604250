(* Virtual pages are handed out sequentially by the address space, so
   the pkey mirror is a vpage-indexed int array rather than a hash
   table: [pkey_of_vpage] runs on every TLB pkey re-walk — i.e. on
   the first access to a cached page after any page-table generation
   bump — and must be a bounds-checked array read, not a hash probe.

   Encoding: [-1] means "no explicit entry" (the page carries
   {!Pkey.k_def}); any other value is [Pkey.to_int] of the tag.  The
   array only grows on explicit [set_pkey] writes, so reads of
   never-tagged pages stay on the bounds-check fast path no matter
   how large the address is.  It starts at 64 slots, on the minor
   heap (DESIGN.md §5), and [grow] doubles it. *)

let no_entry = -1

type t = {
  mutable pkeys : int array; (* index = vpage *)
  mutable entries : int; (* vpages carrying a non-default key *)
  mutable generation : int;
}

let create () = { pkeys = Array.make 64 no_entry; entries = 0; generation = 0 }

let grow t vpage =
  let n = ref (Array.length t.pkeys) in
  while vpage >= !n do
    n := 2 * !n
  done;
  let bigger = Array.make !n no_entry in
  Array.blit t.pkeys 0 bigger 0 (Array.length t.pkeys);
  t.pkeys <- bigger

let set_pkey t vpage pkey =
  if vpage < 0 then invalid_arg "Page_table.set_pkey: negative vpage";
  t.generation <- t.generation + 1;
  if Pkey.equal pkey Pkey.k_def then begin
    if vpage < Array.length t.pkeys && t.pkeys.(vpage) <> no_entry then begin
      t.pkeys.(vpage) <- no_entry;
      t.entries <- t.entries - 1
    end
  end
  else begin
    if vpage >= Array.length t.pkeys then grow t vpage;
    if t.pkeys.(vpage) = no_entry then t.entries <- t.entries + 1;
    t.pkeys.(vpage) <- Pkey.to_int pkey
  end

(* [set_pkey] over a range, with the per-page checks hoisted: a vkey
   load retags every page of every object under two keys, so this is
   a plain loop that allocates nothing.  The generation moves by one
   per page, exactly as [count] single writes would move it. *)
let set_pkey_range t ~base ~len pkey =
  let first = Page.vpage_of_addr base in
  let count = Page.pages_spanned base len in
  let last = first + count - 1 in
  if first < 0 then invalid_arg "Page_table.set_pkey: negative vpage";
  t.generation <- t.generation + count;
  if Pkey.equal pkey Pkey.k_def then
    for vpage = first to Int.min last (Array.length t.pkeys - 1) do
      if t.pkeys.(vpage) <> no_entry then begin
        t.pkeys.(vpage) <- no_entry;
        t.entries <- t.entries - 1
      end
    done
  else begin
    if last >= Array.length t.pkeys then grow t last;
    let code = Pkey.to_int pkey in
    let pkeys = t.pkeys in
    for vpage = first to last do
      if pkeys.(vpage) = no_entry then t.entries <- t.entries + 1;
      pkeys.(vpage) <- code
    done
  end;
  count

let pkey_of_vpage t vpage =
  if vpage < 0 || vpage >= Array.length t.pkeys then Pkey.k_def
  else
    let code = t.pkeys.(vpage) in
    if code = no_entry then Pkey.k_def else Pkey.of_int code

let pkey_of_addr t addr = pkey_of_vpage t (Page.vpage_of_addr addr)

let clear_range t ~base ~len =
  let first = Page.vpage_of_addr base in
  for vp = first to first + Page.pages_spanned base len - 1 do
    t.generation <- t.generation + 1;
    if vp >= 0 && vp < Array.length t.pkeys && t.pkeys.(vp) <> no_entry then begin
      t.pkeys.(vp) <- no_entry;
      t.entries <- t.entries - 1
    end
  done

let generation t = t.generation
let entry_count t = t.entries
