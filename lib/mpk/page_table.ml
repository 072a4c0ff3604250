(* Virtual pages are handed out sequentially by the address space, so
   the pkey mirror is a vpage-indexed int array rather than a hash
   table: [pkey_of_vpage] runs on every TLB pkey re-walk — i.e. on
   the first access to a cached page after any page-table generation
   bump — and must be a bounds-checked array read, not a hash probe.

   Encoding: [-1] means "no explicit entry" (the page carries
   {!Pkey.k_def}); [c >= 0] is [Pkey.to_int] of the tag; [c <= -2]
   is virtual key [-2 - c], whose pages resolve through [bindings].
   Rebinding a virtual key therefore retags all of its pages at once,
   in O(1), which is how the vkey cache loads and evicts keys.  The
   array only grows on explicit writes, so reads of never-tagged
   pages stay on the bounds-check fast path no matter how large the
   address is.  It starts at 64 slots, on the minor heap (DESIGN.md
   §5), and [grow] doubles it; [bindings] stays empty until the first
   virtual tag. *)

let no_entry = -1

(* Virtual key [v]'s page code, and back: the map is its own inverse. *)
let[@inline] vcode v = -2 - v

type t = {
  mutable pkeys : int array; (* index = vpage *)
  mutable entries : int; (* vpages carrying a non-default key *)
  mutable generation : int;
  mutable bindings : int array; (* index = virtual key: the pkey its pages carry *)
}

let create () =
  { pkeys = Array.make 64 no_entry; entries = 0; generation = 0; bindings = [||] }

(* [a] doubled (from at least 16 slots) until [i] indexes it, the new
   slots holding [fill]. *)
let grown a i fill =
  let n = ref (Int.max 16 (Array.length a)) in
  while i >= !n do
    n := 2 * !n
  done;
  let bigger = Array.make !n fill in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

let grow t vpage = t.pkeys <- grown t.pkeys vpage no_entry

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

(* Write [code] over the vpages [first..last], counting the pages
   that gain an entry. *)
let write_range t first last code =
  if last >= Array.length t.pkeys then grow t last;
  let pkeys = t.pkeys in
  for vpage = first to last do
    if pkeys.(vpage) = no_entry then t.entries <- t.entries + 1;
    pkeys.(vpage) <- code
  done

(* [set_pkey] over a range, with the per-page checks hoisted: a plain
   loop that allocates nothing.  The generation moves by one per
   page, exactly as [count] single writes would move it. *)
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
  else write_range t first last (Pkey.to_int pkey);
  count

let set_binding t ~vkey pkey =
  if vkey < 0 then invalid_arg "Page_table: negative virtual key";
  if vkey >= Array.length t.bindings then
    t.bindings <- grown t.bindings vkey (Pkey.to_int Pkey.k_def);
  t.bindings.(vkey) <- Pkey.to_int pkey

let set_vkey_range t ~base ~len ~vkey pkey =
  let first = Page.vpage_of_addr base in
  let count = Page.pages_spanned base len in
  if first < 0 then invalid_arg "Page_table.set_vkey_range: negative vpage";
  set_binding t ~vkey pkey;
  t.generation <- t.generation + count;
  write_range t first (first + count - 1) (vcode vkey);
  count

let bind t ~vkey pkey =
  set_binding t ~vkey pkey;
  t.generation <- t.generation + 1

(* Every virtual code in the range becomes the pkey it resolves to.
   No page's key changes, so cached TLB keys stay valid and the
   generation stays put. *)
let resolve_range t ~base ~len =
  let first = Page.vpage_of_addr base in
  let last = Int.min (first + Page.pages_spanned base len - 1) (Array.length t.pkeys - 1) in
  for vpage = Int.max first 0 to last do
    let code = t.pkeys.(vpage) in
    if code < no_entry then t.pkeys.(vpage) <- t.bindings.(vcode code)
  done

let pkey_of_vpage t vpage =
  if vpage < 0 || vpage >= Array.length t.pkeys then Pkey.k_def
  else
    let code = t.pkeys.(vpage) in
    if code >= 0 then Pkey.of_int code
    else if code = no_entry then Pkey.k_def
    else Pkey.of_int t.bindings.(vcode code)

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
