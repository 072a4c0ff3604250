(* The members sorted ascending in [members.(0 .. size-1)], beside a
   presence bitmap for O(1) membership.  Both arrays have the bitmap's
   length, which bounds the member count. *)

type t = {
  mutable present : bool array;
  mutable members : int array;
  mutable size : int;
}

let create ?(capacity = 16) () =
  let n = max 1 capacity in
  { present = Array.make n false; members = Array.make n 0; size = 0 }

let grow t needed =
  let n = ref (2 * Array.length t.present) in
  while needed >= !n do
    n := !n * 2
  done;
  let present = Array.make !n false in
  Array.blit t.present 0 present 0 (Array.length t.present);
  let members = Array.make !n 0 in
  Array.blit t.members 0 members 0 t.size;
  t.present <- present;
  t.members <- members

let mem t i = i >= 0 && i < Array.length t.present && t.present.(i)
let cardinal t = t.size

(* Add and remove walk down from the top, moving the members above the
   id one slot as they go: at most [size] moves in plain loops, with no
   search first (binary-searching the slot measured slower on
   memcached at 64 threads). *)
let add t i =
  if i < 0 then invalid_arg "Runnable_set.add: negative id";
  if i >= Array.length t.present then grow t i;
  if not t.present.(i) then begin
    t.present.(i) <- true;
    let m = t.members in
    let j = ref t.size in
    while !j > 0 && m.(!j - 1) > i do
      m.(!j) <- m.(!j - 1);
      decr j
    done;
    m.(!j) <- i;
    t.size <- t.size + 1
  end

let remove t i =
  if mem t i then begin
    t.present.(i) <- false;
    let m = t.members in
    (* [above] is the member displaced from slot [!j]; stop once it is
       [i] itself. *)
    let j = ref (t.size - 1) and above = ref m.(t.size - 1) in
    while !above <> i do
      let here = m.(!j - 1) in
      m.(!j - 1) <- !above;
      above := here;
      decr j
    done;
    t.size <- t.size - 1
  end

let kth_smallest t k =
  if k < 0 || k >= t.size then
    invalid_arg (Printf.sprintf "Runnable_set.kth_smallest: %d outside [0, %d)" k t.size);
  t.members.(k)

let kth_largest t k =
  if k < 0 || k >= t.size then
    invalid_arg (Printf.sprintf "Runnable_set.kth_largest: %d outside [0, %d)" k t.size);
  t.members.(t.size - 1 - k)

(* A binary search for the first member above [v]; any [v] will do. *)
let first_above t v =
  let lo = ref 0 and hi = ref t.size in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.members.(mid) <= v then lo := mid + 1 else hi := mid
  done;
  if !lo >= t.size then None else Some t.members.(!lo)

let min_elt t = if t.size = 0 then None else Some t.members.(0)
let max_elt t = if t.size = 0 then None else Some t.members.(t.size - 1)

let to_list t = List.init t.size (fun i -> t.members.(i))
