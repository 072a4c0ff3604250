module Perm = Kard_mpk.Perm
module Dense = Kard_sched.Dense

type holder = {
  tid : int;
  perm : Perm.t;
  section : int;
  lock : int;
  proactive : bool;
}

(* Keys are small dense ints — the 16 architectural pkeys in identity
   mode, or virtual keys 1..pool under the vkey cache — so the map is a
   key-indexed array: acquire and release run on every section entry
   and exit and must neither hash nor allocate.  A key's state is made
   on its first acquisition (a vkey pool can be thousands wide but only
   touched keys pay); every other key reads the shared [empty] state,
   which nothing writes.

   A key's holdings are mutable records in a growable array, reused in
   place: slots [0..n-1] are live, oldest first, and the records past
   [n] are spares.  Slot order encodes the history the cons-list
   predecessor exposed: slot [n-1] is the most recent holding (list
   head), a new holding takes the first spare, and an upgrade moves
   the holding to the top.  The fault path reads the records in place
   ({!holding}); the public [holder] records are built only by the
   cold callers (race logging, key sharing, the validator).

   Releases keep two records per key: the latest release, and the
   latest release by a thread other than the latest releaser, [-1] in
   [s_tid] meaning none.  A key's release stamps never decrease, so
   these two answer {!last_release_by_other} for every thread exactly
   as one row per releaser would. *)
type slot = {
  mutable s_tid : int;
  mutable s_perm : Perm.t;
  mutable s_section : int;
  mutable s_lock : int;
  mutable s_proactive : bool;
}

type key_state = {
  mutable slots : slot array;
  mutable n : int;
  latest : slot;
  mutable latest_time : int;
  runner_up : slot; (* latest release by a thread other than [latest]'s *)
  mutable runner_up_time : int;
}

type t = { mutable keys : key_state array (* index = key *) }

let fresh_slot () =
  { s_tid = -1; s_perm = Perm.No_access; s_section = 0; s_lock = 0; s_proactive = false }

let fresh_state () =
  { slots = [||];
    n = 0;
    latest = fresh_slot ();
    latest_time = -1;
    runner_up = fresh_slot ();
    runner_up_time = -1 }

let empty = fresh_state ()

let create () = { keys = Array.make Kard_mpk.Pkey.count empty }

let state t key = if key >= 0 && key < Array.length t.keys then t.keys.(key) else empty

(* The key's own state, made on its first write. *)
let own_state t key =
  if key < 0 then invalid_arg "Key_section_map: negative key";
  if key >= Array.length t.keys then begin
    let bigger = Array.make (Dense.grow_pow2 (Array.length t.keys) key) empty in
    Array.blit t.keys 0 bigger 0 (Array.length t.keys);
    t.keys <- bigger
  end;
  let st = t.keys.(key) in
  if st != empty then st
  else begin
    let st = fresh_state () in
    t.keys.(key) <- st;
    st
  end

let holder_of s =
  { tid = s.s_tid; perm = s.s_perm; section = s.s_section; lock = s.s_lock;
    proactive = s.s_proactive }

(* Scans are top-level recursions, never local closures: without
   flambda a local [let rec] that captures variables is a heap block
   per call, and the scans below run on every section entry and exit
   or on the fault path. *)

(* Newest holding first, as the cons-list predecessor returned. *)
let rec holders_from st i acc =
  if i >= st.n then acc else holders_from st (i + 1) (holder_of st.slots.(i) :: acc)

let holders t key = holders_from (state t key) 0 []
let held_count t key = (state t key).n

let holding t key i =
  let st = state t key in
  if i < 0 || i >= st.n then
    invalid_arg (Printf.sprintf "Key_section_map.holding: k%d has no holding %d" key i);
  st.slots.(i)

let rec writer_below st i =
  if i < 0 || Perm.equal st.slots.(i).s_perm Perm.Read_write then i else writer_below st (i - 1)

let newest_writer t key =
  let st = state t key in
  writer_below st (st.n - 1)

let rec slot_from st tid i =
  if i >= st.n then -1 else if st.slots.(i).s_tid = tid then i else slot_from st tid (i + 1)

let perm_of t key ~tid =
  let st = state t key in
  let i = slot_from st tid 0 in
  if i < 0 then Perm.No_access else st.slots.(i).s_perm

let rec only_self st tid i = i >= st.n || (st.slots.(i).s_tid = tid && only_self st tid (i + 1))

let rec no_other_writer st tid i =
  i >= st.n
  || (let s = st.slots.(i) in
      (s.s_tid = tid || not (Perm.equal s.s_perm Perm.Read_write)) && no_other_writer st tid (i + 1))

let can_acquire t key ~tid perm =
  let st = state t key in
  match perm with
  | Perm.Read_write -> only_self st tid 0
  | Perm.Read_only -> no_other_writer st tid 0
  | Perm.No_access -> false

(* Shift holding [i] out, keeping the order of the others; its record
   becomes the first spare. *)
let drop_holding st i =
  let last = st.n - 1 in
  if i < last then begin
    let s = st.slots.(i) in
    Array.blit st.slots (i + 1) st.slots i (last - i);
    st.slots.(last) <- s
  end;
  st.n <- last

let push_holding st ~tid perm ~section ~lock ~proactive =
  if st.n = Array.length st.slots then
    st.slots <-
      Array.init (max 4 (2 * st.n)) (fun i -> if i < st.n then st.slots.(i) else fresh_slot ());
  let s = st.slots.(st.n) in
  s.s_tid <- tid;
  s.s_perm <- perm;
  s.s_section <- section;
  s.s_lock <- lock;
  s.s_proactive <- proactive;
  st.n <- st.n + 1

let add_holding t key ~tid perm ~section ~lock ~proactive =
  let st = own_state t key in
  let i = slot_from st tid 0 in
  if i < 0 then push_holding st ~tid perm ~section ~lock ~proactive
  else begin
    (* Upgrade (or idempotent re-acquire): the holding moves to the
       top with the joined permission and the new section/lock.  A
       holding counts as proactive only while every acquisition of it
       was — one access-driven (re)acquire means the thread really
       touched data under the key, which the idealized algorithm also
       grants. *)
    let s = st.slots.(i) in
    let joined = Perm.join s.s_perm perm and proactive = s.s_proactive && proactive in
    drop_holding st i;
    push_holding st ~tid joined ~section ~lock ~proactive
  end

let acquire t key ~tid perm ~section ~lock ~proactive =
  if not (can_acquire t key ~tid perm) then
    invalid_arg
      (Format.asprintf "Key_section_map.acquire: k%d not acquirable by t%d as %a" key tid
         Perm.pp perm);
  add_holding t key ~tid perm ~section ~lock ~proactive

let force_acquire = add_holding

let copy_slot dst src =
  dst.s_tid <- src.s_tid;
  dst.s_perm <- src.s_perm;
  dst.s_section <- src.s_section;
  dst.s_lock <- src.s_lock;
  dst.s_proactive <- src.s_proactive

(* Whether thread [tid] releasing at [time] outranks the release [r]
   recorded at [r_time]: a later stamp, or on equal stamps the lower
   tid (canonical). *)
let outranks ~tid ~time r r_time =
  r.s_tid < 0 || time > r_time || (time = r_time && tid < r.s_tid)

(* Note the release of holding [s] at [time].  A thread that overtakes
   the latest releaser hands the latest release down to [runner_up]. *)
let note_release st s ~time =
  let tid = s.s_tid in
  if tid = st.latest.s_tid then begin
    copy_slot st.latest s;
    st.latest_time <- time
  end
  else if outranks ~tid ~time st.latest st.latest_time then begin
    copy_slot st.runner_up st.latest;
    st.runner_up_time <- st.latest_time;
    copy_slot st.latest s;
    st.latest_time <- time
  end
  else if tid = st.runner_up.s_tid || outranks ~tid ~time st.runner_up st.runner_up_time
  then begin
    copy_slot st.runner_up s;
    st.runner_up_time <- time
  end

let release t key ~tid ~time =
  let st = state t key in
  let i = slot_from st tid 0 in
  if i >= 0 then begin
    if time < st.latest_time then
      invalid_arg
        (Printf.sprintf "Key_section_map.release: k%d stamped %d after %d" key time
           st.latest_time);
    note_release st st.slots.(i) ~time;
    drop_holding st i
  end

let last_release_time t key = (state t key).latest_time

let release_by_other t key ~tid =
  let st = state t key in
  if st.latest.s_tid <> tid then st.latest else st.runner_up

let release_time_by_other t key ~tid =
  let st = state t key in
  if st.latest.s_tid <> tid then st.latest_time else st.runner_up_time

let unheld_keys t ~among = List.filter (fun key -> held_count t key = 0) among
