(* Lock ids are small dense ints chosen by workloads, so lock state
   lives in an id-indexed array (grown by doubling) and waiter queues
   are int rings — every operation here sits on the machine's
   lock/unlock path and none of it may hash or allocate per call. *)

type lock_state = {
  mutable owner : int; (* -1 = free *)
  waiters : Dense.Int_ring.t;
  (* Cycles charged to the owners of this lock while it had waiters;
     a waiter's stall is the growth of this counter while it waits. *)
  mutable dilated : int;
}

type t = {
  mutable locks : lock_state option array; (* index = lock id *)
  (* Per-tid stack of owned locks, most recent last: slot [tid] of
     [held] holds [held_n.(tid)] live entries. *)
  mutable held : int array array;
  mutable held_n : int array;
  mutable contended : int;
  mutable total : int;
}

type acquire_result =
  | Acquired
  | Must_wait

let create () =
  { locks = Array.make 64 None;
    held = Array.make 16 [||];
    held_n = Array.make 16 0;
    contended = 0;
    total = 0 }

let state_of t lock =
  if lock < 0 then invalid_arg (Printf.sprintf "Lock_table: negative lock id %d" lock);
  if lock >= Array.length t.locks then begin
    let bigger = Array.make (Dense.grow_pow2 (Array.length t.locks) lock) None in
    Array.blit t.locks 0 bigger 0 (Array.length t.locks);
    t.locks <- bigger
  end;
  match t.locks.(lock) with
  | Some s -> s
  | None ->
    let s = { owner = -1; waiters = Dense.Int_ring.create (); dilated = 0 } in
    t.locks.(lock) <- Some s;
    s

let ensure_tid t tid =
  if tid >= Array.length t.held then begin
    let cap = Dense.grow_pow2 (Array.length t.held) tid in
    let held = Array.make cap [||] in
    Array.blit t.held 0 held 0 (Array.length t.held);
    t.held <- held;
    let held_n = Array.make cap 0 in
    Array.blit t.held_n 0 held_n 0 (Array.length t.held_n);
    t.held_n <- held_n
  end

(* The per-tid held index mirrors [owner] exactly; nesting depths are
   tiny, so the stack operations are O(locks held by one thread), not
   O(all locks) — this is what lets [dilate] charge a holder's waiters
   without scanning every lock per charge. *)
let note_owned t ~lock ~tid =
  ensure_tid t tid;
  let n = t.held_n.(tid) in
  if n = Array.length t.held.(tid) then begin
    let bigger = Array.make (max 4 (2 * n)) 0 in
    Array.blit t.held.(tid) 0 bigger 0 n;
    t.held.(tid) <- bigger
  end;
  t.held.(tid).(n) <- lock;
  t.held_n.(tid) <- n + 1

(* Top level rather than local to [note_released]: without flambda a
   local [let rec] capturing variables is a heap block per unlock. *)
let rec find_held (stk : int array) n (lock : int) i =
  if i >= n then -1 else if stk.(i) = lock then i else find_held stk n lock (i + 1)

let note_released t ~lock ~tid =
  if tid < Array.length t.held then begin
    let stk = t.held.(tid) in
    let n = t.held_n.(tid) in
    let i = find_held stk n lock 0 in
    if i >= 0 then begin
      for j = i to n - 2 do
        stk.(j) <- stk.(j + 1)
      done;
      t.held_n.(tid) <- n - 1
    end
  end

let acquire t ~lock ~tid =
  let s = state_of t lock in
  t.total <- t.total + 1;
  if s.owner = -1 then begin
    s.owner <- tid;
    note_owned t ~lock ~tid;
    Acquired
  end
  else if s.owner = tid then
    invalid_arg (Printf.sprintf "Lock_table.acquire: thread %d re-locks lock %d" tid lock)
  else begin
    t.contended <- t.contended + 1;
    Dense.Int_ring.push s.waiters tid;
    Must_wait
  end

let release t ~lock ~tid =
  let s = state_of t lock in
  if s.owner = tid then ()
  else if s.owner >= 0 then
    invalid_arg
      (Printf.sprintf "Lock_table.release: thread %d releases lock %d owned by %d" tid lock s.owner)
  else invalid_arg (Printf.sprintf "Lock_table.release: thread %d releases free lock %d" tid lock);
  note_released t ~lock ~tid;
  if Dense.Int_ring.length s.waiters = 0 then begin
    s.owner <- -1;
    None
  end
  else begin
    let next = Dense.Int_ring.pop s.waiters in
    s.owner <- next;
    note_owned t ~lock ~tid:next;
    Some next
  end

let dilate t ~tid cycles =
  let waiters = ref 0 in
  if tid < Array.length t.held then begin
    let stk = t.held.(tid) in
    for i = 0 to t.held_n.(tid) - 1 do
      match t.locks.(stk.(i)) with
      | Some s ->
        let n = Dense.Int_ring.length s.waiters in
        if n > 0 then begin
          s.dilated <- s.dilated + cycles;
          waiters := !waiters + n
        end
      | None -> ()
    done
  end;
  !waiters

let dilation t ~lock =
  if lock < 0 || lock >= Array.length t.locks then 0
  else match t.locks.(lock) with Some s -> s.dilated | None -> 0

let contended_acquires t = t.contended
let total_acquires t = t.total
