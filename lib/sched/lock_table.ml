(* Lock ids are small dense ints chosen by workloads, so lock state
   lives in an id-indexed array (grown by doubling) and waiter queues
   are int rings — every operation here sits on the machine's
   lock/unlock path and none of it may hash or allocate per call. *)

type lock_state = {
  mutable owner : int; (* -1 = free *)
  waiters : Dense.Int_ring.t;
  (* The stall counter: the cycles charged to the owners of this lock
     while it had waiters.  It is [closed] while the queue is empty;
     while it is not, add the owner's [charged] growth since [opened],
     its value when the queue last opened or the lock last changed
     hands. *)
  mutable closed : int;
  mutable opened : int;
}

type t = {
  mutable locks : lock_state option array; (* index = lock id *)
  (* Per tid, grown on first use: the threads waiting on the locks it
     holds, and the cycles [charge_held] charged to it. *)
  mutable waiting : int array;
  mutable charged : int array;
  mutable contended : int;
  mutable total : int;
}

type acquire_result =
  | Acquired
  | Must_wait

let create () =
  { locks = Array.make 64 None; waiting = [||]; charged = [||]; contended = 0; total = 0 }

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
    let s = { owner = -1; waiters = Dense.Int_ring.create (); closed = 0; opened = 0 } in
    t.locks.(lock) <- Some s;
    s

let ensure_tid t tid =
  if tid >= Array.length t.waiting then begin
    let cap = Dense.grow_pow2 (Array.length t.waiting) tid in
    let grow a =
      let bigger = Array.make cap 0 in
      Array.blit a 0 bigger 0 (Array.length a);
      bigger
    in
    t.waiting <- grow t.waiting;
    t.charged <- grow t.charged
  end

let acquire t ~lock ~tid =
  let s = state_of t lock in
  ensure_tid t tid;
  t.total <- t.total + 1;
  if s.owner = -1 then begin
    s.owner <- tid;
    Acquired
  end
  else if s.owner = tid then
    invalid_arg (Printf.sprintf "Lock_table.acquire: thread %d re-locks lock %d" tid lock)
  else begin
    t.contended <- t.contended + 1;
    if Dense.Int_ring.length s.waiters = 0 then s.opened <- t.charged.(s.owner);
    Dense.Int_ring.push s.waiters tid;
    t.waiting.(s.owner) <- t.waiting.(s.owner) + 1;
    Must_wait
  end

let release t ~lock ~tid =
  let s = state_of t lock in
  if s.owner = tid then ()
  else if s.owner >= 0 then
    invalid_arg
      (Printf.sprintf "Lock_table.release: thread %d releases lock %d owned by %d" tid lock s.owner)
  else invalid_arg (Printf.sprintf "Lock_table.release: thread %d releases free lock %d" tid lock);
  let n = Dense.Int_ring.length s.waiters in
  if n = 0 then begin
    s.owner <- -1;
    -1
  end
  else begin
    (* The queue hands the lock over: close the releaser's share and
       move its waiters, bar the new owner, to the new owner. *)
    s.closed <- s.closed + t.charged.(tid) - s.opened;
    t.waiting.(tid) <- t.waiting.(tid) - n;
    let next = Dense.Int_ring.pop s.waiters in
    s.owner <- next;
    s.opened <- t.charged.(next);
    t.waiting.(next) <- t.waiting.(next) + n - 1;
    next
  end

let[@inline] charge_held t ~tid cycles =
  if tid < Array.length t.charged then begin
    t.charged.(tid) <- t.charged.(tid) + cycles;
    t.waiting.(tid)
  end
  else 0

let dilation t ~lock =
  if lock < 0 || lock >= Array.length t.locks then 0
  else
    match t.locks.(lock) with
    | Some s when Dense.Int_ring.length s.waiters > 0 ->
      s.closed + t.charged.(s.owner) - s.opened
    | Some s -> s.closed
    | None -> 0

let contended_acquires t = t.contended
let total_acquires t = t.total
