type span = {
  id : int;
  lane : int;
  name : string;
  start : int;
  stop : int;
}

(* Open spans are indexed by id; closed spans accumulate in close
   order (which is deterministic per run: the simulated schedule fixes
   it).  Requests are the intended cardinality — thousands, not
   millions — so a hashtable plus a reversed list is enough. *)
type t = {
  open_ : (int, int * int * string) Hashtbl.t; (* id -> lane, start, name *)
  mutable closed_rev : span list;
  mutable closed_count : int;
  mutable dropped_closes : int;
}

let create () =
  { open_ = Hashtbl.create 64; closed_rev = []; closed_count = 0; dropped_closes = 0 }

let open_ t ~id ~lane ~name ~ts = Hashtbl.replace t.open_ id (lane, ts, name)

let close t ~id ~ts =
  match Hashtbl.find_opt t.open_ id with
  | None -> t.dropped_closes <- t.dropped_closes + 1
  | Some (lane, start, name) ->
    Hashtbl.remove t.open_ id;
    t.closed_rev <- { id; lane; name; start; stop = max start ts } :: t.closed_rev;
    t.closed_count <- t.closed_count + 1

let closed t = List.rev t.closed_rev
let closed_count t = t.closed_count
let open_count t = Hashtbl.length t.open_
let dropped_closes t = t.dropped_closes
let duration s = s.stop - s.start
