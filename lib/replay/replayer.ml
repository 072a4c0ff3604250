module Hooks = Kard_sched.Hooks
module Schedule = Kard_sched.Schedule

type mode =
  | Strict
  | Schedule_only

type violation = {
  at : string;
  expected : string;
  actual : string;
}

let pp_violation fmt v =
  Format.fprintf fmt "@[<h>%s: expected %s, got %s@]" v.at v.expected v.actual

(* Flat int arrays, filled by one walk of the log's bytes: grant [g]
   is [(grant_locks.(g), grant_tids.(g))], and anchor [a] was recorded
   once [anchor_grants.(a)] grants had been made. *)
type t = {
  mode : mode;
  picks : int array;
  grant_locks : int array;
  grant_tids : int array;
  anchor_grants : int array;
  anchor_picks : int array;
  anchor_clocks : int array;
  mutable pick_cursor : int;
  mutable grant_cursor : int;
  mutable anchor_cursor : int;
  mutable rev_violations : violation list;
  max_violations : int;
}

let create ?(mode = Strict) (log : Log.t) =
  let picks = Array.make (Log.pick_count log) 0 in
  let grant_locks = Array.make (Log.grant_count log) 0 in
  let grant_tids = Array.make (Log.grant_count log) 0 in
  let anchor_grants = Array.make (Log.anchor_count log) 0 in
  let anchor_picks = Array.make (Log.anchor_count log) 0 in
  let anchor_clocks = Array.make (Log.anchor_count log) 0 in
  let pi = ref 0 and gi = ref 0 and ai = ref 0 in
  Log.iter log
    ~pick:(fun tid ->
      picks.(!pi) <- tid;
      incr pi)
    ~grant:(fun ~lock ~tid ->
      grant_locks.(!gi) <- lock;
      grant_tids.(!gi) <- tid;
      incr gi)
    ~anchor:(fun ~picks:p ~clock ->
      anchor_grants.(!ai) <- !gi;
      anchor_picks.(!ai) <- p;
      anchor_clocks.(!ai) <- clock;
      incr ai);
  { mode;
    picks;
    grant_locks;
    grant_tids;
    anchor_grants;
    anchor_picks;
    anchor_clocks;
    pick_cursor = 0;
    grant_cursor = 0;
    anchor_cursor = 0;
    rev_violations = [];
    max_violations = 16 }

let schedule t = Schedule.Replay t.picks

let record_violation t ~at ~expected ~actual =
  if List.length t.rev_violations < t.max_violations then
    t.rev_violations <- { at; expected; actual } :: t.rev_violations

let wrap t (env : Hooks.env) (hooks : Hooks.t) =
  { hooks with
    Hooks.on_pick =
      (fun ~tid ->
        let i = t.pick_cursor in
        t.pick_cursor <- i + 1;
        if i >= Array.length t.picks then
          record_violation t
            ~at:(Printf.sprintf "pick %d" i)
            ~expected:(Printf.sprintf "end of tape (%d picks)" (Array.length t.picks))
            ~actual:(Printf.sprintf "tid %d" tid)
        else if t.picks.(i) <> tid then
          (* [Schedule.Replay] fell back to round-robin: the replayed
             machine's runnable set diverged from the recording. *)
          record_violation t
            ~at:(Printf.sprintf "pick %d" i)
            ~expected:(Printf.sprintf "tid %d" t.picks.(i))
            ~actual:(Printf.sprintf "tid %d" tid);
        hooks.Hooks.on_pick ~tid);
    on_lock =
      (fun ~tid ~lock ~site ->
        let g = t.grant_cursor in
        t.grant_cursor <- g + 1;
        (if g >= Array.length t.grant_locks then
           record_violation t
             ~at:(Printf.sprintf "grant %d" g)
             ~expected:(Printf.sprintf "end of grants (%d recorded)" (Array.length t.grant_locks))
             ~actual:(Printf.sprintf "lock %d to tid %d" lock tid)
         else if t.grant_locks.(g) <> lock || t.grant_tids.(g) <> tid then
           record_violation t
             ~at:(Printf.sprintf "grant %d" g)
             ~expected:(Printf.sprintf "lock %d to tid %d" t.grant_locks.(g) t.grant_tids.(g))
             ~actual:(Printf.sprintf "lock %d to tid %d" lock tid));
        (* Anchors were recorded immediately after their grant, so
           verify every anchor keyed to the now-current grant count. *)
        while
          t.anchor_cursor < Array.length t.anchor_grants
          && t.anchor_grants.(t.anchor_cursor) = t.grant_cursor
        do
          let a = t.anchor_cursor in
          t.anchor_cursor <- a + 1;
          if t.anchor_picks.(a) <> t.pick_cursor then
            record_violation t
              ~at:(Printf.sprintf "anchor after grant %d" t.anchor_grants.(a))
              ~expected:(Printf.sprintf "%d picks" t.anchor_picks.(a))
              ~actual:(Printf.sprintf "%d picks" t.pick_cursor);
          (* The clock half only holds when the replay runs the same
             detector configuration: cycle charges differ otherwise. *)
          match t.mode with
          | Schedule_only -> ()
          | Strict ->
            let now = env.Hooks.now () in
            if t.anchor_clocks.(a) <> now then
              record_violation t
                ~at:(Printf.sprintf "anchor after grant %d" t.anchor_grants.(a))
                ~expected:(Printf.sprintf "clock %d" t.anchor_clocks.(a))
                ~actual:(Printf.sprintf "clock %d" now)
        done;
        hooks.Hooks.on_lock ~tid ~lock ~site) }

let violations t = List.rev t.rev_violations

let check t =
  let leftovers =
    (if t.pick_cursor < Array.length t.picks then
       [ { at = "end of run";
           expected = Printf.sprintf "%d picks" (Array.length t.picks);
           actual = Printf.sprintf "%d picks" t.pick_cursor } ]
     else [])
    @
    if t.grant_cursor < Array.length t.grant_locks then
      [ { at = "end of run";
          expected = Printf.sprintf "%d grants" (Array.length t.grant_locks);
          actual = Printf.sprintf "%d grants" t.grant_cursor } ]
    else []
  in
  match violations t @ leftovers with
  | [] -> Ok ()
  | vs ->
    Error
      (Format.asprintf "@[<v>%a@]"
         (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_violation)
         vs)
