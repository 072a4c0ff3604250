module Hooks = Kard_sched.Hooks

type t = {
  mutable rev_events : Log.event list;
  mutable picks : int;
  mutable grants : int;
  anchor_interval : int;
}

let default_anchor_interval = 64

let create ?(anchor_interval = default_anchor_interval) () =
  if anchor_interval < 1 then invalid_arg "Recorder.create: anchor_interval must be positive";
  { rev_events = []; picks = 0; grants = 0; anchor_interval }

let wrap t (env : Hooks.env) (hooks : Hooks.t) =
  (* [access] is inherited: the recorder intercepts only the pick and
     lock hooks, so a run that batches cycle commits still batches
     while being recorded.  Picks are logged at pick time (no clock
     read — it may lag banked cycles); grants and anchors at
     [on_lock], a committed-clock merge point, which is what makes the
     log byte-identical whether or not the run batches. *)
  { hooks with
    Hooks.on_pick =
      (fun ~tid ->
        t.rev_events <- Log.Pick tid :: t.rev_events;
        t.picks <- t.picks + 1;
        hooks.Hooks.on_pick ~tid);
    on_lock =
      (fun ~tid ~lock ~site ->
        t.rev_events <- Log.Grant { lock; tid } :: t.rev_events;
        t.grants <- t.grants + 1;
        if t.grants mod t.anchor_interval = 0 then
          t.rev_events <-
            Log.Anchor { picks = t.picks; clock = env.Hooks.now () } :: t.rev_events;
        hooks.Hooks.on_lock ~tid ~lock ~site) }

let events t = List.rev t.rev_events
let pick_count t = t.picks
let grant_count t = t.grants
let log t ~header = { Log.header; events = events t }
