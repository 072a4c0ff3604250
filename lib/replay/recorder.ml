module Hooks = Kard_sched.Hooks

type t = {
  writer : Log.writer;
  anchor_interval : int;
}

let default_anchor_interval = 64

let create ?(anchor_interval = default_anchor_interval) () =
  if anchor_interval < 1 then invalid_arg "Recorder.create: anchor_interval must be positive";
  { writer = Log.writer (); anchor_interval }

let wrap t (env : Hooks.env) (hooks : Hooks.t) =
  (* [access] is inherited: the recorder intercepts only the pick and
     lock hooks, so a recorded run takes the same access path as an
     unrecorded one.  Picks are logged at pick time with no clock
     read; grants, and the anchors that carry the clock, at
     [on_lock]. *)
  let w = t.writer in
  { hooks with
    Hooks.on_pick =
      (fun ~tid ->
        Log.write_pick w tid;
        hooks.Hooks.on_pick ~tid);
    on_lock =
      (fun ~tid ~lock ~site ->
        Log.write_grant w ~lock ~tid;
        if Log.written_grants w mod t.anchor_interval = 0 then
          Log.write_anchor w ~picks:(Log.written_picks w) ~clock:(env.Hooks.now ());
        hooks.Hooks.on_lock ~tid ~lock ~site) }

let log t ~header = Log.contents t.writer ~header
