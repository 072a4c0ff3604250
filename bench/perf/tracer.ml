(* The traced pass: wrap the detector's hooks, time every call the
   machine makes into the detector, and time each [on_pick] to
   [on_pick] interval, which is one whole simulated step.  Everything is
   measured from outside the library.

   The per-access hooks are not wrapped: Kard's are pure no-ops, and
   timing them would double the tracing cost for nothing. *)

module Hooks = Kard_sched.Hooks
module Hist = Quantile.Hist

let clock = Workload.now_ns

(* Call kinds: index into the histograms and span names. *)
let k_step = 0
let k_pick = 1
let k_lock = 2
let k_unlock = 3
let k_fault = 4
let k_alloc = 5
let k_free = 6
let k_other = 7
let kind_names = [| "step"; "on_pick"; "on_lock"; "on_unlock"; "on_fault"; "on_alloc"; "on_free"; "other" |]

(* Bounded span buffer, filled from the first traced run on and
   written out at exit. *)
let span_capacity = 20_000

type spans = {
  kind : int array;
  start : int array;
  dur : int array;
  step : int array;
  mutable len : int;
}

type t = {
  hists : Hist.t array;  (** Durations by kind. *)
  mutable hook_ns : int;  (** Hook time inside steps. *)
  mutable step_start : int;  (** [-1] outside a run. *)
  mutable step_id : int;
  spans : spans;
}

let create () =
  { hists = Array.init (Array.length kind_names) (fun _ -> Hist.create ());
    hook_ns = 0;
    step_start = -1;
    step_id = 0;
    spans =
      { kind = Array.make span_capacity 0;
        start = Array.make span_capacity 0;
        dur = Array.make span_capacity 0;
        step = Array.make span_capacity 0;
        len = 0 } }

(* Calls outside any step (the set-up's spawns and globals) carry step
   id 0, which no step has. *)
let span t kind t0 d =
  let s = t.spans in
  if s.len < span_capacity then begin
    s.kind.(s.len) <- kind;
    s.start.(s.len) <- t0;
    s.dur.(s.len) <- d;
    s.step.(s.len) <- (if t.step_start >= 0 then t.step_id else 0);
    s.len <- s.len + 1
  end

(* [on_pick] gets no span of its own: it starts every step, and its
   span would halve the steps the buffer holds. *)
let hook t kind t0 =
  let d = clock () - t0 in
  Hist.add t.hists.(kind) d;
  if t.step_start >= 0 then t.hook_ns <- t.hook_ns + d;
  if kind <> k_pick then span t kind t0 d

let close_step t now =
  if t.step_start >= 0 then begin
    let d = now - t.step_start in
    Hist.add t.hists.(k_step) d;
    span t k_step t.step_start d
  end

let wrap t (_ : Hooks.env) (h : Hooks.t) =
  let timed kind t0 c =
    hook t kind t0;
    c
  in
  { h with
    Hooks.on_pick =
      (fun ~tid ->
        let t0 = clock () in
        close_step t t0;
        t.step_start <- t0;
        t.step_id <- t.step_id + 1;
        h.Hooks.on_pick ~tid;
        hook t k_pick t0);
    on_spawn = (fun ~tid -> let t0 = clock () in timed k_other t0 (h.Hooks.on_spawn ~tid));
    on_global = (fun meta -> let t0 = clock () in timed k_other t0 (h.Hooks.on_global meta));
    on_alloc = (fun ~tid meta -> let t0 = clock () in timed k_alloc t0 (h.Hooks.on_alloc ~tid meta));
    on_free = (fun ~tid meta -> let t0 = clock () in timed k_free t0 (h.Hooks.on_free ~tid meta));
    on_lock =
      (fun ~tid ~lock ~site -> let t0 = clock () in timed k_lock t0 (h.Hooks.on_lock ~tid ~lock ~site));
    on_unlock =
      (fun ~tid ~lock -> let t0 = clock () in timed k_unlock t0 (h.Hooks.on_unlock ~tid ~lock));
    on_fault = (fun fault -> let t0 = clock () in timed k_fault t0 (h.Hooks.on_fault fault));
    on_thread_exit =
      (fun ~tid -> let t0 = clock () in timed k_other t0 (h.Hooks.on_thread_exit ~tid));
    on_finish =
      (fun () ->
        close_step t (clock ());
        t.step_start <- -1;
        h.Hooks.on_finish ()) }

(* {1 Per-layer metrics} *)

let step_count t = Hist.count t.hists.(k_step)
let step_ns t = Hist.sum t.hists.(k_step)

let self_ns_per_step t =
  float_of_int (step_ns t - t.hook_ns) /. float_of_int (max 1 (step_count t))

let hook_share t = float_of_int t.hook_ns /. float_of_int (max 1 (step_ns t))

let p50 h = if Hist.count h = 0 then None else Some (float_of_int (Hist.percentile h 50.))
let p99 h = Option.map float_of_int (Hist.tail h 99.)

(* [None] where a workload never made the call, or too few calls for
   the percentile. *)
let metrics t =
  let hook name kind =
    let h = t.hists.(kind) in
    [ (name ^ "_ns_p50", p50 h);
      (name ^ "_ns_p99", p99 h);
      (name ^ "_ns_count", Some (float_of_int (Hist.count h))) ]
  in
  let mean kind = let h = t.hists.(kind) in if Hist.count h = 0 then None else Some (Hist.mean h) in
  [ ("machine.step_ns_p50", p50 t.hists.(k_step));
    ("machine.step_ns_p99", p99 t.hists.(k_step));
    ("machine.self_ns_per_step", Some (self_ns_per_step t));
    ("detector.hook_share", Some (hook_share t)) ]
  @ hook "detector.on_lock" k_lock
  @ hook "detector.on_unlock" k_unlock
  @ hook "detector.on_fault" k_fault
  @ [ ("detector.on_alloc_ns_mean", mean k_alloc); ("detector.on_free_ns_mean", mean k_free) ]

(* {1 Chrome trace} *)

(* One track per workload; step spans are the parents, hook spans the
   children that share their step id.  Timestamps are host
   microseconds. *)
let chrome_json (tracks : (string * t) list) =
  let b = Buffer.create (1 lsl 20) in
  let origin =
    List.fold_left
      (fun m (_, t) ->
        let s = t.spans in
        let rec lo i m = if i = s.len then m else lo (i + 1) (min m s.start.(i)) in
        lo 0 m)
      max_int tracks
  in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let event s =
    if not !first then Buffer.add_string b ",\n";
    first := false;
    Buffer.add_string b s
  in
  List.iteri
    (fun tid (name, t) ->
      event
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
           tid name);
      let s = t.spans in
      for i = 0 to s.len - 1 do
        event
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d,\"args\":{\"step\":%d}}"
             kind_names.(s.kind.(i))
             (if s.kind.(i) = k_step then "machine" else "detector")
             (float_of_int (s.start.(i) - origin) /. 1e3)
             (float_of_int s.dur.(i) /. 1e3)
             tid s.step.(i))
      done)
    tracks;
  Buffer.add_string b "]}\n";
  Buffer.contents b
