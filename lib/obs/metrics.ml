type counter = { mutable c : int }

type histogram = {
  buckets : int array; (* length bounds + 1; last is overflow *)
  mutable h_count : int;
  mutable h_total : int;
  mutable h_min : int;
  mutable h_max : int;
}

type t = {
  counters : (string, counter) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
  windows : (string, Window.t) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
    windows = Hashtbl.create 4 }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
    let c = { c = 0 } in
    Hashtbl.replace t.counters name c;
    c

let incr ?(by = 1) c = c.c <- c.c + by
let counter_value c = c.c

(* Every histogram's ascending upper bounds: powers of two from 1 to
   2^30, one relative-error band per doubling, enough reach for cycle
   latencies. *)
let bounds = Array.init 31 (fun i -> 1 lsl i)

let histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
    let h =
      { buckets = Array.make (Array.length bounds + 1) 0;
        h_count = 0;
        h_total = 0;
        h_min = max_int;
        h_max = min_int }
    in
    Hashtbl.replace t.histograms name h;
    h

let bucket_index v =
  let n = Array.length bounds in
  let rec search lo hi =
    (* First bound >= v, or the overflow bucket. *)
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if bounds.(mid) >= v then search lo mid else search (mid + 1) hi
  in
  search 0 n

let observe h v =
  let v = max 0 v in
  h.buckets.(bucket_index v) <- h.buckets.(bucket_index v) + 1;
  h.h_count <- h.h_count + 1;
  h.h_total <- h.h_total + v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

let percentile h q =
  if h.h_count = 0 then 0.
  else begin
    let target = q *. float_of_int h.h_count in
    let n = Array.length h.buckets in
    (* Walk to the bucket containing the target rank. *)
    let rec walk i cum =
      if i >= n - 1 then (i, cum)
      else if float_of_int (cum + h.buckets.(i)) >= target then (i, cum)
      else walk (i + 1) (cum + h.buckets.(i))
    in
    let i, before = walk 0 0 in
    let in_bucket = h.buckets.(i) in
    let lo = if i = 0 then 0. else float_of_int bounds.(i - 1) in
    let hi =
      if i < Array.length bounds then float_of_int bounds.(i) else float_of_int h.h_max
    in
    let est =
      if in_bucket = 0 then lo
      else lo +. ((hi -. lo) *. ((target -. float_of_int before) /. float_of_int in_bucket))
    in
    (* The estimate cannot leave the observed range. *)
    Float.min (float_of_int h.h_max) (Float.max (float_of_int h.h_min) est)
  end

type summary = {
  count : int;
  total : int;
  min : int;
  max : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  p999 : float;
}

let summary h =
  if h.h_count = 0 then
    { count = 0; total = 0; min = 0; max = 0; mean = 0.; p50 = 0.; p95 = 0.; p99 = 0.;
      p999 = 0. }
  else
    { count = h.h_count;
      total = h.h_total;
      min = h.h_min;
      max = h.h_max;
      mean = float_of_int h.h_total /. float_of_int h.h_count;
      p50 = percentile h 0.50;
      p95 = percentile h 0.95;
      p99 = percentile h 0.99;
      p999 = percentile h 0.999 }

let sorted_bindings tbl f =
  Hashtbl.fold (fun name v acc -> (name, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let default_window_width = 1 lsl 20

let window t ?(width = default_window_width) name =
  match Hashtbl.find_opt t.windows name with
  | Some w -> w
  | None ->
    let w = Window.create ~width () in
    Hashtbl.replace t.windows name w;
    w

let counters t = sorted_bindings t.counters counter_value
let histograms t = sorted_bindings t.histograms summary
let windows t = sorted_bindings t.windows (fun w -> w)

let is_empty t =
  Hashtbl.length t.counters = 0 && Hashtbl.length t.histograms = 0
  && Hashtbl.length t.windows = 0

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter (fun (name, v) -> Format.fprintf fmt "%-28s %d@," name v) (counters t);
  List.iter
    (fun (name, s) ->
      Format.fprintf fmt "%-28s n=%d mean=%.1f p50=%.0f p95=%.0f p99=%.0f p99.9=%.0f max=%d@,"
        name s.count s.mean s.p50 s.p95 s.p99 s.p999 s.max)
    (histograms t);
  List.iter
    (fun (name, w) ->
      let o = Window.overall w in
      Format.fprintf fmt "%-28s n=%d windows=%d p50=%d p99=%d p99.9=%d max=%d@," name
        o.Window.count
        (List.length (Window.rows w))
        o.Window.p50 o.Window.p99 o.Window.p999 o.Window.max)
    (windows t);
  Format.fprintf fmt "@]"
