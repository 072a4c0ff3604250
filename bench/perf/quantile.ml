(* Order statistics for the benchmark's samples. *)

let percentile xs q = Kard_harness.Stats.percentile xs q
let median xs = percentile xs 50.

(* A percentile is only trusted when at least this many samples lie
   above it, so a p99 needs about 1,000 samples. *)
let min_beyond = 10

let tail xs q =
  let v = percentile xs q in
  let beyond = List.fold_left (fun n x -> if x > v then n + 1 else n) 0 xs in
  if beyond >= min_beyond then Some v else None

type spread = { p25 : float; p50 : float; p75 : float; n : int }

let spread xs =
  { p25 = percentile xs 25.; p50 = median xs; p75 = percentile xs 75.; n = List.length xs }

(* Interquartile range as a share of the median: the run-to-run noise
   a bound is compared against. *)
let iqr_share s = if s.p50 = 0. then 0. else (s.p75 -. s.p25) /. abs_float s.p50

(* Integer nanosecond durations at 1 ns resolution below [cap] (16 µs);
   the rarer longer ones are kept exactly in a side list.  Adding a
   sample never allocates on the common path. *)
module Hist = struct
  let cap = 1 lsl 14

  type t = {
    counts : int array;
    mutable over : int list;
    mutable n : int;
    mutable sum : int;
  }

  let create () = { counts = Array.make cap 0; over = []; n = 0; sum = 0 }

  let add t d =
    let d = if d < 0 then 0 else d in
    if d < cap then t.counts.(d) <- t.counts.(d) + 1 else t.over <- d :: t.over;
    t.n <- t.n + 1;
    t.sum <- t.sum + d

  let count t = t.n
  let sum t = t.sum
  let mean t = if t.n = 0 then nan else float_of_int t.sum /. float_of_int t.n

  (* Nearest rank, and how many samples lie strictly above it. *)
  let rank t q =
    if t.n = 0 then invalid_arg "Hist.percentile: empty";
    let want = max 1 (int_of_float (Float.ceil (q /. 100. *. float_of_int t.n))) in
    let rec walk v seen =
      if v = cap then begin
        let over = Array.of_list t.over in
        Array.sort compare over;
        let x = over.(want - seen - 1) in
        let at_most = Array.fold_left (fun k y -> if y <= x then k + 1 else k) 0 over in
        (x, t.n - seen - at_most)
      end
      else
        let seen' = seen + t.counts.(v) in
        if seen' >= want then (v, t.n - seen') else walk (v + 1) seen'
    in
    walk 0 0

  let percentile t q = fst (rank t q)

  let tail t q =
    if t.n = 0 then None
    else
      let v, beyond = rank t q in
      if beyond >= min_beyond then Some v else None
end
