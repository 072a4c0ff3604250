(* The sampling policy (DESIGN.md §12): a pure, seeded decision
   procedure for which objects are under pkey protection.

   Everything here is arithmetic over (seed, rate, epoch, object id) —
   no mutable state, no clock reads, no randomness beyond the salt.
   The detector asks [sampled] at the few points where an object's
   protection status matters (allocation, section entry, fault drain);
   because the answer is a pure function of values that are identical
   at any --jobs count, the sampled set — and hence every
   report — is byte-identical across parallelism settings.

   The hash is one round of SplitMix64-style finalization over the
   mixed (seed, id) word, giving every object a fixed position on a
   2^20-point ring; an id is sampled when its position falls inside a
   window of width [rate * 2^20].  Rotation slides the window by a
   small fixed fraction of the ring per epoch (HardRace-style set
   rotation, but incremental): the protected fraction stays at [rate]
   in every epoch, an object stays sampled for many consecutive
   epochs once drawn, and the whole ring — every object — is covered
   after one window revolution (>= 128 epochs).  The window matters
   for cost, not just coverage: an independent per-epoch re-draw
   would turn over 2*rate*(1-rate) of the population per rotation
   (half of it at rate 0.5), and every membership flip costs retags
   and a re-identification fault — the churn would exceed what
   sampling saves.  The sliding window bounds churn per epoch to
   2*min(rate, 1/128) of the population, entering and leaving
   combined, so rotation stays a small constant tax on top of the
   steady-state cost that scales with the rate. *)

type t = {
  enabled : bool;
  threshold : int;   (* rate in 1/2^20 units; compare is [hash < threshold] *)
  seed : int;
  epoch_cycles : int; (* 0 = no rotation *)
  rate : float;
}

let fixed_point_bits = 20
let fixed_point_one = 1 lsl fixed_point_bits

let create ~rate ~epoch_cycles ~seed =
  if not (rate > 0.0 && rate <= 1.0) then
    invalid_arg "Sampling.create: rate must be in (0, 1]";
  if epoch_cycles < 0 then invalid_arg "Sampling.create: negative epoch";
  let threshold =
    let t = int_of_float (ceil (rate *. float_of_int fixed_point_one)) in
    min fixed_point_one (max 1 t)
  in
  { enabled = rate < 1.0; threshold; seed; epoch_cycles; rate }

let of_config (c : Config.t) =
  create ~rate:c.Config.sampling ~epoch_cycles:c.Config.sampling_epoch
    ~seed:c.Config.sampling_seed

let enabled t = t.enabled
let rate t = t.rate
let epoch_cycles t = t.epoch_cycles

let epoch_of t ~now = if t.epoch_cycles <= 0 then 0 else now / t.epoch_cycles

(* SplitMix64's finalizer on OCaml's 63-bit ints (the multipliers are
   the 64-bit constants wrapped to 63 bits); empirically unbiased over
   the low 20 bits for the dense ids fed here. *)
let m1 = 0x3f58476d1ce4e5b9
let m2 = 0x14d049bb133111eb
let golden = 0x1e3779b97f4a7c15

let finalize z =
  let z = (z lxor (z lsr 30)) * m1 in
  let z = (z lxor (z lsr 27)) * m2 in
  (z lxor (z lsr 31)) land max_int

(* The id's fixed position on the ring. *)
let position t v = finalize ((v * golden) + t.seed) land (fixed_point_one - 1)

(* Window advance per epoch: 1/128 of the ring, capped at the window
   width so tiny windows still tile the whole ring, never 0.  Every
   object an advance draws in pays a re-identification fault at its
   next access, so churn per epoch — 2 * min(rate, 1/128) of the live
   population, entering and leaving combined — is what rotation costs;
   the 1/128 cap keeps that cost independent of the sampling rate (a
   revolution takes at least 128 epochs) while a full revolution still
   covers every id. *)
let step t = max 1 (min t.threshold (fixed_point_one lsr 7))

let in_window t ~epoch pos =
  let lo = epoch * step t land (fixed_point_one - 1) in
  (pos - lo) land (fixed_point_one - 1) < t.threshold

let sampled_obj t ~epoch ~obj_id =
  (not t.enabled) || in_window t ~epoch (position t (2 * obj_id))

(* Section-entry decision: sections are sampled by their identity
   (call site or lock), independently of the objects they touch — an
   unsampled section skips the entry walk and WRPKRU entirely, and
   faults cannot occur inside it on unsampled objects because those
   pages carry the default key. *)
let sampled_section t ~epoch ~section =
  (not t.enabled) || in_window t ~epoch (position t ((2 * section) + 1))

let pp fmt t =
  if not t.enabled then Format.fprintf fmt "off"
  else
    Format.fprintf fmt "@[<h>rate=%g epoch=%d seed=%#x@]" t.rate t.epoch_cycles
      t.seed
