let scale = 0.01
let seed = 42
let table_threads = 4
let explorer_scale = 0.005
let explorer_seeds = List.init 20 (fun i -> i + 1)
let throughput_scale = 0.05
let serve_scale = 0.05
let serve_slo = 200_000

let throughput_out = "BENCH_pr4.json"
let parallel_out = "BENCH_pr3.json"
let serve_out = "BENCH_pr6.json"
let keys_out = "BENCH_pr8.json"
let sampling_out = "BENCH_pr9.json"
let record_out = "BENCH_pr10.json"

(* An environment override applies when its variable is set to
   anything but blanks.  A malformed value fails loudly, naming the
   variable and the value: falling back silently would let a CI pass
   go green with its setting never in effect. *)
let env_override name ~expected parse =
  match Sys.getenv_opt name with
  | None -> None
  | Some s -> (
    match String.trim s with
    | "" -> None
    | t -> (
      match parse t with
      | Some v -> Some v
      | None -> failwith (Printf.sprintf "$%s=%S: expected %s" name s expected)))

let jobs_env = "KARD_JOBS"

let jobs () =
  env_override jobs_env ~expected:"a positive integer" (fun s ->
      match int_of_string_opt s with Some n when n >= 1 -> Some n | Some _ | None -> None)
  |> Option.value ~default:(Domain.recommended_domain_count ())

let vkeys_env = "KARD_VKEYS"

(* 0 = identity mode (the physical 13 keys, byte-identical to the
   pre-vkey detector), so the default changes nothing; a positive
   override turns the whole default-config surface virtual at that
   pool size. *)
let vkeys () =
  env_override vkeys_env ~expected:"a non-negative integer" (fun s ->
      match int_of_string_opt s with Some n when n >= 0 -> Some n | Some _ | None -> None)
  |> Option.value ~default:0

let sampling_env = "KARD_SAMPLING"

(* 1.0 = full Kard (sampling disabled, byte-identical to the unsampled
   detector), so the default changes nothing; an override in (0, 1]
   turns the whole default-config surface into a sampled detector at
   that rate.  Out-of-range values fail rather than clamp — a typo
   must not silently weaken detection. *)
let sampling () =
  env_override sampling_env ~expected:"a rate in (0, 1]" (fun s ->
      match float_of_string_opt s with
      | Some r when r > 0.0 && r <= 1.0 -> Some r
      | Some _ | None -> None)
  |> Option.value ~default:1.0

let kard_config () =
  { Kard_core.Config.default with
    Kard_core.Config.vkeys = vkeys ();
    sampling = sampling () }
