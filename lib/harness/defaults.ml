let scale = 0.01
let seed = 42
let table_threads = 4
let explorer_scale = 0.005
let explorer_seeds = List.init 20 (fun i -> i + 1)
let serve_scale = 0.05
let serve_slo = 200_000

let serve_out = "BENCH_pr6.json"
let keys_out = "BENCH_pr8.json"
let sampling_out = "BENCH_pr9.json"

(* An environment override applies when its variable is set to
   anything but blanks.  A malformed value fails loudly, naming the
   variable and the value: falling back silently would let a CI pass
   go green with its setting never in effect. *)
let env_override name of_string =
  match Sys.getenv_opt name with
  | None -> None
  | Some s when String.trim s = "" -> None
  | Some s -> (
    match of_string s with
    | Ok v -> Some v
    | Error expected -> failwith (Printf.sprintf "$%s=%S: %s" name s expected))

(* Surrounding blanks are ignored, so a flag and its environment
   variable accept exactly the same strings. *)
let int_where ok ~expected s =
  match int_of_string_opt (String.trim s) with
  | Some n when ok n -> Ok n
  | Some _ | None -> Error ("expected " ^ expected)

let float_where ok ~expected s =
  match float_of_string_opt (String.trim s) with
  | Some r when ok r -> Ok r
  | Some _ | None -> Error ("expected " ^ expected)

(* (0, 1]: NaN and the infinities fail the comparisons. *)
let in_unit_interval r = r > 0.0 && r <= 1.0

let jobs_env = "KARD_JOBS"

let positive_int_of_string = int_where (fun n -> n >= 1) ~expected:"a positive integer"

let positive_float_of_string =
  float_where (fun r -> Float.is_finite r && r > 0.0) ~expected:"a positive finite number"

let jobs () =
  env_override jobs_env positive_int_of_string
  |> Option.value ~default:(Domain.recommended_domain_count ())

let vkeys_env = "KARD_VKEYS"

(* 0 = identity mode (the physical 13 keys, byte-identical to the
   pre-vkey detector), so the default changes nothing; a positive
   override turns the whole default-config surface virtual at that
   pool size. *)
let vkeys_of_string = int_where (fun n -> n >= 0) ~expected:"a non-negative integer"
let vkeys () = env_override vkeys_env vkeys_of_string |> Option.value ~default:0

let sampling_env = "KARD_SAMPLING"

(* 1.0 = full Kard (sampling disabled, byte-identical to the unsampled
   detector), so the default changes nothing; a rate in (0, 1] turns
   the whole default-config surface into a sampled detector at that
   rate.  Out-of-range values fail rather than clamp — a typo must not
   silently weaken detection. *)
let sampling_of_string = float_where in_unit_interval ~expected:"a rate in (0, 1]"
let scale_of_string = float_where in_unit_interval ~expected:"a scale in (0, 1]"

let sampling () = env_override sampling_env sampling_of_string |> Option.value ~default:1.0

let kard_config () =
  { Kard_core.Config.default with
    Kard_core.Config.vkeys = vkeys ();
    sampling = sampling () }
