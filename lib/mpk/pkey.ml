type t = int

let count = 16

(* Inlined, with the error path out of line: the TLB converts its
   cached key back on every simulated access. *)
let out_of_range i = invalid_arg (Printf.sprintf "Pkey.of_int: %d outside [0, %d]" i (count - 1))
let[@inline] of_int i = if i < 0 || i >= count then out_of_range i else i

let to_int t = t
let k_def = 0
let k_ro = 14
let k_na = 15
let data_keys = List.init 13 (fun i -> i + 1)
let data_key_count = 13
let is_data_key t = t >= 1 && t <= 13
let equal = Int.equal
let compare = Int.compare
let hash t = t
let pp fmt t = Format.fprintf fmt "k%d" t

module Set = Set.Make (Int)
module Map = Map.Make (Int)
