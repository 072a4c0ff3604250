type t =
  | Random of int
  | Round_robin
  | Replay of int array

(* The pick log holds a byte per pick: tids 0-254 are that byte, and
   any other tid is [escape] followed by the tid in four little-endian
   bytes.  [recorded] decodes it once.  The replay log has its own
   versioned pick codec; this one never leaves the module. *)
let escape = 255

type state = {
  policy : t;
  rng : Random.State.t;
  log : Buffer.t;
  mutable pick_count : int;
  mutable cursor : int;
  mutable rr_last : int;
}

let start policy =
  { policy;
    rng = Random.State.make [| (match policy with Random seed -> seed | Round_robin | Replay _ -> 0) |];
    (* Small enough for the minor heap (DESIGN.md §5); the log doubles. *)
    log = Buffer.create 64;
    pick_count = 0;
    cursor = 0;
    rr_last = -1 }

let record state choice =
  if choice < escape then Buffer.add_uint8 state.log choice
  else begin
    Buffer.add_uint8 state.log escape;
    Buffer.add_int32_le state.log (Int32.of_int choice)
  end;
  state.pick_count <- state.pick_count + 1

let round_robin state runnable =
  (* The smallest runnable thread id strictly greater than the last
     pick, wrapping around. *)
  match Runnable_set.first_above runnable state.rr_last with
  | Some tid -> tid
  | None -> (
    match Runnable_set.min_elt runnable with
    | Some tid -> tid
    | None -> invalid_arg "Schedule.pick: empty runnable set")

let pick state ~runnable =
  assert (Runnable_set.cardinal runnable > 0);
  let choice =
    match state.policy with
    | Random _ ->
      (* Index into the runnable set in descending-tid order: the exact
         order of the pre-array machine's thread list (reverse spawn
         order), so seeded schedules replay bit-identically. *)
      Runnable_set.kth_largest runnable
        (Random.State.int state.rng (Runnable_set.cardinal runnable))
    | Round_robin -> round_robin state runnable
    | Replay tape ->
      if state.cursor < Array.length tape && Runnable_set.mem runnable tape.(state.cursor) then
        tape.(state.cursor)
      else round_robin state runnable
  in
  state.cursor <- state.cursor + 1;
  state.rr_last <- choice;
  record state choice;
  choice

let recorded state =
  let log = Buffer.contents state.log in
  let picks = Array.make state.pick_count 0 in
  let pos = ref 0 in
  for i = 0 to state.pick_count - 1 do
    let byte = String.get_uint8 log !pos in
    if byte < escape then begin
      picks.(i) <- byte;
      incr pos
    end
    else begin
      picks.(i) <- Int32.to_int (String.get_int32_le log (!pos + 1));
      pos := !pos + 5
    end
  done;
  picks

let pp fmt = function
  | Random seed -> Format.fprintf fmt "random(seed=%d)" seed
  | Round_robin -> Format.pp_print_string fmt "round-robin"
  | Replay tape -> Format.fprintf fmt "replay(%d picks)" (Array.length tape)
