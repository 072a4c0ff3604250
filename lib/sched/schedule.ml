type t =
  | Random of int
  | Round_robin
  | Replay of int array

type state = {
  policy : t;
  rng : Random.State.t;
  mutable picks : int array; (* growable buffer; first [pick_count] live *)
  mutable pick_count : int;
  mutable cursor : int;
  mutable rr_last : int;
}

let start policy =
  { policy;
    rng = Random.State.make [| (match policy with Random seed -> seed | Round_robin | Replay _ -> 0) |];
    (* Small enough for the minor heap (DESIGN.md §5); [record] doubles. *)
    picks = Array.make 64 0;
    pick_count = 0;
    cursor = 0;
    rr_last = -1 }

let record state choice =
  let cap = Array.length state.picks in
  if state.pick_count = cap then begin
    let bigger = Array.make (2 * cap) 0 in
    Array.blit state.picks 0 bigger 0 cap;
    state.picks <- bigger
  end;
  state.picks.(state.pick_count) <- choice;
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

let recorded state = Array.sub state.picks 0 state.pick_count

let pp fmt = function
  | Random seed -> Format.fprintf fmt "random(seed=%d)" seed
  | Round_robin -> Format.pp_print_string fmt "round-robin"
  | Replay tape -> Format.fprintf fmt "replay(%d picks)" (Array.length tape)
