module Machine = Kard_sched.Machine
module Program = Kard_sched.Program
module Op = Kard_sched.Op
module Obj_meta = Kard_alloc.Obj_meta
module Builder = Kard_workloads.Builder

type op =
  | Read of { slot : int; off : int }
  | Write of { slot : int; off : int }
  | Rmw of { slot : int; off : int }
  | Compute of int
  | Yield
  | Locked of { lock : int; site : int; body : op list }
  | Repeat of { times : int; body : op list }

type phase = {
  refresh : int list;
  work : op list array;
}

type t = {
  workers : int;
  slots : int;
  locks : int;
  slot_size : int;
  phases : phase list;
}

(* Call sites for critical sections; independent of the lock index so
   consistent and inconsistent locking both arise. *)
let max_sites = 8

(* Id-space offsets keeping machine-level lock ids, section sites and
   allocation sites disjoint. *)
let lock_id l = 200 + l
let lock_site s = 10 + s
let alloc_site slot = 1000 + slot

(* {1 Validation} *)

let check p =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let rec check_ops ~innermost = function
    | [] -> Ok ()
    | op :: rest -> (
      let r =
        match op with
        | Read { slot; off } | Write { slot; off } | Rmw { slot; off } ->
          if slot < 0 || slot >= p.slots then err "slot %d out of range" slot
          else if off < 0 || off >= p.slot_size then err "offset %d out of range" off
          else Ok ()
        | Compute n -> if n < 0 then err "negative compute" else Ok ()
        | Yield -> Ok ()
        | Locked { lock; site; body } ->
          if lock < 0 || lock >= p.locks then err "lock %d out of range" lock
          else if site < 0 || site >= max_sites then err "site %d out of range" site
          else if lock <= innermost then
            err "lock %d violates ordered nesting under %d" lock innermost
          else check_ops ~innermost:lock body
        | Repeat { times; body } ->
          if times < 1 then err "repeat of %d" times else check_ops ~innermost body
      in
      match r with Ok () -> check_ops ~innermost rest | Error _ -> r)
  in
  if p.workers < 1 then err "workers < 1"
  else if p.slots < 1 then err "slots < 1"
  else if p.locks < 1 then err "locks < 1"
  else if p.slot_size < 1 then err "slot_size < 1"
  else if p.phases = [] then err "no phases"
  else
    let rec check_phases i = function
      | [] -> Ok ()
      | ph :: rest -> (
        if Array.length ph.work <> p.workers then
          err "phase %d has %d op lists for %d workers" i (Array.length ph.work) p.workers
        else if i = 0 && ph.refresh <> [] then err "phase 0 cannot refresh"
        else if List.exists (fun s -> s < 0 || s >= p.slots) ph.refresh then
          err "phase %d refreshes a slot out of range" i
        else if List.length (List.sort_uniq compare ph.refresh) <> List.length ph.refresh then
          err "phase %d refreshes a slot twice" i
        else
          let rec over_workers w =
            if w >= p.workers then Ok ()
            else
              match check_ops ~innermost:(-1) ph.work.(w) with
              | Ok () -> over_workers (w + 1)
              | Error _ as e -> e
          in
          match over_workers 0 with Ok () -> check_phases (i + 1) rest | Error _ as e -> e)
    in
    check_phases 0 p.phases

(* {1 Generation} *)

let generate ?(pressure = `Default) ~rand () =
  let ri n = Random.State.int rand n in
  let workers = 2 + ri 3 in
  (* Bimodal: half the programs stay under the key budget, half blow
     through it (13 data keys) to force grouping/recycling/sharing.
     The vkey-rotation profile shifts both modes up — every program
     exceeds the physical keys and half go far past them (24..64 live
     objects), so a virtual pool is forced through load/evict/stall
     rotation instead of settling into residency. *)
  let slots =
    match pressure with
    | `Default -> if ri 2 = 0 then 1 + ri 6 else 14 + ri 7
    | `Vkey_rotation -> if ri 2 = 0 then 14 + ri 7 else 24 + ri 41
  in
  let locks = 1 + ri 4 in
  let slot_size = 64 in
  let gen_access () =
    let slot = ri slots in
    let off = if ri 2 = 0 then 0 else ri slot_size in
    (slot, off)
  in
  let rec gen_op ~depth ~innermost =
    let can_lock = depth < 2 && innermost < locks - 1 in
    let w = ri (if can_lock then 14 else 10) in
    if w < 3 then
      let slot, off = gen_access () in
      Read { slot; off }
    else if w < 6 then
      let slot, off = gen_access () in
      Write { slot; off }
    else if w = 6 then
      let slot, off = gen_access () in
      Rmw { slot; off }
    else if w = 7 then Compute (1 + ri 2_000)
    else if w = 8 then Yield
    else if w = 9 then
      Repeat { times = 2 + ri 2; body = gen_ops ~depth:(depth + 1) ~innermost (1 + ri 2) }
    else
      let lock = innermost + 1 + ri (locks - innermost - 1) in
      let site = ri max_sites in
      Locked { lock; site; body = gen_ops ~depth:(depth + 1) ~innermost:lock (1 + ri 3) }
  and gen_ops ~depth ~innermost n = List.init n (fun _ -> gen_op ~depth ~innermost) in
  let gen_phase i =
    let refresh =
      if i = 0 then [] else List.filter (fun _ -> ri 6 = 0) (List.init slots (fun s -> s))
    in
    let work = Array.init workers (fun _ -> gen_ops ~depth:0 ~innermost:(-1) (ri 9)) in
    { refresh; work }
  in
  let phases = List.init (1 + ri 3) gen_phase in
  { workers; slots; locks; slot_size; phases }

(* {1 Size} *)

let rec ops_size l = List.fold_left (fun acc op -> acc + op_size op) 0 l

and op_size = function
  | Read _ | Write _ | Rmw _ | Compute _ | Yield -> 1
  | Locked { body; _ } -> 1 + ops_size body
  | Repeat { body; _ } -> 1 + ops_size body

let op_count p =
  List.fold_left
    (fun acc ph -> Array.fold_left (fun acc ops -> acc + ops_size ops) acc ph.work)
    0 p.phases

(* {1 Printing} *)

let rec pp_op fmt = function
  | Read { slot; off } -> Format.fprintf fmt "Read { slot = %d; off = %d }" slot off
  | Write { slot; off } -> Format.fprintf fmt "Write { slot = %d; off = %d }" slot off
  | Rmw { slot; off } -> Format.fprintf fmt "Rmw { slot = %d; off = %d }" slot off
  | Compute n -> Format.fprintf fmt "Compute %d" n
  | Yield -> Format.fprintf fmt "Yield"
  | Locked { lock; site; body } ->
    Format.fprintf fmt "@[<hv 2>Locked { lock = %d; site = %d;@ body = %a }@]" lock site
      pp_ops body
  | Repeat { times; body } ->
    Format.fprintf fmt "@[<hv 2>Repeat { times = %d;@ body = %a }@]" times pp_ops body

and pp_ops fmt ops =
  Format.fprintf fmt "@[<hv 1>[%a]@]"
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ";@ ") pp_op)
    ops

let pp_phase fmt ph =
  Format.fprintf fmt "@[<hv 2>{ refresh = [%a];@ work =@ @[<hv 2>[|%a|]@] }@]"
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt "; ") Format.pp_print_int)
    ph.refresh
    (Format.pp_print_seq ~pp_sep:(fun fmt () -> Format.fprintf fmt ";@ ") pp_ops)
    (Array.to_seq ph.work)

let to_ocaml p =
  Format.asprintf
    "@[<v 0>let prog : Kard_fuzz.Prog.t =@;\
     <1 2>@[<hv 0>let open Kard_fuzz.Prog in@ @[<hv 2>{ workers = %d;@ slots = %d;@ locks = \
     %d;@ slot_size = %d;@ phases =@ @[<hv 1>[%a]@] }@]@]@]@."
    p.workers p.slots p.locks p.slot_size
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ";@ ") pp_phase)
    p.phases

(* {1 Compilation} *)

type run_ctx = {
  slots_meta : Obj_meta.t option array;
  cur : int ref;          (* highest phase the coordinator has opened *)
  arrived : int array;    (* workers finished, per phase *)
}

let addr_of ctx p ~slot ~off =
  match ctx.slots_meta.(slot) with
  | Some m -> m.Obj_meta.base + (off mod p.slot_size)
  | None -> invalid_arg "fuzz: access to an unallocated slot"

let rec compile_ops p ctx ops = Program.concat (List.map (compile_op p ctx) ops)

and compile_op p ctx = function
  | Read { slot; off } -> Program.of_list [ Op.Read (addr_of ctx p ~slot ~off) ]
  | Write { slot; off } -> Program.of_list [ Op.Write (addr_of ctx p ~slot ~off) ]
  | Rmw { slot; off } ->
    let a = addr_of ctx p ~slot ~off in
    Program.of_list [ Op.Read a; Op.Write a ]
  | Compute n -> Program.of_list [ Op.Compute n ]
  | Yield -> Program.of_list [ Op.Yield ]
  | Locked { lock; site; body } ->
    Program.concat
      [ Program.of_list [ Op.Lock { lock = lock_id lock; site = lock_site site } ];
        compile_ops p ctx body;
        Program.of_list [ Op.Unlock { lock = lock_id lock } ] ]
  | Repeat { times; body } -> Program.repeat times (fun _ -> compile_ops p ctx body)

let coordinator p ctx ~on_event =
  let alloc_slot s =
    Program.of_list
      [ Op.Alloc
          { size = p.slot_size;
            site = alloc_site s;
            on_result = (fun m -> ctx.slots_meta.(s) <- Some m) } ]
  in
  let free_slot s =
    Program.delay (fun () ->
        match ctx.slots_meta.(s) with
        | Some m ->
          ctx.slots_meta.(s) <- None;
          Program.of_list [ Op.Free m ]
        | None -> Program.empty)
  in
  let open_phase i ph =
    Program.concat
      [ (if i = 0 then Program.concat (List.init p.slots alloc_slot)
         else
           Program.concat
             [ Builder.wait_until (fun () -> ctx.arrived.(i - 1) >= p.workers);
               Program.concat (List.map free_slot ph.refresh);
               Program.concat (List.map alloc_slot ph.refresh) ]);
        Builder.effect_ (fun () ->
            ctx.cur := i;
            on_event (Trace_log.Release { phase = i })) ]
  in
  Program.concat (List.mapi open_phase p.phases)

let worker p ctx ~on_event w =
  let tid = w + 1 in
  let run_phase i ph =
    Program.concat
      [ Builder.wait_until (fun () -> !(ctx.cur) >= i);
        Builder.effect_ (fun () -> on_event (Trace_log.Pass { tid; phase = i }));
        Program.delay (fun () -> compile_ops p ctx ph.work.(w));
        Builder.effect_ (fun () ->
            ctx.arrived.(i) <- ctx.arrived.(i) + 1;
            on_event (Trace_log.Arrive { tid; phase = i })) ]
  in
  Program.concat (List.mapi run_phase p.phases)

let build ?(on_event = fun (_ : Trace_log.ev) -> ()) p machine =
  let ctx =
    { slots_meta = Array.make p.slots None;
      cur = ref (-1);
      arrived = Array.make (List.length p.phases) 0 }
  in
  ignore (Machine.spawn machine (coordinator p ctx ~on_event) : int);
  for w = 0 to p.workers - 1 do
    ignore (Machine.spawn machine (worker p ctx ~on_event w) : int)
  done
