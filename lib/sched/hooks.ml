type env = {
  hw : Kard_mpk.Mpk_hw.t;
  meta : Kard_alloc.Meta_table.t;
  cost : Kard_mpk.Cost_model.t;
  now : unit -> int;
  trace : Kard_obs.Trace.sink;
}

type fault_action =
  | Retry
  | Emulate

type fault_outcome = { fault_cycles : int; action : fault_action }

type access_hooks = {
  on_read : tid:int -> addr:Op.addr -> int;
  on_write : tid:int -> addr:Op.addr -> int;
  on_read_block : tid:int -> block:Op.block -> int;
  on_write_block : tid:int -> block:Op.block -> int;
}

type t = {
  name : string;
  on_pick : tid:int -> unit;
  on_spawn : tid:int -> int;
  on_global : Kard_alloc.Obj_meta.t -> int;
  on_alloc : tid:int -> Kard_alloc.Obj_meta.t -> int;
  on_free : tid:int -> Kard_alloc.Obj_meta.t -> int;
  on_lock : tid:int -> lock:int -> site:int -> int;
  on_unlock : tid:int -> lock:int -> int;
  access : access_hooks option;
  on_fault : Kard_mpk.Fault.t -> fault_outcome;
  on_thread_exit : tid:int -> int;
  on_finish : unit -> unit;
  metadata_bytes : unit -> int;
}

let no_access =
  { on_read = (fun ~tid:_ ~addr:_ -> 0);
    on_write = (fun ~tid:_ ~addr:_ -> 0);
    on_read_block = (fun ~tid:_ ~block:_ -> 0);
    on_write_block = (fun ~tid:_ ~block:_ -> 0) }

let access_of t = Option.value t.access ~default:no_access

let null ~name =
  { name;
    on_pick = (fun ~tid:_ -> ());
    on_spawn = (fun ~tid:_ -> 0);
    on_global = (fun _ -> 0);
    on_alloc = (fun ~tid:_ _ -> 0);
    on_free = (fun ~tid:_ _ -> 0);
    on_lock = (fun ~tid:_ ~lock:_ ~site:_ -> 0);
    on_unlock = (fun ~tid:_ ~lock:_ -> 0);
    access = None;
    on_fault = (fun _ -> { fault_cycles = 0; action = Emulate });
    on_thread_exit = (fun ~tid:_ -> 0);
    on_finish = (fun () -> ());
    metadata_bytes = (fun () -> 0) }
