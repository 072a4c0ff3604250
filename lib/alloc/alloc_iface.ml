type stats = {
  allocations : int;
  frees : int;
  global_allocations : int;
  mmap_calls : int;
  ftruncate_calls : int;
  bytes_requested : int;
  bytes_reserved : int;
}

let zero_stats =
  { allocations = 0;
    frees = 0;
    global_allocations = 0;
    mmap_calls = 0;
    ftruncate_calls = 0;
    bytes_requested = 0;
    bytes_reserved = 0 }

type t = {
  name : string;
  alloc : site:int -> int -> Obj_meta.t * int;
  alloc_global : site:int -> resident:bool -> int -> Obj_meta.t * int;
  free : Obj_meta.t -> int;
  stats : unit -> stats;
}
