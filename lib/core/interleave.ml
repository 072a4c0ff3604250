module Int_set = Set.Make (Int)

type verdict =
  | Pending
  | Spurious of Race_record.t list
  | Confirmed

type entry = {
  mutable offsets : (int * Int_set.t) list; (* per-thread byte sets *)
  mutable records : Race_record.t list;
}

type t = {
  entries : (int, entry) Hashtbl.t; (* obj_id -> state *)
  mutable started : int;
  mutable pruned : int;
  mutable confirmed : int;
}

let create () = { entries = Hashtbl.create 16; started = 0; pruned = 0; confirmed = 0 }

let active t ~obj_id = Hashtbl.mem t.entries obj_id

let add_offset entry tid offset =
  let current =
    match List.assoc_opt tid entry.offsets with
    | Some set -> set
    | None -> Int_set.empty
  in
  entry.offsets <- (tid, Int_set.add offset current) :: List.remove_assoc tid entry.offsets

let start t ~obj_id ~record =
  let entry = { offsets = []; records = [ record ] } in
  add_offset entry record.Race_record.faulting.Race_record.thread record.Race_record.offset;
  Hashtbl.replace t.entries obj_id entry;
  t.started <- t.started + 1

let attach_record t ~obj_id ~record =
  match Hashtbl.find_opt t.entries obj_id with
  | Some entry -> entry.records <- record :: entry.records
  | None -> ()

(* Evidence is conclusive when at least two threads have byte sets:
   any overlap confirms, full pairwise disjointness refutes. *)
let verdict_of entry =
  match entry.offsets with
  | [] | [ _ ] -> Pending
  | sides ->
    let rec pairwise_overlap = function
      | [] -> false
      | (_, set) :: rest ->
        List.exists (fun (_, other) -> not (Int_set.disjoint set other)) rest
        || pairwise_overlap rest
    in
    if pairwise_overlap sides then Confirmed else Spurious entry.records

let observe t ~obj_id ~tid ~offset =
  match Hashtbl.find_opt t.entries obj_id with
  | None -> Pending
  | Some entry ->
    add_offset entry tid offset;
    verdict_of entry

let finish t ~obj_id = Hashtbl.remove t.entries obj_id

let finish_thread t ~tid =
  (* Runs on every section exit; with no interleaving in progress
     (the steady state) return without building the fold closure. *)
  if Hashtbl.length t.entries = 0 then []
  else begin
    let affected =
      Hashtbl.fold
        (fun obj_id entry acc -> if List.mem_assoc tid entry.offsets then obj_id :: acc else acc)
        t.entries []
    in
    List.iter (fun obj_id -> finish t ~obj_id) affected;
    affected
  end

let started_count t = t.started
let pruned_count t = t.pruned
let confirmed_count t = t.confirmed
let note_pruned t n = t.pruned <- t.pruned + n
let note_confirmed t = t.confirmed <- t.confirmed + 1
