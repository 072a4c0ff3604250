exception Job_failed of { index : int; label : string; message : string }

let resolve_jobs = function
  | Some n -> max 1 n
  | None -> Defaults.jobs ()

let default_label i _ = Printf.sprintf "#%d" i

let fail index label exn backtrace =
  let message =
    let e = Printexc.to_string exn in
    if String.trim backtrace = "" then e else e ^ "\n" ^ backtrace
  in
  raise (Job_failed { index; label; message })

(* Workers race only on [next] (an atomic ticket counter); each result
   slot is written by exactly one domain and read after [Domain.join],
   which publishes the writes. *)
let map_domains ~domains ~label f arr =
  let n = Array.length arr in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let rec worker () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      (results.(i) <-
         (match f arr.(i) with
         | v -> Some (Ok v)
         | exception exn -> Some (Error (exn, Printexc.get_backtrace ()))));
      worker ()
    end
  in
  let spawned = List.init (domains - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join spawned;
  Array.mapi
    (fun i cell ->
      match cell with
      | Some (Ok v) -> v
      | Some (Error (exn, bt)) -> fail i (label i arr.(i)) exn bt
      | None -> assert false)
    results

let map_serial ~label f arr =
  Array.mapi
    (fun i item ->
      match f item with
      | v -> v
      | exception exn -> fail i (label i item) exn (Printexc.get_backtrace ()))
    arr

let map ?jobs ?(label = default_label) f items =
  let jobs = resolve_jobs jobs in
  let arr = Array.of_list items in
  let domains = min jobs (Array.length arr) in
  let mapped =
    if domains <= 1 then map_serial ~label f arr
    else map_domains ~domains ~label f arr
  in
  Array.to_list mapped

let run_jobs ?jobs js = map ?jobs ~label:(fun _ j -> Job.describe j) Job.run js

(* A plan keeps its leaves left to right and a reader that takes its
   own results from the front of a shared cursor, in that same order:
   [all] and [and+] read their parts one after the other, so each
   sub-plan sees exactly the results of its own jobs. *)
type 'a plan = {
  leaves : Job.t list;
  read : (unit -> Runner.result) -> 'a;
}

let job j = { leaves = [ j ]; read = (fun next -> next ()) }
let jobs p = p.leaves
let ( let+ ) p f = { leaves = p.leaves; read = (fun next -> f (p.read next)) }

let ( and+ ) a b =
  { leaves = a.leaves @ b.leaves;
    read =
      (fun next ->
        let x = a.read next in
        (x, b.read next)) }

let all ps =
  let rec read next = function
    | [] -> []
    | p :: rest ->
      let x = p.read next in
      x :: read next rest
  in
  { leaves = List.concat_map jobs ps; read = (fun next -> read next ps) }

let execute ?jobs p =
  let results = Array.of_list (run_jobs ?jobs p.leaves) in
  let cursor = ref 0 in
  p.read (fun () ->
      let r = results.(!cursor) in
      incr cursor;
      r)
