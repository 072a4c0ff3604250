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

type 'a plan = {
  jobs : Job.t list;
  merge : Runner.result list -> 'a;
}

let plan jobs ~merge = { jobs; merge }

let execute ?jobs p = p.merge (run_jobs ?jobs p.jobs)

let concat plans =
  let rec split results = function
    | [] -> []
    | p :: rest ->
      let n = List.length p.jobs in
      p.merge (List.filteri (fun i _ -> i < n) results)
      :: split (List.filteri (fun i _ -> i >= n) results) rest
  in
  { jobs = List.concat_map (fun p -> p.jobs) plans; merge = (fun results -> split results plans) }

let chunks k l =
  if k <= 0 then invalid_arg "Pool.chunks: k must be positive";
  let rec take n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> take (n - 1) (x :: acc) rest
  in
  let rec go = function
    | [] -> []
    | l ->
      let group, rest = take k [] l in
      group :: go rest
  in
  go l
