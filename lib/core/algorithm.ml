module K = Key_sets

type frame = { saved : K.Set.t; section : int }

type thread_state = {
  mutable held : K.Set.t;    (* K(t) *)
  mutable frames : frame list;
}

type t = {
  threads : (int, thread_state) Hashtbl.t;
  key_holders : (K.t, int list) Hashtbl.t;  (* key -> holder multiset *)
  kr_s : (int, K.Set.t) Hashtbl.t;      (* KR(s) *)
  kw_s : (int, K.Set.t) Hashtbl.t;      (* KW(s) *)
  universe : (int, unit) Hashtbl.t;     (* objects seen *)
}

type event =
  | Enter of { thread : int; section : int }
  | Exit of { thread : int }
  | Read of { thread : int; obj : int }
  | Write of { thread : int; obj : int }

type race = {
  thread : int;
  obj : int;
  access : [ `Read | `Write ];
  holders : int list;
  in_section : bool;
}

let create () =
  { threads = Hashtbl.create 16;
    key_holders = Hashtbl.create 64;
    kr_s = Hashtbl.create 16;
    kw_s = Hashtbl.create 16;
    universe = Hashtbl.create 64 }

let thread_state t tid =
  match Hashtbl.find_opt t.threads tid with
  | Some st -> st
  | None ->
    let st = { held = K.Set.empty; frames = [] } in
    Hashtbl.replace t.threads tid st;
    st

let holders t key = Option.value ~default:[] (Hashtbl.find_opt t.key_holders key)

let other_holders t key ~tid = List.filter (fun h -> h <> tid) (holders t key)

let add_holder t key tid = Hashtbl.replace t.key_holders key (tid :: holders t key)

let remove_holder t key tid =
  let rec drop_one = function
    | [] -> []
    | h :: rest -> if h = tid then rest else h :: drop_one rest
  in
  match drop_one (holders t key) with
  | [] -> Hashtbl.remove t.key_holders key
  | hs -> Hashtbl.replace t.key_holders key hs

let kr_of_section t section = Option.value ~default:K.Set.empty (Hashtbl.find_opt t.kr_s section)
let kw_of_section t section = Option.value ~default:K.Set.empty (Hashtbl.find_opt t.kw_s section)

let see_object t obj = Hashtbl.replace t.universe obj ()

let in_section st =
  match st.frames with
  | [] -> None
  | frame :: _ -> Some frame.section

(* A thread may claim rk_o when no other thread holds wk_o; it may
   claim wk_o when no other thread holds wk_o or rk_o (section 4). *)
let can_acquire t ~tid key =
  match key with
  | K.Rk obj -> other_holders t (K.Wk obj) ~tid = []
  | K.Wk obj -> other_holders t (K.Wk obj) ~tid = [] && other_holders t (K.Rk obj) ~tid = []

let acquire t st ~tid key =
  if not (K.Set.mem key st.held) then begin
    add_holder t key tid;
    st.held <- K.Set.add key st.held
  end

let enter t ~tid ~section =
  let st = thread_state t tid in
  st.frames <- { saved = st.held; section } :: st.frames;
  (* Proactive acquisition: the subset of KR(s) whose write key is not
     exclusively held, and the subset of KW(s) that is acquirable
     (Algorithm 1 line 4). *)
  K.Set.iter
    (fun key -> if can_acquire t ~tid key then acquire t st ~tid key)
    (kr_of_section t section);
  K.Set.iter
    (fun key -> if can_acquire t ~tid key then acquire t st ~tid key)
    (kw_of_section t section)

let exit t ~tid =
  let st = thread_state t tid in
  match st.frames with
  | [] -> invalid_arg (Printf.sprintf "Algorithm: thread %d exits with no open section" tid)
  | frame :: rest ->
    let released = K.Set.diff st.held frame.saved in
    K.Set.iter (fun key -> remove_holder t key tid) released;
    st.held <- frame.saved;
    st.frames <- rest

let update_section_sets t ~section key =
  match key with
  | K.Rk obj ->
    (* Record rk_o in KR(s) unless the section already writes o
       (Algorithm 1 lines 17-18). *)
    let kw = kw_of_section t section in
    if not (K.Set.mem (K.Wk obj) kw) then
      Hashtbl.replace t.kr_s section (K.Set.add key (kr_of_section t section))
  | K.Wk obj ->
    Hashtbl.replace t.kw_s section (K.Set.add key (kw_of_section t section));
    Hashtbl.replace t.kr_s section (K.Set.remove (K.Rk obj) (kr_of_section t section))

let read t ~tid ~obj =
  see_object t obj;
  let st = thread_state t tid in
  if K.Set.mem (K.Rk obj) st.held || K.Set.mem (K.Wk obj) st.held then []
  else
    let wk_holders = other_holders t (K.Wk obj) ~tid in
    if wk_holders <> [] then
      [ { thread = tid; obj; access = `Read; holders = wk_holders;
          in_section = Option.is_some (in_section st) } ]
    else begin
      (match in_section st with
      | Some section ->
        acquire t st ~tid (K.Rk obj);
        update_section_sets t ~section (K.Rk obj)
      | None -> ());
      []
    end

let write t ~tid ~obj =
  see_object t obj;
  let st = thread_state t tid in
  if K.Set.mem (K.Wk obj) st.held then []
  else
    let conflicting =
      other_holders t (K.Wk obj) ~tid @ other_holders t (K.Rk obj) ~tid
    in
    if conflicting <> [] then
      [ { thread = tid; obj; access = `Write; holders = conflicting;
          in_section = Option.is_some (in_section st) } ]
    else begin
      (match in_section st with
      | Some section ->
        acquire t st ~tid (K.Wk obj);
        update_section_sets t ~section (K.Wk obj)
      | None -> ());
      []
    end

let step t = function
  | Enter { thread; section } ->
    enter t ~tid:thread ~section;
    []
  | Exit { thread } ->
    exit t ~tid:thread;
    []
  | Read { thread; obj } -> read t ~tid:thread ~obj
  | Write { thread; obj } -> write t ~tid:thread ~obj

let run t events = List.concat_map (step t) events

let keys_of_thread t tid = (thread_state t tid).held

let kf t =
  Hashtbl.fold
    (fun obj () acc ->
      let add key acc = if holders t key = [] then K.Set.add key acc else acc in
      add (K.Rk obj) (add (K.Wk obj) acc))
    t.universe K.Set.empty

let section_stack t tid = List.map (fun frame -> frame.section) (thread_state t tid).frames
let objects_seen t = Hashtbl.fold (fun obj () acc -> obj :: acc) t.universe []
