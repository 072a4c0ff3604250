module Hooks = Kard_sched.Hooks
module Meta_table = Kard_alloc.Meta_table
module Obj_meta = Kard_alloc.Obj_meta

type ev =
  | Lock of { tid : int; lock : int; site : int }
  | Unlock of { tid : int; lock : int }
  | Read of { tid : int; obj : int }
  | Write of { tid : int; obj : int }
  | Alloc of { tid : int; obj : int }
  | Free of { tid : int; obj : int }
  | Pass of { tid : int; phase : int }
  | Arrive of { tid : int; phase : int }
  | Release of { phase : int }

type t = { mutable rev_events : ev list }

let create () = { rev_events = [] }
let emit t ev = t.rev_events <- ev :: t.rev_events
let events t = List.rev t.rev_events

let wrap t ~meta (hooks : Hooks.t) =
  let inner = Hooks.access_of hooks in
  { hooks with
    Hooks.on_lock =
      (fun ~tid ~lock ~site ->
        emit t (Lock { tid; lock; site });
        hooks.Hooks.on_lock ~tid ~lock ~site);
    on_unlock =
      (fun ~tid ~lock ->
        emit t (Unlock { tid; lock });
        hooks.Hooks.on_unlock ~tid ~lock);
    access =
      Some
        { inner with
          Hooks.on_read =
            (fun ~tid ~addr ->
              (match Meta_table.find_addr meta addr with
              | Some m -> emit t (Read { tid; obj = m.Obj_meta.id })
              | None -> ());
              inner.Hooks.on_read ~tid ~addr);
          on_write =
            (fun ~tid ~addr ->
              (match Meta_table.find_addr meta addr with
              | Some m -> emit t (Write { tid; obj = m.Obj_meta.id })
              | None -> ());
              inner.Hooks.on_write ~tid ~addr) };
    on_alloc =
      (fun ~tid m ->
        emit t (Alloc { tid; obj = m.Obj_meta.id });
        hooks.Hooks.on_alloc ~tid m);
    on_free =
      (fun ~tid m ->
        emit t (Free { tid; obj = m.Obj_meta.id });
        hooks.Hooks.on_free ~tid m) }
