type epoch = { tid : int; clock : int }

type cell = {
  mutable write : epoch option;
  mutable reads : (int * int) list;
}

type t = (int, cell) Hashtbl.t

(* Only looked up and counted, never iterated: it starts small, on the
   minor heap, and resizes itself (DESIGN.md §5). *)
let create () = Hashtbl.create 64

let cell_of t addr =
  let granule = addr lsr 3 in
  match Hashtbl.find_opt t granule with
  | Some cell -> cell
  | None ->
    let cell = { write = None; reads = [] } in
    Hashtbl.replace t granule cell;
    cell

let clear t addr = Hashtbl.remove t (addr lsr 3)
let bytes t = 32 * Hashtbl.length t
