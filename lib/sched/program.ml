(* Two-level program representation (the per-step allocation
   contract, DESIGN.md).

   The builder API below ([of_list], [concat], [repeat], ...) is
   unchanged from the thunk era, but what it builds is a small tree
   whose leaves are {e compiled segments}: flat int arrays holding one
   tag and two operands per operation.  A {!cursor} walks the tree;
   on the hot path ([fetch]) it serves the next operation as a plain
   int tag plus int operands — no [Some], no [Op.t] variant, no
   closure call per step.  Operations that inherently carry a heap
   payload ([Alloc] callbacks, [Free] metas, block descriptors) are
   stored once, at build time, in a per-segment side table and served
   by reference. *)

type thunk = unit -> Op.t option

(* {1 Compiled segments} *)

let tag_read = 0
let tag_write = 1
let tag_lock = 2
let tag_unlock = 3
let tag_compute = 4
let tag_io = 5
let tag_yield = 6
let tag_boxed = 7
let tag_halt = -1

(* Fields are mutable (and [len] may be shorter than the arrays) so
   that a {!Builder.t} used as an arena can re-point one segment at
   its live buffers each iteration instead of copying them out. *)
type segment = {
  mutable tags : int array;
  mutable a : int array; (* addr / lock / cycles / boxed index *)
  mutable b : int array; (* site (of tag_lock) *)
  mutable boxed : Op.t array; (* side table: Alloc, Free, Read_block, Write_block *)
  mutable len : int;
}

let empty_segment = { tags = [||]; a = [||]; b = [||]; boxed = [||]; len = 0 }

type t =
  | Done
  | Flat of segment
  | Seq of t * t
  | Gen of (unit -> t option)
  | Thunk of thunk
  | Spin of (unit -> bool)
  | Setup of (unit -> unit) * t

(* {1 Builders (the public construction API)} *)

let empty = Done

let segment_of_list ops =
  let n = List.length ops in
  let tags = Array.make n 0 in
  let a = Array.make n 0 in
  let b = Array.make n 0 in
  let boxed = ref [] in
  let nboxed = ref 0 in
  List.iteri
    (fun i op ->
      match op with
      | Op.Read addr ->
        tags.(i) <- tag_read;
        a.(i) <- addr
      | Op.Write addr ->
        tags.(i) <- tag_write;
        a.(i) <- addr
      | Op.Lock { lock; site } ->
        tags.(i) <- tag_lock;
        a.(i) <- lock;
        b.(i) <- site
      | Op.Unlock { lock } ->
        tags.(i) <- tag_unlock;
        a.(i) <- lock
      | Op.Compute cycles ->
        tags.(i) <- tag_compute;
        a.(i) <- cycles
      | Op.Io cycles ->
        tags.(i) <- tag_io;
        a.(i) <- cycles
      | Op.Yield -> tags.(i) <- tag_yield
      | Op.Alloc _ | Op.Free _ | Op.Read_block _ | Op.Write_block _ ->
        tags.(i) <- tag_boxed;
        a.(i) <- !nboxed;
        incr nboxed;
        boxed := op :: !boxed)
    ops;
  { tags; a; b; boxed = Array.of_list (List.rev !boxed); len = n }

let of_list = function
  | [] -> Done
  | ops -> Flat (segment_of_list ops)

let append a b =
  match (a, b) with
  | Done, p | p, Done -> p
  | a, b -> Seq (a, b)

let concat programs = List.fold_right append programs Done
let dynamic next = Gen next

let delay build =
  let built = ref false in
  Gen
    (fun () ->
      if !built then None
      else begin
        built := true;
        Some (build ())
      end)

let repeat n body =
  let i = ref 0 in
  Gen
    (fun () ->
      if !i >= n then None
      else begin
        let prog = body !i in
        incr i;
        Some prog
      end)

let unfold step init =
  let state = ref init in
  Thunk
    (fun () ->
      match step !state with
      | Some (op, next) ->
        state := next;
        Some op
      | None -> None)

let of_thunk th = Thunk th
let wait_until cond = Spin cond
let with_setup setup prog = Setup (setup, prog)

(* {1 Direct segment emission (hot workload generators)} *)

module Builder = struct
  type program = t

  (* The buffers start empty and [grow] sizes them from [hint] at the
     first emit, so a per-worker arena costs set-up nothing: its
     buffers appear when the worker emits its first iteration. *)
  type t = {
    mutable tags : int array;
    mutable a : int array;
    mutable b : int array;
    mutable len : int;
    mutable boxed : Op.t array;
    mutable nboxed : int;
    hint : int;
    arena : segment; (* re-pointed at the live buffers by [current] *)
    arena_flat : program;
  }

  let create ?(hint = 16) () =
    let arena = { tags = [||]; a = [||]; b = [||]; boxed = [||]; len = 0 } in
    { tags = [||];
      a = [||];
      b = [||];
      len = 0;
      boxed = [||];
      nboxed = 0;
      hint = Int.max 4 hint;
      arena;
      arena_flat = Flat arena }

  let grow t =
    let cap = Array.length t.tags in
    let cap' = if cap = 0 then t.hint else 2 * cap in
    let bigger arr =
      let r = Array.make cap' 0 in
      Array.blit arr 0 r 0 cap;
      r
    in
    t.tags <- bigger t.tags;
    t.a <- bigger t.a;
    t.b <- bigger t.b

  let push t tag a b =
    if t.len = Array.length t.tags then grow t;
    let i = t.len in
    t.tags.(i) <- tag;
    t.a.(i) <- a;
    t.b.(i) <- b;
    t.len <- i + 1

  let read t addr = push t tag_read addr 0
  let write t addr = push t tag_write addr 0
  let lock t ~lock:l ~site = push t tag_lock l site
  let unlock t ~lock:l = push t tag_unlock l 0
  let compute t cycles = push t tag_compute cycles 0
  let io t cycles = push t tag_io cycles 0
  let yield t = push t tag_yield 0 0

  let op t o =
    match o with
    | Op.Read addr -> read t addr
    | Op.Write addr -> write t addr
    | Op.Lock { lock = l; site } -> lock t ~lock:l ~site
    | Op.Unlock { lock = l } -> unlock t ~lock:l
    | Op.Compute cycles -> compute t cycles
    | Op.Io cycles -> io t cycles
    | Op.Yield -> yield t
    | Op.Alloc _ | Op.Free _ | Op.Read_block _ | Op.Write_block _ ->
      if t.nboxed = Array.length t.boxed then begin
        let bigger = Array.make (Int.max 4 (2 * t.nboxed)) Op.Yield in
        Array.blit t.boxed 0 bigger 0 t.nboxed;
        t.boxed <- bigger
      end;
      t.boxed.(t.nboxed) <- o;
      push t tag_boxed t.nboxed 0;
      t.nboxed <- t.nboxed + 1

  let reset t =
    t.len <- 0;
    t.nboxed <- 0

  let current t =
    let seg = t.arena in
    seg.tags <- t.tags;
    seg.a <- t.a;
    seg.b <- t.b;
    seg.boxed <- t.boxed;
    seg.len <- t.len;
    t.arena_flat
end

(* {1 Cursors (the consumption API, one per thread)} *)

type frame =
  | Run of t
  | Generating of (unit -> t option)
  | Pulling of thunk
  | Spinning of (unit -> bool)

type cursor = {
  mutable seg : segment;
  mutable pc : int; (* next index in [seg] *)
  mutable len : int;
  mutable ix : int; (* index of the op fetch just served *)
  mutable box : Op.t; (* the op behind a [tag_boxed] fetch *)
  mutable stack : frame list;
}

let cursor program =
  { seg = empty_segment;
    pc = 0;
    len = 0;
    ix = 0;
    box = Op.Yield;
    stack = [ Run program ] }

(* [fetch] is the per-step hot call: one bounds test and two array
   loads in the common case.  Tree walking ([advance]/[enter]) only
   runs at segment boundaries. *)
let rec advance cur =
  match cur.stack with
  | [] -> tag_halt
  | frame :: rest -> (
    match frame with
    | Run p ->
      cur.stack <- rest;
      enter cur p
    | Generating g -> (
      match g () with
      | Some p -> enter cur p (* the generator frame stays below [p] *)
      | None ->
        cur.stack <- rest;
        advance cur)
    | Pulling th -> (
      match th () with
      | Some op ->
        cur.box <- op;
        tag_boxed
      | None ->
        cur.stack <- rest;
        advance cur)
    | Spinning cond ->
      if cond () then begin
        cur.stack <- rest;
        advance cur
      end
      else tag_yield)

and enter cur p =
  match p with
  | Done -> advance cur
  | Flat seg ->
    let len = seg.len in
    if len = 0 then advance cur
    else begin
      cur.seg <- seg;
      cur.pc <- 1;
      cur.len <- len;
      cur.ix <- 0;
      let tag = seg.tags.(0) in
      if tag = tag_boxed then cur.box <- seg.boxed.(seg.a.(0));
      tag
    end
  | Seq (x, y) ->
    cur.stack <- Run y :: cur.stack;
    enter cur x
  | Gen g ->
    cur.stack <- Generating g :: cur.stack;
    advance cur
  | Thunk th ->
    cur.stack <- Pulling th :: cur.stack;
    advance cur
  | Spin cond ->
    cur.stack <- Spinning cond :: cur.stack;
    advance cur
  | Setup (setup, inner) ->
    setup ();
    enter cur inner

let fetch cur =
  let i = cur.pc in
  if i < cur.len then begin
    cur.pc <- i + 1;
    cur.ix <- i;
    let tag = cur.seg.tags.(i) in
    if tag = tag_boxed then cur.box <- cur.seg.boxed.(cur.seg.a.(i));
    tag
  end
  else begin
    cur.len <- 0;
    cur.pc <- 0;
    advance cur
  end

let arg_a cur = cur.seg.a.(cur.ix)
let arg_b cur = cur.seg.b.(cur.ix)
let boxed_op cur = cur.box

(* The thunk interpreter: rebuild the [Op.t] stream one option at a
   time, exactly as the pre-compilation machine consumed programs.
   The oracle test suite runs whole workloads through both paths and
   asserts bit-identical reports. *)
let next_op cur =
  let tag = fetch cur in
  if tag = tag_halt then None
  else if tag = tag_boxed then Some cur.box
  else if tag = tag_read then Some (Op.Read (arg_a cur))
  else if tag = tag_write then Some (Op.Write (arg_a cur))
  else if tag = tag_lock then Some (Op.Lock { lock = arg_a cur; site = arg_b cur })
  else if tag = tag_unlock then Some (Op.Unlock { lock = arg_a cur })
  else if tag = tag_compute then Some (Op.Compute (arg_a cur))
  else if tag = tag_io then Some (Op.Io (arg_a cur))
  else Some Op.Yield

let to_thunk program =
  let cur = cursor program in
  fun () -> next_op cur

let to_list ?(limit = 10_000_000) t =
  let cur = cursor t in
  let rec loop acc n =
    if n > limit then failwith "Program.to_list: limit exceeded"
    else
      match next_op cur with
      | Some op -> loop (op :: acc) (n + 1)
      | None -> List.rev acc
  in
  loop [] 0
