(* Flat int-indexed structures for the allocation-free hot loop.

   Everything here is a plain array that grows by doubling; lookups
   and membership tests never allocate, which is the whole point —
   these replace the [Hashtbl]s that used to sit on the per-step
   path (DESIGN.md, "per-step allocation contract"). *)

let grow_pow2 have needed =
  let n = ref (max 16 have) in
  while needed >= !n do
    n := !n * 2
  done;
  !n

module Bitset = struct
  type t = {
    mutable words : int array;
    mutable count : int; (* set bits, maintained incrementally *)
  }

  let bits_per_word = Sys.int_size

  let create ?(capacity = 256) () =
    { words = Array.make (max 1 ((capacity / bits_per_word) + 1)) 0; count = 0 }

  let ensure t i =
    let word = i / bits_per_word in
    let have = Array.length t.words in
    if word >= have then begin
      let words = Array.make (grow_pow2 have word) 0 in
      Array.blit t.words 0 words 0 have;
      t.words <- words
    end

  let mem t i =
    if i < 0 then false
    else
      let word = i / bits_per_word in
      word < Array.length t.words
      && t.words.(word) land (1 lsl (i mod bits_per_word)) <> 0

  (* [add] is the hot call: setting an already-set bit costs one load
     and one test, no allocation and no count update. *)
  let add t i =
    if i < 0 then invalid_arg "Dense.Bitset.add: negative index";
    ensure t i;
    let word = i / bits_per_word in
    let bit = 1 lsl (i mod bits_per_word) in
    let w = t.words.(word) in
    if w land bit = 0 then begin
      t.words.(word) <- w lor bit;
      t.count <- t.count + 1
    end

  let count t = t.count

  let remove t i =
    if i >= 0 then begin
      let word = i / bits_per_word in
      if word < Array.length t.words then begin
        let bit = 1 lsl (i mod bits_per_word) in
        let w = t.words.(word) in
        if w land bit <> 0 then begin
          t.words.(word) <- w land lnot bit;
          t.count <- t.count - 1
        end
      end
    end

  (* Empty words cost one test; a non-empty word is shifted right
     ([lsr], so the sign bit — bit 62 — comes down like any other)
     only up to its highest member. *)
  let iter f t =
    let words = t.words in
    for word = 0 to Array.length words - 1 do
      let w = ref words.(word) in
      let i = ref (word * bits_per_word) in
      while !w <> 0 do
        if !w land 1 <> 0 then f !i;
        w := !w lsr 1;
        incr i
      done
    done
end

(* A FIFO ring over ints, used for lock waiter queues: [push]/[pop]
   are the [Queue] operations without the per-node allocation. *)
module Int_ring = struct
  type t = {
    mutable buf : int array;
    mutable head : int;
    mutable len : int;
  }

  let create () = { buf = Array.make 4 0; head = 0; len = 0 }

  let length t = t.len

  let push t v =
    let cap = Array.length t.buf in
    if t.len = cap then begin
      let buf = Array.make (2 * cap) 0 in
      for i = 0 to t.len - 1 do
        buf.(i) <- t.buf.((t.head + i) mod cap)
      done;
      t.buf <- buf;
      t.head <- 0
    end;
    t.buf.((t.head + t.len) mod Array.length t.buf) <- v;
    t.len <- t.len + 1

  let pop t =
    if t.len = 0 then invalid_arg "Dense.Int_ring.pop: empty";
    let v = t.buf.(t.head) in
    t.head <- (t.head + 1) mod Array.length t.buf;
    t.len <- t.len - 1;
    v
end
