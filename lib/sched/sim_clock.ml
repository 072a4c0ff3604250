type t = { mutable now : int }

let create () = { now = 0 }
let now t = t.now

let[@inline] advance t cycles =
  assert (cycles >= 0);
  t.now <- t.now + cycles

let reset t = t.now <- 0
