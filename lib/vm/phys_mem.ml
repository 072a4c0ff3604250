module Page = Kard_mpk.Page

type frame = int

(* A frame is a number and nothing else: no simulated op carries data,
   so the pool keeps which frames are resident, not their bytes. *)
type t = {
  frames : (frame, unit) Hashtbl.t;
  mutable next_frame : frame;
  mutable resident : int;
  mutable peak : int;
  mutable total_allocated : int;
}

(* [frames] is only looked up and counted, never iterated, so it starts
   small, on the minor heap (DESIGN.md §5). *)
let create () =
  { frames = Hashtbl.create 64; next_frame = 0; resident = 0; peak = 0; total_allocated = 0 }

let alloc_frame t =
  let frame = t.next_frame in
  t.next_frame <- frame + 1;
  Hashtbl.replace t.frames frame ();
  t.resident <- t.resident + 1;
  t.total_allocated <- t.total_allocated + 1;
  if t.resident > t.peak then t.peak <- t.resident;
  frame

let free_frame t frame =
  if not (Hashtbl.mem t.frames frame) then
    invalid_arg (Printf.sprintf "Phys_mem.free_frame: frame %d not resident" frame);
  Hashtbl.remove t.frames frame;
  t.resident <- t.resident - 1

let resident_frames t = t.resident
let peak_resident_bytes t = t.peak * Page.size
let total_allocated_frames t = t.total_allocated
let frame_to_int frame = frame
let frame_of_int i = i
