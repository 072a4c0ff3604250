module Program = Kard_sched.Program
module Machine = Kard_sched.Machine

type profile = {
  objects : int;
  object_size : int;
  sections : int;
  stripes : int;
  entries : int;
  writes_per_entry : int;
  hot_window : int;
  rotate_every : int;
  plant_every : int;
  cs_compute : int;
  compute : int;
  min_entries : int;
}

let default =
  { objects = 10_000;
    object_size = 64;
    sections = 96;
    stripes = 16;
    entries = 12_000;
    writes_per_entry = 4;
    hot_window = 8;
    rotate_every = 192;
    plant_every = 2;
    cs_compute = 4_000;
    compute = 100;
    min_entries = 2_400 }

let factor p ~scale = Builder.scale_factor ~scale ~entries:p.entries ~min_entries:p.min_entries

let effective_entries p ~scale = Builder.scaled (factor p ~scale) p.entries

(* The object population is a mass population: it shrinks with scale
   like [Synth]'s, but never below one object per section (the sharing
   structure — [sections] ownership classes over [stripes] locks —
   must survive scaling). *)
let effective_objects p ~scale =
  let f = factor p ~scale in
  max p.sections (if p.objects <= 64 then p.objects else Builder.scaled f p.objects)

(* Every [plant_every]-th entry performs one wrong-lock write. *)
let planted p ~scale =
  if p.plant_every <= 0 then 0
  else
    let entries = effective_entries p ~scale in
    (entries + p.plant_every - 1) / p.plant_every

let mix idx salt = ((idx * 2654435761) lxor (salt * 40503)) land max_int

(* Object [j] is owned by section [j mod sections]; section [s] locks
   stripe [s mod stripes].  Each object therefore has exactly one lock
   that ever writes it — the workload is race free — except for the
   planted accesses, which deliberately write another section's object
   under the wrong stripe: the classic inconsistent-lock-usage race.

   Detecting a plant requires the victim object's lock association to
   still be alive when the wrong-lock write lands.  Under the physical
   13-key detector, [sections] >> 13 means the victim's key is
   recycled (and the object demoted to k_na) within ~13 section
   entries, so most plants are silently re-identified instead of
   reported.  A virtual pool >= [sections] keeps every association
   alive for the whole run — this family is the precision experiment
   of DESIGN.md §11. *)
let build p ~threads ~scale ~seed:_ machine =
  assert (threads > 0);
  assert (p.sections > 0 && p.stripes > 1);
  let f = factor p ~scale in
  let entries = Builder.scaled f p.entries in
  let obj_n = effective_objects p ~scale in
  let heap_bases = Array.make obj_n 0 in
  let allocated = ref 0 in
  let ready () = !allocated >= obj_n in
  (* Section [s]'s slice of the population: {j | j mod sections = s}. *)
  let slice_size s = ((obj_n - 1 - s) / p.sections) + 1 in
  let slice_obj s i = s + (p.sections * i) in
  (* The hot window rotates through the slice by half-steps as epochs
     advance: the low half of every window was already hot last epoch,
     so associations spread over the whole population (vkey load/evict
     churn) while each entry can re-acquire an established key before
     identifying anything new. *)
  let half = Int.max 1 (p.hot_window / 2) in
  let plant_slots = Int.max 1 (half - 1) in
  let hot_obj ~s ~epoch ~w =
    let size = slice_size s in
    let start = epoch * half mod size in
    slice_obj s ((start + (w mod p.hot_window)) mod size)
  in
  let section_of i = mix i 31 mod p.sections in
  let entries_of_thread tid = (entries / threads) + (if tid < entries mod threads then 1 else 0) in
  (* One iteration, compiled into the worker's arena, which the cursor
     drains before the next iteration resets it.  The section's order:
     re-acquire the section's established key (a write to the old half
     of the window), identify the rest, then — at peak overlap,
     mid-section — the plant, then the tail compute.  A plant only
     becomes a race record when the victim's key is held (or just
     released) at fault time, so the victim is the section of a
     {e concurrently running} iteration. *)
  let iteration b idx =
    Program.Builder.reset b;
    if p.compute > 0 then Program.Builder.compute b p.compute;
    let s = section_of idx in
    let lock = 100 + (s mod p.stripes) in
    let epoch = idx / p.rotate_every in
    Program.Builder.lock b ~lock ~site:(10 + s);
    if p.cs_compute > 0 then Program.Builder.compute b (p.cs_compute - (p.cs_compute / 2));
    (* The anchor write: window slot 0 was pre-warmed all of last
       epoch, so this re-acquires the section's established key before
       anything new is identified — under a large enough virtual pool
       a section keeps one key for the whole run, while 13 physical
       keys force cross-section collisions here (another section holds
       this key right now) and hence reassignment churn. *)
    let j0 = hot_obj ~s ~epoch ~w:0 in
    Program.Builder.write b heap_bases.(j0);
    Program.Builder.read b heap_bases.(j0);
    (* The pre-warm write: window slot [half] is next epoch's slot 0,
       so writing it every entry guarantees the anchor chain above
       never breaks across a rotation. *)
    Program.Builder.write b heap_bases.(hot_obj ~s ~epoch ~w:half);
    for w = 2 to p.writes_per_entry - 1 do
      let j = hot_obj ~s ~epoch ~w:(mix idx (41 + w) mod p.hot_window) in
      Program.Builder.write b heap_bases.(j);
      Program.Builder.read b heap_bases.(j)
    done;
    (* The plant: under [s]'s stripe lock, write an object owned by a
       section on a different stripe, at the offset its home section
       writes.  The victim section is taken from the next iteration
       indices — those run on the other threads right now — and the
       object from the victim's re-acquired (old) window half, so the
       victim very likely holds its key when the wrong-lock write
       lands. *)
    if p.plant_every > 0 && idx mod p.plant_every = 0 then begin
      let victim = ref (section_of (idx + 1)) in
      let delta = ref 1 in
      while !victim mod p.stripes = s mod p.stripes do
        incr delta;
        victim := section_of (idx + !delta)
      done;
      let j = hot_obj ~s:!victim ~epoch ~w:(1 + (mix idx 53 mod plant_slots)) in
      Program.Builder.write b heap_bases.(j)
    end;
    if p.cs_compute > 0 then Program.Builder.compute b (p.cs_compute / 2);
    Program.Builder.unlock b ~lock;
    Program.Builder.current b
  in
  let worker tid =
    let arena = Program.Builder.create ~hint:((2 * p.writes_per_entry) + 6) () in
    let n = entries_of_thread tid in
    let work = Program.repeat n (fun k -> iteration arena ((k * threads) + tid)) in
    Program.append (Builder.wait_until ready) work
  in
  let main_thread =
    let alloc_phase =
      Builder.alloc_into_array ~n:obj_n ~size:p.object_size ~site:7999 ~bases:heap_bases
        ~count:allocated
    in
    Program.append alloc_phase (worker 0)
  in
  let (_ : int) = Machine.spawn machine main_thread in
  for tid = 1 to threads - 1 do
    let (_ : int) = Machine.spawn machine (worker tid) in
    ()
  done

let no_paper_row =
  { Spec.p_heap = 0; p_global = 0; p_ro = 0; p_rw = 0; p_total_cs = 0; p_active_cs = 0;
    p_entries = 0; p_baseline_s = 0.; p_alloc_pct = 0.; p_kard_pct = 0.; p_tsan_pct = 0.;
    p_rss_kb = 0; p_rss_kard_pct = 0.; p_dtlb_base = 0.; p_dtlb_alloc_pct = 0.;
    p_dtlb_kard_pct = 0. }

let spec ~name ~description profile =
  { Spec.name;
    category = Spec.Real_world;
    description;
    paper = no_paper_row;
    default_threads = 8;
    build = (fun ~threads ~scale ~seed machine -> build profile ~threads ~scale ~seed machine) }

(* The registry family: the same structure at three population sizes.
   Entries grow sub-linearly — the point is object count (key-space
   pressure), not more work per object.  [rotate_every] stays at twice
   the section count: a section is revisited about every [sections]
   entries, and the anchor chain (slot 0 pre-warmed as last epoch's
   slot [half]) only survives if at most one epoch boundary passes
   between consecutive visits. *)
let profile_100k =
  { default with
    objects = 100_000;
    sections = 256;
    stripes = 32;
    entries = 24_000;
    rotate_every = 512;
    min_entries = 3_200 }

let profile_1m =
  { default with
    objects = 1_000_000;
    sections = 512;
    stripes = 32;
    entries = 48_000;
    rotate_every = 1_024;
    min_entries = 4_000 }

let keys_10k =
  spec ~name:"keys-10k"
    ~description:"10k lock-protected objects over 96 sections: key pressure with planted ILU races"
    default

let keys_100k =
  spec ~name:"keys-100k"
    ~description:"100k lock-protected objects, 256 sections: deep key virtualization pressure"
    profile_100k

let keys_1m =
  spec ~name:"keys-1m"
    ~description:"1M lock-protected objects, 512 sections: object-scale limit of the vkey cache"
    profile_1m

let all = [ keys_10k; keys_100k; keys_1m ]
