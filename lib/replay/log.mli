(** The compact nondeterminism log: versioned binary format.

    A run of the simulated machine is fully determined by its program,
    its configuration and two streams the scheduler layer funnels:
    the schedule picks and the lock-grant order (FIFO wakeup makes the
    grants a pure function of the picks, but the log carries them
    anyway — they are the replay-time fidelity check, and the bytes
    are cheap).  The log records the configuration fingerprint in a
    header and the streams as a tagged byte body; see DESIGN.md
    section 13 for the wire-format contract and the bytes-per-step
    budget (~1 byte per scheduler step for the first 240 threads,
    plus ~3 bytes per lock acquisition and a few bytes per anchor).

    Decoding is strict: a truncated body, an unknown tag, a
    non-canonical encoding or a trailer/body count mismatch all raise
    {!Error} rather than produce a best-effort log — replaying an
    approximate schedule would silently re-execute a different run. *)

type header = {
  detector : string;  (** Runner detector name: ["kard"], ["baseline"], ... *)
  target : string;
      (** What was recorded: ["spec:NAME"], ["scenario:NAME"] or
          ["fuzz:SEED:INDEX"] (a campaign-generated program,
          reconstructible from the two integers). *)
  threads : int;
  scale : float;  (** Exact bit pattern — not a decimal rendering. *)
  seed : int;
  shards : int;
      (** Kept on the wire for compatibility with logs from the retired
          sharded machine; always 1 in new logs, ignored by replay. *)
  config : Kard_core.Config.t option;
      (** The full detector configuration for kard recordings ([None]
          for detectors without one): every knob, not just the CLI
          surface, so scenario configs replay exactly. *)
}

val header :
  detector:string -> target:string -> threads:int -> scale:float -> seed:int ->
  ?config:Kard_core.Config.t -> unit -> header
(** A header for a new log, with the [shards] wire field at 1. *)

type event =
  | Pick of int  (** The scheduler chose this tid for the next step. *)
  | Grant of { lock : int; tid : int }
      (** [tid] entered the critical section on [lock] (the machine's
          [on_lock] point — uncontended acquire or FIFO ownership
          transfer). *)
  | Anchor of { picks : int; clock : int }
      (** Periodic checkpoint: absolute pick count and absolute
          virtual clock at a grant.  Pins clock-derived state —
          open-loop arrival timetables, sampling-epoch rotation — to
          the recorded timeline; verified on same-config replays,
          skipped (clock half) on cross-detector ones. *)

type t = private {
  header : header;
  body : string;
      (** The records exactly as on the wire, from just after the
          header up to (not including) the end tag.  A log is held in
          memory as these bytes — about 1.35 bytes per step on
          memcached — never as a per-step event list. *)
  pick_count : int;
  grant_count : int;
  anchor_count : int;
}
(** Built only by {!contents}, {!decode} and {!of_events}, so [body]
    is always well formed and the counts always match it. *)

type error =
  | Bad_magic          (** Not a kard replay log. *)
  | Version_mismatch of int  (** A log from a different format version. *)
  | Truncated          (** Ran out of bytes mid-record or before the end marker. *)
  | Corrupt of string  (** Structurally invalid (bad tag, count mismatch, ...). *)

exception Error of error

val error_to_string : error -> string

val magic : string
(** First four bytes of every log: ["KRDL"]. *)

val version : int
(** The wire-format version this build reads and writes. *)

(** {1 Writing}

    A streaming body writer: each record is encoded as it is written,
    so a recording grows its wire bytes during the run and allocates
    nothing on the minor heap per record. *)

type writer

val writer : unit -> writer

val write_pick : writer -> int -> unit
(** @raise Invalid_argument on a negative tid. *)

val write_grant : writer -> lock:int -> tid:int -> unit
(** @raise Invalid_argument on a negative lock or tid. *)

val write_anchor : writer -> picks:int -> clock:int -> unit
(** Absolute pick count and clock; stored delta-coded.
    @raise Invalid_argument if either is below the previous anchor's
    (a recorder bug, not an input error). *)

val written_picks : writer -> int
val written_grants : writer -> int

val contents : writer -> header:header -> t
(** The log written so far, under [header].  The writer stays usable. *)

(** {1 Codec} *)

val encode : t -> string
(** Header, body, end tag and count trailer. *)

val decode : string -> t
(** Inverse of {!encode}: one validating pass over the body, then one
    copy of it. @raise Error on anything malformed. *)

val to_file : string -> t -> unit
val of_file : string -> t

(** {1 Reading} *)

val iter :
  t -> pick:(int -> unit) -> grant:(lock:int -> tid:int -> unit) ->
  anchor:(picks:int -> clock:int -> unit) -> unit
(** Walk the body in stream order.  Anchors arrive with their absolute
    pick count and clock. *)

val picks : t -> int array
(** The pick stream alone — feed to {!Kard_sched.Schedule.Replay}. *)

val pick_count : t -> int
val grant_count : t -> int
val anchor_count : t -> int
(** O(1): the counts are cached in [t]. *)

(** {1 Event lists}

    Cold conversions for tests and tools that edit a log record by
    record.  [of_events] applies the writer's checks. *)

val of_events : header -> event list -> t
val events : t -> event list

val pp_header : Format.formatter -> header -> unit
