(** Detectable exactly-once operations: a fixed per-client announcement
    table in its own persistent region, after the detectable-execution
    announcement structures of Ben-David et al.

    Each client owns one cache-line slot holding its current operation
    descriptor — monotone sequence number, op code / key / value, status
    word, result, announce epoch. {!announce} persists the descriptor with
    one flush and one fence before the structure op starts. A crash between
    its stores may persist any prefix of them, so it clears the status
    first and sets [announced] last: a torn announce reads as the previous
    descriptor or as an empty slot, never as the new op. {!resolve} writes
    the result and [applied] status back with one flush (the fence may be
    deferred to the caller's group commit). After a power failure,
    {!recover_resolve} decides every announced-but-unresolved slot from an
    earlier epoch by probing the recovered structure, and {!decide} turns a
    slot into a replay verdict for a given (client, seq).

    Status-word state machine:
    [empty → announced → applied], with the recovery pass taking
    [announced] to [recovered_applied] or [recovered_absent]; any state
    returns to [announced] at the next announce on the slot.

    Soundness of the probe requires the harness conventions: written
    values are unique per key and nonzero, and keys are positive. *)

type t

type op = Op_upsert | Op_remove

(** Replay verdict for an operation (client, seq): *)
type decision =
  | Not_applied  (** safe to replay (exactly-once preserved) *)
  | Applied_unknown
      (** took effect but the result was lost with the crash (resolved
          then overwritten by a newer announce, or decided by the recovery
          probe) — suppress the replay, result unavailable *)
  | Applied of int option
      (** took effect with this recorded result (the op's previous value;
          [None] = key was absent) *)

(** Host-side view of one descriptor slot (for tests and tooling). *)
type slot = {
  d_seq : int;
  d_op : int;
  d_key : int;
  d_value : int;
  d_status : int;
  d_result : int;
  d_epoch : int;
}

(** Status-word values, as stored in [d_status]: *)

val st_empty : int
val st_announced : int
val st_applied : int
val st_rec_applied : int
val st_rec_absent : int

val slot_words : int
(** Slot footprint in words — one cache line ({!Pmem.line_words}). *)

val create : mem:Memory.Mem.t -> clients:int -> t
(** Reserve and zero the region ([1 + clients] cache lines) from pool 0 at
    setup time and record it under the pool's detect root word. *)

val attach : mem:Memory.Mem.t -> t option
(** Reattach to a previously created table via the persistent root word
    (works immediately after a power failure; [None] if the pool has no
    valid table). *)

val clients : t -> int

(** {1 Fiber-context protocol steps} *)

val announce :
  t -> tid:int -> client:int -> seq:int -> op:op -> key:int -> value:int -> unit
(** Persist the descriptor before the structure op: one cache line, one
    flush, one fence. [value] is ignored by the remove probe but recorded. *)

val resolve :
  t -> tid:int -> client:int -> prev:int option -> ?fence:bool -> unit -> unit
(** Record the op's outcome (the previous value it observed) and mark the
    slot [applied]: one flush, plus one fence unless [~fence:false] defers
    durability to the caller's own trailing fence. *)

val recover_resolve :
  t -> tid:int -> probe:(tid:int -> int -> int option) -> int
(** Recovery resolve pass: decide every [announced] slot from an earlier
    epoch by probing the recovered structure ([probe ~tid key] is the
    structure's point lookup). Idempotent — safe to re-run after a crash
    that interrupted it. Returns the number of slots decided. *)

(** {1 Host-side verdicts and inspection} *)

val decide : t -> client:int -> seq:int -> decision
(** Replay verdict for operation [seq] of [client]; sound once the slot is
    resolved ({!resolve} or {!recover_resolve}). An [announced] slot left
    undecided (e.g. a skipped recovery pass) reads as {!Not_applied} — the
    unsound replay this permits is exactly what the exactly-once fault
    campaigns catch. *)

val peek_slot : t -> client:int -> slot
(** Host-side (volatile image) view of the slot. *)

val audit : t -> string list
(** Persistent-image well-formedness violations (empty = clean): header
    magic and client count, status range, descriptor plausibility. *)
