(** Deterministic discrete-event scheduler for simulated threads.

    Simulated threads are OCaml-5 effects fibers. Every persistent-memory
    primitive runs inline in the calling fiber, charged simulated
    nanoseconds by a {!machine}; a fiber yields (parks) only when another
    one is due first. The scheduler resumes the fiber with the smallest
    virtual clock, so interleavings (CAS races, lock contention, helping)
    are genuine and reproducible on a single host core.

    Each primitive has one body. A primitive reaches the run in progress in
    one of two ways: the plain wrappers ({!read}, {!write}, ...) look it up
    in [Domain.DLS] on every call; a {!Port} caches it per simulated memory
    and looks it up only when the run it cached is no longer the one being
    driven. Both reach the same body; the port is the hot path
    ([Memory.Mem] issues every access through its pool's port). A
    primitive issued outside a run raises
    [Invalid_argument "Sched: primitive issued outside a run"].

    The primitives are {!read}, {!write}, {!cas}, {!flush}, {!fence} and
    {!charge}. A memory that reads a whole cache line as one access
    ([Pmem.read_line]) issues it as one {!read} of the line's first word
    and takes the line's other words at that same instant, so a line read
    is one event here, with the latency the machine's [read] sets. A line
    read that also prefetches a second line is still that one {!read}: the
    memory arms the prefetch before issuing it, and its [read] op fetches
    both lines and sets the latency of the slower one. *)

type addr = int
(** A simulated physical word address (pool id in high bits, word index in
    low bits — see [Pmem.addr]). *)

type machine = {
  read : tid:int -> addr -> int;
  write : tid:int -> addr -> int -> unit;
  cas : tid:int -> addr -> int -> int -> bool;
  flush : tid:int -> addr -> unit;
  fence : tid:int -> unit;
  clock : float array;
  latency : float array;
}
(** Memory-system callbacks. Operations take effect at invocation time
    (their atomicity point) and return only their functional result; timing
    flows through the two shared one-cell float arrays (flat storage, so the
    hot path never boxes a float):

    - [clock.(0)] holds the current virtual time. The scheduler writes it
      before resuming any fiber, so an op reads "now" from the cell instead
      of taking a [~now] argument.
    - [latency.(0)] must be set by every op to its simulated latency in
      nanoseconds before returning; the scheduler charges it to the calling
      fiber. *)

exception Crashed
(** Raised inside a fiber when the simulated machine crashes; fibers must not
    catch it (the scheduler uses it to unwind). *)

(** {1 Primitive wrappers} — find the run through [Domain.DLS]; code that
    has a simulated memory at hand issues the same primitives through its
    {!Port}. Only valid inside a fiber run by {!run}. *)

val read : addr -> int
val write : addr -> int -> unit
val cas : addr -> expected:int -> desired:int -> bool
val flush : addr -> unit
(** Flush (write back) the cache line containing [addr] to the persistence
    domain. *)

val fence : unit -> unit
(** Store fence: orders preceding flushes before subsequent stores. *)

val charge : float -> unit
(** Charge extra simulated nanoseconds (compute time). *)

val now : unit -> float
(** Current virtual time in nanoseconds. *)

val self : unit -> int
(** The calling fiber's thread id. *)

val yield : unit -> unit
(** Reschedule after a small fixed delay (spin-wait step). *)

(** {1 Ports}

    The wrappers above find the run in progress through [Domain.DLS] on
    every call. A port is a cell that caches the run state that last used
    it, so a primitive issued through it does no domain-local lookup: the
    cached state is used while that run is being driven and no nested drive
    is in progress, and the port refreshes itself from [Domain.DLS]
    otherwise. Give each simulated memory (each [Pmem.t]) its own port and
    issue every primitive on it through that port; a port is not shared by
    simulations on concurrent domains. Results, times, event counts and
    crash points are exactly those of the wrappers above, including outside
    a run. *)

type port

module Port : sig
  type t = port

  val create : unit -> t
  val read : t -> addr -> int
  val write : t -> addr -> int -> unit
  val cas : t -> addr -> expected:int -> desired:int -> bool
  val flush : t -> addr -> unit
  val fence : t -> unit
  val charge : t -> float -> unit
  val self : t -> int
  val yield : t -> unit
end

type outcome =
  | Completed of { time : float; events : int; fibers : int }
      (** [fibers] is the number of fibers that ran to completion — always
          the number launched, or [run] would have raised. *)
  | Crashed_at of { time : float; events : int }

type crash_point =
  | No_crash
  | After_events of int
      (** crash once this many primitive events have executed: the fiber
          whose event reaches the count is unwound, then every parked one;
          [After_events 0] kills every fiber before it runs *)

val run :
  ?crash:crash_point ->
  machine:machine ->
  (int * (tid:int -> unit)) list ->
  outcome
(** [run ~machine bodies] executes every [(tid, body)] fiber to completion
    (or until the crash point), interleaving by virtual time. Returns the
    final virtual time and the number of primitive events executed. Tids
    must be non-negative and pairwise distinct (they index the scheduler's
    parked-fiber table); [Invalid_argument] otherwise.

    A primitive runs entirely inline — no effect performed, no
    continuation captured, no heap traffic — whenever the calling fiber
    would wake up strictly earlier than every parked fiber; it only yields
    through the event heap when another fiber is due first (ties go to the
    fiber parked first). Simulated times, event counts, interleavings and
    crash points are those of a scheduler that parks at every primitive
    (test/support's reference scheduler, which the tests compare against).

    On a non-crashed completion every fiber must have finished; if the event
    queue drains while a fiber is still suspended (a scheduler or workload
    bug), [run] raises [Failure] instead of silently returning. *)

(** {1 Epoch-bounded sessions}

    A session is a [run] driven in externally-controlled slices: each
    {!step} executes exactly the events whose virtual wake-up time lies
    strictly below its [until] bound and leaves everything else parked in
    the heap. The concatenation of a session's steps replays the same event
    sequence as one unbounded [run] over the same bodies, so a caller can
    interleave steps of many independent schedulers on one domain — or pin
    each session to its own domain and step them in parallel between
    synchronisation barriers — with bit-identical per-session results
    (see [Svc.Domains]). *)

type session

val open_session :
  ?crash:crash_point ->
  machine:machine ->
  (int * (tid:int -> unit)) list ->
  session
(** Create a session over [bodies]: resets [machine.clock.(0)] to [0.0] and
    parks every fiber at its staggered start time, exactly as [run] does,
    but executes nothing yet. Argument validation as for {!run}. *)

val step : session -> until:float -> unit
(** Run the session's events with wake-up time [< until] (in virtual-time
    order, ties broken as in [run]). Events at or beyond [until] — including
    fibers that would have advanced inline past it — stay parked for a later
    step. A step with nothing due is a no-op. [Invalid_argument] after
    {!finish}. *)

val finish : session -> outcome
(** Run every remaining event to completion (or to the crash point) and
    return the outcome, with the same hung-fiber check as {!run}.
    Idempotent: repeated calls return the first outcome. *)
