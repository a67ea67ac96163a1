(** Deterministic observability: structure-level counters with per-fiber
    attribution, plus an event-trace ring buffer with a Chrome
    [trace_event] JSON exporter.

    The counter registry is always on (plain host-side integer bumps that
    never touch simulated state, so simulated results are unaffected);
    tracing is off by default and costs one domain-local load per potential
    event while disabled. Everything here is driven exclusively by virtual
    time and seeded randomness, so counter values and exported traces are
    byte-identical across runs with the same seed.

    All state is domain-local: each OCaml domain has its own counter rows
    and trace ring, so parallel simulations ({!Sim.Pool}) never share
    observability state. {!snapshot} and {!add_delta} let a pool merge a
    worker domain's per-job counter deltas back into the caller's domain in
    job order, keeping totals identical to a sequential run. *)

(** {1 Counter ids}

    Counters are a fixed id-indexed registry so per-fiber rows stay flat
    arrays. Ids [0..4] mirror PMEM persistence primitives (attributed per
    fiber here; the global totals live in [Pmem.counters]); the rest are
    structure-level events. *)

val id_flush : int  (** PMEM flushes issued *)

val id_dirty_flush : int  (** flushes that wrote a line back *)

val id_fence : int  (** persistence fences *)

val id_pmem_cas : int  (** machine-level CAS operations *)

val id_pmem_cas_fail : int  (** machine-level CAS failures *)

val id_cas : int  (** skip-list-level CAS attempts (node fields, locks) *)

val id_cas_fail : int  (** skip-list-level CAS failures *)

val id_restart : int  (** traversal restarts forced by a lazy repair *)

val id_epoch_repair : int  (** epoch-ID claims during lazy recovery *)

val id_retired : int
(** The slot of the counters nothing bumps any more ({!id_split_repair},
    {!id_finger_hit}, {!id_finger_invalid}): it stays 0, and its name is
    [retired]. *)

val id_split_repair : int
(** Interrupted node splits repaired, {!id_retired}: a split a crash
    interrupts leaves nothing to repair (its moved keys are dead by the
    new node's anchor). Kept because [perf/] reads it. *)

val id_tower_repair : int  (** incomplete towers rebuilt *)

val id_help : int  (** helping events: the allocator advancing a stale free-list tail *)

val id_split : int  (** node splits completed *)

val id_split_tail : int
(** node splits that took the tail cut: the overflowing key ranked among
    the node's top K/8 keys, with room above the node, so only those keys
    moved (a subset of {!id_split}) *)

val id_alloc : int  (** allocator blocks grabbed *)

val id_free : int  (** blocks returned to the free lists *)

val id_chunk : int  (** chunks provisioned (carved and linked) *)

(** Service-layer events (the [svc] sharded KV service in front of the
    structures): *)

val id_svc_enqueue : int  (** requests admitted to a shard queue *)

val id_svc_shed : int  (** requests shed by admission control / downed shard *)

val id_svc_batch : int  (** request batches dispatched by shard workers *)

val id_svc_group_flush : int
(** service-level group-commit fences (one per batch with upserts) *)

(** Cache and traversal-locality events: *)

val id_load_miss : int
(** simulated cache misses on loads (per-fiber attribution of
    [Pmem.counters.load_misses]) *)

val id_store_miss : int
(** simulated cache misses on stores (per-fiber attribution of
    [Pmem.counters.store_misses]) *)

val id_prefetch : int
(** lines a read fetched beside the line it reads ([Pmem.read_line]'s
    [~prefetch]; per-fiber attribution of [Pmem.counters.prefetches]) *)

val id_prefetch_miss : int
(** prefetched lines that missed the timing cache: a subset of
    {!id_load_miss}, which then counts demand fetches plus these *)

val id_finger_hit : int
(** {!id_retired}: it counted traversals that resumed from a per-fiber
    search finger, and the skip list no longer keeps fingers. The id stays
    so that the benchmark's per-layer metrics keep working. *)

val id_finger_invalid : int
(** {!id_retired}, like {!id_finger_hit}: it counted finger candidates
    rejected by epoch validation. *)

val id_fp_match : int
(** node-slot key reads caused by a matching key fingerprint (lookups and
    the presence pass of inserts) *)

val id_fp_false_positive : int
(** fingerprint matches whose slot held a different key *)

val id_hint_stop : int
(** traversal levels ended by a successor-key hint, without loading the
    overshoot node *)

val id_hint_stale : int
(** nodes a traversal entered whose anchor exceeded its key (a stale-low
    hint let it in) *)

val id_fp_confirm : int
(** fingerprint lines repaired from their keys and confirmed for the
    current epoch (a miss or an insert on a node a crash left unconfirmed;
    at most one per node per epoch) *)

(** Detectable-operation events (the [detect] per-client announcement
    table, plus the service-layer replay protocol built on it): *)

val id_detect_announce : int
(** operation descriptors announced (persisted before the structure op) *)

val id_detect_resolve : int
(** descriptors resolved in-line (status + result persisted before ack) *)

val id_detect_recover : int
(** announced-but-unresolved descriptors decided by a recovery resolve
    pass (probe against the recovered structure) *)

val id_svc_replay : int
(** requests replayed after a shard power failure (decided not-applied) *)

val id_svc_dup_suppress : int
(** requests acked by duplicate suppression (decided already-applied, so
    the replay was suppressed) *)

val n_ids : int
(** Number of counter ids; rows and snapshots have this length. *)

val id_name : int -> string
(** Stable short name of a counter id (used in tables and metrics JSON). *)

(** {1 Per-fiber counters} *)

val bump : tid:int -> int -> unit
(** Increment counter [id] for fiber [tid] (rows grow on demand). *)

val counter : tid:int -> int -> int
(** Current value of counter [id] for fiber [tid] (0 if never bumped). *)

val read_row : tid:int -> into:int array -> unit
(** Copy fiber [tid]'s [n_ids] counters into [into] (for snapshot/diff
    attribution around an operation without allocating). *)

val total : int -> int
(** Sum of counter [id] over every fiber. *)

val totals : unit -> int array
(** Fresh id-indexed array of totals over every fiber. *)

val reset : unit -> unit
(** Zero every counter of every fiber (in the calling domain). *)

(** {1 Cross-domain merging}

    Used by [Sim.Pool] to keep counters byte-identical between sequential
    and parallel execution: a worker snapshots its rows around each job and
    the caller adds the per-job deltas, in job order, into its own rows. *)

val snapshot : unit -> int array array
(** Deep copy of the calling domain's per-fiber rows. *)

val add_delta : before:int array array -> after:int array array -> unit
(** Add the per-counter difference [after - before] (two {!snapshot}
    results, [before] possibly with fewer rows) into the calling domain's
    rows. *)

(** {1 Request spans} *)

module Span : sig
  (** Request-scoped latency decomposition for the service layer: one
      value per finished request, carrying its identity, end-to-end
      latency, and measured per-phase durations that telescope to the
      latency by construction. Span ids derive from
      [(client id, per-client request index)] — never from wall clock —
      so identical seeds give identical spans, and a collector retains the
      slowest requests (bounded min-heap) plus a seeded reservoir sample
      of the rest, both byte-deterministic. *)

  (** {2 Phases} *)

  val ph_hop : int  (** client→shard network hop *)

  val ph_queue : int  (** wait in the shard's admission queue *)

  val ph_batch : int
  (** batch formation: pop→own-exec-start (batch overhead, per-request
      overhead, peers executed earlier in the batch) *)

  val ph_exec : int  (** this request's own structure operation *)

  val ph_commit : int
  (** exec-end→ack: peers executed later in the batch plus the
      group-commit fence (0 for reads, acked at exec end) *)

  val n_phases : int

  val phase_name : int -> string
  (** Stable short name ("hop", "queue", ...); raises on a bad phase. *)

  val id : client:int -> seq:int -> int
  (** Deterministic span id: [client lsl 24 lor seq]. *)

  type t = {
    sp_id : int;
    sp_client : int;
    sp_seq : int;  (** per-client request index (scans included) *)
    sp_shard : int;
    sp_op : int;  (** 0 read, 1 upsert *)
    sp_arrival : float;  (** virtual ns *)
    sp_lat : float;  (** end-to-end latency as recorded in the SLO *)
    sp_phase : float array;  (** [n_phases] measured phase durations, ns *)
    sp_fence : float;  (** group-commit fence wait inside [ph_commit] *)
    sp_recovery : float;
        (** overlap of the queue wait with the shard's recovery outage
            window (inside [ph_queue]) *)
    sp_replay : int;
        (** detectable-op outcome attribution: 0 first execution, 1
            replayed after a shard crash, 2 acked by duplicate
            suppression *)
    sp_flushes : int;  (** PMEM flushes during this request's exec *)
    sp_fences : int;
    sp_load_misses : int;
  }

  val phase_sum : t -> float
  (** Left-to-right sum of the phase durations (fixed fold order, so the
      residual below is reproducible). *)

  val residual : t -> float
  (** [|phase_sum - sp_lat|] — 0 up to last-ulp float noise (≪ 1e-6 ns). *)

  (** {2 Collector} *)

  type collector

  val create : ?top:int -> ?sample:int -> seed:int -> unit -> collector
  (** Retains the [top] slowest spans (default 1024; ties broken by id)
      and a [sample]-sized reservoir of all spans (default 512, algorithm
      R over a seeded splitmix64 stream). *)

  val record : collector -> t -> unit

  val count : collector -> int
  (** Spans recorded (retained or not). *)

  val tops : collector -> t list
  (** The retained slowest spans, slowest first. *)

  val sampled : collector -> t list
  (** The reservoir, in ascending span-id order. *)

  val phase_totals : collector -> float array
  (** Per-phase duration sums over {e all} recorded spans. *)

  val lat_total : collector -> float

  val fence_total : collector -> float

  val recovery_total : collector -> float

  val residual_max : collector -> float
  (** Worst conservation residual seen, ns. *)

  val residual_violations : collector -> int
  (** Spans whose residual exceeded 1e-6 ns (always 0 unless the
      instrumentation is wrong). *)
end

(** {1 Event trace} *)

module Trace : sig
  (** Ring buffer of (virtual-time, fiber, kind, payload) events. Callers
      guard emission with [if enabled () then emit ...] so a disabled trace
      costs one domain-local load. When the ring fills, the oldest events
      are overwritten and counted in {!dropped}. The ring is per-domain:
      a trace records only events emitted on the domain that started it. *)

  val enabled : unit -> bool
  (** Whether events are being recorded on this domain. Use {!start} /
      {!stop}. *)

  (** {2 Event kinds}

      Counter ids double as trace kinds for the countable events (a flush
      event has kind [id_flush], and so on). The kinds below are
      trace-only. *)

  val k_resume : int  (** scheduler resumed a parked fiber *)

  val k_park : int  (** fiber parked until the wake time in [farg] *)

  val k_fiber_done : int  (** fiber body returned *)

  val k_fiber_crash : int  (** fiber unwound by a crash point *)

  val k_op_begin : int  (** workload op started; [arg] = op code 0..3 *)

  val k_op_end : int  (** workload op finished *)

  val k_req_phase : int
  (** service request phase: [arg] = span id × 8 + phase, [ts] the phase
      start, [farg] its duration (see {!Span}) *)

  val start : ?capacity:int -> unit -> unit
  (** Clear the ring (default capacity 65536 events) and enable
      recording. *)

  val stop : unit -> unit
  (** Disable recording; recorded events remain readable. *)

  val clear : unit -> unit
  (** Drop all recorded events (keeps the enabled flag as is). *)

  val emit : ts:float -> tid:int -> kind:int -> arg:int -> farg:float -> unit
  (** Record one event: [ts] virtual ns, [arg] an integer payload (address
      or op code), [farg] a float payload (duration or wake time). *)

  val recorded : unit -> int
  (** Events currently held in the ring. *)

  val dropped : unit -> int
  (** Events overwritten because the ring was full. *)

  val total_emitted : unit -> int
  (** Events ever emitted on this domain's ring (recorded + dropped);
      monotone while the ring is not restarted. *)

  val iter_retained :
    (ts:float -> tid:int -> kind:int -> arg:int -> farg:float -> unit) -> unit
  (** Visit the retained events, oldest first (the surviving window after
      any drop-oldest overflow). *)

  val to_chrome :
    ?counter_tracks:(string * (float * float) list) list -> unit -> Json.t
  (** Render the recorded events as a Chrome [trace_event] document
      (schema [upskip-obs-trace/3]; one track per fiber, timestamps in
      microseconds of virtual time, PMEM primitives and workload ops as
      duration slices, request phases as async begin/end pairs keyed by
      span id, everything else as instants). [counter_tracks] adds named
      counter ("C") series, each a [(virtual-ns, value)] list. Identical
      for identical event streams and tracks. *)
end
