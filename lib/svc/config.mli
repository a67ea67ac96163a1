(** Service-run configuration: topology, offered load, batching and
    admission-control knobs, and an optional mid-run shard crash.
    Everything a run can vary is here (the fixed request, batch,
    scan-merge and network-hop costs and the depth-sampling interval are
    constants of {!Domains}), so a config
    plus a seed fully determines the run (and its SLO JSON, byte for
    byte). *)

type crash_plan = {
  crash_shard : int;
  crash_at_ns : float;
      (** simulated time; the shard's worker crashes its pool at the first
          batch boundary at or after this instant *)
}

type t = {
  structure : Harness.Kv.structure;
  shards : int;
  zones : int;  (** simulated NUMA zones; shard [s] pins to [s mod zones] *)
  clients : int;  (** open-loop connections *)
  requests_per_client : int;
  offered_mops : float;  (** aggregate offered load, million requests/s *)
  arrival : Sim.Arrival.kind;
  workload : Ycsb.Workload.spec;
  n_initial : int;  (** preloaded keys 1..n, split across shards by hash *)
  batch : int;  (** max requests coalesced into one worker batch *)
  queue_cap : int;
      (** per-shard admission-control bound; a request arriving at a full
          queue is shed (counted, never retried) *)
  exchange_ns : float;
      (** exchange-epoch length ({!Domains}): cross-station messages
          published during epoch [r] become visible at the start of epoch
          [r+1], so a request whose network hop ends inside its send epoch
          is admitted at that boundary instead *)
  seed : int;
  sys : Harness.Kv.sys;
      (** per-shard template; each shard gets [sys.seed + 1000*s] and its own
          pools — [numa_nodes]/[mode] here describe one shard's internal
          layout, not the service topology *)
  crash : crash_plan option;
  spans : bool;
      (** record a per-request span (phase decomposition) for every read
          and upsert; host-side only, so the simulation is unchanged *)
  window_ns : float;
      (** virtual-time window for the SLO time-series (spans runs only) *)
  detect : bool;
      (** detectable exactly-once upserts: shards allocate a per-client
          descriptor table ({!Detect}), every upsert announces before
          executing and resolves before its ack, and a crashed shard
          replays its stranded requests idempotently — provably-applied
          upserts are acked without re-execution (duplicate suppression),
          everything else is re-executed exactly once; nothing but scans
          is lost to a crash *)
}

val default : t
(** 4 shards in 4 zones, 16 clients, UPSkipList shards with one pool each,
    YCSB C over 4096 keys, Poisson arrivals at 2 Mops/s offered. *)

val mean_gap_ns : t -> float
(** Per-client mean inter-arrival gap implied by [offered_mops]. *)

(** {1 SPEC tokens}

    One key table prints, parses and validates a config, so a run is
    spelled one way on the command line and in every report. A config
    parsed by {!of_string} prints back to itself; a hand-built one may
    hold values the table does not print ([seed] apart from [sys.seed],
    [sys.pool_words], [sys.max_threads]), and {!validate} accepts it. *)

val fields : t -> (string * string) list
(** Each key with its printed value, in order: the [config] object of the
    SLO, span and tail documents. *)

val to_string : t -> string
(** {!fields} as one line of [key=value] tokens; {!of_string} inverts it. *)

val of_string : string -> (t, string) result
(** {!default} with each [key=value] token applied, then {!validate}'s
    crash-shard check. [structure], [mode] and [latency] take
    {!Harness.Kv}'s spellings, [arrival] {!Sim.Arrival.kind_of_string}'s,
    [workload] {!Ycsb.Workload.of_label}'s, [spans] and [detect]
    [on | off], [crash] [none] or [SHARD@NS]; [seed] sets [sys.seed] too.
    An unknown key's error names every key. *)

val validate : t -> (unit, string) result
(** [Ok ()] when every key's printed value parses back within its bounds
    (a latency record must be one of Kv's presets) and a crash plan names
    a shard below [shards]; otherwise the first error, naming its key. *)
