(** Service-run configuration: topology, offered load, batching and
    admission-control knobs, cost model, and an optional mid-run shard
    crash. Everything that affects the simulation is here, so a config plus
    a seed fully determines the run (and its SLO JSON, byte for byte). *)

type crash_plan = {
  crash_shard : int;
  crash_at_ns : float;
      (** simulated time; the shard's worker crashes its pool at the first
          batch boundary at or after this instant *)
}

type t = {
  structure : string;  (** [Kv.make_named] spelling, e.g. "upskiplist" *)
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
  net_local_ns : float;  (** client→shard hop within a zone *)
  net_remote_ns : float;  (** client→shard hop across zones *)
  req_overhead_ns : float;  (** per-request parse/dispatch cost *)
  batch_overhead_ns : float;  (** fixed cost per worker batch *)
  merge_ns_per_item : float;  (** scan fan-out reduce cost per element *)
  poll_ns : float;  (** worker idle-poll interval *)
  sample_ns : float;  (** monitor sampling interval for depth series *)
  exchange_ns : float;
      (** exchange-epoch length ({!Domains}): cross-station messages
          published during epoch [r] become visible at the start of epoch
          [r+1] *)
  seed : int;
  sys : Harness.Kv.sys;
      (** per-shard template; each shard gets [seed + 1000*s] and its own
          pools — [numa_nodes]/[mode] here describe one shard's internal
          layout, not the service topology *)
  crash : crash_plan option;
  spans : bool;
      (** record a per-request span (phase decomposition) for every read
          and upsert; host-side only, so the simulation is unchanged *)
  span_top : int;  (** slowest spans retained in full (default 1024) *)
  span_sample : int;  (** reservoir sample size over all spans *)
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

val validate : t -> (unit, string) result
(** First configuration error, if any; [Ok ()] when runnable. *)
