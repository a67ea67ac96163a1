(** The service engine: one deterministic simulated run of a sharded KV
    service over {!Harness.Kv} backends, with one scheduler and one
    {!Pmem.t} per shard, stepped in exchange epochs, and cross-station
    traffic moved through per-pair mailboxes at epoch boundaries only.

    Stations: the frontend (client fibers plus a scan-aggregator fiber, on
    a machine that rejects PMEM ops) and one station per shard (worker
    fiber with tid = shard, plus a queue-depth sampler) on the shard's own
    {!Harness.Kv} machine, with its own pools, pinned to zone
    [s mod zones]. Clients are open-loop connections generating YCSB
    traffic with seeded inter-arrival gaps and zone-aware network hops.
    Every round, each station steps its scheduler session up to the next
    multiple of [cfg.exchange_ns] ({!Sim.Sched.step}); then the
    coordinator — with all stations at rest — moves frontend→shard
    request mailboxes and shard→frontend scan-result mailboxes in a fixed
    order. Messages published during round [r] are visible from round
    [r+1]. A request leaves its client at its scheduled instant, stamped
    with the end of its network hop; the receiving shard admits it
    (bounded-queue push, or shed when the queue is full) at that instant,
    or at the start of the round that received it if the hop ended
    earlier. Idle fibers sleep until their input can change instead of
    polling.

    Per-shard workers batch up to [batch] queued requests, pay one
    batch-overhead charge, and group-commit: upserts in a batch are
    acknowledged only after a single trailing fence (one flush epoch per
    batch).

    Because stations share no mutable state between exchanges and all
    merges (histograms, counters, span summaries, per-client ledgers,
    depth series) are exact and in fixed station order, [run ~domains:1]
    (sequential round-robin on the calling domain) and [run ~domains:n]
    (stations pinned to parallel domains via {!Sim.Pool.run_phased})
    produce byte-identical {!Slo.to_json}, {!Slo.spans_to_json} and
    [Obs.totals] output — the @svc/domains runtest gate enforces this.
    A traced run steps every station on the calling domain, so its trace is
    the sequential run's.

    A config crash plan power-fails the owning shard at the first batch
    boundary at or after the crash time: its pools crash (dropping
    unflushed lines), its queued backlog is lost, and it reconnects, pays
    the pool-reopen cost and runs structure recovery in-line — in detect
    mode followed by exactly-once replay with duplicate suppression —
    inside the shard's own station while every other station keeps
    serving. [completed_in_outage] attribution is round-granular: at
    exchange time, with every station at rest, the coordinator takes
    each shard's completion count at the end of the round before the
    outage's first round, and again at the end of the round the recovery
    ended in (or the last round, if the run ends first); the share is
    the difference. It holds O(shards) counts at any run length.

    With [cfg.spans] on, every completed read/upsert additionally records
    a {!Obs.Span.t}: a hop/queue/batch/exec/commit decomposition of its
    latency (summing to the SLO-recorded value exactly at ns resolution),
    its group-commit fence wait, the overlap of its queue wait with the
    shard's recovery outage, and the PMEM counter deltas of its own
    structure operation — plus the windowed SLO time-series
    ({!Slo.window}). The hop phase is the network hop, plus the rest of
    the send round when the hop ends inside it; scan merge cost is charged
    on the frontend's clock. Span recording is
    host-side only: every non-span report field is byte-identical with
    spans on or off. *)

val net_local_ns : float
(** Simulated client→shard network hop within a zone: 300 ns. *)

val net_remote_ns : float
(** Simulated client→shard network hop across zones: 900 ns. *)

val run : ?domains:int -> Config.t -> Slo.t
(** [run ~domains cfg] — one full run: per-shard preload of keys
    [1..n_initial] (hash-routed), then traffic until every client stream
    ends and every queue drains. [domains <= 1] (default) executes every
    station sequentially on the calling domain; [domains = n > 1] spawns
    up to [min n cfg.shards] worker domains for the shard stations,
    keeping the frontend on the caller. The report is a function of the
    config (including its seed) alone, independent of [domains].
    @raise Invalid_argument when {!Config.validate} rejects the config. *)
