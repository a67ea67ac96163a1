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
    coordinator — with all stations quiescent — moves frontend→shard
    request mailboxes and shard→frontend scan-result mailboxes in a fixed
    order. Messages published during round [r] are visible from round
    [r+1]; admission (bounded-queue push, or shed when the queue is full)
    happens at the receiving shard at the epoch boundary.

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
    Raw trace event order is excluded from that promise (a worker domain's
    events absorb as one contiguous segment).

    A config crash plan power-fails the owning shard at the first batch
    boundary at or after the crash time: its pools crash (dropping
    unflushed lines), its queued backlog is lost, and it reconnects, pays
    the pool-reopen cost and runs structure recovery in-line — in detect
    mode followed by exactly-once replay with duplicate suppression —
    inside the shard's own station while every other station keeps
    serving. [completed_in_outage] attribution is round-granular (computed
    from per-round completion snapshots).

    With [cfg.spans] on, every completed read/upsert additionally records
    a {!Obs.Span.t}: a hop/queue/batch/exec/commit decomposition of its
    latency (summing to the SLO-recorded value exactly at ns resolution),
    its group-commit fence wait, the overlap of its queue wait with the
    shard's recovery outage, and the PMEM counter deltas of its own
    structure operation — plus the windowed SLO time-series
    ({!Slo.window}). The hop phase includes exchange-epoch residence, and
    scan merge cost is charged on the frontend's clock. Span recording is
    host-side only: every non-span report field is byte-identical with
    spans on or off. *)

val run : ?domains:int -> Config.t -> Slo.t
(** [run ~domains cfg] — one full run: per-shard preload of keys
    [1..n_initial] (hash-routed), then traffic until every client stream
    ends and every queue drains. [domains <= 1] (default) executes every
    station sequentially on the calling domain; [domains = n > 1] spawns
    up to [min n cfg.shards] worker domains for the shard stations,
    keeping the frontend on the caller. The report is a function of the
    config (including its seed) alone, independent of [domains].
    @raise Invalid_argument when {!Config.validate} rejects the config. *)
