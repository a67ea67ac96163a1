(** SLO report for a service run: per-shard and merged latency
    distributions, goodput vs shed rate, queue-depth time series, and a
    deterministic JSON rendering (same seed + config ⇒ byte-identical
    output — it is diffed in regression tests). *)

type lat_summary = {
  p50 : float;
  p99 : float;
  p999 : float;
  mean : float;
  max : float;
  count : int;
}

val summarize : Sim.Histogram.t -> lat_summary
(** All zeros when the histogram is empty. *)

type shard_report = {
  shard : int;
  zone : int;
  s_enqueued : int;  (** sub-requests admitted (scan parts count each) *)
  s_completed : int;
  s_shed : int;
  s_lost : int;  (** backlog dropped when the shard crashed *)
  s_batches : int;
  s_group_flushes : int;
  queue_high_water : int;
  crashed : bool;
  down_ns : float;  (** outage duration; 0 when the shard never crashed *)
  completed_in_outage : int;
      (** this shard's completions inside the run's outage window — for
          healthy shards the liveness signal while a peer recovers *)
  audit_errors : int;
  shard_lat : Sim.Histogram.t;  (** per-sub-request service latency *)
}

type client_report = {
  cr_client : int;
  cr_shed : int;  (** this client's requests dropped by admission control *)
  cr_replayed : int;  (** requests re-executed after a shard crash *)
  cr_suppressed : int;  (** upserts acked without re-execution *)
}

type window = {
  w_idx : int;  (** window index; window [i] covers [[i*w, (i+1)*w)] ns *)
  w_completed : int;  (** read/upsert acks inside the window *)
  w_shed : int;
  w_fences : int;  (** group-commit fences *)
  w_depth : float;  (** mean total queue depth over the monitor samples *)
  w_phase : Sim.Histogram.t array;
      (** per-phase latency of the requests acked in this window *)
}

type span_summary = {
  sp_count : int;  (** spans recorded (every completed read/upsert) *)
  sp_top : Obs.Span.t list;  (** slowest retained spans, slowest first *)
  sp_sample : Obs.Span.t list;  (** seeded reservoir over all spans *)
  sp_phase_hist : Sim.Histogram.t array;  (** per-phase, all spans *)
  sp_phase_sum : float array;
  sp_lat_sum : float;
  sp_fence_sum : float;
  sp_recovery_sum : float;
  sp_residual_max : float;  (** worst |Σphases − latency|, ns *)
  sp_residual_violations : int;  (** spans with residual > 1e-6 ns *)
  sp_outages : (int * float * float) list;
      (** (shard, outage start, outage end) for crashed shards *)
}

val empty_summary : unit -> span_summary
(** A zero summary (fresh histograms, empty lists) — the unit of
    {!merge_summaries}. *)

val merge_summaries : span_summary list -> span_summary
(** Exact aggregate over independent runs (crash-grid trials): histograms
    and sums merge, the top list is the slowest-N of the union, samples
    and outages concatenate in run order. Deterministic given the input
    order. *)

type t = {
  config_summary : (string * string) list;
      (** ordered, deterministic key/value rendering of the config *)
  span_ns : float;
  requests : int;  (** client-issued (a scan counts once) *)
  enqueued : int;
  completed : int;
  shed : int;
  lost : int;
  failed_scans : int;  (** scans with at least one shed or lost part *)
  replayed : int;
      (** detect mode: stranded requests re-executed after a shard crash *)
  dup_suppressed : int;
      (** detect mode: stranded upserts acked from their descriptor
          without re-execution (they had provably taken effect) *)
  client_reports : client_report list;
      (** per-client ledger, ascending by client id *)
  goodput_mops : float;  (** client-visible completions / span *)
  offered_mops : float;
  shed_rate : float;
      (** fraction of issued requests that never completed (shed, lost, or
          failed-scan), i.e. [(requests - completed) / requests] *)
  remote_fraction : float;
      (** fraction of PMEM media accesses (timing-cache misses plus
          dirty-line write-backs) that crossed NUMA zones, summed over all
          shards *)
  merged : Sim.Histogram.t;  (** client-visible request latency, all shards *)
  shard_reports : shard_report list;
  depth_series : (float * int array) list;
      (** (time, per-shard queue depth) samples, ascending in time *)
  window_ns : float;  (** windowing period of [windows] *)
  windows : window list;  (** ascending by index; empty when spans off *)
  spans : span_summary option;  (** [Some] iff the config enabled spans *)
}

val to_json : t -> Json.t
(** The [upskip-svc-slo/4] document (fixed key order, fixed number
    formatting). *)

val spans_to_json : t -> Json.t
(** Standalone span-summary document (schema [upskip-svc-spans/1]):
    config, end-to-end latency, windowed time-series, and the span
    summary. Byte-deterministic like {!to_json}. *)

val pp : Format.formatter -> t -> unit
(** Human-readable table: totals, merged percentiles, one row per shard;
    when spans were recorded, followed by the tail-anatomy breakdown
    ({!pp_anatomy}). *)

val pp_anatomy :
  Format.formatter -> merged:Sim.Histogram.t -> span_summary -> unit
(** Conservation line, outage windows, and the per-phase mean breakdown
    for the all/p99+/p99.9+ latency cohorts (cohort thresholds from
    [merged]), ending with the p99.9 cohort's excess-latency attribution
    to named phases. *)
