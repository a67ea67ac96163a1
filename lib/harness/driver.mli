(** Workload execution: preload, timed playback, latency collection.
    Throughput is total operations over the longest thread's virtual span;
    per-operation latencies are virtual-time differences (the thesis's
    methodology). *)

type op_digest = {
  op : string;  (** "read" / "update" / "insert" / "scan" *)
  count : int;  (** operations of this type executed *)
  totals : int array;
      (** [Obs.n_ids] cells: summed per-op counter deltas (flushes, fences,
          CAS failures, restarts, repairs, …) attributed to this op type *)
}

type result = {
  ops : int;
  sim_ns : float;  (** simulated span of the whole run *)
  throughput_mops : float;  (** simulated million operations per second *)
  read_hist : Sim.Histogram.t;
      (** nanoseconds per read, log-bucketed (O(1) insert, exact mean,
          percentiles within [Sim.Histogram.max_rel_error]) *)
  update_hist : Sim.Histogram.t;
  insert_hist : Sim.Histogram.t;
  scan_hist : Sim.Histogram.t;
  digests : op_digest list;
      (** per-op-type counter attribution, op types in stream order; types
          with zero executed ops are omitted *)
}

val value_of : tid:int -> seq:int -> int
(** Unique nonzero value for an upsert (below BzTree's 2^50 bound). *)

val preload : Kv.t -> threads:int -> n:int -> unit
(** Insert keys [1..n] from [threads] fibers (round-robin). *)

val run_workload :
  Kv.t ->
  spec:Ycsb.Workload.spec ->
  threads:int ->
  n_initial:int ->
  ops_per_thread:int ->
  seed:int ->
  result
(** Generate per-thread streams and play them back, one fiber per thread. *)

val throughput_trials :
  Kv.t ->
  spec:Ycsb.Workload.spec ->
  threads:int ->
  n_initial:int ->
  ops_per_thread:int ->
  seed:int ->
  trials:int ->
  float * float
(** Mean and standard deviation of throughput over [trials] seeded runs
    (the paper's 3-trial averages with error bars). *)
