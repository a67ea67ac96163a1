(** Crash-recovery campaigns: timed recovery (Table 5.4) and
    linearizability-checked single-crash trials (Chapter 6). The trial
    engine lives in {!Fault}; this is the original single-crash surface. *)

type trial = {
  history : Lincheck.History.t;
      (** every operation of the trial, timestamps globally monotone across
          the crash *)
  recovery_ns : float;
      (** total modeled recovery (pool reopen + structure work); positive
          iff the trial crashed *)
  audit_errors : string list;
      (** persistent-heap audit report after recovery (empty = clean) *)
  crash_events : int;  (** primitive events executed before the crash *)
  kv : Kv.t;
}

val timed_recovery : Kv.t -> float
(** Simulated nanoseconds of the structure's recovery fiber. *)

val recovery_time_s : Kv.t -> float
(** Total modeled recovery time in seconds: pool reopen + recovery work —
    the quantity Table 5.4 reports. *)

val run :
  ?read_fraction:float ->
  ?audit:bool ->
  make:(unit -> Kv.t) ->
  threads:int ->
  keyspace:int ->
  ops_per_thread:int ->
  crash_events:int ->
  seed:int ->
  unit ->
  trial
(** One crash trial: recorded preload, upsert-heavy workload crashed at a
    randomized point, reconnect + recovery (+ persistent-heap audit unless
    [~audit:false]), recorded re-touch of every key. *)

val campaign :
  ?jobs:int ->
  ?read_fraction:float ->
  ?audit:bool ->
  make:(unit -> Kv.t) ->
  threads:int ->
  keyspace:int ->
  ops_per_thread:int ->
  crash_events:int ->
  seed:int ->
  trials:int ->
  unit ->
  (int * Lincheck.Checker.violation) list
(** Run [trials] independent trials and check each history; empty result =
    every trial strictly linearizable and audit-clean (audit failures are
    reported as violations on key 0). [?jobs] (default 1) distributes
    trials over a {!Sim.Pool}; the result is identical for any [jobs]. *)
