(* Crash-recovery campaigns: timed recovery runs (Table 5.4) and
   linearizability-checked crash trials (Chapter 6).

   The trial engine itself lives in {!Fault} (which generalises it to
   multi-crash, swept, adversarial campaigns); this module keeps the
   original single-crash entry points: a trial preloads the structure,
   plays an upsert-heavy workload over a small keyspace, injects a crash
   at a randomized virtual-time point, reconnects and recovers, then
   re-touches and reads back every key under the strict-linearizability
   checker. *)

module History = Lincheck.History

type trial = {
  history : History.t;
  recovery_ns : float;  (* modeled recovery: pool reopen + structure work *)
  audit_errors : string list;
  crash_events : int;
  kv : Kv.t;
}

(* Run the structure's recovery work as a single fiber and return its
   simulated duration in nanoseconds. *)
let timed_recovery (kv : Kv.t) =
  match
    Sim.Sched.run ~machine:(Kv.machine kv)
      [ (0, fun ~tid -> kv.Kv.recover ~tid) ]
  with
  | Sim.Sched.Completed { time; _ } -> time
  | Sim.Sched.Crashed_at _ -> failwith "timed_recovery: unexpected crash"

(* Total modeled recovery time (pool reopen + structure work), seconds. *)
let recovery_time_s (kv : Kv.t) =
  (Fault.pool_open_ns ~pools:kv.Kv.pools +. timed_recovery kv) /. 1.0e9

(* One full crash trial. [read_fraction] of the workload ops are reads;
   the rest are upserts over a small keyspace (high collision probability,
   as in the thesis's correctness campaign). The crash point is randomized
   in [crash_events, 1.5 * crash_events) from [seed], as the original
   campaign did. *)
let run ?(read_fraction = 0.2) ?(audit = true) ~make ~threads ~keyspace
    ~ops_per_thread ~crash_events ~seed () =
  let rng = Sim.Rng.create seed in
  let crash_at = crash_events + Sim.Rng.int rng (max 1 (crash_events / 2)) in
  let spec =
    {
      Fault.default_spec with
      threads;
      keyspace;
      ops_per_thread;
      read_fraction;
      crash_at;
      rounds = 1;
      depth = 0;
      adversary = Fault.Config_default;
      draw_seed = seed;
      seed;
      audit;
    }
  in
  let r = Fault.run_trial ~make spec in
  {
    history = r.Fault.history;
    recovery_ns = r.Fault.recovery_ns;
    audit_errors = r.Fault.audit_errors;
    crash_events = r.Fault.crash_events;
    kv = r.Fault.kv;
  }

(* Run [trials] independent crash trials and check each; returns the list
   of violations found (empty = strictly linearizable in every trial).
   Persistent-heap audit failures are folded in as violations on key 0. *)
let campaign ?(jobs = 1) ?(read_fraction = 0.2) ?(audit = true) ~make ~threads
    ~keyspace ~ops_per_thread ~crash_events ~seed ~trials () =
  (* Each trial (run + history check) is one self-contained pool job;
     aggregation walks the results in trial order, reproducing the
     sequential loop's violation list exactly for any [jobs]. *)
  let checked =
    Sim.Pool.map ~jobs
      (fun i ->
        let t =
          run ~read_fraction ~audit ~make ~threads ~keyspace ~ops_per_thread
            ~crash_events ~seed:(seed + (7919 * i)) ()
        in
        Lincheck.Checker.check t.history
        @ List.map
            (fun e -> { Lincheck.Checker.key = 0; message = "audit: " ^ e })
            t.audit_errors)
      (List.init trials (fun i -> i))
  in
  let all = ref [] in
  List.iteri
    (fun i violations -> all := List.map (fun v -> (i, v)) violations @ !all)
    checked;
  List.rev !all
