(* Sim.Pool: parallel execution of independent simulations must be
   indistinguishable from sequential execution — same results (floats
   compared exactly), same observability totals, same exception — for any
   job count, across repeated runs. This is the determinism contract the
   bench harness's -j flag relies on. *)

open Testsupport
module Kv = Harness.Kv
module Driver = Harness.Driver
module Fault = Harness.Fault
module W = Ycsb.Workload

let fast_sys =
  {
    Kv.default_sys with
    latency = Pmem.Latency.uniform;
    pool_words = 1 lsl 20;
    max_threads = 16;
  }

(* One self-contained job: fresh structure, preload, throughput trial.
   Returns exact floats, so equality below is byte-level. *)
let trial_job seed () =
  let kv = Kv.make_upskiplist fast_sys in
  Driver.preload kv ~threads:4 ~n:500;
  Driver.throughput_trials kv ~spec:W.a ~threads:4 ~n_initial:500
    ~ops_per_thread:60 ~seed ~trials:2

let trial_jobs () = List.init 6 (fun i -> trial_job (1000 + (37 * i)))

let check_trials msg expected actual =
  Alcotest.(check (list (pair (float 0.0) (float 0.0)))) msg expected actual

let test_parallel_matches_sequential () =
  let seq = Sim.Pool.run ~jobs:1 (trial_jobs ()) in
  let par = Sim.Pool.run ~jobs:4 (trial_jobs ()) in
  check_trials "throughput trials identical for -j1 and -j4" seq par

let test_repeated_parallel_runs_identical () =
  let a = Sim.Pool.run ~jobs:4 (trial_jobs ()) in
  let b = Sim.Pool.run ~jobs:4 (trial_jobs ()) in
  check_trials "two -j4 runs identical" a b

let test_map_preserves_order () =
  let xs = List.init 20 (fun i -> i) in
  let ys = Sim.Pool.map ~jobs:4 (fun i -> i * i) xs in
  Alcotest.(check (list int)) "results in input order"
    (List.map (fun i -> i * i) xs)
    ys

(* ---- observability parity ------------------------------------------------ *)

let test_obs_totals_parity () =
  Obs.reset ();
  ignore (Sim.Pool.run ~jobs:1 (trial_jobs ()));
  let seq_totals = Obs.totals () in
  Obs.reset ();
  ignore (Sim.Pool.run ~jobs:4 (trial_jobs ()));
  let par_totals = Obs.totals () in
  Obs.reset ();
  Alcotest.(check (list int))
    "Obs.totals identical after sequential and parallel runs"
    (Array.to_list seq_totals) (Array.to_list par_totals)

(* ---- campaign parity ----------------------------------------------------- *)

(* Three points 30 %, 50 % and 70 % of the way through the workload's
   crash-free run, each jittered by up to 2 % of it. *)
let campaign () =
  let base =
    {
      Fault.default_spec with
      keyspace = 80;
      ops_per_thread = 60;
      seed = 4242;
      draw_seed = 4243;
    }
  in
  let events = Fault.trial_events base in
  let at fraction = crash_point fraction ~dry_run:(fun () -> events) in
  {
    Fault.base;
    points =
      Fault.grid_points ~seed:base.seed
        { Fault.origin = at 0.3; stride = at 0.2; points = 3; jitter = at 0.02 };
    draws = 2;
  }

let summary_digest (s : Fault.summary) =
  [
    s.Fault.trials;
    s.Fault.crashed_trials;
    s.Fault.total_crashes;
    s.Fault.audit_passes;
    s.Fault.audit_failures;
    s.Fault.violation_trials;
    s.Fault.repairs;
    List.length s.Fault.failures;
  ]

let test_fault_campaign_parity () =
  let campaign = campaign () in
  let seq = Fault.run_campaign ~jobs:1 campaign in
  let par = Fault.run_campaign ~jobs:4 campaign in
  check_int "every trial crashed" seq.Fault.trials seq.Fault.crashed_trials;
  Alcotest.(check (list int))
    "campaign summary identical for -j1 and -j4" (summary_digest seq)
    (summary_digest par);
  Alcotest.(check (list (float 0.0)))
    "per-trial recovery times identical" seq.Fault.recovery_ns
    par.Fault.recovery_ns;
  Alcotest.(check (list int))
    "crash points identical" seq.Fault.crash_points par.Fault.crash_points

(* ---- domain-parallel lincheck -------------------------------------------- *)

(* The strict-linearizability checker itself must be Pool-safe: checking a
   batch of crash-trial histories on parallel domains must return the same
   verdicts, in input order, as a sequential pass. *)
let crash_histories () =
  List.mapi
    (fun i fraction ->
      let spec =
        {
          Fault.default_spec with
          threads = 4;
          keyspace = 80;
          ops_per_thread = 60;
          draw_seed = 900 + i;
          seed = 900 + i;
        }
      in
      let crash_at = crash_point fraction ~dry_run:(fun () -> Fault.trial_events spec) in
      let t = Fault.run_trial { spec with crash_at = Event crash_at } in
      check_bool
        (if t.Fault.completed_events > 0 then
           Fault.missed_message (crash_at, t.Fault.completed_events)
         else "a crash was injected")
        true (t.Fault.crash_events > 0);
      t.Fault.history)
    (* each trial crashes this far through its own workload *)
    [ 0.48; 0.54; 0.67; 0.9 ]

let test_lincheck_pool_parity () =
  let hs = crash_histories () in
  let digest h =
    List.map
      (fun (v : Lincheck.Checker.violation) ->
        (v.Lincheck.Checker.key, v.Lincheck.Checker.message))
      (Lincheck.Checker.check h)
  in
  let run jobs = Sim.Pool.map ~jobs digest hs in
  Alcotest.(check (list (list (pair int string))))
    "checker verdicts identical for -j1 and -j4" (run 1) (run 4)

(* ---- failure propagation -------------------------------------------------- *)

exception Job_failed of int

let raising_jobs =
  [
    (fun () -> 1);
    (fun () -> raise (Job_failed 1));
    (fun () -> 2);
    (fun () -> raise (Job_failed 3));
  ]

let first_failure jobs =
  match Sim.Pool.run ~jobs raising_jobs with
  | _ -> Alcotest.fail "expected the pool to re-raise"
  | exception Job_failed i -> i

let test_raising_job_propagates_first () =
  Alcotest.(check int) "sequential raises the first failing job" 1
    (first_failure 1);
  Alcotest.(check int) "parallel raises the first failing job by index" 1
    (first_failure 4)

(* ---- nesting -------------------------------------------------------------- *)

let test_nested_pool_runs_sequentially () =
  (* a job that fans out again must not deadlock or change results: the
     inner pool degrades to the sequential path inside a worker *)
  let outer =
    Sim.Pool.map ~jobs:2
      (fun base -> Sim.Pool.map ~jobs:4 (fun i -> base + i) [ 1; 2; 3 ])
      [ 10; 20 ]
  in
  Alcotest.(check (list (list int)))
    "nested pools return sequential results"
    [ [ 11; 12; 13 ]; [ 21; 22; 23 ] ]
    outer

(* ---- phased stations ------------------------------------------------------- *)

(* run_phased's contract: stations share nothing while stepping (each owns
   its accumulator, inbox, and outbox row) and traffic only moves in the
   caller's exchange, so domains 0 (pure sequential) and any worker count
   must leave identical state behind — accumulators, finalizer output, and
   Obs totals. *)
let phased_run domains =
  let stations = 4 in
  let rounds = 6 in
  let acc = Array.make stations 0 in
  let inbox = Array.make stations 0 in
  let outbox = Array.make_matrix stations stations 0 in
  let finals = Array.make stations 0 in
  let step ~station ~round =
    acc.(station) <-
      (acc.(station) * 31) + inbox.(station) + ((station + 1) * (round + 1));
    Obs.bump ~tid:station Obs.id_help;
    for dest = 0 to stations - 1 do
      outbox.(station).(dest) <- acc.(station) + dest
    done
  in
  let exchange ~round =
    for dest = 0 to stations - 1 do
      inbox.(dest) <- 0;
      for from = 0 to stations - 1 do
        inbox.(dest) <- inbox.(dest) + outbox.(from).(dest)
      done
    done;
    round < rounds - 1
  in
  let finalize ~station = finals.(station) <- (acc.(station) * 7) + 1 in
  Sim.Pool.run_phased ~domains ~stations ~step ~exchange ~finalize ();
  (Array.to_list acc, Array.to_list finals)

let test_run_phased_matches_sequential () =
  Obs.reset ();
  let seq = phased_run 0 in
  let seq_totals = Obs.totals () in
  Obs.reset ();
  let par = phased_run 3 in
  let par_totals = Obs.totals () in
  Obs.reset ();
  Alcotest.(check (pair (list int) (list int)))
    "station state identical for domains 0 and 3" seq par;
  Alcotest.(check (list int))
    "Obs totals identical for domains 0 and 3" (Array.to_list seq_totals)
    (Array.to_list par_totals);
  (* more workers than worker stations: the extras just idle *)
  Alcotest.(check (pair (list int) (list int)))
    "station state identical with surplus domains" seq (phased_run 8)

exception Station_failed of int

let test_run_phased_propagates_failure () =
  let run domains =
    let step ~station ~round =
      if station = 2 && round = 1 then raise (Station_failed station)
    in
    match
      Sim.Pool.run_phased ~domains ~stations:4 ~step
        ~exchange:(fun ~round -> round < 3)
        ~finalize:(fun ~station:_ -> ())
        ()
    with
    | () -> Alcotest.fail "expected run_phased to re-raise"
    | exception Station_failed i -> i
  in
  Alcotest.(check int) "sequential re-raises the station failure" 2 (run 0);
  Alcotest.(check int) "parallel re-raises the station failure" 2 (run 3)

(* ---- trace merge ----------------------------------------------------------- *)

(* While the caller records a trace, [run] keeps every job on the calling
   domain, one after another, so the ring holds exactly the events of a
   sequential run. *)
let test_traced_run_stays_on_caller () =
  let caller = (Domain.self () :> int) in
  Obs.Trace.start ~capacity:64 ();
  let ran_on =
    Sim.Pool.map ~jobs:4 (fun _ -> (Domain.self () :> int)) [ 1; 2; 3; 4 ]
  in
  Obs.Trace.stop ();
  Obs.Trace.clear ();
  Alcotest.(check (list int))
    "every job ran on the calling domain" [ caller; caller; caller; caller ]
    ran_on

(* Same rule for phased stations: a traced [run_phased ~domains:2] records
   exactly the events of the [~domains:0] run, in the same order. Each step
   emits one event naming its station, round and domain. *)
let traced_phased domains =
  let caller = (Domain.self () :> int) in
  Obs.Trace.start ~capacity:256 ();
  let step ~station ~round =
    Obs.Trace.emit ~ts:(float_of_int round) ~tid:station
      ~kind:Obs.Trace.k_resume
      ~arg:((Domain.self () :> int) - caller)
      ~farg:0.0
  in
  Sim.Pool.run_phased ~domains ~stations:3 ~step
    ~exchange:(fun ~round -> round < 4)
    ~finalize:(fun ~station:_ -> ())
    ();
  Obs.Trace.stop ();
  let events = ref [] in
  Obs.Trace.iter_retained (fun ~ts ~tid ~kind:_ ~arg ~farg:_ ->
      events := (ts, tid, arg) :: !events);
  Obs.Trace.clear ();
  List.rev !events

let test_traced_phased_stays_sequential () =
  let seq = traced_phased 0 in
  Alcotest.(check int) "one event per station per round" 15 (List.length seq);
  Alcotest.(check (list (triple (float 0.0) int int)))
    "domains:2 records the domains:0 events in order" seq (traced_phased 2)

(* The final ring (event window, drop accounting, exported JSON) of a
   traced -j4 run must be byte-identical to a sequential traced run. *)
let traced_run ~jobs ~capacity =
  Obs.Trace.start ~capacity ();
  ignore (Sim.Pool.run ~jobs [ trial_job 5001; trial_job 5002; trial_job 5003 ]);
  Obs.Trace.stop ();
  let recorded = Obs.Trace.recorded () in
  let dropped = Obs.Trace.dropped () in
  let json = Json.to_string (Obs.Trace.to_chrome ()) in
  Obs.Trace.clear ();
  (recorded, dropped, json)

let test_trace_merge_parity () =
  let r1, d1, j1 = traced_run ~jobs:1 ~capacity:(1 lsl 15) in
  let r4, d4, j4 = traced_run ~jobs:4 ~capacity:(1 lsl 15) in
  Alcotest.(check bool) "trace recorded the pooled jobs' events" true (r1 > 0);
  Alcotest.(check int) "recorded identical for -j1 and -j4" r1 r4;
  Alcotest.(check int) "dropped identical for -j1 and -j4" d1 d4;
  Alcotest.(check bool) "chrome JSON byte-identical for -j1 and -j4" true
    (String.equal j1 j4)

(* Same parity when the ring overflows mid-stream: the surviving window
   and the drop counter must agree, not just the event count. *)
let test_trace_merge_overflow_parity () =
  let r1, d1, j1 = traced_run ~jobs:1 ~capacity:512 in
  let r4, d4, j4 = traced_run ~jobs:4 ~capacity:512 in
  Alcotest.(check int) "ring filled to capacity" 512 r1;
  Alcotest.(check bool) "events were dropped" true (d1 > 0);
  Alcotest.(check int) "recorded identical for -j1 and -j4" r1 r4;
  Alcotest.(check int) "dropped identical for -j1 and -j4" d1 d4;
  Alcotest.(check bool) "surviving window byte-identical for -j1 and -j4" true
    (String.equal j1 j4)

let () =
  Alcotest.run "pool"
    [
      ( "determinism",
        [
          slow_case "parallel = sequential" test_parallel_matches_sequential;
          slow_case "repeated parallel runs identical"
            test_repeated_parallel_runs_identical;
          case "map preserves order" test_map_preserves_order;
          slow_case "Obs totals parity" test_obs_totals_parity;
        ] );
      ( "campaigns",
        [
          slow_case "fault campaign parity" test_fault_campaign_parity;
          slow_case "lincheck verdict parity" test_lincheck_pool_parity;
        ] );
      ( "failure",
        [ case "first failing job re-raises" test_raising_job_propagates_first ] );
      ( "nesting",
        [ case "nested pool runs sequentially" test_nested_pool_runs_sequentially ] );
      ( "phased",
        [
          case "phased stations parity" test_run_phased_matches_sequential;
          case "phased failure propagation" test_run_phased_propagates_failure;
        ] );
      ( "tracing",
        [
          case "traced run stays on the caller" test_traced_run_stays_on_caller;
          case "traced phased run stays sequential"
            test_traced_phased_stays_sequential;
          slow_case "trace merge parity" test_trace_merge_parity;
          slow_case "trace merge overflow parity" test_trace_merge_overflow_parity;
        ] );
    ]
