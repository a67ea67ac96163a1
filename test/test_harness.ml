(* Tests for the experiment harness: fixtures, workload driver, latency
   collection, recovery timing and the crash-trial recorder. *)

open Testsupport

let fast_sys =
  {
    Harness.Kv.default_sys with
    latency = Pmem.Latency.uniform;
    pool_words = 1 lsl 20;
    max_threads = 16;
  }

let makers =
  [
    ("upskiplist", fun () -> Harness.Kv.make_upskiplist fast_sys);
    ("bztree", fun () -> Harness.Kv.make_bztree ~n_descriptors:8192 fast_sys);
    ("pmdk", fun () -> Harness.Kv.make_pmdk_list fast_sys);
  ]

let test_preload_all_structures () =
  List.iter
    (fun (name, make) ->
      let kv = make () in
      Harness.Driver.preload kv ~threads:4 ~n:300;
      check_int (name ^ ": preload count") 300
        (List.length (kv.Harness.Kv.to_alist ())))
    makers

let test_workload_runs_all_structures () =
  List.iter
    (fun (name, make) ->
      let kv = make () in
      Harness.Driver.preload kv ~threads:2 ~n:200;
      let res =
        Harness.Driver.run_workload kv ~spec:Ycsb.Workload.a ~threads:4
          ~n_initial:200 ~ops_per_thread:100 ~seed:3
      in
      check_int (name ^ ": ops") 400 res.Harness.Driver.ops;
      check_bool (name ^ ": positive throughput") true
        (res.Harness.Driver.throughput_mops > 0.0);
      check_bool (name ^ ": time advanced") true (res.Harness.Driver.sim_ns > 0.0))
    makers

let test_latency_split_by_op () =
  let kv = Harness.Kv.make_upskiplist fast_sys in
  Harness.Driver.preload kv ~threads:2 ~n:200;
  let res =
    Harness.Driver.run_workload kv ~spec:Ycsb.Workload.d ~threads:2
      ~n_initial:200 ~ops_per_thread:200 ~seed:9
  in
  check_bool "reads recorded" true (Sim.Histogram.count res.Harness.Driver.read_hist > 0);
  check_bool "inserts recorded" true
    (Sim.Histogram.count res.Harness.Driver.insert_hist > 0);
  check_int "no updates in D" 0 (Sim.Histogram.count res.Harness.Driver.update_hist);
  check_int "latencies partition ops" res.Harness.Driver.ops
    (Sim.Histogram.count res.Harness.Driver.read_hist
    + Sim.Histogram.count res.Harness.Driver.insert_hist)

let test_throughput_trials_deterministic () =
  let make () =
    let kv = Harness.Kv.make_upskiplist fast_sys in
    Harness.Driver.preload kv ~threads:2 ~n:150;
    kv
  in
  let trial kv =
    Harness.Driver.throughput_trials kv ~spec:Ycsb.Workload.b ~threads:3
      ~n_initial:150 ~ops_per_thread:80 ~seed:5 ~trials:2
  in
  let m1, _ = trial (make ()) and m2, _ = trial (make ()) in
  check_bool "replay identical" true (abs_float (m1 -. m2) < 1e-9)

let test_value_of_unique () =
  let seen = Hashtbl.create 64 in
  for tid = 0 to 7 do
    for seq = 0 to 99 do
      let v = Harness.Driver.value_of ~tid ~seq in
      check_bool "nonzero" true (v <> 0);
      check_bool "unique" false (Hashtbl.mem seen v);
      Hashtbl.add seen v ()
    done
  done

(* One small crashed trial of [base]'s fixture; total modeled recovery in
   seconds. *)
let recovery_time_s base =
  let spec = { base with Harness.Fault.threads = 2; keyspace = 40; ops_per_thread = 40 } in
  let r =
    Harness.Fault.run_trial
      { spec with crash_at = crash_point 0.4 ~dry_run:(fun () -> Harness.Fault.trial_events spec) }
  in
  if r.Harness.Fault.crashes = 0 then Alcotest.fail "expected a crash";
  r.Harness.Fault.recovery_ns /. 1.0e9

let test_recovery_time_model () =
  let bztree descriptors =
    { Harness.Fault.default_spec with structure = Harness.Kv.Bztree; descriptors }
  in
  let t1 = recovery_time_s (bztree 5_000) in
  let t2 = recovery_time_s (bztree 50_000) in
  check_bool "recovery grows with descriptor pool" true (t2 > t1);
  let t3 = recovery_time_s Harness.Fault.default_spec in
  check_bool "upskiplist recovery near pool-open cost" true
    (t3 < 0.2 && t3 > 0.01)

let test_crash_trial_produces_history () =
  let spec =
    {
      Harness.Fault.default_spec with
      threads = 3;
      keyspace = 60;
      ops_per_thread = 80;
      draw_seed = 2;
      seed = 2;
    }
  in
  let t =
    Harness.Fault.run_trial
      { spec with crash_at = crash_point 0.6 ~dry_run:(fun () -> Harness.Fault.trial_events spec) }
  in
  let h = t.Harness.Fault.history in
  check_bool "history non-empty" true (Lincheck.History.size h > 100);
  check_int "two eras" 2 (Lincheck.History.eras h);
  (* the recorder must capture at least the preload + retouch ops *)
  let events = Lincheck.History.events h in
  let pending =
    List.length (List.filter (fun e -> not e.Lincheck.History.completed) events)
  in
  check_bool "a crash was injected" true (t.Harness.Fault.crash_events > 0);
  check_bool "pending bounded by threads" true (pending <= 3)

let test_crash_trial_eras_monotone_times () =
  let spec =
    {
      Harness.Fault.default_spec with
      threads = 2;
      keyspace = 40;
      ops_per_thread = 60;
      draw_seed = 8;
      seed = 8;
    }
  in
  let t =
    Harness.Fault.run_trial
      { spec with crash_at = crash_point 0.7 ~dry_run:(fun () -> Harness.Fault.trial_events spec) }
  in
  check_bool "a crash was injected" true (t.Harness.Fault.crash_events > 0);
  let events = Lincheck.History.events t.Harness.Fault.history in
  List.iter
    (fun (e : Lincheck.History.event) ->
      if e.Lincheck.History.completed then
        check_bool "inv <= res" true (e.Lincheck.History.inv <= e.Lincheck.History.res))
    events;
  (* era-1 events all start after every era-0 completion *)
  let max_era0 =
    List.fold_left
      (fun acc (e : Lincheck.History.event) ->
        if e.Lincheck.History.era = 0 && e.Lincheck.History.completed then
          max acc e.Lincheck.History.res
        else acc)
      0.0 events
  in
  List.iter
    (fun (e : Lincheck.History.event) ->
      if e.Lincheck.History.era = 1 then
        check_bool "era 1 after era 0" true (e.Lincheck.History.inv > max_era0))
    events

let test_report_table_runs () =
  (* smoke: the printers must not raise *)
  Harness.Report.heading "test";
  Harness.Report.table ~headers:[ "a"; "b" ]
    ~rows:[ [ "1"; "2" ]; [ "333"; "4" ] ];
  Harness.Report.series ~title:"s" ~x_label:"threads" ~x_values:[ 1; 2 ]
    ~columns:[ ("sys", [ (1.0, 0.1); (2.0, 0.2) ]) ]

(* ---- spellings ------------------------------------------------------------ *)

module Kv = Harness.Kv

(* Every spelling and alias parses, in any case, to its value; the
   canonical name round-trips; an unknown name is rejected with the
   choices listed. *)
let test_spellings () =
  let accepts what parse name spellings =
    List.iter
      (fun (v, names) ->
        List.iter
          (fun n ->
            List.iter
              (fun n ->
                check_bool (Printf.sprintf "%s %S" what n) true (parse n = Ok v))
              [ n; String.uppercase_ascii n; String.capitalize_ascii n ])
          names;
        check_bool (what ^ ": canonical name parses back") true
          (parse (name v) = Ok v))
      spellings
  in
  accepts "structure" Kv.structure_of_string Kv.structure_name
    [
      (Kv.Upskiplist, [ "upskiplist"; "ups" ]);
      (Kv.Bztree, [ "bztree"; "bz" ]);
      (Kv.Pmdk, [ "pmdk"; "lock" ]);
    ];
  accepts "mode" Kv.mode_of_string Kv.mode_name
    [ (Pmem.Striped, [ "striped" ]); (Pmem.Multi_pool, [ "numa"; "multi" ]) ];
  accepts "latency" Kv.latency_of_string Kv.latency_name
    [ (Kv.Uniform, [ "uniform" ]); (Kv.Optane, [ "optane" ]) ];
  let rejects what parse bad want =
    match parse bad with
    | Ok _ -> Alcotest.failf "%s %S accepted" what bad
    | Error e ->
        Alcotest.(check string) (what ^ ": unknown name")
          (Printf.sprintf "unknown %s: %s (want %s)" what bad want) e
  in
  rejects "structure" Kv.structure_of_string "btree9000" "upskiplist | bztree | pmdk";
  rejects "mode" Kv.mode_of_string "interleaved" "striped | numa";
  rejects "latency model" Kv.latency_of_string "fast" "uniform | optane"

let () =
  Alcotest.run "harness"
    [
      ( "driver",
        [
          case "preload" test_preload_all_structures;
          case "workloads run" test_workload_runs_all_structures;
          case "latency per op" test_latency_split_by_op;
          case "deterministic trials" test_throughput_trials_deterministic;
          case "unique values" test_value_of_unique;
        ] );
      ( "recovery",
        [
          case "recovery model" test_recovery_time_model;
          case "crash trial history" test_crash_trial_produces_history;
          case "monotone timestamps" test_crash_trial_eras_monotone_times;
        ] );
      ("report", [ case "printers" test_report_table_runs ]);
      ("spellings", [ case "names and aliases parse, unknowns list the choices" test_spellings ]);
    ]
