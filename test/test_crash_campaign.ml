(* End-to-end crash campaigns with strict-linearizability analysis — the
   reproduction of Chapter 6's correctness methodology, run over all three
   structures. Each trial: preload, upsert-heavy workload over a small
   keyspace, crash at one point of a seeded grid, reconnect + recover,
   re-touch every key, then analyze the full cross-crash history. *)

open Testsupport

module Fault = Harness.Fault

(* The workload every [campaign] trial runs, before its crash point. *)
let threads = 4
let keyspace = 120
let ops_per_thread = 100
let seed = 1234

(* The campaign grid starts 60 % of the way through [base]'s crash-free
   run (a dry run of the same workload), so it stays inside the run
   whatever its length. *)
let campaign ?evict name base ~trials =
  let s =
    crash_campaign ~base ?evict ~threads ~keyspace ~ops_per_thread ~from:0.6 ~seed ~trials ()
  in
  print_failures name s;
  check_int (name ^ ": no strict-linearizability violations") 0
    (List.length s.Fault.failures)

let test_upskiplist_campaign () = campaign "UPSkipList" Fault.default_spec ~trials:6

let test_upskiplist_optane_campaign () =
  (* realistic latency model changes interleavings and crash surfaces *)
  campaign "UPSkipList/optane" { Fault.default_spec with latency = Harness.Kv.Optane } ~trials:3

let test_upskiplist_eviction_campaign () =
  (* random line evictions at crash time (more persisted states) *)
  campaign ~evict:0.5 "UPSkipList/evict" Fault.default_spec ~trials:3

let test_upskiplist_small_nodes_campaign () =
  campaign "UPSkipList/K4"
    { Fault.default_spec with cfg = { Upskiplist.Config.default with keys_per_node = 4 } }
    ~trials:3

let test_bztree_campaign () =
  campaign "BzTree"
    { Fault.default_spec with structure = Harness.Kv.Bztree }
    ~trials:4

let test_pmdk_campaign () =
  campaign "PMDK list"
    { Fault.default_spec with structure = Harness.Kv.Pmdk }
    ~trials:4

let test_striped_campaign () =
  campaign "UPSkipList/striped"
    { Fault.default_spec with mode = Pmem.Striped }
    ~trials:3

(* ---- adversarial campaigns (Fault) -------------------------------------- *)

(* Crashed 60 % of the way through its crash-free run. *)
let adversarial_base () =
  let base =
    { Fault.default_spec with threads = 4; keyspace = 120; ops_per_thread = 100; draw_seed = 3 }
  in
  { base with crash_at = crash_point 0.6 ~dry_run:(fun () -> Fault.trial_events base) }

(* Two crash points, at 40 % and 75 % of the way through [base]'s run. *)
let two_point_grid base = Fault.dry_run_grid base ~first:0.4 ~stride:0.35 ~jitter:0.05 ~points:2

let expect_clean name (r : Fault.result) =
  List.iter
    (fun v -> Fmt.epr "%s: %a@." name Lincheck.Checker.pp_violation v)
    r.Fault.violations;
  List.iter (fun e -> Fmt.epr "%s audit: %s@." name e) r.Fault.audit_errors;
  check_bool (name ^ ": clean") true (not (Fault.failed r))

(* Dirty-line subset adversary: the same pre-crash execution (same seed and
   crash point), several persisted-state draws — every draw must recover to
   a consistent structure, and the same draw twice must reproduce the exact
   same trial. *)
let test_subset_adversary_draws () =
  let base = { (adversarial_base ()) with evict = 0.5 } in
  List.iter
    (fun draw ->
      let r = Fault.run_spec { base with draw_seed = draw } in
      check_bool "trial crashed" true (r.Fault.crashes > 0);
      check_int
        (Fmt.str "draw %d: identical pre-crash execution (crash point)" draw)
        base.Fault.crash_at r.Fault.crash_events;
      expect_clean (Fmt.str "UPSkipList/subset draw %d" draw) r)
    [ 1; 2; 3; 4 ];
  let a = Fault.run_spec { base with draw_seed = 2 } in
  let b = Fault.run_spec { base with draw_seed = 2 } in
  check_int "same draw: same crash count" a.Fault.crashes b.Fault.crashes;
  Alcotest.(check (float 0.0))
    "same draw: same recovery time" a.Fault.recovery_ns b.Fault.recovery_ns;
  check_pairs "same draw: identical final state"
    (a.Fault.kv.Harness.Kv.to_alist ())
    (b.Fault.kv.Harness.Kv.to_alist ())

(* Multi-crash campaign: every workload round is crashed, and the recovery
   fiber itself runs under crash points up to depth 2. This grid is the
   one that catches a lookup that misses on an unconfirmed node without
   repairing its fingerprint line. *)
let test_upskiplist_multi_crash_campaign () =
  let base = { (adversarial_base ()) with depth = 2; rounds = 2 } in
  let c = { Fault.base; grid = two_point_grid base; draws = 2 } in
  let s = Fault.run_campaign c in
  check_int "every trial crashed" s.Fault.trials s.Fault.crashed_trials;
  check_bool "audits ran after every completed recovery" true
    (s.Fault.audit_passes >= s.Fault.trials);
  List.iter
    (fun ((spec : Fault.spec), r) ->
      Fmt.epr "failing replay: %s@." (Fault.spec_to_string spec);
      expect_clean "UPSkipList/multi-crash" r)
    s.Fault.failures;
  check_int "no failing trials" 0 (List.length s.Fault.failures)

(* The same crash-point grid replayed over a tall-tower layout: the full
   40-level next array spans many tower lines and p = 0.75 draws towers
   that actually reach into them, so chunk provisioning, split recovery,
   hint repair and the heap audit run over multi-line towers. *)
let tall_only_cfg =
  { Upskiplist.Config.default with max_height = 40; branching_p = 0.75 }

let test_tall_only_multi_crash_campaign () =
  let base = { (adversarial_base ()) with depth = 2; rounds = 2; cfg = tall_only_cfg } in
  let c = { Fault.base; grid = two_point_grid base; draws = 2 } in
  let s = Fault.run_campaign c in
  check_int "every trial crashed" s.Fault.trials s.Fault.crashed_trials;
  check_bool "audits ran after every completed recovery" true
    (s.Fault.audit_passes >= s.Fault.trials);
  List.iter
    (fun ((spec : Fault.spec), r) ->
      Fmt.epr "failing replay: %s@." (Fault.spec_to_string spec);
      expect_clean "UPSkipList/tall-only multi-crash" r)
    s.Fault.failures;
  check_int "no failing trials" 0 (List.length s.Fault.failures)

(* BzTree's recovery fiber does real work (PMwCAS descriptor scan), so the
   depth-2 adversary actually crashes recovery itself: more power failures
   than trials. *)
let test_bztree_crash_during_recovery () =
  let base =
    { (adversarial_base ()) with structure = Harness.Kv.Bztree; depth = 2; draw_seed = 17 }
  in
  let c = { Fault.base; grid = two_point_grid base; draws = 2 } in
  let s = Fault.run_campaign c in
  check_int "every trial crashed" s.Fault.trials s.Fault.crashed_trials;
  check_bool "recovery itself was crashed" true
    (s.Fault.total_crashes > s.Fault.crashed_trials);
  check_int "no failing trials" 0 (List.length s.Fault.failures)

let () =
  Alcotest.run "crash_campaign"
    [
      ( "campaigns",
        [
          slow_case "upskiplist x6" test_upskiplist_campaign;
          slow_case "upskiplist optane x3" test_upskiplist_optane_campaign;
          slow_case "upskiplist eviction x3" test_upskiplist_eviction_campaign;
          slow_case "upskiplist K=4 x3" test_upskiplist_small_nodes_campaign;
          slow_case "bztree x4" test_bztree_campaign;
          slow_case "pmdk x4" test_pmdk_campaign;
          slow_case "upskiplist striped x3" test_striped_campaign;
        ] );
      ( "adversarial",
        [
          slow_case "subset adversary: draws recover consistently"
            test_subset_adversary_draws;
          slow_case "multi-crash depth-2 campaign (upskiplist)"
            test_upskiplist_multi_crash_campaign;
          slow_case "multi-crash depth-2 campaign (tall-only layout)"
            test_tall_only_multi_crash_campaign;
          slow_case "crash during recovery (bztree)"
            test_bztree_crash_during_recovery;
        ] );
    ]
