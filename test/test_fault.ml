(* The fault-injection engine itself: recovery timing, idempotent
   reconnect+recover, replay specs, mutant detection (the campaigns must
   catch a deliberately broken recovery), campaign determinism, and
   failure shrinking down to a replayable minimal spec. *)

open Testsupport
module Fault = Harness.Fault
module Kv = Harness.Kv

let fast_sys =
  {
    Kv.default_sys with
    latency = Pmem.Latency.uniform;
    pool_words = 1 lsl 20;
    max_threads = 16;
  }

let fast_spec =
  {
    Fault.default_spec with
    threads = 4;
    keyspace = 60;
    ops_per_thread = 60;
    crash_at = 4_000;
    draw_seed = 5;
  }

let run_spec_exn spec =
  match Fault.run_spec spec with
  | Ok r -> r
  | Error e -> Alcotest.fail e

(* ---- recovery_ns is the real modeled recovery time ---------------------- *)

let test_recovery_ns_positive () =
  let t =
    Harness.Crash_test.run
      ~make:(fun () -> Kv.make_upskiplist fast_sys)
      ~threads:4 ~keyspace:60 ~ops_per_thread:80 ~crash_events:4_000 ~seed:7 ()
  in
  check_bool "trial crashed" true (t.Harness.Crash_test.crash_events > 0);
  check_bool "recovery_ns positive in a crashed trial" true
    (t.Harness.Crash_test.recovery_ns > 0.0);
  (* at least the pool-reopen cost of the fixture's pools *)
  check_bool "recovery_ns covers pool reopen" true
    (t.Harness.Crash_test.recovery_ns
    >= Harness.Fault.pool_open_ns ~pools:t.Harness.Crash_test.kv.Kv.pools)

(* ---- reconnect + recover twice in a row is a no-op ----------------------- *)

let double_recovery_noop name make () =
  let kv : Kv.t = make () in
  let body ~tid =
    for k = 1 to 200 do
      ignore (kv.Kv.upsert ~tid (1 + (k mod 50)) ((100 * tid) + k))
    done
  in
  (match
     Sim.Sched.run ~machine:(Kv.machine kv)
       ~crash:(Sim.Sched.After_events 2_500)
       [ (0, body); (1, body) ]
   with
  | Sim.Sched.Crashed_at _ -> ()
  | Sim.Sched.Completed _ -> Alcotest.fail "expected a simulated crash");
  Pmem.crash kv.Kv.pmem;
  kv.Kv.reconnect ();
  let recover () =
    match
      Sim.Sched.run ~machine:(Kv.machine kv)
        [ (0, fun ~tid -> kv.Kv.recover ~tid) ]
    with
    | Sim.Sched.Completed _ -> ()
    | Sim.Sched.Crashed_at _ -> Alcotest.fail "unexpected crash in recovery"
  in
  recover ();
  let s1 = kv.Kv.to_alist () in
  kv.Kv.reconnect ();
  recover ();
  check_pairs (name ^ ": second reconnect+recover is a no-op") s1
    (kv.Kv.to_alist ());
  recover ();
  check_pairs (name ^ ": third recover still a no-op") s1 (kv.Kv.to_alist ())

(* ---- replay specs -------------------------------------------------------- *)

let test_spec_roundtrip () =
  let specs =
    [
      fast_spec;
      { fast_spec with adversary = Fault.Subset 0.5; mutant = "dangle" };
      {
        fast_spec with
        structure = "bztree";
        latency = "optane";
        mode = "striped";
        rounds = 3;
        depth = 2;
        audit = false;
      };
    ]
  in
  List.iter
    (fun s ->
      match Fault.spec_of_string (Fault.spec_to_string s) with
      | Ok s' ->
          check_bool ("round-trip: " ^ Fault.spec_to_string s) true (s = s')
      | Error e -> Alcotest.fail e)
    specs;
  (match Fault.spec_of_string "threads=8 mutant=dangle" with
  | Ok s ->
      check_int "defaults fill unspecified keys" Fault.default_spec.Fault.keyspace
        s.Fault.keyspace;
      check_int "given keys parsed" 8 s.Fault.threads
  | Error e -> Alcotest.fail e);
  check_bool "unknown key rejected" true
    (Result.is_error (Fault.spec_of_string "bogus=1"));
  check_bool "malformed token rejected" true
    (Result.is_error (Fault.spec_of_string "threads"))

let test_grid_deterministic () =
  let g = { Fault.origin = 1_000; stride = 700; points = 5; jitter = 200 } in
  Alcotest.(check (list int))
    "same seed, same points"
    (Fault.grid_points ~seed:9 g)
    (Fault.grid_points ~seed:9 g);
  check_int "point count" 5 (List.length (Fault.grid_points ~seed:9 g))

(* ---- mutant detection (harness self-validation) -------------------------- *)

let test_mutant_lose_key_caught () =
  let res = run_spec_exn { fast_spec with mutant = "lose_key" } in
  check_bool "trial crashed" true (res.Fault.crashes > 0);
  check_bool "checker caught the silently lost update" true
    (res.Fault.violations <> [])

let test_mutant_dangle_caught () =
  let res = run_spec_exn { fast_spec with mutant = "dangle" } in
  check_bool "trial crashed" true (res.Fault.crashes > 0);
  check_bool "auditor caught the dangling tower pointer" true
    (res.Fault.audit_errors <> [])

let test_mutant_drop_fp_caught () =
  let res = run_spec_exn { fast_spec with mutant = "drop_fp" } in
  check_bool "trial crashed" true (res.Fault.crashes > 0);
  check_bool "auditor caught the live key without its fingerprint" true
    (res.Fault.audit_errors <> [])

let test_clean_trial_passes () =
  let res = run_spec_exn fast_spec in
  check_bool "trial crashed" true (res.Fault.crashes > 0);
  check_bool "no violations" true (res.Fault.violations = []);
  check_bool "audit clean" true (res.Fault.audit_errors = []);
  check_bool "audit ran" true (res.Fault.audits > 0)

(* ---- campaign determinism ------------------------------------------------ *)

let test_campaign_deterministic () =
  let c =
    {
      Fault.base =
        { fast_spec with depth = 1; adversary = Fault.Subset 0.6; draw_seed = 11 };
      grid = { Fault.origin = 2_000; stride = 1_500; points = 2; jitter = 300 };
      draws = 2;
    }
  in
  let a = Fault.run_campaign c in
  let b = Fault.run_campaign c in
  check_int "same trial count" a.Fault.trials b.Fault.trials;
  Alcotest.(check (list int))
    "same crash points" a.Fault.crash_points b.Fault.crash_points;
  check_int "same total crashes" a.Fault.total_crashes b.Fault.total_crashes;
  check_int "same audit passes" a.Fault.audit_passes b.Fault.audit_passes;
  check_int "same audit failures" a.Fault.audit_failures b.Fault.audit_failures;
  check_int "same violation trials" a.Fault.violation_trials
    b.Fault.violation_trials;
  Alcotest.(check (list (float 0.0)))
    "same recovery times" a.Fault.recovery_ns b.Fault.recovery_ns;
  check_int "no failures" 0 (List.length a.Fault.failures)

(* ---- failure shrinking --------------------------------------------------- *)

let spec_size (s : Fault.spec) =
  s.Fault.threads + s.Fault.keyspace + s.Fault.ops_per_thread + s.Fault.crash_at
  + s.Fault.depth + s.Fault.rounds

let test_shrink_minimises () =
  let spec = { fast_spec with mutant = "lose_key" } in
  check_bool "original spec fails" true (Fault.failed (run_spec_exn spec));
  let small = Fault.shrink ~budget:40 spec in
  check_bool "shrunk spec is strictly smaller" true
    (spec_size small < spec_size spec);
  (* the minimal reproducer replays from its printed spec alone *)
  match Fault.spec_of_string (Fault.spec_to_string small) with
  | Error e -> Alcotest.fail e
  | Ok reparsed ->
      check_bool "minimal spec still fails after round-trip" true
        (Fault.failed (run_spec_exn reparsed))

let () =
  Alcotest.run "fault"
    [
      ( "engine",
        [
          slow_case "recovery_ns positive and includes pool reopen"
            test_recovery_ns_positive;
          case "spec round-trips through its printed form" test_spec_roundtrip;
          case "grid points deterministic" test_grid_deterministic;
        ] );
      ( "idempotent recovery",
        [
          slow_case "upskiplist: reconnect+recover twice is a no-op"
            (double_recovery_noop "UPSkipList" (fun () ->
                 Kv.make_upskiplist fast_sys));
          slow_case "bztree: reconnect+recover twice is a no-op"
            (double_recovery_noop "BzTree" (fun () ->
                 Kv.make_bztree ~n_descriptors:16_384 fast_sys));
          slow_case "pmdk: reconnect+recover twice is a no-op"
            (double_recovery_noop "PMDK list" (fun () ->
                 Kv.make_pmdk_list fast_sys));
        ] );
      ( "self-validation",
        [
          slow_case "clean trial passes checker and audit" test_clean_trial_passes;
          slow_case "lose_key mutant caught by the checker"
            test_mutant_lose_key_caught;
          slow_case "dangle mutant caught by the auditor"
            test_mutant_dangle_caught;
          slow_case "drop_fp mutant caught by the auditor"
            test_mutant_drop_fp_caught;
        ] );
      ( "campaigns",
        [ slow_case "campaign fully deterministic" test_campaign_deterministic ] );
      ( "shrinking",
        [ slow_case "shrinks to a smaller replayable reproducer" test_shrink_minimises ] );
    ]
