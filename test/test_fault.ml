(* The fault-injection engine itself: recovery timing, idempotent
   reconnect+recover, replay specs, mutant detection (the campaigns must
   catch a deliberately broken recovery), campaign determinism, and
   failure shrinking down to a replayable minimal spec. *)

open Testsupport
module Fault = Harness.Fault
module Kv = Harness.Kv
module SL = Upskiplist.Skiplist

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

(* ---- recovery_ns is the real modeled recovery time ---------------------- *)

let test_recovery_ns_positive () =
  let t =
    Fault.run_trial
      ~make:(fun () -> Kv.make_upskiplist fast_sys)
      {
        Fault.default_spec with
        threads = 4;
        keyspace = 60;
        ops_per_thread = 80;
        crash_at = 5_621;
        draw_seed = 7;
        seed = 7;
      }
  in
  check_bool "trial crashed" true (t.Fault.crash_events > 0);
  check_bool "recovery_ns positive in a crashed trial" true
    (t.Fault.recovery_ns > 0.0);
  (* at least the pool-reopen cost of the fixture's pools *)
  check_bool "recovery_ns covers pool reopen" true
    (t.Fault.recovery_ns >= Fault.pool_open_ns ~pools:t.Fault.kv.Kv.pools)

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
  let product =
    List.concat_map
      (fun structure ->
        List.concat_map
          (fun latency ->
            List.concat_map
              (fun mode ->
                List.map
                  (fun evict -> { fast_spec with structure; latency; mode; evict })
                  [ 0.0; 0.5; 1.0 ])
              [ Pmem.Striped; Pmem.Multi_pool ])
          [ Pmem.Latency.uniform; Pmem.Latency.default ])
      [ Kv.Upskiplist; Kv.Bztree; Kv.Pmdk ]
  in
  let specs =
    { fast_spec with evict = 0.5; mutant = "dangle" }
    :: { fast_spec with rounds = 3; depth = 2; audit = false; detect = true }
    :: product
  in
  check_int "every structure x latency x mode x evict" 36 (List.length product);
  List.iter
    (fun s ->
      check_bool
        ("round-trip: " ^ Fault.spec_to_string s)
        true
        (Fault.spec_of_string (Fault.spec_to_string s) = Ok s))
    specs;
  Alcotest.(check string)
    "the default spec prints canonical names"
    "structure=upskiplist latency=uniform mode=numa threads=4 keyspace=120 \
     ops=100 read=0.2 rounds=1 crash_at=10000 depth=0 evict=0 draw=1 seed=42 \
     audit=on mutant=none detect=off"
    (Fault.spec_to_string Fault.default_spec);
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

(* Replay specs are outside input: a malformed value must be rejected, not
   misread as a default, run as a no-op or run vacuously. *)
let test_spec_validation () =
  List.iter
    (fun line ->
      check_bool ("rejected: " ^ line) true
        (Result.is_error (Fault.spec_of_string line)))
    [
      "audit=yes";
      "detect=1";
      "evict=config";
      "structure=btree9000";
      "latency=fast";
      "mode=interleaved";
      "mutant=lose_keys";
      "evict=1.5";
      "evict=-0.1";
      "threads=0";
      "keyspace=0";
      "ops=0";
      "rounds=0";
      "depth=-1";
      "crash_at=-1";
    ];
  List.iter
    (fun line ->
      check_bool ("accepted: " ^ line) true
        (Result.is_ok (Fault.spec_of_string line)))
    [
      "audit=off detect=on evict=0 depth=0 crash_at=0";
      "evict=1 mutant=skip_resolve";
      "threads=1 keyspace=1 ops=1 rounds=1 mutant=skip_fp_repair";
    ];
  check_bool "validate rejects an out-of-range probability" true
    (Result.is_error
       (Fault.validate { fast_spec with evict = 1.5 }));
  check_bool "validate accepts the default spec" true
    (Result.is_ok (Fault.validate Fault.default_spec))

let test_grid_deterministic () =
  let g = { Fault.origin = 1_000; stride = 700; points = 5; jitter = 200 } in
  Alcotest.(check (list int))
    "same seed, same points"
    (Fault.grid_points ~seed:9 g)
    (Fault.grid_points ~seed:9 g);
  check_int "point count" 5 (List.length (Fault.grid_points ~seed:9 g))

(* ---- mutant detection (harness self-validation) -------------------------- *)

let test_mutant_lose_key_caught () =
  let res = Fault.run_spec { fast_spec with mutant = "lose_key" } in
  check_bool "trial crashed" true (res.Fault.crashes > 0);
  check_bool "checker caught the silently lost update" true
    (res.Fault.violations <> [])

let test_mutant_dangle_caught () =
  let res = Fault.run_spec { fast_spec with mutant = "dangle" } in
  check_bool "trial crashed" true (res.Fault.crashes > 0);
  check_bool "auditor caught the dangling tower pointer" true
    (res.Fault.audit_errors <> [])

(* A structure that raises after its recovery fails the trial; it does not
   abort the harness. Under this replay spec the dangle mutant's pointer
   sends the phase-3 read-back into [Mem.resolve] on a null pointer. The
   verdict must name the exception, and the same trial inside a campaign
   must be reported as a failure rather than end the campaign. *)
let raising_spec =
  "structure=upskiplist crash_at=5176 mutant=dangle latency=optane mode=multi"

let test_raise_after_recovery_is_a_verdict () =
  let spec =
    match Fault.spec_of_string raising_spec with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let res = Fault.run_spec spec in
  check_bool "trial crashed" true (res.Fault.crashes > 0);
  Alcotest.(check (option string))
    "the verdict names the exception"
    (Some (Printexc.to_string (Invalid_argument "Mem.resolve: null pointer")))
    res.Fault.raised;
  check_bool "the trial fails" true (Fault.failed res);
  let s =
    Fault.run_campaign
      { Fault.base = spec; grid = { origin = 5176; stride = 1; points = 1; jitter = 0 }; draws = 1 }
  in
  check_int "the campaign ran its trial" 1 s.Fault.trials;
  check_bool "and reports it as failed" true
    (List.exists (fun (_, r) -> r.Fault.raised <> None) s.Fault.failures)

(* A skipped fingerprint repair: one live key loses its fingerprint while
   its node's line reads as confirmed. The persistent audit no longer
   checks fingerprints (they are volatile); the lookups and the re-insert
   that miss the key must break linearizability instead, and the volatile
   checker must flag the node. *)
let test_mutant_skip_fp_repair_caught () =
  let res = Fault.run_spec { fast_spec with mutant = "skip_fp_repair" } in
  check_bool "trial crashed" true (res.Fault.crashes > 0);
  check_bool "checker caught the key hidden by a confirmed line" true
    (res.Fault.violations <> []);
  let fx = make_skiplist ~cfg:{ Upskiplist.Config.default with keys_per_node = 8 } () in
  let keys = List.init 40 (fun i -> 1 + (2 * i)) in
  run1 fx.pmem (fun ~tid -> List.iter (fun k -> ignore (SL.upsert fx.sl ~tid k k)) keys);
  check_no_invariant_errors fx.sl;
  check_bool "mutation applied" true (SL.corrupt fx.sl "skip_fp_repair");
  check_bool "volatile checker flags it" true (SL.check_invariants fx.sl <> []);
  let missed = ref 0 in
  run1 fx.pmem (fun ~tid ->
      List.iter (fun k -> if SL.search fx.sl ~tid k = None then incr missed) keys);
  check_int "exactly the corrupted key is missed" 1 !missed

let test_mutant_raise_hint_caught () =
  let res = Fault.run_spec { fast_spec with mutant = "raise_hint" } in
  check_bool "trial crashed" true (res.Fault.crashes > 0);
  check_bool "auditor caught the hint above its successor's anchor" true
    (res.Fault.audit_errors <> []);
  (* the same corruption on a quiet list: both checkers flag it, and a
     lookup of some present key now ends its level too early *)
  let fx = make_skiplist ~cfg:{ Upskiplist.Config.default with keys_per_node = 4 } () in
  let keys = List.init 60 (fun i -> 1 + (3 * i)) in
  run1 fx.pmem (fun ~tid -> List.iter (fun k -> ignore (SL.upsert fx.sl ~tid k k)) keys);
  check_int "audit clean before" 0 (List.length (SL.audit_persistent fx.sl));
  check_bool "mutation applied" true (SL.corrupt fx.sl "raise_hint");
  check_bool "auditor flags it" true (SL.audit_persistent fx.sl <> []);
  check_bool "volatile checker flags it" true (SL.check_invariants fx.sl <> []);
  let missed = ref 0 in
  run1 fx.pmem (fun ~tid ->
      List.iter (fun k -> if SL.search fx.sl ~tid k = None then incr missed) keys);
  check_bool "a present key is missed" true (!missed > 0)

(* A stale anchor copy in a tower line: hops above level 1 route by the
   copy alone, so a copy below the anchor sends the lookup of the key just
   under it into the node that does not hold it. *)
let test_mutant_stale_tower_anchor_caught () =
  let res = Fault.run_spec { fast_spec with mutant = "stale_tower_anchor" } in
  check_bool "trial crashed" true (res.Fault.crashes > 0);
  check_bool "auditor caught the stale tower anchor" true
    (res.Fault.audit_errors <> []);
  let fx = make_skiplist ~cfg:{ Upskiplist.Config.default with keys_per_node = 4 } () in
  let keys = List.init 200 succ in
  run1 fx.pmem (fun ~tid -> List.iter (fun k -> ignore (SL.upsert fx.sl ~tid k k)) keys);
  check_int "audit clean before" 0 (List.length (SL.audit_persistent fx.sl));
  check_no_invariant_errors fx.sl;
  check_bool "mutation applied" true (SL.corrupt fx.sl "stale_tower_anchor");
  check_bool "auditor flags it" true (SL.audit_persistent fx.sl <> []);
  check_bool "volatile checker flags it" true (SL.check_invariants fx.sl <> []);
  let missed = ref 0 in
  run1 fx.pmem (fun ~tid ->
      List.iter (fun k -> if SL.search fx.sl ~tid k = None then incr missed) keys);
  check_bool "a present key is missed" true (!missed > 0)

let test_clean_trial_passes () =
  let res = Fault.run_spec fast_spec in
  check_bool "trial crashed" true (res.Fault.crashes > 0);
  check_bool "no violations" true (res.Fault.violations = []);
  check_bool "audit clean" true (res.Fault.audit_errors = []);
  check_bool "audit ran" true (res.Fault.audits > 0)

(* ---- campaign determinism ------------------------------------------------ *)

let test_campaign_deterministic () =
  let c =
    {
      Fault.base =
        { fast_spec with depth = 1; evict = 0.6; draw_seed = 11 };
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
  check_bool "original spec fails" true (Fault.failed (Fault.run_spec spec));
  let small = Fault.shrink ~budget:40 spec in
  check_bool "shrunk spec is strictly smaller" true
    (spec_size small < spec_size spec);
  (* the minimal reproducer replays from its printed spec alone *)
  match Fault.spec_of_string (Fault.spec_to_string small) with
  | Error e -> Alcotest.fail e
  | Ok reparsed ->
      check_bool "minimal spec still fails after round-trip" true
        (Fault.failed (Fault.run_spec reparsed))

let () =
  Alcotest.run "fault"
    [
      ( "engine",
        [
          slow_case "recovery_ns positive and includes pool reopen"
            test_recovery_ns_positive;
          case "spec round-trips through its printed form" test_spec_roundtrip;
          case "malformed replay specs rejected" test_spec_validation;
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
          slow_case "an exception after recovery is a failing verdict"
            test_raise_after_recovery_is_a_verdict;
          slow_case "skip_fp_repair mutant caught by the checker"
            test_mutant_skip_fp_repair_caught;
          slow_case "raise_hint mutant caught, and a lookup misses"
            test_mutant_raise_hint_caught;
          slow_case "stale_tower_anchor mutant caught, and a lookup misses"
            test_mutant_stale_tower_anchor_caught;
        ] );
      ( "campaigns",
        [ slow_case "campaign fully deterministic" test_campaign_deterministic ] );
      ( "shrinking",
        [ slow_case "shrinks to a smaller replayable reproducer" test_shrink_minimises ] );
    ]
