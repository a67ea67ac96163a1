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

(* Crashed 60 % of the way through its crash-free run. *)
let fast_spec =
  let base =
    { Fault.default_spec with threads = 4; keyspace = 60; ops_per_thread = 60; draw_seed = 5 }
  in
  { base with crash_at = crash_point 0.6 ~dry_run:(fun () -> Fault.trial_events base) }

(* ---- recovery_ns is the real modeled recovery time ---------------------- *)

let test_recovery_ns_positive () =
  let spec =
    {
      Fault.default_spec with
      threads = 4;
      keyspace = 60;
      ops_per_thread = 80;
      draw_seed = 7;
      seed = 7;
    }
  in
  let t = Fault.run_trial { spec with crash_at = crash_point 0.7 ~dry_run:(fun () -> Fault.trial_events spec) } in
  check_bool "trial crashed" true (t.Fault.crash_events > 0);
  check_bool "recovery_ns positive in a crashed trial" true
    (t.Fault.recovery_ns > 0.0);
  (* at least the pool-reopen cost of the fixture's pools *)
  check_bool "recovery_ns covers pool reopen" true
    (t.Fault.recovery_ns >= Fault.pool_open_ns ~pools:t.Fault.kv.Kv.pools)

(* ---- reconnect + recover twice in a row is a no-op ----------------------- *)

let double_recovery_noop name make () =
  let bodies (kv : Kv.t) =
    let body ~tid =
      for k = 1 to 200 do
        ignore (kv.Kv.upsert ~tid (1 + (k mod 50)) ((100 * tid) + k))
      done
    in
    [ (0, body); (1, body) ]
  in
  (* crashed halfway through the same workload's crash-free run *)
  let events =
    crash_point 0.5 ~dry_run:(fun () ->
        let kv = make () in
        match Sim.Sched.run ~machine:(Kv.machine kv) (bodies kv) with
        | Sim.Sched.Completed { events; _ } -> events
        | Sim.Sched.Crashed_at _ -> Alcotest.fail "unexpected crash in the dry run")
  in
  let kv : Kv.t = make () in
  (match
     Sim.Sched.run ~machine:(Kv.machine kv) ~crash:(Sim.Sched.After_events events) (bodies kv)
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
          [ Kv.Uniform; Kv.Optane ])
      [ Kv.Upskiplist; Kv.Bztree; Kv.Pmdk ]
  in
  let tuned =
    {
      fast_spec with
      crash_at = 4_000 (* printed, never run *);
      cfg =
        {
          keys_per_node = 4;
          max_height = 40;
          branching_p = 0.75;
          recovery_budget = 0;
        };
    }
  in
  let specs =
    { fast_spec with evict = 0.5; mutant = "dangle" }
    :: { fast_spec with rounds = 3; depth = 2; detect = true }
    :: tuned
    :: { fast_spec with structure = Kv.Bztree; descriptors = 500_000 }
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
     mutant=none detect=off"
    (Fault.spec_to_string Fault.default_spec);
  Alcotest.(check string)
    "a tuned fixture prints only the knobs off their defaults"
    "structure=upskiplist latency=uniform mode=numa threads=4 keyspace=60 \
     ops=60 read=0.2 rounds=1 crash_at=4000 depth=0 evict=0 draw=5 seed=42 \
     mutant=none detect=off keys=4 height=40 p=0.75 budget=0"
    (Fault.spec_to_string tuned);
  (match Fault.spec_of_string "threads=8 mutant=dangle" with
  | Ok s ->
      check_int "defaults fill unspecified keys" Fault.default_spec.Fault.keyspace
        s.Fault.keyspace;
      check_int "given keys parsed" 8 s.Fault.threads
  | Error e -> Alcotest.fail e);
  Alcotest.(check (result reject string))
    "an unknown key's error names every key"
    (Error
       ("unknown key: bogus (want "
       ^ String.concat " | " (List.map fst Fault.spec_keys)
       ^ ")"))
    (Fault.spec_of_string "bogus=1");
  check_bool "malformed token rejected" true
    (Result.is_error (Fault.spec_of_string "threads"))

(* Any valid spec prints and parses back unchanged, whatever its floats
   and its structure's tuning. *)
let spec_gen =
  let open QCheck.Gen in
  let pick l = oneofl l in
  let fraction = oneof [ float_bound_inclusive 1.0; pick [ 0.0; 0.2; 0.5; 1.0 ] ] in
  let cfg =
    int_range 1 512 >>= fun keys_per_node ->
    int_range 2 40 >>= fun max_height ->
    oneof [ float_range 0.01 0.99; pick [ 0.25; 0.5; 0.75 ] ] >>= fun branching_p ->
    oneof [ int_bound 8; pick [ 1; 1_000_000 ] ] >>= fun recovery_budget ->
    return
      { Upskiplist.Config.keys_per_node; max_height; branching_p; recovery_budget }
  in
  pick [ Kv.Upskiplist; Kv.Bztree; Kv.Pmdk ] >>= fun structure ->
  (if structure = Kv.Upskiplist then cfg else return Upskiplist.Config.default)
  >>= fun cfg ->
  (if structure = Kv.Bztree then int_range 1 1_000_000
   else return Fault.default_spec.Fault.descriptors)
  >>= fun descriptors ->
  pick [ Kv.Uniform; Kv.Optane ] >>= fun latency ->
  pick [ Pmem.Striped; Pmem.Multi_pool ] >>= fun mode ->
  int_range 1 64 >>= fun threads ->
  int_range 1 10_000 >>= fun keyspace ->
  int_range 1 1_000 >>= fun ops_per_thread ->
  fraction >>= fun read_fraction ->
  int_range 1 5 >>= fun rounds ->
  int_bound 1_000_000 >>= fun crash_at ->
  int_bound 4 >>= fun depth ->
  fraction >>= fun evict ->
  nat >>= fun draw_seed ->
  nat >>= fun seed ->
  pick [ "none"; "skip_resolve"; "lose_key"; "dangle" ] >>= fun mutant ->
  bool >>= fun detect ->
  return
    {
      Fault.structure;
      latency;
      mode;
      threads;
      keyspace;
      ops_per_thread;
      read_fraction;
      rounds;
      crash_at;
      depth;
      evict;
      draw_seed;
      seed;
      mutant;
      detect;
      cfg;
      descriptors;
    }

let prop_spec_roundtrip s = Fault.spec_of_string (Fault.spec_to_string s) = Ok s

(* Replay specs are outside input: a malformed value must be rejected, not
   misread as a default, run as a no-op or run vacuously. *)
let test_spec_validation () =
  List.iter
    (fun line ->
      check_bool ("rejected: " ^ line) true
        (Result.is_error (Fault.spec_of_string line)))
    [
      "audit=off";
      "detect=1";
      "evict=config";
      "structure=btree9000";
      "latency=fast";
      "mode=interleaved";
      "mutant=lose_keys";
      "evict=1.5";
      "evict=-0.1";
      "threads=0";
      "threads=257";
      "keyspace=0";
      "ops=0";
      "rounds=0";
      "depth=-1";
      "crash_at=-1";
      "keys=0";
      "keys=513";
      "structure=bztree descriptors=1000001";
      "height=1";
      "height=41";
      "p=0";
      "p=1";
      "p=nan";
      "budget=-1";
      "reclaim=on";
      "structure=bztree descriptors=0";
      "structure=pmdk keys=4";
      "structure=upskiplist descriptors=100000";
      "structure=pmdk descriptors=100000";
    ];
  List.iter
    (fun line ->
      check_bool ("accepted: " ^ line) true
        (Result.is_ok (Fault.spec_of_string line)))
    [
      "detect=on evict=0 depth=0 crash_at=0";
      "evict=1 mutant=skip_resolve";
      "threads=1 keyspace=1 ops=1 rounds=1 mutant=skip_fp_repair";
      "keys=1 height=2 p=0.01 budget=0";
      "keys=512 height=40 p=0.99";
      "threads=256 keyspace=256 ops=1";
      "structure=bztree descriptors=1";
      "structure=bztree descriptors=1000000";
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
   sends the phase-3 read-back into [Mem.resolve] on a null pointer: the
   bent level-1 pointer of the first node is walked only when that node's
   tower is at least two levels tall, and with eight threads it is (the
   read-back raises at each of ten crash points from 50 % to 95 % of the
   run). The verdict must name the exception, and the same trial inside a
   campaign must be reported as a failure rather than end the campaign.
   The crash lands about 80 % of the way through the workload's crash-free
   run. *)
let raising_spec = "structure=upskiplist threads=8 mutant=dangle latency=optane mode=multi"

let test_raise_after_recovery_is_a_verdict () =
  let spec =
    match Fault.spec_of_string raising_spec with
    | Ok s -> { s with crash_at = crash_point 0.795 ~dry_run:(fun () -> Fault.trial_events s) }
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
      {
        Fault.base = spec;
        grid = { origin = spec.crash_at; stride = 1; points = 1; jitter = 0 };
        draws = 1;
      }
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
  let base = { fast_spec with depth = 1; evict = 0.6; draw_seed = 11 } in
  let c =
    { Fault.base; grid = Fault.dry_run_grid base ~first:0.3 ~stride:0.35 ~jitter:0.05 ~points:2; draws = 2 }
  in
  let a = Fault.run_campaign c in
  let b = Fault.run_campaign c in
  check_int "every trial crashed" a.Fault.trials a.Fault.crashed_trials;
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

(* ---- replay: a failing trial's printed line is its whole fixture --------- *)

(* Run [c], which must fail, and replay each failure from its printed line
   alone: the line parses back to the trial's spec and reruns to the same
   crash, violations, audit report and exception. Returns the parsed
   specs. *)
let replay_failures name (c : Fault.campaign) =
  let s = Fault.run_campaign c in
  check_int (name ^ ": every trial crashed") s.Fault.trials s.Fault.crashed_trials;
  check_bool (name ^ ": the campaign has failures") true (s.Fault.failures <> []);
  List.map
    (fun ((spec : Fault.spec), (r : Fault.result)) ->
      let line = Fault.spec_to_string spec in
      match Fault.spec_of_string line with
      | Error e -> Alcotest.fail (line ^ ": " ^ e)
      | Ok parsed ->
          check_bool (line ^ ": parses back to the trial's spec") true (parsed = spec);
          let r' = Fault.run_spec parsed in
          check_int (line ^ ": same crash") r.Fault.crash_events r'.Fault.crash_events;
          let messages (r : Fault.result) =
            List.map (Fmt.str "%a" Lincheck.Checker.pp_violation) r.Fault.violations
          in
          Alcotest.(check (list string))
            (line ^ ": same violations") (messages r) (messages r');
          Alcotest.(check (list string))
            (line ^ ": same audit report") r.Fault.audit_errors r'.Fault.audit_errors;
          Alcotest.(check (option string))
            (line ^ ": same exception") r.Fault.raised r'.Fault.raised;
          parsed)
    s.Fault.failures

(* A campaign over two crash points of [base]'s crash-free run. *)
let replay_campaign ?(jitter = 0.05) base ~first ~stride ~draws =
  { Fault.base; grid = Fault.dry_run_grid base ~first ~stride ~jitter ~points:2; draws }

let test_tuned_mutant_failures_replay () =
  let k4 = { Upskiplist.Config.default with keys_per_node = 4 } in
  let parsed =
    replay_failures "K=4 dangle"
      (replay_campaign { fast_spec with cfg = k4; mutant = "dangle" } ~first:0.6 ~stride:0.2
         ~draws:1)
  in
  List.iter
    (fun (s : Fault.spec) -> check_int "the line names K = 4" 4 s.Fault.cfg.keys_per_node)
    parsed

let test_bztree_failures_replay () =
  let parsed =
    replay_failures "BzTree skip_resolve"
      (replay_campaign
         {
           fast_spec with
           structure = Kv.Bztree;
           descriptors = 4_096;
           detect = true;
           mutant = "skip_resolve";
         }
         (* early in BzTree's run, about events 3 000 and 3 700 of 25 627,
            where skip_resolve's failures show *)
         ~first:0.117 ~stride:0.027 ~jitter:0.008 ~draws:2)
  in
  List.iter
    (fun (s : Fault.spec) ->
      check_bool "the line names structure=bztree" true (s.Fault.structure = Kv.Bztree);
      check_int "and its descriptor pool" 4_096 s.Fault.descriptors)
    parsed

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
          qcase "random specs round-trip through their printed form"
            (QCheck.make ~print:Fault.spec_to_string spec_gen)
            prop_spec_roundtrip;
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
      ( "replay",
        [
          slow_case "a K=4 mutant campaign's failure lines replay exactly"
            test_tuned_mutant_failures_replay;
          slow_case "a BzTree campaign's failure lines replay exactly"
            test_bztree_failures_replay;
        ] );
      ( "shrinking",
        [ slow_case "shrinks to a smaller replayable reproducer" test_shrink_minimises ] );
    ]
