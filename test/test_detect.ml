(* Detectable exactly-once operations: descriptor-slot persistence across
   crashes (announce crash-atomicity, torn announces, crash between
   announce and the structure op, crash between the op and its resolve),
   idempotency of the recovery resolve pass, the skip_resolve double-apply
   demonstration, and the detect fault campaigns (clean, depth-2
   multi-crash, mutant caught, -j1/-j4 verdict parity). *)

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

let make_kv () = Kv.make_upskiplist ~detect_clients:4 fast_sys
let det (kv : Kv.t) = Option.get kv.Kv.detect

let run_fiber (kv : Kv.t) body =
  match Sim.Sched.run ~machine:(Kv.machine kv) [ (0, body) ] with
  | Sim.Sched.Completed _ -> ()
  | Sim.Sched.Crashed_at _ -> Alcotest.fail "unexpected simulated crash"

let crash_fiber (kv : Kv.t) ~events body =
  match
    Sim.Sched.run ~machine:(Kv.machine kv)
      ~crash:(Sim.Sched.After_events events)
      [ (0, body) ]
  with
  | Sim.Sched.Crashed_at _ -> ()
  | Sim.Sched.Completed _ -> Alcotest.fail "expected a simulated crash"

let power_fail (kv : Kv.t) =
  Pmem.crash kv.Kv.pmem;
  kv.Kv.reconnect ()

let recover ?(resolve = true) (kv : Kv.t) =
  run_fiber kv (fun ~tid ->
      kv.Kv.recover ~tid;
      if resolve then ignore (Kv.d_recover kv ~tid : int))

(* ---- descriptor-slot persistence ----------------------------------------- *)

(* Crash after the announce but before the structure op: the descriptor
   proves the op did not take effect, so the replay applies it exactly
   once. *)
let test_announce_then_crash_replays () =
  let kv = make_kv () in
  run_fiber kv (fun ~tid ->
      Detect.announce (det kv) ~tid ~client:0 ~seq:1 ~op:Detect.Op_upsert
        ~key:5 ~value:999);
  power_fail kv;
  recover kv;
  check_bool "decided not applied" true
    (Kv.d_decide kv ~client:0 ~seq:1 = Detect.Not_applied);
  check_bool "key absent before replay" true
    (let out = ref (Some 0) in
     run_fiber kv (fun ~tid -> out := kv.Kv.search ~tid 5);
     !out = None);
  let prev = ref (Some 0) in
  run_fiber kv (fun ~tid ->
      prev := Kv.d_upsert kv ~tid ~client:0 ~seq:1 5 999);
  check_bool "replay applied into an empty slot" true (!prev = None);
  check_bool "replay acked as applied" true
    (Kv.d_decide kv ~client:0 ~seq:1 = Detect.Applied None);
  check_int "audit clean" 0 (List.length (kv.Kv.audit ()))

(* Crash after the structure op but before the resolve: the recovery pass
   probes the bottom level, proves the op took effect, and the replay is
   suppressed. *)
let test_exec_without_resolve_suppressed () =
  let kv = make_kv () in
  run_fiber kv (fun ~tid ->
      Detect.announce (det kv) ~tid ~client:1 ~seq:7 ~op:Detect.Op_upsert
        ~key:9 ~value:4242;
      ignore (kv.Kv.upsert ~tid 9 4242));
  power_fail kv;
  let decided = ref 0 in
  run_fiber kv (fun ~tid ->
      kv.Kv.recover ~tid;
      decided := Kv.d_recover kv ~tid);
  check_int "resolve pass decided one slot" 1 !decided;
  check_bool "slot recovered as applied" true
    ((Detect.peek_slot (det kv) ~client:1).Detect.d_status
    = Detect.st_rec_applied);
  check_bool "decided applied (result lost)" true
    (Kv.d_decide kv ~client:1 ~seq:7 = Detect.Applied_unknown);
  check_int "audit clean" 0 (List.length (kv.Kv.audit ()))

(* Re-running the recovery resolve pass must be a no-op: same verdicts,
   nothing new decided, slots stable. *)
let test_double_recovery_resolve_noop () =
  let kv = make_kv () in
  run_fiber kv (fun ~tid ->
      Detect.announce (det kv) ~tid ~client:0 ~seq:1 ~op:Detect.Op_upsert
        ~key:3 ~value:111;
      ignore (kv.Kv.upsert ~tid 3 111);
      (* client 2: announced but never executed *)
      Detect.announce (det kv) ~tid ~client:2 ~seq:5 ~op:Detect.Op_upsert
        ~key:4 ~value:222);
  power_fail kv;
  recover kv;
  let s0 = Detect.peek_slot (det kv) ~client:0 in
  let s2 = Detect.peek_slot (det kv) ~client:2 in
  check_bool "client 0 recovered applied" true
    (s0.Detect.d_status = Detect.st_rec_applied);
  check_bool "client 2 recovered absent" true
    (s2.Detect.d_status = Detect.st_rec_absent);
  for i = 1 to 3 do
    let n = ref (-1) in
    run_fiber kv (fun ~tid -> n := Kv.d_recover kv ~tid);
    check_int (Printf.sprintf "pass %d decided nothing" i) 0 !n;
    check_bool
      (Printf.sprintf "pass %d left slots unchanged" i)
      true
      (Detect.peek_slot (det kv) ~client:0 = s0
      && Detect.peek_slot (det kv) ~client:2 = s2)
  done

(* Crash at every primitive-event point inside the announce and the start
   of the op: the slot is one cache line, so it must read back either
   empty or fully announced — never torn — and the decide-replay protocol
   must land the op exactly once from any of those states. *)
let test_announce_crash_atomicity_grid () =
  for events = 1 to 14 do
    let kv = make_kv () in
    crash_fiber kv ~events (fun ~tid ->
        ignore (Kv.d_upsert kv ~tid ~client:0 ~seq:1 6 777));
    let d = det kv in
    let s = Detect.peek_slot d ~client:0 in
    check_bool
      (Printf.sprintf "crash@%d: slot empty or fully announced" events)
      true
      (s.Detect.d_status = Detect.st_empty
      || (s.Detect.d_seq = 1 && s.Detect.d_key = 6 && s.Detect.d_value = 777));
    power_fail kv;
    recover kv;
    check_int
      (Printf.sprintf "crash@%d: detect audit clean" events)
      0
      (List.length (Detect.audit d));
    (match Kv.d_decide kv ~client:0 ~seq:1 with
    | Detect.Not_applied ->
        let prev = ref (Some 0) in
        run_fiber kv (fun ~tid ->
            prev := Kv.d_upsert kv ~tid ~client:0 ~seq:1 6 777);
        check_bool
          (Printf.sprintf "crash@%d: replay did not duplicate" events)
          true (!prev = None)
    | Detect.Applied _ | Detect.Applied_unknown -> ());
    let out = ref None in
    run_fiber kv (fun ~tid -> out := kv.Kv.search ~tid 6);
    check_bool
      (Printf.sprintf "crash@%d: value present exactly once" events)
      true (!out = Some 777)
  done

(* A power failure between two of an announce's stores that keeps every
   dirty line as it stood, so the slot's line persists with a prefix of
   the stores. The client's previous op was applied and resolved; the torn
   announce of its next one must never decide as that op's [applied]: the
   next op is replayed unless its announce completed, and its value ends up
   present exactly once. *)
let test_torn_announce_grid () =
  for events = 1 to 10 do
    let kv = make_kv () in
    run_fiber kv (fun ~tid -> ignore (Kv.d_upsert kv ~tid ~client:0 ~seq:1 5 555));
    crash_fiber kv ~events (fun ~tid ->
        ignore (Kv.d_upsert kv ~tid ~client:0 ~seq:2 6 777));
    Pmem.crash ~persist_line:(fun ~pool:_ ~line:_ -> true) kv.Kv.pmem;
    kv.Kv.reconnect ();
    recover kv;
    check_int
      (Printf.sprintf "crash@%d: detect audit clean" events)
      0
      (List.length (Detect.audit (det kv)));
    (match Kv.d_decide kv ~client:0 ~seq:2 with
    | Detect.Not_applied ->
        let prev = ref (Some 0) in
        run_fiber kv (fun ~tid -> prev := Kv.d_upsert kv ~tid ~client:0 ~seq:2 6 777);
        check_bool
          (Printf.sprintf "crash@%d: replay did not duplicate" events)
          true (!prev = None)
    | Detect.Applied _ | Detect.Applied_unknown -> ());
    let out = ref None in
    run_fiber kv (fun ~tid -> out := kv.Kv.search ~tid 6);
    check_bool
      (Printf.sprintf "crash@%d: value present exactly once" events)
      true (!out = Some 777)
  done

(* Deterministic double-apply demonstration: skip the resolve pass after a
   crash that left the op applied-but-unresolved, and the blind replay
   observes its own value as predecessor. This is the bug the detect
   campaigns (and the exactly-once gate) exist to catch. *)
let test_skip_resolve_double_applies () =
  let kv = make_kv () in
  run_fiber kv (fun ~tid ->
      Detect.announce (det kv) ~tid ~client:0 ~seq:1 ~op:Detect.Op_upsert
        ~key:8 ~value:555;
      ignore (kv.Kv.upsert ~tid 8 555));
  power_fail kv;
  recover ~resolve:false kv;
  (* without the resolve pass the slot is still [announced], so the decide
     wrongly reports the op as not applied *)
  check_bool "undecided slot reads as not applied" true
    (Kv.d_decide kv ~client:0 ~seq:1 = Detect.Not_applied);
  let prev = ref None in
  run_fiber kv (fun ~tid ->
      prev := Kv.d_upsert kv ~tid ~client:0 ~seq:1 8 555);
  check_bool "blind replay observed its own value (duplicate apply)" true
    (!prev = Some 555)

(* ---- detect fault campaigns ---------------------------------------------- *)

(* Crashed 60 % of the way through its crash-free run. *)
let detect_spec =
  let base =
    {
      Fault.default_spec with
      threads = 4;
      keyspace = 60;
      ops_per_thread = 60;
      draw_seed = 5;
      detect = true;
    }
  in
  { base with crash_at = Fraction 0.6 }

(* Six crash points from 20 % to about 85 % of the way through [base]'s
   crash-free run, each displaced by up to 4 % of it. *)
let campaign base =
  { Fault.base; points = Fault.dry_run_grid base ~first:0.2 ~stride:0.13 ~jitter:0.04 ~points:6; draws = 2 }

let test_detect_spec_roundtrip () =
  let s = detect_spec in
  match Fault.spec_of_string (Fault.spec_to_string s) with
  | Ok s' -> check_bool "detect=on round-trips" true (s = s')
  | Error e -> Alcotest.fail e

let test_detect_campaign_clean () =
  let sum = Fault.run_campaign (campaign detect_spec) in
  check_int "every trial crashed" sum.Fault.trials sum.Fault.crashed_trials;
  check_int "no violations" 0 sum.Fault.violation_trials;
  check_int "no audit failures" 0 sum.Fault.audit_failures;
  check_int "no failures" 0 (List.length sum.Fault.failures);
  check_bool "crashes exercised the replay protocol" true
    (sum.Fault.replays + sum.Fault.suppressions > 0)

(* Depth-2 multi-crash: the recovery fiber (including the descriptor
   resolve pass) is itself crashed up to twice per power failure, so the
   pass must be idempotent under repeated interruption. *)
let test_detect_depth2_grid () =
  let sum = Fault.run_campaign (campaign { detect_spec with depth = 2 }) in
  check_int "every trial crashed" sum.Fault.trials sum.Fault.crashed_trials;
  check_bool "recovery was re-crashed" true
    (sum.Fault.total_crashes > sum.Fault.crashed_trials);
  check_int "no violations" 0 sum.Fault.violation_trials;
  check_int "no audit failures" 0 sum.Fault.audit_failures

let test_skip_resolve_mutant_caught () =
  let sum =
    Fault.run_campaign (campaign { detect_spec with mutant = "skip_resolve" })
  in
  check_int "every trial crashed" sum.Fault.trials sum.Fault.crashed_trials;
  check_bool "campaign caught the skipped resolve pass" true
    (sum.Fault.violation_trials > 0)

(* Satellite: domain-parallel campaigns must reach the verdict of the
   sequential run — same counts, same failures, in the same order. *)
let test_detect_campaign_jobs_parity () =
  let c = campaign { detect_spec with mutant = "skip_resolve" } in
  let a = Fault.run_campaign ~jobs:1 c in
  let b = Fault.run_campaign ~jobs:4 c in
  check_int "every trial crashed" a.Fault.trials a.Fault.crashed_trials;
  check_int "same trials" a.Fault.trials b.Fault.trials;
  check_int "same crashed trials" a.Fault.crashed_trials b.Fault.crashed_trials;
  check_int "same total crashes" a.Fault.total_crashes b.Fault.total_crashes;
  check_int "same violation trials" a.Fault.violation_trials
    b.Fault.violation_trials;
  check_int "same audit failures" a.Fault.audit_failures b.Fault.audit_failures;
  check_int "same replays" a.Fault.replays b.Fault.replays;
  check_int "same suppressions" a.Fault.suppressions b.Fault.suppressions;
  check_bool "same failing specs in the same order" true
    (List.map (fun (s, _) -> Fault.spec_to_string s) a.Fault.failures
    = List.map (fun (s, _) -> Fault.spec_to_string s) b.Fault.failures)

let () =
  Alcotest.run "detect"
    [
      ( "descriptor slots",
        [
          case "announce-then-crash replays exactly once"
            test_announce_then_crash_replays;
          case "exec-without-resolve is suppressed"
            test_exec_without_resolve_suppressed;
          case "recovery resolve pass is idempotent"
            test_double_recovery_resolve_noop;
          case "announce is crash-atomic at every event point"
            test_announce_crash_atomicity_grid;
          case "a torn announce never reads as the next op"
            test_torn_announce_grid;
          case "skipping the resolve pass double-applies"
            test_skip_resolve_double_applies;
        ] );
      ( "campaigns",
        [
          case "detect spec round-trips" test_detect_spec_roundtrip;
          slow_case "clean detect campaign: exactly once"
            test_detect_campaign_clean;
          slow_case "depth-2 multi-crash grid stays exactly once"
            test_detect_depth2_grid;
          slow_case "skip_resolve mutant caught" test_skip_resolve_mutant_caught;
          slow_case "-j1/-j4 verdict parity" test_detect_campaign_jobs_parity;
        ] );
    ]
