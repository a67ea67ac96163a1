(* Tests for the strict-linearizability checker, mirroring the thesis's
   validation methodology: hand-built histories that are known-correct must
   pass, and histories with injected errors (the thesis mutated read values
   at random) must be flagged. *)

open Testsupport
module H = Lincheck.History
module C = Lincheck.Checker

let upsert = H.completed_upsert
let read = H.completed_read
let pending = H.pending_upsert

let check_ok name events ~eras =
  let h = H.create ~eras events in
  match C.check h with
  | [] -> ()
  | vs ->
      Alcotest.failf "%s: unexpected violations: %s" name
        (String.concat "; " (List.map (fun v -> Fmt.str "%a" C.pp_violation v) vs))

let check_bad name events ~eras =
  let h = H.create ~eras events in
  match C.check h with
  | [] -> Alcotest.failf "%s: violation not detected" name
  | _ -> ()

(* ---- linearizable histories ---------------------------------------------- *)

let test_sequential_ok () =
  check_ok "sequential" ~eras:1
    [
      upsert ~tid:0 ~key:1 ~value:10 ~prev:None ~inv:0. ~res:1. ~era:0;
      read ~tid:0 ~key:1 ~out:(Some 10) ~inv:2. ~res:3. ~era:0;
      upsert ~tid:0 ~key:1 ~value:11 ~prev:(Some 10) ~inv:4. ~res:5. ~era:0;
      read ~tid:0 ~key:1 ~out:(Some 11) ~inv:6. ~res:7. ~era:0;
    ]

let test_concurrent_overlap_ok () =
  (* two overlapping upserts; the chain order is consistent with prev links *)
  check_ok "overlap" ~eras:1
    [
      upsert ~tid:0 ~key:1 ~value:10 ~prev:None ~inv:0. ~res:10. ~era:0;
      upsert ~tid:1 ~key:1 ~value:20 ~prev:(Some 10) ~inv:5. ~res:15. ~era:0;
      read ~tid:2 ~key:1 ~out:(Some 20) ~inv:20. ~res:21. ~era:0;
    ]

let test_read_overlapping_write_ok () =
  (* a read overlapping the write may see either old or new value *)
  check_ok "read sees old" ~eras:1
    [
      upsert ~tid:0 ~key:1 ~value:10 ~prev:None ~inv:0. ~res:1. ~era:0;
      upsert ~tid:0 ~key:1 ~value:11 ~prev:(Some 10) ~inv:10. ~res:20. ~era:0;
      read ~tid:1 ~key:1 ~out:(Some 10) ~inv:12. ~res:13. ~era:0;
    ];
  check_ok "read sees new" ~eras:1
    [
      upsert ~tid:0 ~key:1 ~value:10 ~prev:None ~inv:0. ~res:1. ~era:0;
      upsert ~tid:0 ~key:1 ~value:11 ~prev:(Some 10) ~inv:10. ~res:20. ~era:0;
      read ~tid:1 ~key:1 ~out:(Some 11) ~inv:12. ~res:13. ~era:0;
    ]

let test_absent_read_ok () =
  check_ok "read before first write" ~eras:1
    [
      read ~tid:1 ~key:1 ~out:None ~inv:0. ~res:1. ~era:0;
      upsert ~tid:0 ~key:1 ~value:10 ~prev:None ~inv:2. ~res:3. ~era:0;
    ]

let test_multi_key_independent () =
  check_ok "independent keys" ~eras:1
    [
      upsert ~tid:0 ~key:1 ~value:10 ~prev:None ~inv:0. ~res:1. ~era:0;
      upsert ~tid:1 ~key:2 ~value:10 ~prev:None ~inv:0.5 ~res:1.5 ~era:0;
      read ~tid:0 ~key:2 ~out:(Some 10) ~inv:2. ~res:3. ~era:0;
      read ~tid:1 ~key:1 ~out:(Some 10) ~inv:2. ~res:3. ~era:0;
    ]

let test_pending_dropped_ok () =
  (* an in-flight op at the crash that nobody observed simply didn't happen *)
  check_ok "pending unobserved" ~eras:2
    [
      upsert ~tid:0 ~key:1 ~value:10 ~prev:None ~inv:0. ~res:1. ~era:0;
      pending ~tid:1 ~key:1 ~value:99 ~inv:2. ~era:0;
      read ~tid:0 ~key:1 ~out:(Some 10) ~inv:10. ~res:11. ~era:1;
    ]

let test_pending_observed_ok () =
  (* an in-flight op that took effect before the crash and is then observed *)
  check_ok "pending observed" ~eras:2
    [
      upsert ~tid:0 ~key:1 ~value:10 ~prev:None ~inv:0. ~res:1. ~era:0;
      pending ~tid:1 ~key:1 ~value:99 ~inv:2. ~era:0;
      upsert ~tid:0 ~key:1 ~value:30 ~prev:(Some 99) ~inv:10. ~res:11. ~era:1;
      read ~tid:0 ~key:1 ~out:(Some 30) ~inv:12. ~res:13. ~era:1;
    ]

let test_two_pending_one_observed () =
  check_ok "two pending, one effective" ~eras:2
    [
      upsert ~tid:0 ~key:1 ~value:10 ~prev:None ~inv:0. ~res:1. ~era:0;
      pending ~tid:1 ~key:1 ~value:98 ~inv:2. ~era:0;
      pending ~tid:2 ~key:1 ~value:99 ~inv:2.5 ~era:0;
      read ~tid:0 ~key:1 ~out:(Some 98) ~inv:10. ~res:11. ~era:1;
    ]

(* ---- violations ------------------------------------------------------------ *)

let test_lost_update () =
  (* acked write of 11 vanished: later read sees 10 after 11's overwrite *)
  check_bad "lost update" ~eras:1
    [
      upsert ~tid:0 ~key:1 ~value:10 ~prev:None ~inv:0. ~res:1. ~era:0;
      upsert ~tid:0 ~key:1 ~value:11 ~prev:(Some 10) ~inv:2. ~res:3. ~era:0;
      read ~tid:1 ~key:1 ~out:(Some 10) ~inv:5. ~res:6. ~era:0;
    ]

let test_out_of_thin_air_read () =
  check_bad "thin air" ~eras:1
    [
      upsert ~tid:0 ~key:1 ~value:10 ~prev:None ~inv:0. ~res:1. ~era:0;
      read ~tid:1 ~key:1 ~out:(Some 777) ~inv:2. ~res:3. ~era:0;
    ]

let test_read_before_write () =
  check_bad "read precedes write" ~eras:1
    [
      read ~tid:1 ~key:1 ~out:(Some 10) ~inv:0. ~res:1. ~era:0;
      upsert ~tid:0 ~key:1 ~value:10 ~prev:None ~inv:5. ~res:6. ~era:0;
    ]

let test_fork_same_prev () =
  check_bad "two upserts observed same prev" ~eras:1
    [
      upsert ~tid:0 ~key:1 ~value:10 ~prev:None ~inv:0. ~res:1. ~era:0;
      upsert ~tid:1 ~key:1 ~value:20 ~prev:(Some 10) ~inv:2. ~res:3. ~era:0;
      upsert ~tid:2 ~key:1 ~value:30 ~prev:(Some 10) ~inv:4. ~res:5. ~era:0;
    ]

let test_chain_contradicts_real_time_real () =
  check_bad "anti-real-time chain (explicit)" ~eras:1
    [
      upsert ~tid:0 ~key:1 ~value:10 ~prev:None ~inv:0. ~res:1. ~era:0;
      (* 20 completes first in real time ... *)
      upsert ~tid:1 ~key:1 ~value:20 ~prev:(Some 30) ~inv:2. ~res:3. ~era:0;
      (* ... but its prev is 30, whose write begins later *)
      upsert ~tid:2 ~key:1 ~value:30 ~prev:(Some 10) ~inv:10. ~res:11. ~era:0;
    ]

let test_stale_read () =
  check_bad "stale read" ~eras:1
    [
      upsert ~tid:0 ~key:1 ~value:10 ~prev:None ~inv:0. ~res:1. ~era:0;
      upsert ~tid:0 ~key:1 ~value:11 ~prev:(Some 10) ~inv:2. ~res:3. ~era:0;
      read ~tid:1 ~key:1 ~out:(Some 10) ~inv:10. ~res:11. ~era:0;
    ]

let test_resurrected_pending_after_crash () =
  (* strict linearizability: an era-0 in-flight op may not take effect after
     an era-1 op on the same key *)
  check_bad "resurrection" ~eras:2
    [
      upsert ~tid:0 ~key:1 ~value:10 ~prev:None ~inv:0. ~res:1. ~era:0;
      pending ~tid:1 ~key:1 ~value:99 ~inv:2. ~era:0;
      upsert ~tid:0 ~key:1 ~value:30 ~prev:(Some 10) ~inv:10. ~res:11. ~era:1;
      (* 99 linearizing after 30 crosses the crash boundary *)
      upsert ~tid:0 ~key:1 ~value:40 ~prev:(Some 99) ~inv:12. ~res:13. ~era:1;
    ]

let test_lost_persisted_write_across_crash () =
  (* acked in era 0, gone in era 1 *)
  check_bad "lost across crash" ~eras:2
    [
      upsert ~tid:0 ~key:1 ~value:10 ~prev:None ~inv:0. ~res:1. ~era:0;
      upsert ~tid:0 ~key:1 ~value:11 ~prev:(Some 10) ~inv:2. ~res:3. ~era:0;
      read ~tid:0 ~key:1 ~out:(Some 10) ~inv:10. ~res:11. ~era:1;
    ]

let test_absent_read_after_write () =
  check_bad "absent after completed write" ~eras:1
    [
      upsert ~tid:0 ~key:1 ~value:10 ~prev:None ~inv:0. ~res:1. ~era:0;
      read ~tid:1 ~key:1 ~out:None ~inv:5. ~res:6. ~era:0;
    ]

let test_duplicate_value () =
  check_bad "duplicate value" ~eras:1
    [
      upsert ~tid:0 ~key:1 ~value:10 ~prev:None ~inv:0. ~res:1. ~era:0;
      upsert ~tid:1 ~key:1 ~value:10 ~prev:(Some 10) ~inv:2. ~res:3. ~era:0;
    ]

(* the thesis validated its analyzer by mutating read values at random;
   reproduce that: take a valid history, corrupt one read, expect detection *)
let test_mutation_detection () =
  let base =
    [
      upsert ~tid:0 ~key:1 ~value:10 ~prev:None ~inv:0. ~res:1. ~era:0;
      upsert ~tid:0 ~key:1 ~value:11 ~prev:(Some 10) ~inv:2. ~res:3. ~era:0;
      upsert ~tid:0 ~key:1 ~value:12 ~prev:(Some 11) ~inv:4. ~res:5. ~era:0;
      read ~tid:1 ~key:1 ~out:(Some 12) ~inv:6. ~res:7. ~era:0;
    ]
  in
  check_ok "base valid" ~eras:1 base;
  (* mutate the read to each stale / foreign value *)
  List.iter
    (fun bad_value ->
      let mutated =
        List.map
          (fun (e : H.event) ->
            match e.H.kind with
            | H.Read _ -> { e with H.kind = H.Read { out = Some bad_value } }
            | _ -> e)
          base
      in
      check_bad (Printf.sprintf "mutated read -> %d" bad_value) ~eras:1 mutated)
    [ 10; 11; 777 ]

let test_empty_history_ok () = check_ok "empty" ~eras:1 []

(* ---- operation identity (detectable histories) ---------------------------- *)

(* Each history below is a valid chain, so only the op-id rules can fire;
   without op ids the same events pass. *)
let opid_cases =
  let id = H.with_opid (0, 1) in
  [
    ( "completed twice: replay was not suppressed",
      [
        upsert ~tid:0 ~key:1 ~value:10 ~prev:None ~inv:0. ~res:1. ~era:0;
        upsert ~tid:0 ~key:1 ~value:11 ~prev:(Some 10) ~inv:2. ~res:3. ~era:1;
      ],
      id );
    ( "recorded both pending and completed",
      [
        upsert ~tid:0 ~key:1 ~value:10 ~prev:None ~inv:0. ~res:1. ~era:0;
        pending ~tid:0 ~key:1 ~value:11 ~inv:2. ~era:0;
      ],
      id );
    ( "left pending twice",
      [
        pending ~tid:0 ~key:1 ~value:10 ~inv:0. ~era:0;
        pending ~tid:0 ~key:1 ~value:11 ~inv:2. ~era:1;
      ],
      id );
  ]

let test_opid_violations () =
  List.iter
    (fun (rule, events, id) ->
      let messages =
        List.map
          (fun v -> v.C.message)
          (C.check (H.create ~eras:2 (List.map id events)))
      in
      Alcotest.(check (list string))
        rule
        [ "operation (client 0, seq 1) " ^ rule ]
        messages)
    opid_cases

let test_opid_free_history_ok () =
  List.iter
    (fun (rule, events, _) -> check_ok ("no op ids: " ^ rule) ~eras:2 events)
    opid_cases

let () =
  Alcotest.run "lincheck"
    [
      ( "valid histories",
        [
          case "sequential" test_sequential_ok;
          case "concurrent overlap" test_concurrent_overlap_ok;
          case "read overlapping write" test_read_overlapping_write_ok;
          case "absent read" test_absent_read_ok;
          case "multi-key" test_multi_key_independent;
          case "pending dropped" test_pending_dropped_ok;
          case "pending observed" test_pending_observed_ok;
          case "two pending one observed" test_two_pending_one_observed;
          case "empty" test_empty_history_ok;
        ] );
      ( "violations",
        [
          case "lost update" test_lost_update;
          case "out-of-thin-air read" test_out_of_thin_air_read;
          case "read before write" test_read_before_write;
          case "fork" test_fork_same_prev;
          case "anti-real-time chain" test_chain_contradicts_real_time_real;
          case "stale read" test_stale_read;
          case "resurrection across crash" test_resurrected_pending_after_crash;
          case "lost across crash" test_lost_persisted_write_across_crash;
          case "absent after write" test_absent_read_after_write;
          case "duplicate value" test_duplicate_value;
          case "mutation detection" test_mutation_detection;
        ] );
      ( "operation identity",
        [
          case "each op-id rule fires on its own" test_opid_violations;
          case "a history without op ids is left alone" test_opid_free_history_ok;
        ] );
    ]
