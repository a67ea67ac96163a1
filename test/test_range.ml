(* Range queries across all three structures, the snapshot semantics of
   UPSkipList's strictly linearizable range (Ch. 7 follow-up), and the
   scan-heavy workload E. *)

open Testsupport
module SL = Upskiplist.Skiplist
module Config = Upskiplist.Config

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

(* model range over a reference assoc list *)
let model_range pairs ~lo ~hi =
  List.filter (fun (k, _) -> k >= lo && k <= hi) pairs

let test_range_matches_model_all_structures () =
  List.iter
    (fun (name, make) ->
      let kv : Harness.Kv.t = make () in
      run1 kv.Harness.Kv.pmem (fun ~tid ->
          let rng = Sim.Rng.create 9 in
          for k = 1 to 300 do
            ignore (kv.Harness.Kv.upsert ~tid k (k * 10))
          done;
          (* punch some holes *)
          for _ = 1 to 60 do
            ignore (kv.Harness.Kv.remove ~tid (1 + Sim.Rng.int rng 300))
          done;
          let reference = kv.Harness.Kv.to_alist () in
          List.iter
            (fun (lo, hi) ->
              check_pairs
                (Printf.sprintf "%s range [%d,%d]" name lo hi)
                (model_range reference ~lo ~hi)
                (kv.Harness.Kv.range ~tid ~lo ~hi))
            [ (1, 300); (50, 60); (100, 100); (250, 400); (301, 400); (7, 8) ]))
    makers

let test_range_empty_structure () =
  List.iter
    (fun (name, make) ->
      let kv : Harness.Kv.t = make () in
      run1 kv.Harness.Kv.pmem (fun ~tid ->
          check_pairs (name ^ " empty") [] (kv.Harness.Kv.range ~tid ~lo:1 ~hi:100)))
    makers

let test_range_after_splits () =
  (* deep structures: many splits / leaf levels *)
  List.iter
    (fun (name, make) ->
      let kv : Harness.Kv.t = make () in
      run1 kv.Harness.Kv.pmem (fun ~tid ->
          for k = 1 to 1000 do
            ignore (kv.Harness.Kv.upsert ~tid k k)
          done;
          let r = kv.Harness.Kv.range ~tid ~lo:333 ~hi:666 in
          check_int (name ^ " count") 334 (List.length r);
          check_pairs (name ^ " contents")
            (List.init 334 (fun i -> (333 + i, 333 + i)))
            r))
    makers

(* ---- UPSkipList: range is a snapshot ---------------------------------------- *)

let test_snapshot_equals_range_quiet () =
  let fx = make_skiplist () in
  run1 fx.pmem (fun ~tid ->
      for k = 1 to 200 do
        ignore (SL.upsert fx.sl ~tid k (k * 2))
      done;
      ignore (SL.remove fx.sl ~tid 50);
      check_pairs "same result when quiet"
        (model_range (SL.to_alist fx.sl) ~lo:10 ~hi:90)
        (SL.range fx.sl ~tid ~lo:10 ~hi:90))

let test_snapshot_stable_membership_under_inserts () =
  (* keys 1..100 never change; concurrent inserts target 1000+; every
     snapshot of [1,100] must be exactly the stable set *)
  let fx = make_skiplist ~cfg:{ Config.default with keys_per_node = 4 } () in
  run1 fx.pmem (fun ~tid ->
      for k = 1 to 100 do
        ignore (SL.upsert fx.sl ~tid k (k * 7))
      done);
  let expected = List.init 100 (fun i -> (i + 1, (i + 1) * 7)) in
  let inserter ~tid =
    for i = 1 to 300 do
      ignore (SL.upsert fx.sl ~tid (1000 + (i * 3) + tid) i)
    done
  in
  let scanner ~tid =
    for _ = 1 to 8 do
      check_pairs "snapshot sees exactly the stable keys" expected
        (SL.range fx.sl ~tid ~lo:1 ~hi:100)
    done
  in
  ignore (run fx.pmem [ inserter; scanner; inserter; scanner ])

let test_snapshot_no_torn_values () =
  (* concurrent updates: each returned value must be one some thread wrote *)
  let fx = make_skiplist () in
  run1 fx.pmem (fun ~tid ->
      for k = 1 to 50 do
        ignore (SL.upsert fx.sl ~tid k 1_000_000)
      done);
  let updater ~tid =
    for round = 1 to 20 do
      for k = 1 to 50 do
        ignore (SL.upsert fx.sl ~tid k ((tid * 1_000_000) + (round * 1000) + k))
      done
    done
  in
  let scanner ~tid =
    for _ = 1 to 10 do
      List.iter
        (fun (k, v) ->
          check_bool "value well-formed" true
            (v = 1_000_000 || v mod 1000 = k))
        (SL.range fx.sl ~tid ~lo:1 ~hi:50)
    done
  in
  ignore (run fx.pmem [ updater; scanner; updater ])

let test_snapshot_with_removals () =
  let fx = make_skiplist () in
  run1 fx.pmem (fun ~tid ->
      for k = 1 to 100 do
        ignore (SL.upsert fx.sl ~tid k k)
      done);
  let remover ~tid =
    for k = 30 to 70 do
      ignore (SL.remove fx.sl ~tid k)
    done
  in
  let scanner ~tid =
    for _ = 1 to 6 do
      List.iter
        (fun (k, v) -> check_int "no garbage" k v)
        (SL.range fx.sl ~tid ~lo:1 ~hi:100)
    done
  in
  ignore (run fx.pmem [ remover; scanner ]);
  run1 fx.pmem (fun ~tid ->
      check_pairs "final state"
        (List.init 29 (fun i -> (i + 1, i + 1))
        @ List.init 30 (fun i -> (71 + i, 71 + i)))
        (SL.range fx.sl ~tid ~lo:1 ~hi:100))

(* Snapshot order: one writer sets key [a] (in the first node) and then key
   [b] (in the last node) to the same rising j, so at every instant
   value(b) <= value(a). A scan that reads [a] before a write pair and [b]
   after it returns value(b) > value(a): no single instant had both. Two
   scanners check every scan that completes while the writes go on, and
   enough of them must complete for the check to mean anything. Optane
   latency makes a 200-key scan (K = 16) span several write pairs. *)
let test_snapshot_order () =
  let a = 1 and b = 200 in
  let scans = ref 0 in
  for seed = 1 to 5 do
    let fx =
      make_skiplist ~cfg:{ Config.default with keys_per_node = 16 }
        ~latency:Pmem.Latency.default ~seed ()
    in
    run1 fx.pmem (fun ~tid ->
        for k = a to b do
          ignore (SL.upsert fx.sl ~tid k 1)
        done);
    let writing = ref true in
    let writer ~tid =
      for j = 2 to 400 do
        ignore (SL.upsert fx.sl ~tid a j);
        ignore (SL.upsert fx.sl ~tid b j);
        Sim.Sched.charge 2000.0
      done;
      writing := false
    in
    let scanner ~tid =
      while !writing do
        let r = SL.range fx.sl ~tid ~lo:a ~hi:b in
        if !writing then begin
          incr scans;
          let va = List.assoc a r and vb = List.assoc b r in
          if vb > va then
            Alcotest.failf "seed %d: scan saw value(a) = %d and value(b) = %d"
              seed va vb
        end
      done
    in
    ignore (run fx.pmem [ writer; scanner; scanner ])
  done;
  check_bool (Fmt.str "at least 100 scans completed during the writes (%d)" !scans)
    true (!scans >= 100)

(* ---- workload E (scan-heavy) ------------------------------------------------ *)

let test_workload_e_runs_everywhere () =
  List.iter
    (fun (name, make) ->
      let kv : Harness.Kv.t = make () in
      Harness.Driver.preload kv ~threads:4 ~n:400;
      let res =
        Harness.Driver.run_workload kv ~spec:Ycsb.Workload.e ~threads:4
          ~n_initial:400 ~ops_per_thread:100 ~seed:6
      in
      check_bool (name ^ ": ran") true (res.Harness.Driver.ops = 400);
      check_bool (name ^ ": scans measured") true
        (Sim.Histogram.count res.Harness.Driver.scan_hist > 300);
      check_bool (name ^ ": scans cost more than point reads") true
        (Sim.Histogram.count res.Harness.Driver.scan_hist = 0
        || Sim.Histogram.mean res.Harness.Driver.scan_hist > 0.0))
    makers

let test_range_scaling_with_m () =
  (* O(m + log n): scan latency grows roughly linearly in the result size *)
  let fx = make_skiplist ~cfg:{ Config.default with keys_per_node = 16 } () in
  run1 fx.pmem (fun ~tid ->
      for k = 1 to 4000 do
        ignore (SL.upsert fx.sl ~tid k k)
      done);
  let time_scan m =
    let t = ref 0.0 in
    run1 fx.pmem (fun ~tid ->
        let t0 = Sim.Sched.now () in
        ignore (SL.range fx.sl ~tid ~lo:1000 ~hi:(1000 + m));
        t := Sim.Sched.now () -. t0);
    !t
  in
  let t100 = time_scan 100 and t1600 = time_scan 1600 in
  check_bool "16x result, >4x cost (linear in m)" true (t1600 > 4.0 *. t100);
  check_bool "but not superlinear" true (t1600 < 64.0 *. t100)

let () =
  Alcotest.run "range"
    [
      ( "all structures",
        [
          case "matches model" test_range_matches_model_all_structures;
          case "empty structure" test_range_empty_structure;
          case "after splits" test_range_after_splits;
          case "workload E" test_workload_e_runs_everywhere;
        ] );
      ( "snapshot",
        [
          case "equals range when quiet" test_snapshot_equals_range_quiet;
          case "stable membership under inserts" test_snapshot_stable_membership_under_inserts;
          case "no torn values" test_snapshot_no_torn_values;
          case "with removals" test_snapshot_with_removals;
          slow_case "order under writes" test_snapshot_order;
        ] );
      ("complexity", [ case "O(m + log n)" test_range_scaling_with_m ]);
    ]
