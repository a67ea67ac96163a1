(* Tests for the PMDK-style substrate: undo-log transactions (commit,
   abort, crash rollback), run-id locks, and the lock-based lazy skip list
   baseline with fat pointers. *)

open Testsupport
module Mem = Memory.Mem

let opt_int = Alcotest.(option int)

type fx = { pmem : Pmem.t; mem : Mem.t; tx : Pmdk.Tx.t }

let make_fx () =
  let pmem = fast_pmem () in
  let mem = make_mem ~block_words:8 ~blocks_per_chunk:64 pmem in
  let tx = Pmdk.Tx.create_poked ~mem in
  { pmem; mem; tx }

let word fx i =
  Mem.resolve fx.mem (Mem.riv_of_root ~pool:0 ~word:(7000 + (i * Pmem.line_words)))

(* ---- transactions ------------------------------------------------------- *)

let test_tx_commit_persists () =
  let fx = make_fx () in
  let a = word fx 0 in
  run1 fx.pmem (fun ~tid ->
      Pmdk.Tx.begin_ fx.tx ~tid;
      Pmdk.Tx.write fx.tx ~tid a 11;
      Pmdk.Tx.commit fx.tx ~tid);
  Pmem.crash fx.pmem;
  check_int "committed write survives" 11 (Pmem.peek fx.pmem a)

let test_tx_abort_restores () =
  let fx = make_fx () in
  let a = word fx 0 in
  Pmem.poke fx.pmem a 5;
  run1 fx.pmem (fun ~tid ->
      Pmdk.Tx.begin_ fx.tx ~tid;
      Pmdk.Tx.write fx.tx ~tid a 99;
      check_int "visible inside tx" 99 (Sim.Sched.read a);
      Pmdk.Tx.abort fx.tx ~tid;
      check_int "rolled back" 5 (Sim.Sched.read a))

let test_tx_crash_rolls_back () =
  let fx = make_fx () in
  let a = word fx 0 and b = word fx 1 in
  Pmem.poke fx.pmem a 1;
  Pmem.poke fx.pmem b 2;
  ignore
    (run_crash fx.pmem ~events:1_000
       [
         (fun ~tid ->
           Pmdk.Tx.begin_ fx.tx ~tid;
           Pmdk.Tx.write fx.tx ~tid a 100;
           Pmdk.Tx.write fx.tx ~tid b 200;
           (* spin so the crash lands inside the transaction *)
           while true do
             Sim.Sched.yield ()
           done);
       ]);
  Pmem.crash fx.pmem;
  Pmdk.Tx.reconnect fx.tx;
  run1 fx.pmem (fun ~tid:_ -> Pmdk.Tx.recover fx.tx);
  check_int "a rolled back" 1 (Pmem.peek fx.pmem a);
  check_int "b rolled back" 2 (Pmem.peek fx.pmem b)

let test_tx_crash_after_commit_durable () =
  let fx = make_fx () in
  let a = word fx 0 in
  ignore
    (run_crash fx.pmem ~events:10_000
       [
         (fun ~tid ->
           Pmdk.Tx.begin_ fx.tx ~tid;
           Pmdk.Tx.write fx.tx ~tid a 33;
           Pmdk.Tx.commit fx.tx ~tid;
           while true do
             Sim.Sched.yield ()
           done);
       ]);
  Pmem.crash fx.pmem;
  Pmdk.Tx.reconnect fx.tx;
  run1 fx.pmem (fun ~tid:_ -> Pmdk.Tx.recover fx.tx);
  check_int "committed before crash" 33 (Pmem.peek fx.pmem a)

let test_tx_per_thread_slots () =
  let fx = make_fx () in
  let a = word fx 0 and b = word fx 1 in
  ignore
    (run fx.pmem
       [
         (fun ~tid ->
           Pmdk.Tx.begin_ fx.tx ~tid;
           Pmdk.Tx.write fx.tx ~tid a 1;
           Pmdk.Tx.commit fx.tx ~tid);
         (fun ~tid ->
           Pmdk.Tx.begin_ fx.tx ~tid;
           Pmdk.Tx.write fx.tx ~tid b 2;
           Pmdk.Tx.commit fx.tx ~tid);
       ]);
  check_int "thread 0 tx" 1 (Pmem.peek fx.pmem a);
  check_int "thread 1 tx" 2 (Pmem.peek fx.pmem b)

let test_recovery_only_rolls_active () =
  let fx = make_fx () in
  let a = word fx 0 in
  run1 fx.pmem (fun ~tid ->
      Pmdk.Tx.begin_ fx.tx ~tid;
      Pmdk.Tx.write fx.tx ~tid a 7;
      Pmdk.Tx.commit fx.tx ~tid);
  Pmem.crash fx.pmem;
  Pmdk.Tx.reconnect fx.tx;
  run1 fx.pmem (fun ~tid:_ -> Pmdk.Tx.recover fx.tx);
  check_int "idle slot untouched" 7 (Pmem.peek fx.pmem a)

(* A transaction of five adds crashed at every event, with a crash that
   keeps the undo log's count line and drops every other dirty line. The
   count validates the entries, but entries 3 and up sit on later lines
   than it, where an earlier committed transaction left its own entries:
   a count that reached the persistent image before its entry's line
   rolls back a stale entry over a committed word. *)
let test_tx_torn_entry_crash_grid () =
  let n = 5 in
  let committed fx = List.init n (word fx) and fresh fx = List.init n (fun i -> word fx (n + i)) in
  let writes fx ~tid words base =
    Pmdk.Tx.begin_ fx.tx ~tid;
    List.iteri (fun i a -> Pmdk.Tx.write fx.tx ~tid a (base + i)) words;
    Pmdk.Tx.commit fx.tx ~tid
  in
  let prepare () =
    let fx = make_fx () in
    run1 fx.pmem (fun ~tid -> writes fx ~tid (committed fx) 10);
    fx
  in
  let body fx ~tid = writes fx ~tid (fresh fx) 20 in
  let events =
    let fx = prepare () in
    snd (run fx.pmem [ body fx ])
  in
  for crash_at = 1 to events - 1 do
    let fx = prepare () in
    ignore (run_crash fx.pmem ~events:crash_at [ body fx ]);
    let count_line =
      Pmem.word_of (Pmdk.Tx.slot_addr fx.tx 0 Pmdk.Tx.s_count) / Pmem.line_words
    in
    Pmem.crash fx.pmem ~persist_line:(fun ~pool ~line -> pool = 0 && line = count_line);
    Pmdk.Tx.reconnect fx.tx;
    run1 fx.pmem (fun ~tid:_ -> Pmdk.Tx.recover fx.tx);
    let where = Printf.sprintf "crash at event %d of %d" crash_at events in
    Alcotest.(check (list int))
      (where ^ ": the committed transaction")
      (List.init n (fun i -> 10 + i))
      (List.map (Pmem.peek fx.pmem) (committed fx));
    let after = List.map (Pmem.peek fx.pmem) (fresh fx) in
    if after <> List.init n (fun _ -> 0) && after <> List.init n (fun i -> 20 + i) then
      Alcotest.failf "%s: the crashed transaction is torn: %a" where
        Fmt.(Dump.list int) after
  done

(* ---- run-id locks --------------------------------------------------------- *)

let test_lock_mutual_exclusion () =
  let fx = make_fx () in
  let lock = word fx 2 in
  let counter = ref 0 and in_cs = ref 0 and max_in_cs = ref 0 in
  let body ~tid:_ =
    for _ = 1 to 50 do
      Pmdk.Tx.Lock.acquire fx.tx lock;
      incr in_cs;
      if !in_cs > !max_in_cs then max_in_cs := !in_cs;
      Sim.Sched.charge 10.0;
      incr counter;
      decr in_cs;
      Pmdk.Tx.Lock.release fx.tx lock
    done
  in
  ignore (run fx.pmem [ body; body; body; body ]);
  check_int "all increments" 200 !counter;
  check_int "never two holders" 1 !max_in_cs

let test_lock_freed_by_crash () =
  let fx = make_fx () in
  let lock = word fx 2 in
  ignore
    (run_crash fx.pmem ~events:100
       [
         (fun ~tid:_ ->
           Pmdk.Tx.Lock.acquire fx.tx lock;
           while true do
             Sim.Sched.yield ()
           done);
       ]);
  Pmem.crash fx.pmem;
  Pmdk.Tx.reconnect fx.tx;
  (* new run id: stale lock is free by definition, no O(n) re-init *)
  run1 fx.pmem (fun ~tid:_ ->
      check_bool "acquirable after crash" true (Pmdk.Tx.Lock.try_acquire fx.tx lock))

(* ---- lock-based lazy skip list -------------------------------------------- *)

let make_list () =
  let sys =
    {
      Harness.Kv.default_sys with
      latency = Pmem.Latency.uniform;
      pool_words = 1 lsl 20;
      max_threads = 16;
    }
  in
  Harness.Kv.make_pmdk_list ~max_height:12 sys

let test_list_kv_contract () =
  let kv = make_list () in
  run1 kv.Harness.Kv.pmem (fun ~tid ->
      Alcotest.check opt_int "absent" None (kv.Harness.Kv.search ~tid 3);
      Alcotest.check opt_int "insert" None (kv.Harness.Kv.upsert ~tid 3 30);
      Alcotest.check opt_int "update old" (Some 30) (kv.Harness.Kv.upsert ~tid 3 31);
      Alcotest.check opt_int "read" (Some 31) (kv.Harness.Kv.search ~tid 3);
      Alcotest.check opt_int "remove" (Some 31) (kv.Harness.Kv.remove ~tid 3);
      Alcotest.check opt_int "gone" None (kv.Harness.Kv.search ~tid 3))

let test_list_sorted () =
  let kv = make_list () in
  run1 kv.Harness.Kv.pmem (fun ~tid ->
      let keys = Array.init 150 (fun i -> i + 1) in
      let rng = Sim.Rng.create 31 in
      Sim.Rng.shuffle rng keys;
      Array.iter (fun k -> ignore (kv.Harness.Kv.upsert ~tid k (k * 2))) keys);
  check_pairs "sorted list"
    (List.init 150 (fun i -> (i + 1, (i + 1) * 2)))
    (kv.Harness.Kv.to_alist ())

let test_list_concurrent_inserts () =
  let kv = make_list () in
  let threads = 6 and per = 50 in
  let body ~tid =
    for i = 0 to per - 1 do
      let k = 1 + (i * threads) + tid in
      ignore (kv.Harness.Kv.upsert ~tid k k)
    done
  in
  ignore (run kv.Harness.Kv.pmem (List.init threads (fun _ -> body)));
  check_int "all present" (threads * per) (List.length (kv.Harness.Kv.to_alist ()))

let test_list_crash_recovery () =
  let kv = make_list () in
  let acked = Array.make 4 [] in
  let body ~tid =
    for i = 0 to 149 do
      let k = 1 + (i * 4) + tid in
      ignore (kv.Harness.Kv.upsert ~tid k (k * 2));
      acked.(tid) <- k :: acked.(tid)
    done
  in
  ignore (run_crash kv.Harness.Kv.pmem ~events:25_000 (List.init 4 (fun _ -> body)));
  Pmem.crash kv.Harness.Kv.pmem;
  kv.Harness.Kv.reconnect ();
  run1 kv.Harness.Kv.pmem (fun ~tid -> kv.Harness.Kv.recover ~tid);
  run1 kv.Harness.Kv.pmem (fun ~tid ->
      Array.iter
        (List.iter (fun k ->
             Alcotest.check opt_int "acked survives" (Some (k * 2))
               (kv.Harness.Kv.search ~tid k)))
        acked;
      (* and the structure keeps working *)
      for k = 5000 to 5050 do
        ignore (kv.Harness.Kv.upsert ~tid k k)
      done;
      for k = 5000 to 5050 do
        Alcotest.check opt_int "new inserts" (Some k) (kv.Harness.Kv.search ~tid k)
      done)

let () =
  Alcotest.run "pmdk"
    [
      ( "tx",
        [
          case "commit persists" test_tx_commit_persists;
          case "abort restores" test_tx_abort_restores;
          case "crash rolls back" test_tx_crash_rolls_back;
          case "commit durable across crash" test_tx_crash_after_commit_durable;
          case "per-thread slots" test_tx_per_thread_slots;
          case "recovery only rolls active" test_recovery_only_rolls_active;
          case "a torn undo entry never rolls back" test_tx_torn_entry_crash_grid;
        ] );
      ( "locks",
        [
          case "mutual exclusion" test_lock_mutual_exclusion;
          case "freed by crash" test_lock_freed_by_crash;
        ] );
      ( "lazy skip list",
        [
          case "kv contract" test_list_kv_contract;
          case "sorted" test_list_sorted;
          case "concurrent inserts" test_list_concurrent_inserts;
          case "crash recovery" test_list_crash_recovery;
        ] );
    ]
