(* Concurrent behaviour of UPSkipList under simulated interleaving: disjoint
   and contended writers, readers racing splits, lock behaviour, and the
   structural invariants after every scenario. *)

open Testsupport
module SL = Upskiplist.Skiplist
module Config = Upskiplist.Config

let opt_int = Alcotest.(option int)

let test_disjoint_writers () =
  let fx = make_skiplist () in
  let threads = 8 and per = 150 in
  let body ~tid =
    for i = 0 to per - 1 do
      let k = 1 + (i * threads) + tid in
      ignore (SL.upsert fx.sl ~tid k (k * 7))
    done
  in
  ignore (run fx.pmem (List.init threads (fun _ -> body)));
  let pairs = SL.to_alist fx.sl in
  check_int "all inserted" (threads * per) (List.length pairs);
  List.iter (fun (k, v) -> check_int "value" (k * 7) v) pairs;
  check_no_invariant_errors fx.sl

let test_contended_same_keys () =
  let fx = make_skiplist () in
  let threads = 6 and keys = 40 in
  let body ~tid =
    for k = 1 to keys do
      ignore (SL.upsert fx.sl ~tid k ((tid * 1000) + k))
    done
  in
  ignore (run fx.pmem (List.init threads (fun _ -> body)));
  let pairs = SL.to_alist fx.sl in
  check_int "each key exactly once" keys (List.length pairs);
  List.iter
    (fun (k, v) ->
      (* the surviving value was written by some thread for this key *)
      check_bool "value plausible" true (v mod 1000 = k))
    pairs;
  check_no_invariant_errors fx.sl

let test_readers_during_writes () =
  let fx = make_skiplist () in
  let writer ~tid =
    for i = 1 to 300 do
      ignore (SL.upsert fx.sl ~tid i i)
    done
  in
  let reader ~tid =
    for i = 1 to 300 do
      match SL.search fx.sl ~tid i with
      | None -> ()
      | Some v -> check_int "reader sees the written value" i v
    done
  in
  ignore (run fx.pmem [ writer; reader; reader; writer ]);
  check_no_invariant_errors fx.sl

let test_split_contention () =
  (* tiny nodes + dense keys: most inserts race node splits *)
  let fx = make_skiplist ~cfg:{ Config.default with keys_per_node = 4 } () in
  let threads = 8 and per = 80 in
  let body ~tid =
    for i = 0 to per - 1 do
      let k = 1 + (i * threads) + tid in
      ignore (SL.upsert fx.sl ~tid k k)
    done
  in
  ignore (run fx.pmem (List.init threads (fun _ -> body)));
  check_int "all present" (threads * per) (List.length (SL.to_alist fx.sl));
  check_no_invariant_errors fx.sl

let test_update_during_split_is_not_lost () =
  (* updates take the read lock; a racing split must never lose an acked
     update *)
  let fx = make_skiplist ~cfg:{ Config.default with keys_per_node = 8 } () in
  let updates = Hashtbl.create 64 in
  let updater ~tid =
    for round = 1 to 30 do
      let k = 1 + (tid * 37 mod 50) in
      let v = (tid * 100000) + (round * 100) + k in
      ignore (SL.upsert fx.sl ~tid k v);
      Hashtbl.replace updates (tid, k) v
    done
  in
  let inserter ~tid =
    for i = 1 to 200 do
      ignore (SL.upsert fx.sl ~tid (1000 + (i * 4) + tid) i)
    done
  in
  ignore (run fx.pmem [ updater; updater; inserter; inserter ]);
  (* every key some updater touched must hold one of the written values *)
  let pairs = SL.to_alist fx.sl in
  Hashtbl.iter
    (fun (_, k) _ ->
      match List.assoc_opt k pairs with
      | None -> Alcotest.failf "key %d lost" k
      | Some v -> check_int "value written by an updater" k (v mod 100))
    updates;
  check_no_invariant_errors fx.sl

let test_no_false_miss_during_splits () =
  (* Each fiber owns the keys congruent to its id, interleaved with every
     other fiber's keys in the same small nodes. Only the owner inserts or
     removes a key, so the owner must always find it. Optane timings (with
     jitter) open the window in which a split completes between an
     inserter's traversal and its slot claim; without the successor
     re-validation the key lands in a node that no longer owns it and every
     later search and remove misses it. *)
  let fx =
    make_skiplist ~latency:Pmem.Latency.default
      ~cfg:{ Config.default with keys_per_node = 4 }
      ~max_threads:16 ()
  in
  let threads = 16 and per = 100 in
  let misses = ref 0 in
  let key ~tid i = 1 + (i * threads) + tid in
  let body ~tid =
    for i = 0 to per - 1 do
      let k = key ~tid i in
      ignore (SL.upsert fx.sl ~tid k k);
      for j = max 0 (i - 3) to i do
        let k = key ~tid j in
        if SL.search fx.sl ~tid k <> Some k then incr misses
      done
    done;
    for i = 0 to per - 1 do
      let k = key ~tid i in
      if i mod 2 = 0 && SL.remove fx.sl ~tid k <> Some k then incr misses
    done
  in
  ignore (run fx.pmem (List.init threads (fun _ -> body)));
  check_int "false misses" 0 !misses;
  check_int "survivors" (threads * per / 2) (List.length (SL.to_alist fx.sl));
  check_no_invariant_errors fx.sl

let test_remove_insert_races () =
  let fx = make_skiplist () in
  let remover ~tid =
    for k = 1 to 100 do
      ignore (SL.remove fx.sl ~tid k)
    done
  in
  let inserter ~tid =
    for k = 1 to 100 do
      ignore (SL.upsert fx.sl ~tid k (k + 5000))
    done
  in
  ignore (run fx.pmem [ inserter; remover; inserter; remover ]);
  (* every key is either present with the inserted value or tombstoned *)
  List.iter
    (fun (k, v) -> check_int "surviving value" (k + 5000) v)
    (SL.to_alist fx.sl);
  check_no_invariant_errors fx.sl

let test_range_during_inserts () =
  let fx = make_skiplist () in
  let seen = ref [] in
  let inserter ~tid =
    for i = 1 to 400 do
      ignore (SL.upsert fx.sl ~tid i i)
    done
  in
  let scanner ~tid =
    for _ = 1 to 10 do
      let r = SL.range fx.sl ~tid ~lo:50 ~hi:150 in
      seen := r :: !seen;
      Sim.Sched.charge 500.0
    done
  in
  ignore (run fx.pmem [ inserter; scanner ]);
  List.iter
    (fun r ->
      List.iter
        (fun (k, v) ->
          check_bool "in range" true (k >= 50 && k <= 150);
          check_int "right value" k v)
        r;
      (* results are sorted and duplicate-free *)
      let keys = List.map fst r in
      check_bool "sorted" true (List.sort_uniq compare keys = keys))
    !seen

let test_concurrent_searches_return_consistent () =
  let fx = make_skiplist () in
  run1 fx.pmem (fun ~tid ->
      for i = 1 to 200 do
        ignore (SL.upsert fx.sl ~tid i (i * 2))
      done);
  let body ~tid =
    for i = 1 to 200 do
      Alcotest.check opt_int "stable read" (Some (i * 2)) (SL.search fx.sl ~tid i)
    done
  in
  ignore (run fx.pmem [ body; body; body; body ])

let test_many_threads_smoke () =
  let fx = make_skiplist ~max_threads:40 () in
  let threads = 32 and per = 25 in
  let body ~tid =
    for i = 0 to per - 1 do
      let k = 1 + (i * threads) + tid in
      ignore (SL.upsert fx.sl ~tid k k);
      ignore (SL.search fx.sl ~tid (1 + ((k * 13) mod (threads * per))))
    done
  in
  ignore (run fx.pmem (List.init threads (fun _ -> body)));
  check_int "all present" (threads * per) (List.length (SL.to_alist fx.sl));
  check_no_invariant_errors fx.sl

let test_read_lock_blocks_write_lock () =
  let fx = make_skiplist () in
  run1 fx.pmem (fun ~tid:_ ->
      let mem = SL.mem fx.sl in
      let n = SL.head fx.sl in
      check_bool "read lock" true (Upskiplist.Node.Lock.read_lock mem n);
      check_bool "write lock blocked" true
        (Upskiplist.Node.Lock.write_lock mem n = None);
      Upskiplist.Node.Lock.read_unlock mem n;
      match Upskiplist.Node.Lock.write_lock mem n with
      | None -> Alcotest.fail "write lock after unlock"
      | Some held ->
          check_bool "read lock blocked by writer" false
            (Upskiplist.Node.Lock.read_lock mem n);
          Upskiplist.Node.Lock.write_unlock mem n ~held;
          check_bool "read lock after write unlock" true
            (Upskiplist.Node.Lock.read_lock mem n))

(* The unlock counter a range scan validates against: every release, read
   or write, changes the lock word; the counter wraps inside its field; and
   nothing else in the word moves with it. *)
let test_unlock_counter () =
  let module N = Upskiplist.Node in
  let fx = make_skiplist () in
  let mem = SL.mem fx.sl in
  run1 fx.pmem (fun ~tid:_ ->
      let n = SL.head fx.sl in
      let seen = Hashtbl.create 8 in
      let record what =
        let w = N.Lock.word mem n in
        if Hashtbl.mem seen w then Alcotest.failf "%s: lock word repeats" what;
        Hashtbl.add seen w ()
      in
      record "initial";
      for i = 1 to 3 do
        check_bool "read lock" true (N.Lock.read_lock mem n);
        N.Lock.read_unlock mem n;
        record (Fmt.str "read pair %d" i)
      done;
      check_int "three unlocks counted" 3 (N.unlocks (N.Lock.word mem n));
      (match N.Lock.write_lock mem n with
      | None -> Alcotest.fail "write lock"
      | Some held -> N.Lock.write_unlock mem n ~held);
      record "write pair";
      check_int "write unlock counted" 4 (N.unlocks (N.Lock.word mem n)));
  let top = N.unlocks_mask / N.unlock_unit in
  let others =
    (5 lsl N.Lock.stamp_shift) lor N.writer_bit lor N.intent_bit lor N.fp_ok_bit lor 7
  in
  let w = N.bump_unlocks (others lor (top * N.unlock_unit)) in
  check_int "counter wraps to 0" 0 (N.unlocks w);
  check_int "stamp, writer, intent, fp_ok and readers intact" others w;
  check_int "counts on from 0" 1 (N.unlocks (N.bump_unlocks w));
  check_bool "max_threads must fit the reader count" true
    (try
       ignore
         (SL.create ~mem ~cfg:(SL.config fx.sl) ~max_threads:(N.max_readers + 1) ~seed:1);
       false
     with Invalid_argument _ -> true)

(* The two lock-word facts a lookup's validation relies on, over random
   sequences of lock transitions on one node, each issued where the
   structure issues it (a read unlock by a reader, a write unlock and a
   split-count bump by the writer): an fp_ok bit set under the current
   stamp stays set, and the split count in the meta word changes only
   while the writer bit is held, before and after the change. The
   transitions' outcomes also match a model of the holders: a read lock
   and a write lock exclude each other, and [acquire_write] against
   readers declares its intent, gives up and clears it. Half the runs
   start with the node's line unconfirmed. *)
let lock_ops = [| "read_lock"; "read_unlock"; "write_lock"; "acquire_write"; "write_unlock"; "split" |]

let prop_lock_transitions (confirmed, ops) =
  let module N = Upskiplist.Node in
  let fx = make_skiplist ~cfg:{ Config.default with keys_per_node = 4 } () in
  run1 fx.pmem (fun ~tid -> List.iter (fun k -> ignore (SL.upsert fx.sl ~tid k k)) [ 1; 2; 3 ]);
  let mem = SL.mem fx.sl in
  let n = Riv.of_word (Memory.Mem.peek_field mem (SL.head fx.sl) N.o_next0) in
  if not confirmed then
    Memory.Mem.poke_field mem n N.o_lock
      (Memory.Mem.peek_field mem n N.o_lock land lnot N.fp_ok_bit);
  run1 fx.pmem (fun ~tid:_ ->
      let epoch = Memory.Mem.epoch mem in
      let readers = ref 0 and held = ref None in
      let fail op fmt = Alcotest.failf ("%s: " ^^ fmt) lock_ops.(op) in
      List.iter
        (fun op ->
          let w = N.Lock.word mem n and m = N.meta mem n in
          (match (op, !held) with
          | 0, _ ->
              let ok = N.Lock.read_lock mem n in
              if ok <> (!held = None) then fail op "returned %b" ok;
              if ok then incr readers
          | 1, _ when !readers > 0 ->
              N.Lock.read_unlock mem n;
              decr readers
          | (2 | 3), None ->
              let got =
                if op = 2 then N.Lock.write_lock mem n
                else N.Lock.acquire_write mem n ~backoff:(fun () -> Sim.Sched.charge 10.0)
              in
              if Option.is_some got <> (!readers = 0) then fail op "acquired with %d readers" !readers;
              held := got
          | 4, Some h ->
              N.Lock.write_unlock mem n ~held:h;
              held := None
          | 5, Some _ -> N.set_split_count mem n (N.split_count mem n + 1)
          | _ -> ());
          let w' = N.Lock.word mem n and m' = N.meta mem n in
          if N.Lock.fp_ok_at ~epoch w && not (N.Lock.fp_ok_at ~epoch w') then
            fail op "cleared fp_ok (%#x -> %#x)" w w';
          if m' <> m && not (N.Lock.is_write_locked ~epoch w && N.Lock.is_write_locked ~epoch w')
          then fail op "moved the split count outside the writer (%#x -> %#x)" w w';
          if N.Lock.is_write_locked ~epoch w' <> (!held <> None) then fail op "writer bit %#x" w';
          if N.Lock.readers_at ~epoch w' <> !readers then fail op "readers %#x" w';
          if N.Lock.intent_at ~epoch w' then fail op "left its intent (%#x)" w')
        ops);
  true

let lock_sequences =
  QCheck.(pair bool (list_of_size (QCheck.Gen.int_range 1 60) (int_bound (Array.length lock_ops - 1))))

let test_multiple_readers () =
  let fx = make_skiplist () in
  run1 fx.pmem (fun ~tid:_ ->
      let mem = SL.mem fx.sl in
      let n = SL.head fx.sl in
      check_bool "r1" true (Upskiplist.Node.Lock.read_lock mem n);
      check_bool "r2" true (Upskiplist.Node.Lock.read_lock mem n);
      check_bool "r3" true (Upskiplist.Node.Lock.read_lock mem n);
      check_int "three readers" 3
        (Upskiplist.Node.Lock.readers (Upskiplist.Node.Lock.word mem n)))

let () =
  Alcotest.run "skiplist_concurrent"
    [
      ( "writers",
        [
          case "disjoint writers" test_disjoint_writers;
          case "contended same keys" test_contended_same_keys;
          case "split contention" test_split_contention;
          case "update during split" test_update_during_split_is_not_lost;
          case "remove/insert races" test_remove_insert_races;
          case "many threads" test_many_threads_smoke;
        ] );
      ( "readers",
        [
          case "readers during writes" test_readers_during_writes;
          case "no false miss during splits" test_no_false_miss_during_splits;
          case "range during inserts" test_range_during_inserts;
          case "stable reads" test_concurrent_searches_return_consistent;
        ] );
      ( "locks",
        [
          case "read blocks write" test_read_lock_blocks_write_lock;
          case "multiple readers" test_multiple_readers;
          case "unlock counter" test_unlock_counter;
          qcase ~count:200 "lock transitions keep fp_ok and the writer's split count"
            lock_sequences prop_lock_transitions;
        ] );
    ]
