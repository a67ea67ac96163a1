(* Tests for the node-level extensions of the paper's design: key
   fingerprints (the in-node lookup the paper's Ch. 7 asks to speed up), the
   cache-conscious layout, and physical removal of all-tombstone nodes with
   epoch-based reclamation (§4.6). *)

open Testsupport
module SL = Upskiplist.Skiplist
module Config = Upskiplist.Config
module Mem = Memory.Mem
module Block_alloc = Memory.Block_alloc

let opt_int = Alcotest.(option int)

let reclaim_cfg =
  { Config.default with reclaim_empty_nodes = true; keys_per_node = 4 }

(* ---- cache-conscious layout (height-truncated blocks, fingers) ------------- *)

module Node = Upskiplist.Node
module Riv = Memory.Riv

(* Bottom-level walk over the volatile image (host side). *)
let bottom_nodes fx =
  let step n = Riv.of_word (Node.unmark (Mem.peek_field fx.mem n Node.o_next0)) in
  let tail = SL.tail fx.sl in
  let rec go n acc =
    if Riv.is_null n || Riv.equal n tail then List.rev acc
    else go (step n) (n :: acc)
  in
  go (step (SL.head fx.sl)) []

let churn fx ~seed ~ops ~keyspace =
  run1 fx.pmem (fun ~tid ->
      let rng = Sim.Rng.create seed in
      for _ = 1 to ops do
        let k = 1 + Sim.Rng.int rng keyspace in
        match Sim.Rng.int rng 4 with
        | 0 -> ignore (SL.remove fx.sl ~tid k)
        | 1 -> ignore (SL.search fx.sl ~tid k)
        | _ -> ignore (SL.upsert fx.sl ~tid k (1 + Sim.Rng.int rng 10_000))
      done)

let test_layout_equivalent_results () =
  (* neither block truncation nor the finger cache may change observable
     behaviour: all four corners of the ablation agree on the final state *)
  let run cfg =
    let fx = make_skiplist ~cfg ~seed:5 () in
    churn fx ~seed:23 ~ops:600 ~keyspace:200;
    SL.to_alist fx.sl
  in
  let base = Config.default in
  let expect =
    run { base with Config.short_cutoff = 0; finger_cache = false }
  in
  check_pairs "trunc only" expect (run { base with Config.finger_cache = false });
  check_pairs "finger only" expect (run { base with Config.short_cutoff = 0 });
  check_pairs "full layout" expect (run base)

let layout_cfg = { Config.default with keys_per_node = 4 }

let test_short_class_matches_height () =
  (* every node's block class agrees with its tower height: short blocks
     hold exactly the towers of height <= short_cutoff *)
  let fx = make_skiplist ~cfg:layout_cfg ~seed:7 () in
  churn fx ~seed:31 ~ops:900 ~keyspace:300;
  let cutoff = layout_cfg.Config.short_cutoff in
  let short = ref 0 and tall = ref 0 in
  List.iter
    (fun n ->
      let h = Node.meta_height (Mem.peek_field fx.mem n Node.o_meta) in
      let cls =
        Mem.chunk_class fx.mem ~pool:(Riv.pool n) ~chunk:(Riv.chunk n)
      in
      if cls = 1 then incr short else incr tall;
      check_bool
        (Fmt.str "node %a: class %d agrees with height %d (cutoff %d)" Riv.pp n
           cls h cutoff)
        true
        (if cls = 1 then h <= cutoff else h > cutoff))
    (bottom_nodes fx);
  check_bool "saw short-class nodes" true (!short > 0);
  check_bool "saw tall-class nodes" true (!tall > 0)

let test_audit_catches_overheight_short_block () =
  (* the persistent-heap auditor caps each tower by its block class, not by
     the node's own height word: a short block claiming a tall height is
     corruption and must be reported *)
  let fx = make_skiplist ~cfg:layout_cfg ~seed:9 () in
  churn fx ~seed:41 ~ops:600 ~keyspace:200;
  check_int "audit clean before corruption" 0
    (List.length (SL.audit_persistent fx.sl));
  let victim =
    List.find
      (fun n ->
        Mem.chunk_class fx.mem ~pool:(Riv.pool n) ~chunk:(Riv.chunk n) = 1)
      (bottom_nodes fx)
  in
  Mem.poke_field fx.mem victim Node.o_meta
    (Node.with_height
       (Mem.peek_field fx.mem victim Node.o_meta)
       (layout_cfg.Config.short_cutoff + 3));
  check_bool "audit flags the over-height short block" true
    (SL.audit_persistent fx.sl <> [])

let test_finger_counters_deterministic () =
  (* fingers must pay off on a monotone-ish access pattern, be invalidated
     wholesale by a crash (epoch bump), and leave identical Obs counters on
     identical runs — they feed the deterministic bench digests *)
  let episode () =
    Obs.reset ();
    let fx = make_skiplist ~cfg:Config.default ~seed:11 () in
    churn fx ~seed:51 ~ops:500 ~keyspace:150;
    let hits = Obs.total Obs.id_finger_hit in
    crash_and_reconnect fx;
    run1 fx.pmem (fun ~tid ->
        for k = 1 to 50 do
          ignore (SL.search fx.sl ~tid k)
        done);
    let invalid = Obs.total Obs.id_finger_invalid in
    Obs.reset ();
    (hits, invalid)
  in
  let hits, invalid = episode () in
  check_bool "fingers hit during the workload" true (hits > 0);
  check_bool "crash invalidated the cached finger" true (invalid > 0);
  let hits', invalid' = episode () in
  check_int "finger hits deterministic across runs" hits hits';
  check_int "finger invalidations deterministic across runs" invalid invalid'

(* ---- key fingerprints -------------------------------------------------------- *)

let fp_cfg = { Config.default with keys_per_node = 8 }

(* Slots on the bottom level holding [key] (volatile image, host side). *)
let slots_holding fx key =
  let ly = Node.layout (SL.config fx.sl) in
  List.concat_map
    (fun n ->
      List.filter
        (fun i -> Mem.peek_field fx.mem n (Node.o_key ly i) = key)
        (List.init ly.Node.k Fun.id))
    (bottom_nodes fx)

(* After crash-free runs each node's fingerprint line is exactly the one its
   keys call for: claims publish before their key, splits and repairs
   rewrite the line. *)
let check_fp_lines fx =
  let ly = Node.layout (SL.config fx.sl) in
  List.iter
    (fun n ->
      let keys = Array.init ly.Node.k (fun i -> Mem.peek_field fx.mem n (Node.o_key ly i)) in
      Array.iteri
        (fun j w ->
          check_int (Fmt.str "node %a fingerprint word %d" Riv.pp n j) w
            (Mem.peek_field fx.mem n (Node.o_fp + j)))
        (Node.fp_line ly keys))
    (bottom_nodes fx)

let test_fp_line_recorded () =
  let fx = make_skiplist ~cfg:fp_cfg () in
  churn fx ~seed:61 ~ops:800 ~keyspace:150;
  check_bool "splits happened" true (List.length (bottom_nodes fx) > 4);
  check_fp_lines fx;
  check_no_invariant_errors fx.sl

let test_fp_shared_fingerprints () =
  (* keys chosen to share one fingerprint: every match on the wrong key is a
     false positive the lookup must step over *)
  let f = Node.fingerprint 1 in
  let keys =
    List.filteri (fun i _ -> i < 48)
      (List.filter (fun k -> Node.fingerprint k = f) (List.init 200_000 succ))
  in
  check_int "enough colliding keys" 48 (List.length keys);
  Obs.reset ();
  let fx = make_skiplist ~cfg:fp_cfg () in
  let threads = 4 in
  let mine tid = List.filteri (fun i _ -> i mod threads = tid) keys in
  let body ~tid =
    List.iter (fun k -> ignore (SL.upsert fx.sl ~tid k (k + 1))) (mine tid);
    List.iter
      (fun k -> Alcotest.check opt_int "present" (Some (k + 1)) (SL.search fx.sl ~tid k))
      (mine tid);
    List.iteri
      (fun i k -> if i mod 2 = 0 then ignore (SL.remove fx.sl ~tid k))
      (mine tid)
  in
  ignore (run fx.pmem (List.init threads (fun _ -> body)));
  let expect =
    List.sort compare
      (List.concat
         (List.init threads (fun tid ->
              List.filteri (fun i _ -> i mod 2 = 1) (mine tid)
              |> List.map (fun k -> (k, k + 1)))))
  in
  check_pairs "survivors" expect (SL.to_alist fx.sl);
  run1 fx.pmem (fun ~tid ->
      List.iter
        (fun k ->
          Alcotest.check opt_int "lookup"
            (List.assoc_opt k expect) (SL.search fx.sl ~tid k))
        keys);
  check_bool "false positives stepped over" true
    (Obs.total Obs.id_fp_false_positive > 0);
  check_fp_lines fx;
  check_no_invariant_errors fx.sl;
  Obs.reset ()

let test_fp_racing_inserts () =
  (* two fibers insert one fresh key into one node, the second starting at
     every offset across the first's claim: exactly one slot ends up with
     the key, and exactly one insert reports it fresh *)
  for delay = 0 to 80 do
    let fx = make_skiplist ~cfg:fp_cfg ~seed:3 () in
    run1 fx.pmem (fun ~tid ->
        List.iter (fun k -> ignore (SL.upsert fx.sl ~tid k k)) [ 10; 20; 30 ]);
    let prev = Array.make 2 (Some 0) in
    ignore
      (run fx.pmem
         [
           (fun ~tid -> prev.(tid) <- SL.upsert fx.sl ~tid 15 100);
           (fun ~tid ->
             Sim.Sched.charge (float_of_int delay);
             prev.(tid) <- SL.upsert fx.sl ~tid 15 200);
         ]);
    check_int (Fmt.str "delay %d: one slot holds the key" delay) 1
      (List.length (slots_holding fx 15));
    check_int (Fmt.str "delay %d: one fresh insert" delay) 1
      (Array.fold_left (fun a p -> if p = None then a + 1 else a) 0 prev);
    check_no_invariant_errors fx.sl
  done

let test_fp_stale_never_full () =
  (* fingerprints left over empty keys (a crash between a fingerprint's
     publish and its key CAS, with the fingerprint line written back) must not make the node look full for good:
     the split's "a slot freed up" bail-out recomputes the line *)
  let fx = make_skiplist ~cfg:fp_cfg ~seed:5 () in
  run1 fx.pmem (fun ~tid ->
      List.iter (fun k -> ignore (SL.upsert fx.sl ~tid k k)) [ 100; 101; 102 ]);
  let ly = Node.layout fp_cfg in
  let node = List.hd (bottom_nodes fx) in
  let stale = Node.fingerprint 999_999 in
  for i = 0 to ly.Node.k - 1 do
    if Mem.peek_field fx.mem node (Node.o_key ly i) = Node.empty_key then begin
      let o = Node.o_fp_slot i in
      Mem.poke_field fx.mem node o
        (Node.with_fp_byte (Mem.peek_field fx.mem node o) i stale)
    end
  done;
  let keys = List.init 20 (fun i -> 103 + i) in
  (match
     Sim.Sched.run ~machine:(Pmem.machine fx.pmem)
       ~crash:(Sim.Sched.After_events 2_000_000)
       [ (0, fun ~tid -> List.iter (fun k -> ignore (SL.upsert fx.sl ~tid k k)) keys) ]
   with
  | Sim.Sched.Completed _ -> ()
  | Sim.Sched.Crashed_at _ -> Alcotest.fail "inserts livelocked behind stale fingerprints");
  run1 fx.pmem (fun ~tid ->
      List.iter
        (fun k -> Alcotest.check opt_int "inserted" (Some k) (SL.search fx.sl ~tid k))
        (100 :: 101 :: 102 :: keys));
  check_no_invariant_errors fx.sl

let test_fp_concurrent () =
  let fx = make_skiplist ~cfg:fp_cfg () in
  let threads = 6 and per = 100 in
  let body ~tid =
    for i = 0 to per - 1 do
      let k = 1 + (i * threads) + tid in
      ignore (SL.upsert fx.sl ~tid k (k * 3))
    done;
    for i = 0 to per - 1 do
      let k = 1 + (i * threads) + tid in
      Alcotest.check opt_int "found" (Some (k * 3)) (SL.search fx.sl ~tid k)
    done
  in
  ignore (run fx.pmem (List.init threads (fun _ -> body)));
  check_int "all present" (threads * per) (List.length (SL.to_alist fx.sl));
  check_fp_lines fx;
  check_no_invariant_errors fx.sl

let test_fp_crash_recovery () =
  let fx = make_skiplist ~cfg:fp_cfg () in
  let acked = Array.make 4 [] in
  let body ~tid =
    for i = 0 to 299 do
      let k = 1 + (i * 4) + tid in
      ignore (SL.upsert fx.sl ~tid k (k * 2));
      acked.(tid) <- k :: acked.(tid)
    done
  in
  ignore (run_crash fx.pmem ~events:40_000 (List.init 4 (fun _ -> body)));
  crash_and_reconnect fx;
  check_int "audit clean" 0 (List.length (SL.audit_persistent fx.sl));
  run1 fx.pmem (fun ~tid ->
      Array.iter
        (List.iter (fun k ->
             Alcotest.check opt_int "acked survives" (Some (k * 2))
               (SL.search fx.sl ~tid k)))
        acked)

let test_fp_lincheck_campaign () =
  let sys =
    {
      Harness.Kv.default_sys with
      latency = Pmem.Latency.uniform;
      pool_words = 1 lsl 20;
      max_threads = 16;
    }
  in
  let make () = Harness.Kv.make_upskiplist ~cfg:fp_cfg sys in
  let s =
    crash_campaign ~make ~threads:4 ~keyspace:120 ~ops_per_thread:100
      ~crash_events:7_000 ~seed:777 ~trials:3 ()
  in
  print_failures "fingerprint" s;
  check_int "strictly linearizable with small fingerprinted nodes" 0
    (List.length s.Harness.Fault.failures)

(* Crash one operation after every event of it and, at each point, persist
   every subset of the dirty lines; [check fx where] then inspects each
   surviving state. [setup] builds the (cleanly shut down) starting state,
   [op] is the operation under test. *)
let crash_grid ~setup ~op ~check =
  let run_until fx crash_at =
    ignore
      (Sim.Sched.run ~machine:(Pmem.machine fx.pmem)
         ~crash:(Sim.Sched.After_events crash_at)
         [ (0, op fx) ])
  in
  let events =
    let fx = setup () in
    snd (run fx.pmem [ op fx ])
  in
  let states = ref 0 in
  for crash_at = 1 to events do
    let dirty =
      let fx = setup () in
      run_until fx crash_at;
      Pmem.dirty_line_count fx.pmem
    in
    for mask = 0 to (1 lsl dirty) - 1 do
      incr states;
      let fx = setup () in
      run_until fx crash_at;
      let idx = ref 0 in
      Pmem.crash fx.pmem ~persist_line:(fun ~pool:_ ~line:_ ->
          let keep = mask land (1 lsl !idx) <> 0 in
          incr idx;
          keep);
      Mem.reconnect fx.mem;
      check fx (Fmt.str "crash at event %d, persisted lines %#x" crash_at mask)
    done
  done;
  check_bool "explored more states than crash points" true (!states > events)

let check_audit fx where =
  match SL.audit_persistent fx.sl with
  | [] -> ()
  | errs -> Alcotest.fail (where ^ ": " ^ String.concat "; " errs)

(* Crash grid for one fresh-key insert into an existing node. Whatever
   survives must audit clean, answer a lookup with the old state or the
   new value, and take a re-upsert into exactly one slot. *)
let test_fp_crash_grid () =
  let key = 15 in
  let setup () =
    let fx = make_skiplist ~cfg:fp_cfg ~seed:7 () in
    run1 fx.pmem (fun ~tid ->
        List.iter (fun k -> ignore (SL.upsert fx.sl ~tid k k)) [ 10; 12; 20; 30 ]);
    Pmem.clean_shutdown fx.pmem;
    fx
  in
  crash_grid ~setup
    ~op:(fun fx ~tid -> ignore (SL.upsert fx.sl ~tid key 777))
    ~check:(fun fx where ->
      check_audit fx where;
      run1 fx.pmem (fun ~tid ->
          (match SL.search fx.sl ~tid key with
          | None | Some 777 -> ()
          | Some v -> Alcotest.fail (Fmt.str "%s: lookup returned %d" where v));
          ignore (SL.upsert fx.sl ~tid key 778);
          Alcotest.check opt_int (where ^ ": re-upsert visible") (Some 778)
            (SL.search fx.sl ~tid key));
      check_int (where ^ ": one slot holds the key") 1
        (List.length (slots_holding fx key));
      check_no_invariant_errors fx.sl)

(* ---- the lost fingerprint line --------------------------------------------- *)

(* Fresh keys inserted into an existing node (K = 8), then a crash that
   keeps every slot line and drops the node's fingerprint line: each key
   is durable without its fingerprint, and the node comes back
   unconfirmed. Before the inserts, a fingerprint is published over empty
   slot 1 — another key's claim, not yet CASed in — so the inserts take
   slots 2 .. 5, and after the crash slot 1 reads as free ahead of them:
   an insert that trusted the unrepaired line would claim it for a key
   the node already holds. *)
let lost_fp_keys = [ 10; 12; 14; 16; 18 ]

let lost_fp_line () =
  let fx = make_skiplist ~cfg:fp_cfg ~seed:7 () in
  run1 fx.pmem (fun ~tid -> ignore (SL.upsert fx.sl ~tid 10 10));
  Pmem.clean_shutdown fx.pmem;
  let node =
    match bottom_nodes fx with
    | [ n ] -> n
    | ns -> Alcotest.failf "expected one node, found %d" (List.length ns)
  in
  run1 fx.pmem (fun ~tid ->
      check_bool "claim in flight" true
        (Node.publish_fp fx.mem node 1 (Node.fingerprint 999_999));
      List.iter (fun k -> ignore (SL.upsert fx.sl ~tid k k)) (List.tl lost_fp_keys));
  let fp_addr =
    match Mem.try_resolve fx.mem node with
    | Some a -> a + Node.o_fp
    | None -> Alcotest.fail "node does not resolve"
  in
  Pmem.crash fx.pmem ~persist_line:(fun ~pool ~line ->
      not (pool = Pmem.pool_of fp_addr && line = Pmem.word_of fp_addr / Pmem.line_words));
  Mem.reconnect fx.mem;
  let ly = Node.layout fp_cfg in
  let unmarked =
    List.filter
      (fun i ->
        let k = Mem.peek_field fx.mem node (Node.o_key ly i) in
        k <> Node.empty_key
        && Node.fp_byte (Mem.peek_field fx.mem node (Node.o_fp_slot i)) i = 0)
      (List.init ly.Node.k Fun.id)
  in
  check_int "the crash kept four keys without their fingerprints" 4
    (List.length unmarked);
  fx

let test_fp_lost_line () =
  List.iter
    (fun search_first ->
      let where = if search_first then "misses first" else "upserts first" in
      let fx = lost_fp_line () in
      Obs.reset ();
      let misses () =
        run1 fx.pmem (fun ~tid ->
            List.iter
              (fun k ->
                Alcotest.check opt_int (Fmt.str "%s: %d absent" where k) None
                  (SL.search fx.sl ~tid k))
              [ 11; 13; 15; 17; 19; 11; 13 ])
      in
      if search_first then misses ();
      run1 fx.pmem (fun ~tid ->
          List.iter
            (fun k ->
              if search_first then
                Alcotest.check opt_int (Fmt.str "%s: acked %d found" where k) (Some k)
                  (SL.search fx.sl ~tid k);
              ignore (SL.upsert fx.sl ~tid k (k + 1)))
            lost_fp_keys);
      if not search_first then misses ();
      run1 fx.pmem (fun ~tid ->
          List.iter
            (fun k ->
              Alcotest.check opt_int (Fmt.str "%s: re-upsert of %d visible" where k)
                (Some (k + 1)) (SL.search fx.sl ~tid k))
            lost_fp_keys);
      List.iter
        (fun k ->
          check_int (Fmt.str "%s: one slot holds %d" where k) 1
            (List.length (slots_holding fx k)))
        lost_fp_keys;
      check_int (where ^ ": the node was confirmed once") 1
        (Obs.total Obs.id_fp_confirm);
      check_fp_lines fx;
      check_no_invariant_errors fx.sl;
      Obs.reset ())
    [ true; false ]

(* The repair against concurrent operations: one fiber's absent-key search
   repairs the node's line while the other, starting at every offset
   across it, looks up and re-upserts keys the crash left without their
   fingerprints, then inserts a fresh key. *)
let test_fp_repair_races_insert () =
  for delay = 0 to 120 do
    let where = Fmt.str "delay %d" delay in
    let fx = lost_fp_line () in
    ignore
      (run fx.pmem
         [
           (fun ~tid ->
             Alcotest.check opt_int (where ^ ": 11 absent") None (SL.search fx.sl ~tid 11));
           (fun ~tid ->
             Sim.Sched.charge (float_of_int delay);
             Alcotest.check opt_int (where ^ ": 16 found") (Some 16)
               (SL.search fx.sl ~tid 16);
             ignore (SL.upsert fx.sl ~tid 14 140);
             ignore (SL.upsert fx.sl ~tid 13 13));
         ]);
    List.iter
      (fun k ->
        check_int (Fmt.str "%s: one slot holds %d" where k) 1
          (List.length (slots_holding fx k)))
      (13 :: lost_fp_keys);
    run1 fx.pmem (fun ~tid ->
        List.iter
          (fun (k, v) ->
            Alcotest.check opt_int (Fmt.str "%s: key %d" where k) (Some v)
              (SL.search fx.sl ~tid k))
          [ (10, 10); (12, 12); (13, 13); (14, 140); (16, 16); (18, 18) ]);
    check_no_invariant_errors fx.sl
  done

(* ---- successor-key hints and the top level --------------------------------- *)

let hint_cfg = { Config.default with keys_per_node = 4 }

(* The highest head level that is not head -> tail (volatile image). *)
let highest_head_level fx =
  let cfg = SL.config fx.sl in
  let ly = Node.layout cfg in
  let rec go level =
    if
      level > 0
      && Riv.equal
           (Riv.of_word (Mem.peek_field fx.mem (SL.head fx.sl) (Node.o_next ly level)))
           (SL.tail fx.sl)
    then go (level - 1)
    else level
  in
  go (cfg.Config.max_height - 1)

(* Crash grid for one node split (K = 4): the fifth key of a full node
   moves the upper half of its keys to a new node linked behind it. After
   every crash state, recovery and the audit (hint rule included) are
   clean, every key the split moved or kept is still found, and the top
   level is the highest non-empty head level. *)
let test_split_crash_grid () =
  let before = [ 10; 12; 14; 16 ] in
  let setup () =
    let fx = make_skiplist ~cfg:hint_cfg ~seed:7 () in
    run1 fx.pmem (fun ~tid ->
        List.iter (fun k -> ignore (SL.upsert fx.sl ~tid k k)) before);
    Pmem.clean_shutdown fx.pmem;
    fx
  in
  check_int "one full node before the split" 1 (List.length (bottom_nodes (setup ())));
  crash_grid ~setup
    ~op:(fun fx ~tid -> ignore (SL.upsert fx.sl ~tid 18 18))
    ~check:(fun fx where ->
      run1 fx.pmem (fun ~tid -> SL.recover fx.sl ~tid);
      check_int (where ^ ": top level after recovery") (highest_head_level fx)
        (SL.top_level fx.sl);
      check_audit fx where;
      run1 fx.pmem (fun ~tid ->
          List.iter
            (fun k ->
              Alcotest.check opt_int (Fmt.str "%s: key %d" where k) (Some k)
                (SL.search fx.sl ~tid k))
            before;
          (match SL.search fx.sl ~tid 18 with
          | None | Some 18 -> ()
          | Some v -> Alcotest.fail (Fmt.str "%s: lookup of 18 returned %d" where v));
          ignore (SL.upsert fx.sl ~tid 18 19));
      check_audit fx where;
      check_no_invariant_errors fx.sl)

(* Readers against the writers' publication order: eight fibers insert
   interleaved keys — splitting full nodes (K = 4) or linking fresh nodes
   (K = 1), and building towers — and after each insert look up the keys
   most recently acknowledged before the lookup began, the ones whose
   nodes are still being linked. Fiber start offsets sweep a range. No
   acknowledged key may read as absent, and afterwards every level is
   sorted with every hint a lower bound on its successor's anchor: a
   traversal that pairs a new pointer with an old hint ends a level before
   a node it needed, and the insert that follows links its own node out of
   order. Optane timing makes a fiber's first touch of a line a ~300 ns
   miss, the window in which a writer lowers a hint and publishes a pointer
   between two loads of a reader. *)
let test_hint_reader_order () =
  List.iter
    (fun keys_per_node ->
      let cfg = { hint_cfg with Config.keys_per_node } in
      for delay = 0 to 39 do
        let where = Fmt.str "K=%d delay %d" keys_per_node delay in
        let fx = make_skiplist ~cfg ~latency:Pmem.Latency.default ~seed:11 () in
        run1 fx.pmem (fun ~tid ->
            List.iter (fun k -> ignore (SL.upsert fx.sl ~tid k k)) [ 1_000; 2_000 ]);
        let fibers = 8 in
        let acked = ref [] in
        let body ~tid =
          Sim.Sched.charge (float_of_int (tid * delay * 13));
          for i = 0 to 39 do
            let k = 1 + (i * fibers) + tid in
            ignore (SL.upsert fx.sl ~tid k k);
            acked := k :: !acked;
            List.iteri
              (fun j k ->
                if j < fibers && SL.search fx.sl ~tid k <> Some k then
                  Alcotest.failf "%s: fiber %d missed acknowledged key %d" where tid k)
              !acked
          done
        in
        ignore (run fx.pmem (List.init fibers (fun _ -> body)));
        (match SL.check_invariants fx.sl with
        | [] -> ()
        | errs -> Alcotest.failf "%s: %s" where (String.concat "; " errs));
        check_int (where ^ ": top level") (highest_head_level fx) (SL.top_level fx.sl)
      done)
    [ 4; 1 ]

(* The volatile top level after a crash: recovery recomputes it from the
   head's tower, whatever the crash cut short. *)
let test_top_after_crash () =
  List.iter
    (fun events ->
      let fx = make_skiplist ~cfg:hint_cfg ~seed:13 () in
      let body ~tid =
        for i = 0 to 199 do
          let k = 1 + (i * 3) + tid in
          ignore (SL.upsert fx.sl ~tid k k)
        done
      in
      ignore (run_crash fx.pmem ~events (List.init 3 (fun _ -> body)));
      crash_and_reconnect fx;
      check_bool "top never below the persisted head levels" true
        (SL.top_level fx.sl >= highest_head_level fx);
      run1 fx.pmem (fun ~tid -> SL.recover fx.sl ~tid);
      check_int (Fmt.str "crash after %d events: top" events) (highest_head_level fx)
        (SL.top_level fx.sl);
      check_bool "some level above 0" true (SL.top_level fx.sl > 0))
    [ 2_000; 7_500; 15_000 ]

(* ---- physical removal + reclamation ---------------------------------------- *)

let total_blocks mem = Mem.total_blocks mem

let free_blocks mem =
  let acc = ref 0 in
  for pool = 0 to Mem.n_pools mem - 1 do
    for arena = 0 to mem.Mem.n_arenas - 1 do
      acc := !acc + Block_alloc.free_list_length mem ~pool ~arena
    done
  done;
  !acc

let test_retire_frees_node () =
  let fx = make_skiplist ~cfg:reclaim_cfg () in
  run1 fx.pmem (fun ~tid ->
      for k = 1 to 40 do
        ignore (SL.upsert fx.sl ~tid k k)
      done);
  let nodes_before = SL.node_count fx.sl in
  check_bool "several nodes" true (nodes_before >= 5);
  run1 fx.pmem (fun ~tid ->
      for k = 1 to 40 do
        ignore (SL.remove fx.sl ~tid k)
      done;
      SL.quiesced_drain fx.sl ~tid);
  check_int "all nodes retired and snipped" 0 (SL.node_count fx.sl);
  check_pairs "set empty" [] (SL.to_alist fx.sl);
  (* every block is back in the free list *)
  check_int "blocks conserved" (total_blocks fx.mem) (free_blocks fx.mem);
  match SL.reclaim_stats fx.sl with
  | Some (pending, freed, retirements) ->
      check_int "nothing pending" 0 pending;
      check_int "freed = retired" retirements freed;
      check_bool "retirements happened" true (retirements >= nodes_before - 1)
  | None -> Alcotest.fail "reclaim stats expected"

let test_search_after_retirement () =
  let fx = make_skiplist ~cfg:reclaim_cfg () in
  run1 fx.pmem (fun ~tid ->
      for k = 1 to 30 do
        ignore (SL.upsert fx.sl ~tid k k)
      done;
      for k = 1 to 30 do
        ignore (SL.remove fx.sl ~tid k)
      done;
      for k = 1 to 30 do
        Alcotest.check opt_int "gone" None (SL.search fx.sl ~tid k)
      done;
      Alcotest.check opt_int "remove absent" None (SL.remove fx.sl ~tid 5))

let test_reinsert_after_retirement () =
  let fx = make_skiplist ~cfg:reclaim_cfg () in
  run1 fx.pmem (fun ~tid ->
      for k = 1 to 20 do
        ignore (SL.upsert fx.sl ~tid k k)
      done;
      for k = 1 to 20 do
        ignore (SL.remove fx.sl ~tid k)
      done;
      for k = 1 to 20 do
        Alcotest.check opt_int "fresh insert" None (SL.upsert fx.sl ~tid k (k + 100))
      done;
      for k = 1 to 20 do
        Alcotest.check opt_int "found again" (Some (k + 100)) (SL.search fx.sl ~tid k)
      done);
  check_no_invariant_errors fx.sl

let test_blocks_reused_after_reclaim () =
  let fx = make_skiplist ~cfg:reclaim_cfg () in
  run1 fx.pmem (fun ~tid ->
      (* fill, clear, drain, fill again: chunk count must not keep growing *)
      for round = 0 to 3 do
        for k = 1 to 64 do
          ignore (SL.upsert fx.sl ~tid (k + (round * 64)) k)
        done;
        for k = 1 to 64 do
          ignore (SL.remove fx.sl ~tid (k + (round * 64)))
        done;
        SL.quiesced_drain fx.sl ~tid
      done);
  (* bound = the initial carve: one chunk per (pool, arena, block class) *)
  let initial = Mem.n_pools fx.mem * 4 * Mem.n_classes fx.mem in
  check_bool "chunks bounded by reuse" true
    (Mem.chunks_allocated fx.mem <= initial)

let test_concurrent_remove_insert_reclaim () =
  let fx = make_skiplist ~cfg:reclaim_cfg () in
  let threads = 6 in
  let body ~tid =
    let rng = Sim.Rng.create (50 + tid) in
    for _ = 1 to 200 do
      let k = 1 + Sim.Rng.int rng 60 in
      if Sim.Rng.bool rng then ignore (SL.upsert fx.sl ~tid k ((tid * 1000) + k))
      else ignore (SL.remove fx.sl ~tid k)
    done
  in
  ignore (run fx.pmem (List.init threads (fun _ -> body)));
  (* values intact: every surviving pair was written by some thread *)
  List.iter
    (fun (k, v) -> check_int "uncorrupted value" k (v mod 1000))
    (SL.to_alist fx.sl);
  check_no_invariant_errors fx.sl

let test_readers_survive_concurrent_retirement () =
  let fx = make_skiplist ~cfg:reclaim_cfg () in
  run1 fx.pmem (fun ~tid ->
      for k = 1 to 100 do
        ignore (SL.upsert fx.sl ~tid k k)
      done);
  let remover ~tid =
    for k = 1 to 100 do
      ignore (SL.remove fx.sl ~tid k)
    done
  in
  let reader ~tid =
    for _ = 1 to 3 do
      for k = 1 to 100 do
        match SL.search fx.sl ~tid k with
        | None -> ()
        | Some v -> check_int "reader never sees garbage" k v
      done
    done
  in
  let scanner ~tid =
    for _ = 1 to 5 do
      List.iter
        (fun (k, v) -> check_int "range never sees garbage" k v)
        (SL.range fx.sl ~tid ~lo:1 ~hi:100)
    done
  in
  ignore (run fx.pmem [ remover; reader; reader; scanner ]);
  check_no_invariant_errors fx.sl

let test_crash_during_retirement () =
  (* crash somewhere inside a mass removal: acked removes must stay
     removed; the structure stays usable; invariants restorable *)
  let fx = make_skiplist ~cfg:reclaim_cfg () in
  run1 fx.pmem (fun ~tid ->
      for k = 1 to 200 do
        ignore (SL.upsert fx.sl ~tid k k)
      done);
  let acked = Array.make 4 [] in
  let body ~tid =
    for i = 0 to 49 do
      let k = 1 + (i * 4) + tid in
      ignore (SL.remove fx.sl ~tid k);
      acked.(tid) <- k :: acked.(tid)
    done
  in
  ignore (run_crash fx.pmem ~events:20_000 (List.init 4 (fun _ -> body)));
  Pmem.crash fx.pmem;
  Mem.reconnect fx.mem;
  run1 fx.pmem (fun ~tid ->
      Array.iter
        (List.iter (fun k ->
             Alcotest.check opt_int "acked remove survives crash" None
               (SL.search fx.sl ~tid k)))
        acked;
      (* keys above 200 never existed; keys never removed must remain *)
      for k = 201 to 210 do
        Alcotest.check opt_int "absent stays absent" None (SL.search fx.sl ~tid k)
      done;
      (* structure still accepts writes *)
      for k = 500 to 540 do
        ignore (SL.upsert fx.sl ~tid k k)
      done;
      for k = 500 to 540 do
        Alcotest.check opt_int "post-crash inserts" (Some k) (SL.search fx.sl ~tid k)
      done)

let test_reclaim_lincheck_campaign () =
  let sys =
    {
      Harness.Kv.default_sys with
      latency = Pmem.Latency.uniform;
      pool_words = 1 lsl 20;
      max_threads = 16;
    }
  in
  let make () =
    Harness.Kv.make_upskiplist
      ~cfg:{ Config.default with reclaim_empty_nodes = true; keys_per_node = 4 }
      sys
  in
  let s =
    crash_campaign ~make ~threads:4 ~keyspace:80 ~ops_per_thread:100
      ~crash_events:7_000 ~seed:4242 ~trials:3 ()
  in
  print_failures "reclaim" s;
  check_int "strictly linearizable with reclamation" 0
    (List.length s.Harness.Fault.failures)

(* model check with reclamation on and small nodes *)
let prop_model_with_extensions =
  let module M = Map.Make (Int) in
  qcase ~count:25 "model equivalence, both extensions (qcheck)"
    QCheck.(
      list_of_size (QCheck.Gen.int_range 10 150)
        (pair (int_range 1 50) (int_range 0 3)))
    (fun ops ->
      let cfg =
        {
          Config.default with
          keys_per_node = 4;
          reclaim_empty_nodes = true;
        }
      in
      let fx = make_skiplist ~cfg () in
      let ok = ref true in
      run1 fx.pmem (fun ~tid ->
          let model = ref M.empty in
          List.iter
            (fun (k, action) ->
              match action with
              | 0 ->
                  if SL.remove fx.sl ~tid k <> M.find_opt k !model then ok := false;
                  model := M.remove k !model
              | 1 ->
                  if SL.search fx.sl ~tid k <> M.find_opt k !model then ok := false
              | _ ->
                  let v = k + 1000 in
                  if SL.upsert fx.sl ~tid k v <> M.find_opt k !model then
                    ok := false;
                  model := M.add k v !model)
            ops;
          if SL.to_alist fx.sl <> M.bindings !model then ok := false);
      !ok)

(* ---- EBR unit behaviour ----------------------------------------------------- *)

let test_ebr_grace_period () =
  let freed = ref [] in
  let r =
    Upskiplist.Reclaim.create ~collect_every:1 ~max_threads:4
      ~free:(fun ~tid:_ node -> freed := Memory.Riv.to_word node :: !freed)
      ()
  in
  let node i = Memory.Riv.make ~pool:0 ~chunk:1 ~offset:(i * 8) in
  (* tid 1 is mid-operation: nothing retired while it is active may be freed *)
  Upskiplist.Reclaim.enter r ~tid:1;
  Upskiplist.Reclaim.enter r ~tid:0;
  Upskiplist.Reclaim.retire r ~tid:0 (node 1);
  Upskiplist.Reclaim.retire r ~tid:0 (node 2);
  check_int "blocked by active reader" 0 (List.length !freed);
  check_int "pending" 2 (Upskiplist.Reclaim.pending r);
  (* reader leaves; next retirement advances the epoch and collects *)
  Upskiplist.Reclaim.exit r ~tid:1;
  Upskiplist.Reclaim.exit r ~tid:0;
  Upskiplist.Reclaim.enter r ~tid:0;
  Upskiplist.Reclaim.retire r ~tid:0 (node 3);
  check_bool "old retirements freed" true (List.length !freed >= 2);
  Upskiplist.Reclaim.exit r ~tid:0

let test_ebr_drain () =
  let freed = ref 0 in
  let r =
    Upskiplist.Reclaim.create ~collect_every:1000 ~max_threads:4
      ~free:(fun ~tid:_ _ -> incr freed)
      ()
  in
  let node i = Memory.Riv.make ~pool:0 ~chunk:1 ~offset:(i * 8) in
  for tid = 0 to 3 do
    Upskiplist.Reclaim.retire r ~tid (node tid)
  done;
  check_int "four pending" 4 (Upskiplist.Reclaim.pending r);
  Upskiplist.Reclaim.drain r ~tid:0;
  check_int "all freed" 4 !freed;
  check_int "none pending" 0 (Upskiplist.Reclaim.pending r);
  check_int "freed counter" 4 (Upskiplist.Reclaim.freed r)

let test_ebr_own_epoch_not_freed_midop () =
  let freed = ref 0 in
  let r =
    Upskiplist.Reclaim.create ~collect_every:1 ~max_threads:2
      ~free:(fun ~tid:_ _ -> incr freed)
      ()
  in
  Upskiplist.Reclaim.enter r ~tid:0;
  Upskiplist.Reclaim.retire r ~tid:0 (Memory.Riv.make ~pool:0 ~chunk:1 ~offset:0);
  (* our own announcement pins the epoch: retirement from this epoch stays *)
  check_int "own op blocks its own retirement" 0 !freed;
  Upskiplist.Reclaim.exit r ~tid:0

let () =
  Alcotest.run "extensions"
    [
      ( "fingerprints",
        [
          case "fingerprint line recorded" test_fp_line_recorded;
          case "shared fingerprints stay correct" test_fp_shared_fingerprints;
          case "concurrent" test_fp_concurrent;
          case "crash recovery" test_fp_crash_recovery;
          slow_case "lincheck campaign" test_fp_lincheck_campaign;
          case "racing inserts of one key" test_fp_racing_inserts;
          case "stale fingerprints never fill a node" test_fp_stale_never_full;
          slow_case "crash grid: fresh insert" test_fp_crash_grid;
          case "lost fingerprint line: found, one slot, one confirm"
            test_fp_lost_line;
          case "lost fingerprint line: repair races an insert"
            test_fp_repair_races_insert;
        ] );
      ( "hints",
        [
          slow_case "crash grid: split" test_split_crash_grid;
          case "readers never miss a key a split or tower build moves"
            test_hint_reader_order;
          case "top level recomputed after a crash" test_top_after_crash;
        ] );
      ( "layout",
        [
          case "equivalent results" test_layout_equivalent_results;
          case "block class agrees with height" test_short_class_matches_height;
          case "audit flags over-height short block"
            test_audit_catches_overheight_short_block;
          case "finger counters deterministic"
            test_finger_counters_deterministic;
        ] );
      ( "reclamation",
        [
          case "retire frees node" test_retire_frees_node;
          case "search after retirement" test_search_after_retirement;
          case "reinsert after retirement" test_reinsert_after_retirement;
          case "blocks reused" test_blocks_reused_after_reclaim;
          case "concurrent remove/insert" test_concurrent_remove_insert_reclaim;
          case "readers survive retirement" test_readers_survive_concurrent_retirement;
          case "crash during retirement" test_crash_during_retirement;
          slow_case "lincheck campaign" test_reclaim_lincheck_campaign;
        ] );
      ( "ebr",
        [
          case "grace period" test_ebr_grace_period;
          case "drain" test_ebr_drain;
          case "own epoch pins" test_ebr_own_epoch_not_freed_midop;
        ] );
      ("model", [ prop_model_with_extensions ]);
    ]
