(* Tests for the node-level extensions of the paper's design: key
   fingerprints (the in-node lookup the paper's Ch. 7 asks to speed up) and
   the cache-conscious layout with its successor-key hints, plus
   tombstoning removal (§4.6) under concurrency and crashes. *)

open Testsupport
module SL = Upskiplist.Skiplist
module Config = Upskiplist.Config
module Mem = Memory.Mem
module Block_alloc = Memory.Block_alloc

let opt_int = Alcotest.(option int)

(* ---- cache-conscious layout ----------------------------------------------- *)

module Node = Upskiplist.Node
module Riv = Memory.Riv

(* Bottom-level walk over the volatile image (host side). *)
let bottom_nodes fx =
  let step n = Riv.of_word (Mem.peek_field fx.mem n Node.o_next0) in
  let tail = SL.tail fx.sl in
  let rec go n acc =
    if Riv.is_null n || Riv.equal n tail then List.rev acc
    else go (step n) (n :: acc)
  in
  go (step (SL.head fx.sl)) []

(* [n]'s slot keys, a dead one — at or above the anchor of [n]'s level-0
   successor, moved out by a split — shown empty (volatile image, host
   side). *)
let live_slot_keys fx n =
  let ly = Node.layout (SL.config fx.sl) in
  let peek = Mem.peek_field fx.mem in
  let s = Riv.of_word (peek n Node.o_next0) in
  let bound = if Riv.equal s (SL.tail fx.sl) then Node.tail_key else peek s Node.o_anchor in
  Array.init ly.Node.k (fun i ->
      let k = peek n (Node.o_key ly i) in
      if k < bound then k else Node.empty_key)

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

let layout_cfg = { Config.default with keys_per_node = 4 }

let test_audit_catches_overheight_towers () =
  (* the persistent-heap auditor checks every tower against the block's
     [max_height] array, not just up to the node's own height word: a
     height above the array, or a stray next word between a node's height
     and the array's end, is corruption and must be reported *)
  let cap = layout_cfg.Config.max_height in
  let ly = Node.layout layout_cfg in
  let corrupt what poke =
    let fx = make_skiplist ~cfg:layout_cfg ~seed:9 () in
    churn fx ~seed:41 ~ops:600 ~keyspace:200;
    check_int (what ^ ": audit clean before corruption") 0
      (List.length (SL.audit_persistent fx.sl));
    let victim =
      List.find
        (fun n -> Node.meta_height (Mem.peek_field fx.mem n Node.o_meta) < cap)
        (bottom_nodes fx)
    in
    poke fx victim;
    check_bool (what ^ ": audit flags it") true (SL.audit_persistent fx.sl <> [])
  in
  (* two levels over the cap, where the block has no tower words: only
     the height check can see it *)
  corrupt "height above max_height" (fun fx n ->
      Mem.poke_field fx.mem n Node.o_meta
        (Node.with_height (Mem.peek_field fx.mem n Node.o_meta) (cap + 2)));
  corrupt "next word above the height" (fun fx n ->
      Mem.poke_ptr fx.mem n (Node.o_next ly (cap - 1)) n)

(* ---- key fingerprints -------------------------------------------------------- *)

let fp_cfg = { Config.default with keys_per_node = 8 }

(* Live slots on the bottom level holding [key] (volatile image, host
   side). *)
let slots_holding fx key =
  List.concat_map
    (fun n ->
      let keys = live_slot_keys fx n in
      List.filter (fun i -> keys.(i) = key) (List.init (Array.length keys) Fun.id))
    (bottom_nodes fx)

(* After crash-free runs each node's fingerprint line is exactly the one its
   live keys call for: claims publish before their key, splits and repairs
   rewrite the line, and a dead slot shows 0. *)
let check_fp_lines fx =
  let ly = Node.layout (SL.config fx.sl) in
  List.iter
    (fun n ->
      let keys = live_slot_keys fx n in
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
  let inserts fx acked =
    List.init 4 (fun _ ~tid ->
        for i = 0 to 299 do
          let k = 1 + (i * 4) + tid in
          ignore (SL.upsert fx.sl ~tid k (k * 2));
          acked.(tid) <- k :: acked.(tid)
        done)
  in
  (* crash 60 % of the way through the inserts' crash-free run *)
  let events =
    crash_point 0.6 ~dry_run:(fun () ->
        let fx = make_skiplist ~cfg:fp_cfg () in
        snd (run fx.pmem (inserts fx (Array.make 4 []))))
  in
  let fx = make_skiplist ~cfg:fp_cfg () in
  let acked = Array.make 4 [] in
  ignore (run_crash fx.pmem ~events (inserts fx acked));
  crash_and_reconnect fx;
  check_int "audit clean" 0 (List.length (SL.audit_persistent fx.sl));
  run1 fx.pmem (fun ~tid ->
      Array.iter
        (List.iter (fun k ->
             Alcotest.check opt_int "acked survives" (Some (k * 2))
               (SL.search fx.sl ~tid k)))
        acked)

let test_fp_lincheck_campaign () =
  let s =
    crash_campaign
      ~base:{ Harness.Fault.default_spec with cfg = fp_cfg }
      ~threads:4 ~keyspace:120 ~ops_per_thread:100
      ~from:0.6 ~seed:777 ~trials:3 ()
  in
  print_failures "fingerprint" s;
  check_int "strictly linearizable with small fingerprinted nodes" 0
    (List.length s.Harness.Fault.failures)

(* [Testsupport.crash_grid] over a skiplist fixture. *)
let crash_grid ~setup ~op ~checks =
  crash_grid ~setup ~pmem:(fun fx -> fx.pmem) ~mem:(fun fx -> fx.mem) ~op ~checks

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
    ~checks:[ (fun fx where ->
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
      check_no_invariant_errors fx.sl) ]

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

let lost_fp_line ?latency () =
  let fx = make_skiplist ?latency ~cfg:fp_cfg ~seed:7 () in
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
  let no_fp =
    List.filter
      (fun i ->
        let k = Mem.peek_field fx.mem node (Node.o_key ly i) in
        k <> Node.empty_key
        && Node.fp_byte (Mem.peek_field fx.mem node (Node.o_fp_slot i)) i = 0)
      (List.init ly.Node.k Fun.id)
  in
  check_int "the crash kept four keys without their fingerprints" 4
    (List.length no_fp);
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

(* The order a lookup reads a node in: the lock word's fp_ok bit, then the
   fingerprint words. One fiber misses on an absent key, which repairs the
   node's line; the other, starting at every offset across that repair,
   looks up a key the crash left without its fingerprint. A lookup that
   read the words before the repair published the key's fingerprint, and
   the bit after the repair confirmed the line, would report the key
   absent. The Optane latency model makes that window wide: the lookup's
   fingerprint-line miss outlasts the repair's last cached CASes. Key 18
   is the last one the repair publishes. *)
let test_fp_ok_read_before_words () =
  for step = 0 to 400 do
    let delay = 5 * step in
    let where = Fmt.str "delay %d" delay in
    let fx = lost_fp_line ~latency:Pmem.Latency.default () in
    ignore
      (run fx.pmem
         [
           (fun ~tid ->
             Alcotest.check opt_int (where ^ ": 11 absent") None (SL.search fx.sl ~tid 11));
           (fun ~tid ->
             Sim.Sched.charge (float_of_int delay);
             Alcotest.check opt_int (where ^ ": 18 found") (Some 18)
               (SL.search fx.sl ~tid 18));
         ]);
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

(* Live keys of each bottom node, in slot order, empty and dead slots left
   out (volatile image, host side). *)
let node_keys fx =
  List.map
    (fun n -> List.filter (fun k -> k <> Node.empty_key) (Array.to_list (live_slot_keys fx n)))
    (bottom_nodes fx)

let sorted_node_keys fx = List.map (List.sort compare) (node_keys fx)

(* Crash grid for one node split (K = 4): [key] overflows the full node
   [10; 12; 14; 16], whose split moves a suffix of its keys to a new node
   linked behind it and puts [key] in with them, or leaves [key] to the
   retried upsert, which claims a slot the split freed in the old node;
   [after] is the two nodes' keys once [key] is in.

   Each crash state is checked twice, on two reproductions of it. First,
   with a lookup of [key] as the first operation: when [key] joins the new
   node, it is found with its value wherever the new node is reachable on
   level 0 (it is durable with the link); when the new node is
   unreachable, [key] is absent and the old node still holds every
   pre-split key; and once the upsert has returned, [key] is found
   whatever the case. Second, after recovery and the audit (hint rule
   included) are clean, every key the split moved or kept is still found,
   and the top level is the highest non-empty head level. A range scan as
   the first operation after recovery finishes within an event budget and
   returns what the node chain holds: the traversal to its low end stops
   at the head, so the scan itself meets the interrupted split, and must
   drop the keys it left dead in the old node and read its stale writer
   bit as free. *)
let split_crash_grid ~key ~after () =
  let before = [ 10; 12; 14; 16 ] in
  let into_new = List.mem key (List.nth after 1) in
  let acked = ref false in
  let setup () =
    let fx = make_skiplist ~cfg:hint_cfg ~seed:7 () in
    run1 fx.pmem (fun ~tid ->
        List.iter (fun k -> ignore (SL.upsert fx.sl ~tid k k)) before);
    Pmem.clean_shutdown fx.pmem;
    acked := false;
    fx
  in
  check_int "one full node before the split" 1 (List.length (bottom_nodes (setup ())));
  (let fx = setup () in
   run1 fx.pmem (fun ~tid -> ignore (SL.upsert fx.sl ~tid key key));
   Alcotest.check Alcotest.(list (list int)) "the split's cut" after (sorted_node_keys fx));
  let first_lookup fx where =
    let linked = List.length (bottom_nodes fx) = 2 in
    let held = sorted_node_keys fx in
    let found = ref None in
    run1 fx.pmem (fun ~tid -> found := SL.search fx.sl ~tid key);
    (match !found with
    | Some v when v <> key -> Alcotest.failf "%s: lookup of %d returned %d" where key v
    | _ -> ());
    if !acked || (linked && into_new) then
      Alcotest.check opt_int (where ^ ": key found first") (Some key) !found;
    if not linked then begin
      Alcotest.check opt_int (where ^ ": key absent without the new node") None !found;
      Alcotest.check Alcotest.(list (list int)) (where ^ ": the old node keeps its keys")
        [ before ] held
    end
  in
  let after_recovery fx where =
    run1 fx.pmem (fun ~tid -> SL.recover fx.sl ~tid);
    check_int (where ^ ": top level after recovery") (highest_head_level fx)
      (SL.top_level fx.sl);
    let scanned = ref [] in
    (match
       Sim.Sched.run ~machine:(Pmem.machine fx.pmem)
         ~crash:(Sim.Sched.After_events 100_000)
         [ (0, fun ~tid -> scanned := SL.range fx.sl ~tid ~lo:1 ~hi:100) ]
     with
    | Sim.Sched.Completed _ -> ()
    | Sim.Sched.Crashed_at _ ->
        Alcotest.failf "%s: range scan still running after 100000 events" where);
    check_pairs (where ^ ": range scan") (SL.to_alist fx.sl) !scanned;
    check_audit fx where;
    run1 fx.pmem (fun ~tid ->
        List.iter
          (fun k ->
            Alcotest.check opt_int (Fmt.str "%s: key %d" where k) (Some k)
              (SL.search fx.sl ~tid k))
          before;
        (match SL.search fx.sl ~tid key with
        | Some v when v <> key ->
            Alcotest.failf "%s: lookup of %d returned %d" where key v
        | _ -> ());
        ignore (SL.upsert fx.sl ~tid key (key + 1)));
    check_audit fx where;
    check_no_invariant_errors fx.sl
  in
  crash_grid ~setup
    ~op:(fun fx ~tid ->
      ignore (SL.upsert fx.sl ~tid key key);
      acked := true)
    ~checks:[ first_lookup; after_recovery ]

(* 18 ranks above every key of the node: the tail cut moves the top
   max 1 (K/8) = 1 key, and 18 joins it in the new node. *)
let test_split_crash_grid =
  split_crash_grid ~key:18 ~after:[ [ 10; 12; 14 ]; [ 16; 18 ] ]

(* 15 ranks below the node's top key: the median split moves [14; 16],
   and 15 joins them in the new node. *)
let test_median_split_crash_grid =
  split_crash_grid ~key:15 ~after:[ [ 10; 12 ]; [ 14; 15; 16 ] ]

(* 13 ranks below the new node's anchor: the median split moves
   [14; 16] without it, and the retried upsert claims a slot the split
   left dead in the old node. *)
let test_median_split_old_half_crash_grid =
  split_crash_grid ~key:13 ~after:[ [ 10; 12; 13 ]; [ 14; 16 ] ]

(* ---- dead slots ------------------------------------------------------------ *)

(* A K = 4 node [10; 12; 14; 16], each key's value 1000 above it, split
   by an upsert of 15: the median cut moves 14 and 16 to a new node
   [14; 15; 16], and leaves both in the old node, dead by its anchor 14.
   Persisted whole. *)
let dead_slot_setup () =
  let fx = make_skiplist ~cfg:hint_cfg ~seed:7 () in
  run1 fx.pmem (fun ~tid ->
      List.iter (fun k -> ignore (SL.upsert fx.sl ~tid k (k + 1000))) [ 10; 12; 14; 16; 15 ]);
  Pmem.clean_shutdown fx.pmem;
  fx

(* Crash grid for a claim that reclaims a dead slot: 13 belongs to the
   old node, whose only free slots are the dead ones, so its upsert
   stores a tombstone value over 14's, CASes 14 to 13 and CASes 777 in.
   Whatever prefix of those stores persists, 13 reads as absent or as
   777, never with the dead key's value 1014, and 14 and 16 keep theirs
   in the new node. *)
let test_dead_slot_claim_crash_grid () =
  let key = 13 in
  (let fx = dead_slot_setup () in
   Alcotest.check Alcotest.(list (list int)) "the split left 14 and 16 dead"
     [ [ 10; 12 ]; [ 14; 15; 16 ] ] (sorted_node_keys fx);
   let old = List.hd (bottom_nodes fx) in
   let ly = Node.layout hint_cfg in
   check_bool "the old node still holds them" true
     (List.for_all
        (fun k ->
          List.exists (fun i -> Mem.peek_field fx.mem old (Node.o_key ly i) = k) [ 0; 1; 2; 3 ])
        [ 14; 16 ]);
   run1 fx.pmem (fun ~tid -> ignore (SL.upsert fx.sl ~tid key 777));
   Alcotest.check Alcotest.(list (list int)) "13 took a dead slot"
     [ [ 10; 12; 13 ]; [ 14; 15; 16 ] ] (sorted_node_keys fx);
   check_int "no split" 2 (List.length (bottom_nodes fx)));
  crash_grid ~setup:dead_slot_setup
    ~op:(fun fx ~tid -> ignore (SL.upsert fx.sl ~tid key 777))
    ~checks:
      [
        (fun fx where ->
          check_audit fx where;
          run1 fx.pmem (fun ~tid ->
              (match SL.search fx.sl ~tid key with
              | None | Some 777 -> ()
              | Some v -> Alcotest.failf "%s: lookup of %d returned %d" where key v);
              List.iter
                (fun k ->
                  Alcotest.check opt_int (Fmt.str "%s: key %d" where k) (Some (k + 1000))
                    (SL.search fx.sl ~tid k))
                [ 10; 12; 14; 15; 16 ];
              ignore (SL.upsert fx.sl ~tid key 778);
              Alcotest.check opt_int (where ^ ": re-upsert visible") (Some 778)
                (SL.search fx.sl ~tid key));
          check_int (where ^ ": one slot holds the key") 1 (List.length (slots_holding fx key));
          check_no_invariant_errors fx.sl);
      ]

(* A crash after a tail split's link persisted, before its unlock: the
   persistent image holds the old node's header line with the writer bit
   set under the crashed epoch, and the moved key 16 still in its slot.
   Nothing repairs the split: a lookup in that node (the first operation
   after the crash) reads the stale writer bit as free instead of backing
   off, the lookups after the crash leave 16 in its dead slot (nothing
   erases it), and a later split of the node acquires its write lock and
   proceeds. *)
let test_interrupted_split_needs_no_repair () =
  let setup () =
    let fx = make_skiplist ~cfg:hint_cfg ~seed:7 () in
    run1 fx.pmem (fun ~tid ->
        List.iter (fun k -> ignore (SL.upsert fx.sl ~tid k k)) [ 10; 12; 14; 16 ]);
    Pmem.clean_shutdown fx.pmem;
    fx
  in
  let split fx ~tid = ignore (SL.upsert fx.sl ~tid 18 18) in
  let events =
    let fx = setup () in
    snd (run fx.pmem [ split fx ])
  in
  (* the first crash point whose persistent image has the link *)
  let crashed_after_link e =
    let fx = setup () in
    ignore
      (Sim.Sched.run ~machine:(Pmem.machine fx.pmem) ~crash:(Sim.Sched.After_events e)
         [ (0, split fx) ]);
    Pmem.crash fx.pmem ~persist_line:(fun ~pool:_ ~line:_ -> false);
    Mem.reconnect fx.mem;
    if List.length (bottom_nodes fx) = 2 then Some fx else None
  in
  let fx =
    match List.find_map crashed_after_link (List.init events (fun e -> e + 1)) with
    | Some fx -> fx
    | None -> Alcotest.fail "no crash point persists the split's link"
  in
  let old = List.hd (bottom_nodes fx) in
  let lockw = Mem.peek_field fx.mem old Node.o_lock in
  check_bool "the persisted writer bit" true (lockw land Node.writer_bit <> 0);
  check_bool "reads as free in the new epoch" false
    (Node.Lock.is_write_locked ~epoch:(Mem.epoch fx.mem) lockw);
  let ly = Node.layout hint_cfg in
  let holds_16 where =
    check_bool (where ^ ": the moved key 16 is still in the old node") true
      (List.exists (fun i -> Mem.peek_field fx.mem old (Node.o_key ly i) = 16) [ 0; 1; 2; 3 ])
  in
  holds_16 "after the crash";
  let found = ref None in
  (match
     Sim.Sched.run ~machine:(Pmem.machine fx.pmem) ~crash:(Sim.Sched.After_events 400)
       [ (0, fun ~tid -> found := SL.search fx.sl ~tid 12) ]
   with
  | Sim.Sched.Completed _ -> ()
  | Sim.Sched.Crashed_at _ -> Alcotest.fail "a lookup in the split node still runs after 400 events");
  Alcotest.check opt_int "the lookup finds 12" (Some 12) !found;
  run1 fx.pmem (fun ~tid ->
      Alcotest.check opt_int "16 lives in the new node" (Some 16) (SL.search fx.sl ~tid 16));
  holds_16 "after the lookups";
  (* 13 takes 16's dead slot and fills the node; 11 splits it *)
  run1 fx.pmem (fun ~tid -> List.iter (fun k -> ignore (SL.upsert fx.sl ~tid k k)) [ 13; 11 ]);
  check_int "the later split proceeded" 3 (List.length (bottom_nodes fx));
  run1 fx.pmem (fun ~tid ->
      List.iter
        (fun k -> Alcotest.check opt_int (Fmt.str "key %d" k) (Some k) (SL.search fx.sl ~tid k))
        [ 10; 11; 12; 13; 14; 16; 18 ]);
  check_audit fx "after the later split";
  check_no_invariant_errors fx.sl

(* A machine over [fx]'s memory whose accesses take [extra ~tid ~write a]
   ns longer. An access takes effect when it is issued, so stretching one
   delays only its fiber's next access. *)
let stretched_machine fx extra =
  let m = Pmem.machine fx.pmem in
  let stretch ~tid ~write a =
    m.Sim.Sched.latency.(0) <- m.Sim.Sched.latency.(0) +. extra ~tid ~write a
  in
  {
    m with
    Sim.Sched.read =
      (fun ~tid a ->
        let v = m.Sim.Sched.read ~tid a in
        stretch ~tid ~write:false a;
        v);
    write =
      (fun ~tid a v ->
        m.Sim.Sched.write ~tid a v;
        stretch ~tid ~write:true a);
  }

(* [key]'s slot in [n]. *)
let slot_of fx n key =
  let ly = Node.layout (SL.config fx.sl) in
  List.find (fun i -> Mem.peek_field fx.mem n (Node.o_key ly i) = key) (List.init ly.Node.k Fun.id)

(* The address of [key]'s slot in [n]. *)
let key_addr fx n key =
  Mem.resolve fx.mem n + Node.o_key (Node.layout (SL.config fx.sl)) (slot_of fx n key)

(* The address of the slot line holding [key]'s slot in [n]: where a
   lookup's one read of its key and value lands. *)
let slot_line_addr fx n key =
  let i = slot_of fx n key in
  Mem.resolve fx.mem n
  + Node.o_key (Node.layout (SL.config fx.sl)) (i - (i mod Node.slots_per_line))

(* The order a found search's validation relies on, forced by stretching
   chosen accesses around one split. A search of 16 (fiber 0) runs
   against an upsert of 18 (fiber 1), 0.5 us in, that splits the full
   node [10; 12; 14; 16] (K = 4) and moves 16 out, and then an upsert of
   13, which claims the slot the split left dead: it holds 16 until the
   claim stores 13 and its value there. The search's first read of the
   node's header line after its read of 16's slot line (the one access
   that gives key and value) is stretched by 20 us. Validated after the
   slot-line read, the search read 16's value before the split; a
   validation read before the slot-line read lets the split kill the slot
   between the two and the claim take it over, and the search answers
   13's value. (That the validation compares the successor at all is
   what "a lookup across a split skips a dead slot being claimed"
   forces.) *)
let check_search_validation_order () =
  let fx = make_skiplist ~cfg:hint_cfg ~seed:7 () in
  run1 fx.pmem (fun ~tid -> List.iter (fun k -> ignore (SL.upsert fx.sl ~tid k k)) [ 10; 12; 14; 16 ]);
  let n = List.hd (bottom_nodes fx) in
  let line16 = slot_line_addr fx n 16 and hdr = Mem.resolve fx.mem n in
  let armed = ref false and stretched = ref 0 in
  let extra ~tid ~write a =
    if tid = 0 && (not write) && a = line16 then armed := true;
    if tid = 0 && (not write) && !armed && a = hdr then begin
      armed := false;
      incr stretched;
      20_000.0
    end
    else 0.0
  in
  let found = ref None in
  let bodies =
    [
      (0, fun ~tid -> found := SL.search fx.sl ~tid 16);
      ( 1,
        fun ~tid ->
          Sim.Sched.charge 500.0;
          List.iter (fun k -> ignore (SL.upsert fx.sl ~tid k k : int option)) [ 18; 13 ] );
    ]
  in
  (match Sim.Sched.run ~machine:(stretched_machine fx extra) bodies with
  | Sim.Sched.Completed _ -> ()
  | Sim.Sched.Crashed_at _ -> Alcotest.fail "unexpected simulated crash");
  check_int "the validating header read was stretched" 1 !stretched;
  Alcotest.(check (list (list int)))
    "16 moved" [ [ 10; 12; 13; 14 ]; [ 16; 18 ] ] (sorted_node_keys fx);
  Alcotest.(check (option int)) "16 found" (Some 16) !found

(* A whole split can complete between a lookup's copy of its node's
   header line, which gave the recorded successor and the fp_ok bit, and
   its scan. Node [10; 20; 30; 37] (K = 4) has its level-0 hint lowered
   to 37, so a search of 37 (fiber 0) enters the tail and overshoots, and
   its read of the tail's line is stretched by 30 us. Meanwhile fiber 1
   upserts 40, whose tail cut moves 37 out, leaving it dead in the old
   node, and then 12, whose fingerprint is 37's: its claim takes the dead
   slot's fingerprint byte, and its store of a tombstone value there is
   stretched by 50 us before it CASes 12 in. The search's scan hits the
   dead 37 behind the claim's fingerprint, beside the tombstone the claim
   stored; only the validation, whose header read shows a successor other
   than the recorded one, sends the search into the new node. A lookup
   that skips that check answers the tombstone. *)
let test_lookup_across_split_skips_a_dead_slot_being_claimed () =
  check_int "12 shares 37's fingerprint" (Node.fingerprint 37) (Node.fingerprint 12);
  let fx = make_skiplist ~cfg:hint_cfg ~seed:7 () in
  run1 fx.pmem (fun ~tid -> List.iter (fun k -> ignore (SL.upsert fx.sl ~tid k k)) [ 10; 20; 30; 37 ]);
  let n = List.hd (bottom_nodes fx) in
  Mem.poke_field fx.mem n Node.o_hint0 37;
  let ly = Node.layout hint_cfg in
  let value37 = key_addr fx n 37 + 1 in
  check_int "37's value word" (Node.o_value ly 3) (value37 - Mem.resolve fx.mem n);
  let tail = Mem.resolve fx.mem (SL.tail fx.sl) in
  let extra ~tid ~write a =
    if tid = 0 && (not write) && a = tail then 30_000.0
    else if tid = 1 && write && a = value37 then 50_000.0
    else 0.0
  in
  let found = ref None in
  let bodies =
    [
      (0, fun ~tid -> found := SL.search fx.sl ~tid 37);
      ( 1,
        fun ~tid ->
          Sim.Sched.charge 500.0;
          ignore (SL.upsert fx.sl ~tid 40 40 : int option);
          ignore (SL.upsert fx.sl ~tid 12 12 : int option) );
    ]
  in
  (match Sim.Sched.run ~machine:(stretched_machine fx extra) bodies with
  | Sim.Sched.Completed _ -> ()
  | Sim.Sched.Crashed_at _ -> Alcotest.fail "unexpected simulated crash");
  Alcotest.(check (list (list int)))
    "12 took 37's dead slot" [ [ 10; 12; 20; 30 ]; [ 37; 40 ] ] (sorted_node_keys fx);
  Alcotest.(check (option int)) "37 found" (Some 37) !found;
  check_no_invariant_errors fx.sl

(* An update of 16 (fiber 0) in the full node [10; 12; 14; 16] (K = 4)
   finds 16's slot, and its read of that slot line is stretched by 50 us,
   which holds off its read lock. Meanwhile fiber 1 upserts 18, whose
   tail cut moves 16 out and leaves it dead in the old node, and then 13,
   which claims 16's dead slot. Under the read lock the update sees the
   old node's level-0 successor changed ([Skiplist.relinked]) and retries
   into the new node; one that skipped the check would write its value
   over 13's, in a slot that no longer holds 16. *)
let test_update_across_split_retries_into_the_new_node () =
  let fx = make_skiplist ~cfg:hint_cfg ~seed:7 () in
  run1 fx.pmem (fun ~tid -> List.iter (fun k -> ignore (SL.upsert fx.sl ~tid k k)) [ 10; 12; 14; 16 ]);
  let line16 = slot_line_addr fx (List.hd (bottom_nodes fx)) 16 in
  let stretched = ref 0 in
  let extra ~tid ~write a =
    if tid = 0 && (not write) && a = line16 && !stretched = 0 then begin
      incr stretched;
      50_000.0
    end
    else 0.0
  in
  let prev = ref None in
  let bodies =
    [
      (0, fun ~tid -> prev := SL.upsert fx.sl ~tid 16 1600);
      ( 1,
        fun ~tid ->
          Sim.Sched.charge 500.0;
          List.iter (fun k -> ignore (SL.upsert fx.sl ~tid k k : int option)) [ 18; 13 ] );
    ]
  in
  (match Sim.Sched.run ~machine:(stretched_machine fx extra) bodies with
  | Sim.Sched.Completed _ -> ()
  | Sim.Sched.Crashed_at _ -> Alcotest.fail "unexpected simulated crash");
  check_int "the update's slot-line read was stretched" 1 !stretched;
  Alcotest.(check (list (list int)))
    "13 took 16's dead slot" [ [ 10; 12; 13; 14 ]; [ 16; 18 ] ] (sorted_node_keys fx);
  Alcotest.check opt_int "the update replaced 16's value" (Some 16) !prev;
  run1 fx.pmem (fun ~tid ->
      Alcotest.check opt_int "13 reads its own value" (Some 13) (SL.search fx.sl ~tid 13);
      Alcotest.check opt_int "16 reads the update" (Some 1600) (SL.search fx.sl ~tid 16));
  check_no_invariant_errors fx.sl

(* Two upserts of one key meet at a dead slot. Node [10; 20; 30; 37]
   (K = 4) is split by 35 at the median, which leaves 30 and 37 dead in
   slots 2 and 3. Fiber 1 upserts 12: its claim takes slot 2's
   fingerprint byte, and its tombstone store there is stretched by 50 us
   before it CASes 12 in. Fiber 0 upserts 12 5 us in: slot 2's byte is
   taken with 12's own fingerprint, so it waits for the taker's key and
   updates it, where skipping on would claim dead slot 3 for a second
   copy of 12. *)
let test_racing_claims_of_one_key_meet_at_a_dead_slot () =
  let fx = make_skiplist ~cfg:hint_cfg ~seed:7 () in
  run1 fx.pmem (fun ~tid ->
      List.iter (fun k -> ignore (SL.upsert fx.sl ~tid k k)) [ 10; 20; 30; 37; 35 ]);
  Alcotest.(check (list (list int)))
    "the median cut" [ [ 10; 20 ]; [ 30; 35; 37 ] ] (sorted_node_keys fx);
  let n = List.hd (bottom_nodes fx) in
  let value30 = key_addr fx n 30 + 1 in
  let extra ~tid ~write a = if tid = 1 && write && a = value30 then 50_000.0 else 0.0 in
  let bodies =
    [
      ( 0,
        fun ~tid ->
          Sim.Sched.charge 5_000.0;
          ignore (SL.upsert fx.sl ~tid 12 120 : int option) );
      (1, fun ~tid -> ignore (SL.upsert fx.sl ~tid 12 121 : int option));
    ]
  in
  (match Sim.Sched.run ~machine:(stretched_machine fx extra) bodies with
  | Sim.Sched.Completed _ -> ()
  | Sim.Sched.Crashed_at _ -> Alcotest.fail "unexpected simulated crash");
  check_int "one slot holds 12" 1 (List.length (slots_holding fx 12));
  Alcotest.(check (list (list int)))
    "12 took a dead slot" [ [ 10; 12; 20 ]; [ 30; 35; 37 ] ] (sorted_node_keys fx);
  run1 fx.pmem (fun ~tid ->
      match SL.search fx.sl ~tid 12 with
      | Some (120 | 121) -> ()
      | v -> Alcotest.failf "12 reads %a" Fmt.(Dump.option int) v);
  check_no_invariant_errors fx.sl

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
   between two loads of a reader. Then a search whose reads are stretched
   around one split ([check_search_validation_order]) must find the key it
   moved. *)
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
    [ 4; 1 ];
  check_search_validation_order ()

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

(* ---- the traversal's read order ---------------------------------------------- *)

(* A multi-level list (K = 4) loaded by one fiber with [n] odd keys from
   101, in a seeded random order. *)
let loaded_list ~n =
  let fx = make_skiplist ~cfg:hint_cfg ~seed:3 () in
  let keys = Array.init n (fun i -> 101 + (2 * i)) in
  let rng = Sim.Rng.create 17 in
  for i = n - 1 downto 1 do
    let j = Sim.Rng.int rng (i + 1) in
    let x = keys.(i) in
    keys.(i) <- keys.(j);
    keys.(j) <- x
  done;
  run1 fx.pmem (fun ~tid -> Array.iter (fun k -> ignore (SL.upsert fx.sl ~tid k k)) keys);
  fx

(* The address of every simulated read [body] issues as the only fiber on
   [fx]'s machine, in order. *)
let reads_of fx body =
  let log = ref [] in
  let m = Pmem.machine fx.pmem in
  let m =
    { m with Sim.Sched.read = (fun ~tid a -> log := a :: !log; m.Sim.Sched.read ~tid a) }
  in
  (match Sim.Sched.run ~machine:m [ (0, body) ] with
  | Sim.Sched.Completed _ -> ()
  | Sim.Sched.Crashed_at _ -> Alcotest.fail "unexpected simulated crash");
  List.rev !log

(* The anchor a hop at [level] routes by (host side). *)
let anchor_at fx n level =
  let ly = Node.layout (SL.config fx.sl) in
  if Riv.equal n (SL.tail fx.sl) then Node.tail_key
  else if level <= 1 then Mem.peek_field fx.mem n Node.o_anchor
  else Mem.peek_field fx.mem n (Node.o_tower_anchor ly level)

let next_at fx n level =
  let ly = Node.layout (SL.config fx.sl) in
  Riv.of_word (Mem.peek_field fx.mem n (Node.o_next ly level))

let hint_at fx n level =
  Mem.peek_field fx.mem n (Node.o_hint (Node.layout (SL.config fx.sl)) level)

(* The walk a traversal for [key] takes over the volatile image, level by
   level from the top level down: each level's nodes (the one it starts
   on, then one per hop) and whether a hint ended it (else an entered
   node's anchor). *)
let traversal_walk fx key =
  let rec level l pred acc =
    if l < 0 then List.rev acc
    else begin
      let rec go pred nodes =
        if hint_at fx pred l > key then (List.rev nodes, true)
        else
          let succ = next_at fx pred l in
          if anchor_at fx succ l <= key then go succ (succ :: nodes)
          else (List.rev nodes, false)
      in
      let nodes, on_hint = go pred [ pred ] in
      level (l - 1) (List.nth nodes (List.length nodes - 1)) ((l, nodes, on_hint) :: acc)
    end
  in
  level (SL.top_level fx.sl) (SL.head fx.sl) []

let last nodes = List.nth nodes (List.length nodes - 1)

(* A walk's levels above 1, as (level, nodes). *)
let upper_levels walk =
  List.filter_map (fun (l, nodes, _) -> if l >= 2 then Some (l, nodes) else None) walk
let hops nodes = List.length nodes - 1
let group l = (l - 2) / Config.tower_levels_per_line

(* The tower lines, as (node, group), that a walk above level 1 reads over
   [levels] ((level, nodes) in walk order), one access each: the line the
   level starts on unless the walk holds it already, and the line of
   every node it enters. *)
let tower_lines_read levels =
  let held = ref None in
  List.concat_map
    (fun (l, nodes) ->
      List.concat
        (List.mapi
           (fun i n ->
             if i = 0 && !held = Some (n, group l) then []
             else begin
               held := Some (n, group l);
               [ (n, group l) ]
             end)
           nodes))
    levels

(* The (node, group) of the tower line holding [a], if [a] is in the
   tower region of one of [nodes]. *)
let tower_line_of fx nodes a =
  let ly = Node.layout (SL.config fx.sl) in
  List.find_map
    (fun n ->
      let base = Mem.resolve fx.mem n + ly.Node.o_tower in
      if a >= base && a < Mem.resolve fx.mem n + Mem.block_words fx.mem then
        Some ((n, (a - base) / Config.line_words), (a - base) mod Config.line_words = 0)
      else None)
    nodes

(* [reads] that fall in tower lines of [nodes], as (line, at its first
   word). *)
let tower_reads fx nodes reads = List.filter_map (tower_line_of fx nodes) reads

(* Whether level 0 ended on the anchor of a node it entered (a stale-low
   hint let it in), which leaves that node's line in the buffer. *)
let level0_overshoots walk = List.exists (fun (l, _, on_hint) -> l = 0 && not on_hint) walk

(* One search, read by read. No level reads a word of the node that ends
   it: every level ends on a hint. The count follows: above level 1, one
   access per (node, tower line) the walk stands on or enters
   ([tower_lines_read]); at levels 1 and 0 one access per header line:
   the node level 1 starts on, and each node a hop enters (level 0 starts
   on the copy level 1 ended on). The lookup in the last node takes its
   fingerprint confirmation from the walk's copy of that node's header
   line; then it reads the fingerprint line
   (one read, whatever the number of fingerprint words: see the next
   test), the slot line of the first fingerprint match, whose copy gives
   the key and, for a key found, the value, and then the header line once
   more, which validates the lookup. *)
let test_hint_read_order () =
  let fx = loaded_list ~n:1_500 in
  let block_words = Mem.block_words fx.mem in
  check_bool "several levels" true (SL.top_level fx.sl >= 4);
  let upper_stops = ref 0 in
  for i = 0 to 99 do
    let key = 101 + (2 * (i * 13 mod 1_500)) in
    let walk = traversal_walk fx key in
    let where = Fmt.str "search %d" key in
    if not (List.for_all (fun (_, _, on_hint) -> on_hint) walk) then
      Alcotest.failf "%s: a level of this fixture ended on an anchor" where;
    Obs.reset ();
    let reads =
      reads_of fx (fun ~tid ->
          Alcotest.(check (option int)) (where ^ ": found") (Some key) (SL.search fx.sl ~tid key))
    in
    List.iter
      (fun (l, nodes, _) ->
        if l >= 1 then incr upper_stops;
        let succ = Mem.resolve fx.mem (next_at fx (last nodes) l) in
        check_bool
          (Fmt.str "%s: level %d ended on its hint without reading its successor" where l)
          false
          (List.exists (fun a -> a >= succ && a < succ + block_words) reads))
      walk;
    let hops_at l =
      List.fold_left (fun acc (l', nodes, _) -> if l' = l then acc + hops nodes else acc) 0 walk
    in
    let upper = tower_lines_read (upper_levels walk) in
    check_int (where ^ ": every level ended on a hint") (List.length walk) (Obs.total Obs.id_hint_stop);
    check_int (where ^ ": no stale hint") 0 (Obs.total Obs.id_hint_stale);
    let fp_line_reads = (Node.layout (SL.config fx.sl)).Node.fp_lines in
    (* K = 4: one slot line, read once whatever the number of matches *)
    let slot_line_reads = 1 and validation = 1 in
    let predicted =
      List.length upper + 1 + hops_at 1 + hops_at 0 + fp_line_reads
      + slot_line_reads + validation
    in
    check_int (where ^ ": loads") predicted (List.length reads)
  done;
  Obs.reset ();
  check_bool "upper levels ended on hints" true (!upper_stops > 100)

(* The header lines, in walk order, that a walk reads at levels 1 and 0,
   one access each: level 1's nodes (the one it starts on and each one a
   hop enters), then level 0's; a level that ends on an anchor also read
   the node it entered there. Level 0 starts on the copy level 1 ended on,
   unless level 1 ended on an entered node's anchor. *)
let header_lines_read fx walk =
  let entered (l, nodes, on_hint) = if on_hint then [] else [ next_at fx (last nodes) l ] in
  List.concat_map
    (fun ((l, nodes, _) as level) ->
      if l = 1 then nodes @ entered level
      else if l = 0 then
        match List.find_opt (fun (l', _, _) -> l' = 1) walk with
        | Some (_, _, true) -> List.tl nodes @ entered level
        | Some (_, _, false) | None -> nodes @ entered level
      else [])
    walk

(* The node whose header line holds [a], and whether [a] is its first
   word, if [a] is in the header line of one of [nodes]. *)
let header_line_of fx nodes a =
  List.find_map
    (fun n ->
      let base = Mem.resolve fx.mem n in
      if a >= base && a < base + Config.line_words then Some (n, a - base) else None)
    nodes

(* A header hop reads its line once: every search and every update of a
   present key reads the header line of each node it stands on or enters
   at levels 1 and 0 exactly once, at the line's first word, in walk
   order. After the walk, pred0's line is not copied again, even where
   level 0 ended on an entered node's anchor (the lookup keeps the fp_ok
   bit of the copy that gave the level's successor), and a search reads
   it once more, as a whole line, to validate: at most two reads of
   pred0's header per search, and none inside a header line. An update's validation takes
   the read lock and re-reads the level-0 successor as words, so its only
   reads inside a header line are pred0's lock and next[0] words. A hop or a
   validation that reads the epoch, meta, lock, hint, pointer or anchor
   as words fails. Every other pair of operations first lowers pred0's
   level-0 hint to the key (a stale-low hint, as a failed link CAS
   leaves), so level 0 enters the successor and ends on its anchor. *)
let test_header_hop_one_line_read () =
  let fx = loaded_list ~n:1_500 in
  let nodes = SL.head fx.sl :: SL.tail fx.sl :: bottom_nodes fx in
  let show l = String.concat " " (List.map (Fmt.str "%a" Riv.pp) l) in
  let pred0_of walk = last (List.assoc 0 (List.map (fun (l, n, _) -> (l, n)) walk)) in
  let overshoots = ref 0 in
  for i = 0 to 199 do
    let key = 101 + (2 * (i * 29 mod 1_500)) in
    let update = i mod 2 = 1 in
    let where = Fmt.str "%s %d" (if update then "update" else "search") key in
    if i mod 4 >= 2 then Mem.poke_field fx.mem (pred0_of (traversal_walk fx key)) Node.o_hint0 key;
    let walk = traversal_walk fx key in
    let pred0 = pred0_of walk in
    if level0_overshoots walk then incr overshoots;
    let reads =
      reads_of fx (fun ~tid ->
          if update then ignore (SL.upsert fx.sl ~tid key key : int option)
          else ignore (SL.search fx.sl ~tid key : int option))
    in
    let in_headers = List.filter_map (header_line_of fx nodes) reads in
    let starts = List.filter_map (fun (n, o) -> if o = 0 then Some n else None) in_headers in
    let after_walk = if update then [] else [ pred0 ] in
    Alcotest.(check string)
      (where ^ ": header lines read")
      (show (header_lines_read fx walk @ after_walk))
      (show starts);
    List.iter
      (fun (n, o) ->
        if
          o <> 0
          && not (update && Riv.equal n pred0 && (o = Node.o_lock || o = Node.o_next0))
        then Alcotest.failf "%s: a read of word %d inside the header line of %a" where o Riv.pp n)
      in_headers
  done;
  check_bool "some walks ended level 0 on an anchor" true (!overshoots > 50)

(* Every read [body] issues as the only fiber on [fx]'s machine, in order,
   with whether its own line missed the timing cache (a prefetched line's
   miss is counted apart, [Pmem.counters.prefetch_misses]). *)
let reads_with_misses fx body =
  let c = Pmem.counters fx.pmem in
  let demand_misses () = c.Pmem.load_misses - c.Pmem.prefetch_misses in
  let log = ref [] in
  let m = Pmem.machine fx.pmem in
  let read ~tid a =
    let before = demand_misses () in
    let v = m.Sim.Sched.read ~tid a in
    log := (a, demand_misses () > before) :: !log;
    v
  in
  (match Sim.Sched.run ~machine:{ m with Sim.Sched.read } [ (0, body) ] with
  | Sim.Sched.Completed _ -> ()
  | Sim.Sched.Crashed_at _ -> Alcotest.fail "unexpected simulated crash");
  List.rev !log

(* A hop prefetches the next line down on the node it enters. Each search
   starts with every timing cache empty ([Pmem.clean_shutdown]). In a
   search whose walk entered pred0 at level 0, the read of pred0's
   fingerprint line hits; in one whose walk entered a node at level 2,
   level 1's read of that node's header line hits. And a search fetches
   exactly one line beside each node it enters at level 0, 2, 5, 8, ...,
   and none beside those it enters at level 1 or stands on. A walk
   without the prefetch misses both lines. *)
let test_hop_prefetches_line_below () =
  let fx = loaded_list ~n:1_500 in
  let fp_hits = ref 0 and header_hits = ref 0 in
  let rule l = l = 0 || l = 2 || (l > 2 && (l - 2) mod Config.tower_levels_per_line = 0) in
  for i = 0 to 99 do
    let key = 101 + (2 * (i * 13 mod 1_500)) in
    let walk = traversal_walk fx key in
    let where = Fmt.str "search %d" key in
    if List.for_all (fun (_, _, on_hint) -> on_hint) walk then begin
      let nodes_at l = List.find_map (fun (l', n, _) -> if l' = l then Some n else None) walk in
      Pmem.clean_shutdown fx.pmem;
      Obs.reset ();
      let reads =
        reads_with_misses fx (fun ~tid ->
            Alcotest.(check (option int)) (where ^ ": found") (Some key) (SL.search fx.sl ~tid key))
      in
      let hit what a =
        match List.assoc_opt a reads with
        | Some missed -> check_bool (Fmt.str "%s: %s hits" where what) false missed
        | None -> Alcotest.failf "%s: %s never read" where what
      in
      (match nodes_at 0 with
      | Some nodes when hops nodes > 0 ->
          hit "pred0's fingerprint line" (Mem.resolve fx.mem (last nodes) + Node.o_fp);
          incr fp_hits
      | _ -> ());
      (match nodes_at 2 with
      | Some nodes when hops nodes > 0 ->
          hit "level 1's first header line" (Mem.resolve fx.mem (last nodes));
          incr header_hits
      | _ -> ());
      let entered =
        List.fold_left (fun acc (l, nodes, _) -> if rule l then acc + hops nodes else acc) 0 walk
      in
      check_int (where ^ ": lines fetched beside entered ones") entered
        (Obs.total Obs.id_prefetch)
    end
  done;
  Obs.reset ();
  check_bool "searches that entered pred0 at level 0" true (!fp_hits > 20);
  check_bool "searches that entered a node at level 2" true (!header_hits > 20)

(* Every read a walk above level 1 makes in a tower region is one access
   to a whole line, at its first word, and no line is read twice: the
   ones it reads are exactly [expected]. *)
let check_one_access_per_line fx where nodes reads expected =
  let lines = tower_reads fx nodes reads in
  List.iter
    (fun ((n, g), at_start) ->
      if not at_start then
        Alcotest.failf "%s: a read inside the tower line %d of node %a" where g Riv.pp n)
    lines;
  let show l = String.concat " " (List.map (fun (n, g) -> Fmt.str "%a/%d" Riv.pp n g) l) in
  Alcotest.(check string) (where ^ ": tower lines read") (show expected) (show (List.map fst lines))

(* An upper hop reads its tower line once: in a search, the tower reads
   are one access per line the walk stands on or enters, in walk order
   ([tower_lines_read]). A walk that reads the pointer, hint and anchor as
   three words fails. *)
let test_upper_hop_one_line_read () =
  let fx = loaded_list ~n:1_500 in
  let nodes = SL.head fx.sl :: SL.tail fx.sl :: bottom_nodes fx in
  for i = 0 to 99 do
    let key = 101 + (2 * (i * 37 mod 1_500)) in
    let walk = traversal_walk fx key in
    let reads =
      reads_of fx (fun ~tid -> ignore (SL.search fx.sl ~tid key : int option))
    in
    check_one_access_per_line fx (Fmt.str "search %d" key) nodes reads
      (tower_lines_read (upper_levels walk))
  done

(* A fresh node's populate reads no line: its successors and hints at
   every level come from the traversal's record, so from the first write
   into the new block to its level-0 hint the writer reads nothing. New
   head successors (keys below every other) and split nodes (even keys
   between loaded ones) are checked; a populate that walked the
   predecessors' lines again fails every new node at least 2 high. *)
let test_populate_reads_no_line () =
  let fx = loaded_list ~n:1_500 in
  let checked = ref 0 in
  let keys =
    List.init 41 (fun i -> 100 - i) @ List.init 200 (fun i -> 102 + (2 * (i * 37 mod 1_500)))
  in
  List.iter
    (fun key ->
      let before = bottom_nodes fx in
      let log = ref [] in
      let m = Pmem.machine fx.pmem in
      let machine =
        {
          m with
          Sim.Sched.read = (fun ~tid a -> log := `R a :: !log; m.Sim.Sched.read ~tid a);
          write = (fun ~tid a v -> log := `W a :: !log; m.Sim.Sched.write ~tid a v);
        }
      in
      (match Sim.Sched.run ~machine [ (0, fun ~tid -> ignore (SL.upsert fx.sl ~tid key key)) ] with
      | Sim.Sched.Completed _ -> ()
      | Sim.Sched.Crashed_at _ -> Alcotest.fail "unexpected simulated crash");
      match List.filter (fun n -> not (List.mem n before)) (bottom_nodes fx) with
      | [] -> ()
      | [ n ] ->
          if Node.meta_height (Mem.peek_field fx.mem n Node.o_meta) >= 2 then incr checked;
          let base = Mem.resolve fx.mem n in
          let hint0 = base + Node.o_hint0 in
          (* the reads from the first write into the new block to its
             level-0 hint *)
          let rec window acc started = function
            | [] -> Alcotest.failf "insert %d: no level-0 hint written" key
            | `W a :: _ when a = hint0 -> List.rev acc
            | `W a :: rest -> window acc (started || (a >= base && a < base + Mem.block_words fx.mem)) rest
            | `R a :: rest -> window (if started then a :: acc else acc) started rest
          in
          check_int (Fmt.str "insert %d: reads during the populate" key) 0
            (List.length (window [] false (List.rev !log)))
      | _ -> Alcotest.failf "insert %d linked more than one node" key)
    keys;
  check_bool "new nodes of height 2 or more" true (!checked >= 10);
  check_no_invariant_errors fx.sl

(* A lookup takes its fingerprint candidates from one read of the line:
   at K = 16 a node has two fingerprint words in one line, and every
   search, hit or miss, reads that region once, at the line's first word.
   Keys 2, 4, .. 600 inserted in a seeded order leave nodes holding
   fingerprints in both words. *)
(* A list of K = 16 nodes holding keys 2, 4, .. 600, each with value
   [key + 1000], inserted by one fiber in a seeded order. *)
let even_list_k16 () =
  let cfg = { Config.default with keys_per_node = 16 } in
  let fx = make_skiplist ~cfg ~seed:5 () in
  let keys = Array.init 300 (fun i -> 2 * (i + 1)) in
  let rng = Sim.Rng.create 23 in
  for i = Array.length keys - 1 downto 1 do
    let j = Sim.Rng.int rng (i + 1) in
    let x = keys.(i) in
    keys.(i) <- keys.(j);
    keys.(j) <- x
  done;
  run1 fx.pmem (fun ~tid -> Array.iter (fun k -> ignore (SL.upsert fx.sl ~tid k (k + 1000))) keys);
  (cfg, fx)

let test_fp_line_one_read () =
  let cfg, fx = even_list_k16 () in
  let fp_lines =
    List.map (fun n -> Mem.resolve fx.mem n + Node.o_fp) (bottom_nodes fx)
  in
  check_bool "some node uses its second fingerprint word" true
    (List.exists (fun a -> Pmem.peek fx.pmem (a + 1) <> 0) fp_lines);
  let in_fp_region a =
    List.exists (fun l -> a >= l && a < l + Config.fp_words cfg) fp_lines
  in
  for key = 2 to 601 do
    let fp_reads =
      List.filter in_fp_region
        (reads_of fx (fun ~tid -> ignore (SL.search fx.sl ~tid key : int option)))
    in
    match fp_reads with
    | [ a ] when List.mem a fp_lines -> ()
    | _ ->
        Alcotest.failf "search %d: %d reads in fingerprint lines, want one at a line start"
          key (List.length fp_reads)
  done

(* The bottom node whose live slots hold [key] (host side). *)
let live_node_of fx key =
  match List.find_opt (fun n -> Array.mem key (live_slot_keys fx n)) (bottom_nodes fx) with
  | Some n -> n
  | None -> Alcotest.failf "%d is live in no node" key

(* The slot lines, in order, that a lookup of [key] in [n] copies: those
   holding a slot whose fingerprint is [key]'s, up to [key]'s own slot,
   each once (host side). *)
let candidate_lines fx n key =
  let ly = Node.layout (SL.config fx.sl) in
  let f = Node.fingerprint key and found = slot_of fx n key in
  let base = Mem.resolve fx.mem n in
  List.sort_uniq Int.compare
    (List.filter_map
       (fun i ->
         if Node.fp_byte (Mem.peek_field fx.mem n (Node.o_fp_slot i)) i = f then
           Some (base + Node.o_key ly (i - (i mod Node.slots_per_line)))
         else None)
       (List.init (found + 1) Fun.id))

(* A found lookup reads its slot line once: after the fingerprint line,
   a search of a present key (K = 16, four slot lines a node) reads the
   slot line of each fingerprint candidate up to its key's slot, once
   each and at the line's first word, and then the header line, which
   validates it; the value comes from the slot line's copy. A value read
   as a word after the slot line, or a candidate line read twice, fails. *)
let test_found_lookup_reads_its_slot_line_once () =
  let _, fx = even_list_k16 () in
  let later_line = ref 0 in
  for i = 1 to 300 do
    let key = 2 * i in
    let n = live_node_of fx key in
    let base = Mem.resolve fx.mem n in
    let where = Fmt.str "search %d" key in
    if slot_of fx n key >= Node.slots_per_line then incr later_line;
    let reads =
      reads_of fx (fun ~tid ->
          Alcotest.(check (option int)) (where ^ ": found") (Some (key + 1000))
            (SL.search fx.sl ~tid key))
    in
    let rec after_fp_line = function
      | [] -> Alcotest.failf "%s: no read of the fingerprint line" where
      | a :: rest -> if a = base + Node.o_fp && not (List.mem (base + Node.o_fp) rest) then rest
                     else after_fp_line rest
    in
    Alcotest.(check (list int))
      (where ^ ": reads after the fingerprint line")
      (candidate_lines fx n key @ [ base ])
      (after_fp_line reads)
  done;
  check_bool "some keys lie beyond a node's first slot line" true (!later_line > 100)

(* A crash drops the fingerprint line of a full K = 8 node (two slot
   lines): its eight keys are durable, with values [key + 1000], but
   none carries its fingerprint, and the node is unconfirmed. *)
let lost_fps_full_node () =
  let fx = make_skiplist ~cfg:fp_cfg ~seed:7 () in
  let keys = List.init 8 (fun i -> 10 * (i + 1)) in
  run1 fx.pmem (fun ~tid -> List.iter (fun k -> ignore (SL.upsert fx.sl ~tid k (k + 1000))) keys);
  let n =
    match bottom_nodes fx with
    | [ n ] -> n
    | ns -> Alcotest.failf "expected one node, found %d" (List.length ns)
  in
  let fp_addr = Mem.resolve fx.mem n + Node.o_fp in
  Pmem.crash fx.pmem ~persist_line:(fun ~pool ~line ->
      not (pool = Pmem.pool_of fp_addr && line = Pmem.word_of fp_addr / Pmem.line_words));
  Mem.reconnect fx.mem;
  check_int "no key kept its fingerprint" 0 (Mem.peek_field fx.mem n Node.o_fp);
  (fx, n)

(* A key found by a repair answers with its own value. Its lookup misses
   on the fingerprint line the crash dropped and, the node unconfirmed,
   repairs the line from the keys, reading each slot line once; the repair
   leaves the last slot line in the copy, so a key of the first line has
   its line read once more, and the answer is the key's value, not the
   value in the same position of the last line. *)
let test_key_found_by_repair_answers_its_own_value () =
  List.iter
    (fun (key, slot_line_reads) ->
      let fx, n = lost_fps_full_node () in
      let ly = Node.layout fp_cfg in
      let pairs = Mem.resolve fx.mem n + ly.Node.o_pairs in
      Obs.reset ();
      let reads =
        reads_of fx (fun ~tid ->
            Alcotest.(check (option int)) (Fmt.str "%d's value" key) (Some (key + 1000))
              (SL.search fx.sl ~tid key))
      in
      check_int (Fmt.str "%d: one repair" key) 1 (Obs.total Obs.id_fp_confirm);
      Alcotest.(check (list int))
        (Fmt.str "%d: slot-line reads" key) slot_line_reads
        (List.filter (fun a -> a >= pairs && a < pairs + Config.pair_words fp_cfg) reads
        |> List.map (fun a -> (a - pairs) / Config.line_words));
      Obs.reset ())
    [ (20, [ 0; 1; 0 ]); (70, [ 0; 1 ]) ]

(* A split reads each slot line once (K = 16, four slot lines), for the
   keys, at the lines' first words, and takes the moved values from line
   copies. Keys 1 .. 16 fill one node; 17 overflows it, and the tail cut
   moves 15 and 16, both in the last slot line, whose copy the key pass
   left: no line is read again. Then 1, 31, 29, .. 3 fill a node whose
   successor's anchor is 40; 33 overflows it, close enough to the bound
   for a median cut, which moves 17 .. 31, in slots 1 .. 8: each earlier
   line holding a moved slot is read once more, from the last down. A
   split that reads keys or values as words fails. *)
let test_split_reads_each_slot_line_once () =
  List.iter
    (fun (fill, key, tail_cuts, moved_lines) ->
      let cfg = { Config.default with keys_per_node = 16 } in
      let fx = make_skiplist ~cfg ~seed:27 () in
      run1 fx.pmem (fun ~tid -> List.iter (fun k -> ignore (SL.upsert fx.sl ~tid k k)) fill);
      let n = List.hd (bottom_nodes fx) in
      check_int "the node is full" 16 (List.length (List.hd (node_keys fx)));
      let pairs = Mem.resolve fx.mem n + (Node.layout cfg).Node.o_pairs in
      Obs.reset ();
      let reads = reads_of fx (fun ~tid -> ignore (SL.upsert fx.sl ~tid key key : int option)) in
      let where = Fmt.str "split by %d" key in
      check_int (where ^ ": one split") 1 (Obs.total Obs.id_split);
      check_int (where ^ ": tail cuts") tail_cuts (Obs.total Obs.id_split_tail);
      Alcotest.(check (list int))
        (where ^ ": the old node's pair-region reads, by line")
        ([ 0; 1; 2; 3 ] @ moved_lines)
        (List.filter_map
           (fun a ->
             if a < pairs || a >= pairs + Config.pair_words cfg then None
             else if (a - pairs) mod Config.line_words <> 0 then
               Alcotest.failf "%s: a read of word %d of the pair region" where (a - pairs)
             else Some ((a - pairs) / Config.line_words))
           reads);
      Obs.reset ();
      check_no_invariant_errors fx.sl)
    [
      (List.init 16 (fun i -> i + 1), 17, 1, []);
      (40 :: 1 :: List.init 15 (fun i -> 31 - (2 * i)), 33, 0, [ 2; 1; 0 ]);
    ]

(* A range scan reads each slot line once: over a quiet K = 16 list, a
   scan of (lo, 401] reads every slot line of each node it collects once,
   at the line's first word, and nothing else in a pair region; [lo] is
   absent and matches no fingerprint of its node, so the traversal that
   places the scan reads no slot line. A scan that reads keys or values
   as words fails. *)
let test_range_reads_each_slot_line_once () =
  let cfg, fx = even_list_k16 () in
  let ly = Node.layout cfg in
  let no_candidate lo =
    let n = List.fold_left (fun acc m -> if Mem.peek_field fx.mem m Node.o_anchor <= lo then m else acc)
        (List.hd (bottom_nodes fx)) (bottom_nodes fx) in
    List.for_all
      (fun i -> Node.fp_byte (Mem.peek_field fx.mem n (Node.o_fp_slot i)) i <> Node.fingerprint lo)
      (List.init ly.Node.k Fun.id)
  in
  let lo = List.find no_candidate (List.init 50 (fun i -> 101 + (2 * i))) in
  let hi = 401 in
  let reads = ref [] in
  let got =
    let r = ref [] in
    reads := reads_of fx (fun ~tid -> r := SL.range fx.sl ~tid ~lo ~hi);
    !r
  in
  Alcotest.(check (list (pair int int)))
    "the pairs" (List.init ((hi - lo) / 2) (fun i -> (lo + 1 + (2 * i), lo + 1 + (2 * i) + 1000)))
    got;
  let nodes = SL.head fx.sl :: bottom_nodes fx in
  let pair_line a =
    List.find_map
      (fun n ->
        let p = Mem.resolve fx.mem n + ly.Node.o_pairs in
        if a >= p && a < p + Config.pair_words cfg then begin
          if (a - p) mod Config.line_words <> 0 then
            Alcotest.failf "a read of word %d of a pair region" (a - p);
          Some (n, (a - p) / Config.line_words)
        end
        else None)
      nodes
  in
  let lines = List.filter_map pair_line !reads in
  let collected = List.sort_uniq compare (List.map fst lines) in
  check_bool "several nodes collected" true (List.length collected >= 10);
  Alcotest.(check (list (pair string int)))
    "slot lines read, in order"
    (List.concat_map
       (fun n -> List.init (Node.slot_lines ly) (fun l -> (Fmt.str "%a" Riv.pp n, l)))
       (List.filter (fun n -> List.mem n collected) nodes))
    (List.map (fun (n, l) -> (Fmt.str "%a" Riv.pp n, l)) lines)

(* The successor and bound at every level of a pointer-first walk for
   [key] (host side): what the traversal recorded before upper levels
   read the hint first. *)
let pointer_first_walk fx key =
  let h = (SL.config fx.sl).Config.max_height in
  let succs = Array.make h (SL.tail fx.sl) and bounds = Array.make h Node.tail_key in
  let pred = ref (SL.head fx.sl) in
  for l = h - 1 downto 0 do
    let rec go () =
      let succ = next_at fx !pred l in
      let hint = hint_at fx !pred l in
      if hint > key then (succ, hint)
      else if anchor_at fx succ l <= key then begin
        pred := succ;
        go ()
      end
      else (succ, anchor_at fx succ l)
    in
    let succ, bound = go () in
    succs.(l) <- succ;
    bounds.(l) <- bound
  done;
  (succs, bounds)

(* A fresh node — a split's, or a new head successor — takes its
   successors at every level from the traversal's record: its next
   pointer and hint at every level must be those of a pointer-first walk
   for the inserted key, and they must be right from the first populate
   (one fiber: no CAS fails, so no link is retried to repair them). *)
let test_new_node_levels_match_walk () =
  let fx = loaded_list ~n:400 in
  let towers = ref 0 in
  for i = 0 to 399 do
    (* even keys between loaded ones, scrambled, and every 40th a key below
       every other (a new head successor) *)
    let key = if i mod 40 = 0 then 100 - (i / 40) else 102 + (2 * (i * 37 mod 400)) in
    let succs, bounds = pointer_first_walk fx key in
    let before = bottom_nodes fx in
    Obs.reset ();
    run1 fx.pmem (fun ~tid -> ignore (SL.upsert fx.sl ~tid key key));
    check_int (Fmt.str "insert %d: no failed CAS" key) 0 (Obs.total Obs.id_cas_fail);
    match List.filter (fun n -> not (List.mem n before)) (bottom_nodes fx) with
    | [] -> ()
    | [ n ] ->
        let h = Node.meta_height (Mem.peek_field fx.mem n Node.o_meta) in
        if h > 1 then incr towers;
        for l = 0 to h - 1 do
          let where = Fmt.str "insert %d, level %d" key l in
          check_bool (where ^ ": next pointer") true (Riv.equal succs.(l) (next_at fx n l));
          check_int (where ^ ": hint") bounds.(l) (hint_at fx n l)
        done
    | _ -> Alcotest.failf "insert %d linked more than one node" key
  done;
  Obs.reset ();
  check_bool "new nodes with towers checked" true (!towers >= 10);
  check_no_invariant_errors fx.sl

(* A link that lands right after the traversal's copy of a header line.
   One fiber inserts [key] (K = 1, so the insert links a fresh node after
   [m], the node below it); [m], of height 2, has been unlinked at level
   1 beforehand, so level 1 runs [p] -> [s] and the traversal stops there
   on [p]'s hint ([s]'s anchor). Right after the fiber's first read of
   [p]'s header line, the walk's copy, [m] is linked back, hint first, as
   a concurrent tower build would. The copy is one instant's view: the
   walk records [s] with the hint beside it, the new node's level-1 link
   CAS at [p] fails, and the retry links it after [m]. A walk that read
   the pointer after the hint, as separate words, would pair the old hint
   with the new pointer to [m] and link the new node before [m], out of
   order. Each fiber id draws its own tower heights; the fibers whose new
   node is at least 2 high are the checked cases. *)
let test_walk_racing_link () =
  let cfg = { Config.default with keys_per_node = 1 } in
  let ly = Node.layout cfg in
  let checked = ref 0 in
  for fiber = 0 to 15 do
    let fx = make_skiplist ~cfg ~seed:5 () in
    run1 fx.pmem (fun ~tid -> for i = 1 to 60 do ignore (SL.upsert fx.sl ~tid (10 * i) i) done);
    (* [m]: the first node of height 2 on level 1, after [p] *)
    let rec find p =
      let m = next_at fx p 1 in
      if Riv.equal m (SL.tail fx.sl) then Alcotest.fail "no node of height 2 on level 1"
      else if Node.meta_height (Mem.peek_field fx.mem m Node.o_meta) = 2 then (p, m)
      else find m
    in
    let p, m = find (SL.head fx.sl) in
    let s = next_at fx m 1 in
    Mem.poke_ptr fx.mem p (Node.o_next ly 1) s;
    Mem.poke_field fx.mem p (Node.o_hint ly 1) (anchor_at fx s 1);
    let key = anchor_at fx m 1 + 5 in
    let header = Mem.resolve fx.mem p in
    let reads = ref 0 in
    let base = Pmem.machine fx.pmem in
    let machine =
      {
        base with
        Sim.Sched.read =
          (fun ~tid a ->
            let v = base.Sim.Sched.read ~tid a in
            if a = header then begin
              incr reads;
              if !reads = 1 then begin
                Mem.poke_field fx.mem p (Node.o_hint ly 1) (anchor_at fx m 1);
                Mem.poke_ptr fx.mem p (Node.o_next ly 1) m
              end
            end;
            v);
      }
    in
    Obs.reset ();
    (match
       Sim.Sched.run ~machine [ (fiber, fun ~tid -> ignore (SL.upsert fx.sl ~tid key key)) ]
     with
    | Sim.Sched.Completed _ -> ()
    | Sim.Sched.Crashed_at _ -> Alcotest.fail "unexpected simulated crash");
    let n = next_at fx m 0 in
    if Node.meta_height (Mem.peek_field fx.mem n Node.o_meta) >= 2 then begin
      incr checked;
      check_bool (Fmt.str "fiber %d: m was linked back in the walk" fiber) true (!reads >= 1);
      check_int (Fmt.str "fiber %d: the level-1 link CAS failed once" fiber) 1
        (Obs.total Obs.id_cas_fail);
      check_bool (Fmt.str "fiber %d: level 1 runs m -> new node" fiber) true
        (Riv.equal (next_at fx m 1) n);
      check_no_invariant_errors fx.sl
    end
  done;
  Obs.reset ();
  check_bool "new nodes of height 2 or more" true (!checked >= 3)

(* A tall insert whose recorded successors above [top] went stale. Above
   the [top] its traversal read, a traversal records head -> tail. Here
   [m], the only node at level [s] of a single-key list (the first fixture
   seed whose tallest node stands one level above the rest), is unlinked
   there beforehand and [top] recomputed, so one fiber's traversal for a
   key below every other reads [top] = [s - 1]. After that traversal, at
   the fiber's first write, [m] is linked back at level [s], hint first,
   as a concurrent tower build would. A new node at least [s + 1] high
   then finds its level-[s] link CAS failing (the head no longer points at
   the tail there), re-traverses, repopulates from the fresh record and
   links in front of [m]; its own raise of [top] covers [m]'s level. Each
   fiber id draws its own tower heights; the fibers whose new node is at
   least as high as [m] are the checked cases. *)
let test_stale_successors_above_top () =
  let cfg = { Config.default with keys_per_node = 1 } in
  let ly = Node.layout cfg in
  let height fx n = Node.meta_height (Mem.peek_field fx.mem n Node.o_meta) in
  (* 12 keys loaded at [seed], with [m], the tallest node, and [s], the
     height of the next tallest *)
  let fixture ~max_threads seed =
    let fx = make_skiplist ~cfg ~max_threads ~seed () in
    run1 fx.pmem (fun ~tid -> for i = 1 to 12 do ignore (SL.upsert fx.sl ~tid (10 * i) i) done);
    let nodes = bottom_nodes fx in
    let h_m = List.fold_left (fun a n -> Int.max a (height fx n)) 0 nodes in
    let m = List.find (fun n -> height fx n = h_m) nodes in
    let s =
      List.fold_left (fun a n -> if Riv.equal n m then a else Int.max a (height fx n)) 1 nodes
    in
    (fx, m, h_m, s)
  in
  (* the first seed whose tallest node stands one level above a tower of
     at least 2 *)
  let seed =
    match
      List.find_opt
        (fun seed ->
          let _, _, h_m, s = fixture ~max_threads:1 seed in
          s >= 2 && h_m = s + 1)
        (List.init 100 (fun i -> i + 1))
    with
    | Some seed -> seed
    | None -> Alcotest.fail "no fixture seed with a tallest node standing alone"
  in
  let checked = ref 0 in
  for fiber = 0 to 63 do
    let fx, m, h_m, s = fixture ~max_threads:64 seed in
    let head = SL.head fx.sl in
    let link_m_at_upper_levels linked =
      for l = s to h_m - 1 do
        Mem.poke_field fx.mem head (Node.o_hint ly l)
          (if linked then anchor_at fx m l else Node.tail_key);
        Mem.poke_ptr fx.mem head (Node.o_next ly l) (if linked then m else SL.tail fx.sl)
      done
    in
    link_m_at_upper_levels false;
    run1 fx.pmem (fun ~tid -> SL.recover fx.sl ~tid);
    check_int "top below m's upper levels" (s - 1) (SL.top_level fx.sl);
    let writes = ref 0 in
    let base = Pmem.machine fx.pmem in
    let machine =
      {
        base with
        Sim.Sched.write =
          (fun ~tid a v ->
            incr writes;
            if !writes = 1 then link_m_at_upper_levels true;
            base.Sim.Sched.write ~tid a v);
      }
    in
    Obs.reset ();
    (match
       Sim.Sched.run ~machine [ (fiber, fun ~tid -> ignore (SL.upsert fx.sl ~tid 5 5)) ]
     with
    | Sim.Sched.Completed _ -> ()
    | Sim.Sched.Crashed_at _ -> Alcotest.fail "unexpected simulated crash");
    let n = next_at fx head 0 in
    if height fx n >= h_m then begin
      incr checked;
      let where = Fmt.str "seed %d, fiber %d" seed fiber in
      check_int (where ^ ": one link CAS failed") 1 (Obs.total Obs.id_cas_fail);
      for l = 0 to h_m - 1 do
        check_bool (Fmt.str "%s: level %d runs head -> new node" where l) true
          (Riv.equal (next_at fx head l) n)
      done;
      for l = s to h_m - 1 do
        check_bool (Fmt.str "%s: level %d runs new node -> m" where l) true
          (Riv.equal (next_at fx n l) m);
        check_int (Fmt.str "%s: level %d hint" where l) (anchor_at fx m l) (hint_at fx n l)
      done;
      check_no_invariant_errors fx.sl;
      check_audit fx where
    end
  done;
  Obs.reset ();
  check_bool "new nodes as tall as m" true (!checked >= 3)

(* A claim can run a nested traversal: a node its allocator's log still
   names from an older epoch has its tower checked by one
   ([check_insert_recovery] -> [first_unlinked]), which overwrites the
   buffer holding the claimed node's header copy. Four fibers each insert
   40 keys into single-key nodes, then a crash: each fiber's last node is
   named by its log with its tower complete, so its claim repairs nothing
   and the walk must go on from a fresh copy of the node's header. Every
   search, for each present key and the absent key above it, still ends
   on the right node. *)
let test_claim_nested_traversal () =
  let cfg = { Config.default with keys_per_node = 1 } in
  let fx = make_skiplist ~cfg ~seed:11 () in
  let threads = 4 and per = 40 in
  let key i tid = 10 * (1 + (i * threads) + tid) in
  ignore
    (run fx.pmem
       (List.init threads (fun _ ~tid ->
            for i = 0 to per - 1 do
              ignore (SL.upsert fx.sl ~tid (key i tid) (key i tid))
            done)));
  let height k =
    let n = List.find (fun n -> anchor_at fx n 0 = k) (bottom_nodes fx) in
    Node.meta_height (Mem.peek_field fx.mem n Node.o_meta)
  in
  check_bool "a fiber's last node has a tower" true
    (List.exists (fun tid -> height (key (per - 1) tid) >= 2) (List.init threads Fun.id));
  crash_and_reconnect fx;
  Obs.reset ();
  run1 fx.pmem (fun ~tid ->
      for i = 0 to per - 1 do
        for t = 0 to threads - 1 do
          let k = key i t in
          Alcotest.check opt_int (Fmt.str "search %d" k) (Some k) (SL.search fx.sl ~tid k);
          Alcotest.check opt_int (Fmt.str "search %d" (k + 1)) None (SL.search fx.sl ~tid (k + 1))
        done
      done);
  check_bool "nodes were claimed" true (Obs.total Obs.id_epoch_repair > 0);
  check_int "no tower needed a repair" 0 (Obs.total Obs.id_tower_repair);
  Obs.reset ();
  check_no_invariant_errors fx.sl

(* ---- the split point --------------------------------------------------------- *)

let node_sizes fx = List.map List.length (node_keys fx)

(* Every node but the last, whose size the tail of the run decides. *)
let all_but_last l = List.filteri (fun i _ -> i < List.length l - 1) l

(* One fiber appends 1 .. n: each overflow is at the node's top, so every
   split takes the tail cut and leaves K - K/8 keys behind. *)
let test_split_ascending () =
  List.iter
    (fun k ->
      let fx = make_skiplist ~cfg:{ Config.default with keys_per_node = k } () in
      let n = 20 * k in
      Obs.reset ();
      run1 fx.pmem (fun ~tid ->
          for key = 1 to n do
            ignore (SL.upsert fx.sl ~tid key key)
          done);
      let sizes = node_sizes fx in
      check_bool (Fmt.str "K=%d: nodes split" k) true (List.length sizes > 10);
      List.iteri
        (fun i size -> check_int (Fmt.str "K=%d: keys in node %d" k i) (k - (k / 8)) size)
        (all_but_last sizes);
      check_int (Fmt.str "K=%d: every split took the tail cut" k)
        (Obs.total Obs.id_split) (Obs.total Obs.id_split_tail);
      check_no_invariant_errors fx.sl;
      Obs.reset ())
    [ 16; 64 ]

(* A full node (K = 16: keys 10, 20, .., 160) overflowed by a key below its
   (K - K/8)-th key, or between that key and the next, splits at the
   median; a key above the (K - K/8 + 1)-th takes the tail cut, unless the
   node's successor lies closer above the key than the node's anchor lies
   below it. [succ], inserted first, is the successor's anchor. *)
let test_split_cut_rule () =
  let full = List.init 16 (fun i -> 10 * (i + 1)) in
  let expect ?succ key ~sizes ~anchor ~tail =
    let where = Fmt.str "key %d, successor %a" key Fmt.(option ~none:(any "none") int) succ in
    let fx = make_skiplist ~cfg:{ Config.default with keys_per_node = 16 } () in
    run1 fx.pmem (fun ~tid ->
        List.iter (fun k -> ignore (SL.upsert fx.sl ~tid k k)) (Option.to_list succ @ full));
    check_int (where ^ ": nodes before") (List.length (Option.to_list succ) + 1)
      (List.length (bottom_nodes fx));
    Obs.reset ();
    run1 fx.pmem (fun ~tid -> ignore (SL.upsert fx.sl ~tid key key));
    check_int (where ^ ": one split") 1 (Obs.total Obs.id_split);
    check_int (where ^ ": tail cuts") (if tail then 1 else 0) (Obs.total Obs.id_split_tail);
    Obs.reset ();
    let nodes = sorted_node_keys fx in
    Alcotest.check Alcotest.(list int) (where ^ ": node sizes") sizes
      (List.map List.length nodes);
    check_int (where ^ ": new node's anchor") anchor (List.hd (List.nth nodes 1));
    check_no_invariant_errors fx.sl
  in
  (* K/2 : K/2 before the key lands; it joins the upper half *)
  expect 135 ~sizes:[ 8; 9 ] ~anchor:90 ~tail:false;
  expect 145 ~sizes:[ 8; 9 ] ~anchor:90 ~tail:false;
  (* above the 15th key: the top K/8 = 2 keys move, and the key joins them *)
  expect 155 ~sizes:[ 14; 3 ] ~anchor:150 ~tail:true;
  expect 170 ~sizes:[ 14; 3 ] ~anchor:150 ~tail:true;
  (* the same key in front of a successor: far above, the tail cut; closer
     above 170 than 10 is below it, the median *)
  expect ~succ:10_000 170 ~sizes:[ 14; 3; 1 ] ~anchor:150 ~tail:true;
  expect ~succ:175 170 ~sizes:[ 8; 9; 1 ] ~anchor:90 ~tail:false

(* Eight fibers append interleaved ascending keys (the pattern of the
   layout benchmark's preload and fresh inserts), with start offsets swept
   across a range: every acknowledged key is found, the audit is clean, and
   every node but the last holds at least K/2 keys. The bound follows from
   the rule for any insert-only run that ends with every key of a range
   present, once key 1 anchors the first node: every split leaves at least
   K/2 keys behind, a median split moves K/2, and a tail cut's new node
   spans more than K keys of the range (the room condition), so it splits
   itself before the run ends unless it is the last node. Without the room
   condition a straggler overflowing a node behind the leading fiber took
   the tail cut and left nodes of as few as 3 keys (K = 16) and 9
   (K = 64). *)
let test_split_interleaved_appends () =
  List.iter
    (fun k ->
      for delay = 0 to 9 do
        let where = Fmt.str "K=%d delay %d" k delay in
        let fx = make_skiplist ~cfg:{ Config.default with keys_per_node = k } () in
        run1 fx.pmem (fun ~tid -> ignore (SL.upsert fx.sl ~tid 1 1));
        let fibers = 8 and per = 12 * k in
        let body ~tid =
          Sim.Sched.charge (float_of_int (tid * delay * 17));
          for i = 0 to per - 1 do
            let key = 1 + (i * fibers) + tid in
            ignore (SL.upsert fx.sl ~tid key key)
          done
        in
        ignore (run fx.pmem (List.init fibers (fun _ -> body)));
        run1 fx.pmem (fun ~tid ->
            for key = 1 to fibers * per do
              if SL.search fx.sl ~tid key <> Some key then
                Alcotest.failf "%s: acknowledged key %d missing" where key
            done);
        check_audit fx where;
        check_no_invariant_errors fx.sl;
        List.iteri
          (fun i size ->
            if size < k / 2 then
              Alcotest.failf "%s: node %d holds %d keys (sizes %a)" where i size
                Fmt.(Dump.list int) (node_sizes fx))
          (all_but_last (node_sizes fx))
      done)
    [ 16; 64 ]

(* One tail-cut split at K = 64, alone, against its flush budget. Keys
   1 .. 64 fill one node (height 1 at this seed); key 65 overflows it, and
   the split moves keys 57 .. 64 and takes 65 along into a new node of
   height 8. The split flushes each line it wrote once and no other:
   - the allocation: the log line and the arena head (one fence each);
   - the new node: its header, the 3 pair lines holding its 9 keys and
     the 2 tower lines of levels 2 .. 7 (one fence), but not its
     fingerprint line, which stays zero in the persistent image;
   - the link: the old node's header (one fence);
   - the old node: its fingerprint line, rewritten with the moved slots'
     fingerprints cleared (one fence);
   - the tower: the head's next pointer at levels 1 .. 7 (a fence each).
   The moved slots 56 .. 63 stay as they are, dead by the new node's
   anchor: no store reaches them, and their 2 pair lines are not flushed;
   nor is the unlock. So the old node's header is flushed once, and every
   flush is of a dirty line. The upsert returns at once, with no retry. *)
let test_split_flush_budget () =
  let k = 64 in
  let fx = make_skiplist ~cfg:{ Config.default with keys_per_node = k } ~seed:27 () in
  run1 fx.pmem (fun ~tid ->
      for key = 1 to k do
        ignore (SL.upsert fx.sl ~tid key key)
      done);
  let old_node = List.hd (bottom_nodes fx) in
  check_int "the old node's height" 1
    (Node.meta_height (Mem.peek_field fx.mem old_node Node.o_meta));
  let flushed = Hashtbl.create 64 and stored = Hashtbl.create 64 in
  let times line = Option.value ~default:0 (Hashtbl.find_opt flushed line) in
  let machine =
    let m = Pmem.machine fx.pmem in
    {
      m with
      Sim.Sched.flush =
        (fun ~tid a ->
          let line = a / Pmem.line_words in
          Hashtbl.replace flushed line (times line + 1);
          m.Sim.Sched.flush ~tid a);
      write =
        (fun ~tid a v ->
          Hashtbl.replace stored a ();
          m.Sim.Sched.write ~tid a v);
      cas =
        (fun ~tid a e d ->
          Hashtbl.replace stored a ();
          m.Sim.Sched.cas ~tid a e d);
    }
  in
  Pmem.reset_counters fx.pmem;
  Obs.reset ();
  let result = ref (Some 0) in
  (match
     Sim.Sched.run ~machine
       [ (0, fun ~tid -> result := SL.upsert fx.sl ~tid (k + 1) (k + 1)) ]
   with
  | Sim.Sched.Completed _ -> ()
  | Sim.Sched.Crashed_at _ -> Alcotest.fail "unexpected crash");
  Alcotest.check opt_int "the upsert returns None" None !result;
  check_int "one split" 1 (Obs.total Obs.id_split);
  check_int "a tail cut" 1 (Obs.total Obs.id_split_tail);
  let new_node =
    match bottom_nodes fx with
    | [ _; n ] -> n
    | ns -> Alcotest.failf "expected two nodes, found %d" (List.length ns)
  in
  let m = k / 8 in
  Alcotest.check Alcotest.(list (list int)) "the new node holds m + 1 keys"
    [ List.init (k - m) (fun i -> i + 1); List.init (m + 1) (fun i -> k - m + 1 + i) ]
    (sorted_node_keys fx);
  let height = Node.meta_height (Mem.peek_field fx.mem new_node Node.o_meta) in
  check_int "the new node's height" 8 height;
  let c = Pmem.counters fx.pmem in
  let line_of n i =
    match Mem.try_resolve fx.mem n with
    | Some a -> (a + i) / Pmem.line_words
    | None -> Alcotest.fail "node does not resolve"
  in
  check_int "clean flushes" 0 (c.Pmem.flushes - c.Pmem.dirty_flushes);
  check_int "dirty flushes" (2 + (1 + 3 + 2) + 1 + 1 + (height - 1)) c.Pmem.dirty_flushes;
  check_int "fences" (2 + 1 + 1 + 1 + (height - 1)) c.Pmem.fences;
  check_int "the old node's header flushes" 1 (times (line_of old_node 0));
  let ly = Node.layout (SL.config fx.sl) in
  let base = Mem.resolve fx.mem old_node in
  for i = k - m to k - 1 do
    check_bool (Fmt.str "no store to moved slot %d" i) false
      (Hashtbl.mem stored (base + Node.o_key ly i) || Hashtbl.mem stored (base + Node.o_value ly i));
    check_int (Fmt.str "moved slot %d's pair line flushes" i) 0
      (times (line_of old_node (Node.o_key ly i)))
  done;
  check_int "the new node's fingerprint line flushes" 0
    (times (line_of new_node Node.o_fp));
  check_int "the new node's fingerprint word in the persistent image" 0
    (Mem.peek_field_persistent fx.mem new_node Node.o_fp);
  check_no_invariant_errors fx.sl;
  Obs.reset ()

(* The heights of the first 200 nodes a single-fiber ascending load builds
   at a fixed seed (K = 4), in key order. Tower heights and backoff delays
   draw from one random stream per thread, so a change in how many draws
   any operation makes shows up here as an edit to this list. *)
let pinned_heights =
  [
    3; 4; 4; 5; 1; 4; 3; 2; 1; 4; 1; 3; 1; 1; 1; 3; 1; 1; 2; 1;
    1; 4; 3; 1; 2; 1; 1; 2; 1; 5; 1; 5; 2; 1; 2; 1; 4; 3; 3; 3;
    2; 1; 4; 2; 1; 1; 1; 1; 2; 3; 4; 1; 1; 1; 1; 1; 1; 2; 2; 3;
    1; 1; 1; 3; 4; 2; 1; 1; 1; 2; 1; 3; 1; 1; 1; 1; 1; 2; 5; 2;
    1; 2; 1; 8; 11; 2; 3; 1; 5; 1; 1; 2; 1; 2; 1; 1; 1; 6; 3; 1;
    1; 1; 2; 4; 1; 5; 1; 3; 1; 1; 4; 2; 4; 2; 2; 2; 6; 3; 1; 4;
    1; 4; 1; 3; 6; 1; 1; 2; 2; 4; 1; 1; 1; 1; 1; 5; 1; 1; 2; 1;
    2; 1; 3; 2; 2; 3; 1; 3; 3; 1; 1; 1; 2; 3; 4; 4; 1; 1; 3; 3;
    2; 1; 3; 2; 1; 1; 2; 3; 1; 2; 1; 1; 1; 1; 1; 2; 2; 6; 1; 9;
    3; 1; 3; 1; 2; 1; 3; 1; 2; 2; 1; 1; 4; 5; 1; 1; 1; 2; 5; 1
  ]

let test_tower_heights_pinned () =
  let fx = make_skiplist ~cfg:{ Config.default with keys_per_node = 4 } ~seed:5 () in
  run1 fx.pmem (fun ~tid ->
      let key = ref 0 in
      while List.length (bottom_nodes fx) < 200 do
        incr key;
        ignore (SL.upsert fx.sl ~tid !key !key)
      done);
  let heights =
    List.map
      (fun n -> Node.meta_height (Mem.peek_field fx.mem n Node.o_meta))
      (bottom_nodes fx)
  in
  Alcotest.check Alcotest.(list int) "tower heights" pinned_heights heights

(* ---- tombstoning removal ---------------------------------------------------- *)

let test_search_after_removal () =
  let fx = make_skiplist () in
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

let test_reinsert_after_removal () =
  let fx = make_skiplist () in
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

let test_concurrent_remove_insert () =
  let fx = make_skiplist () in
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

let test_readers_survive_concurrent_removal () =
  let fx = make_skiplist () in
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

let test_crash_during_removal () =
  (* crash somewhere inside a mass removal: acked removes must stay
     removed, the persistent heap audits clean, and the structure stays
     usable *)
  let setup () =
    let fx = make_skiplist () in
    run1 fx.pmem (fun ~tid ->
        for k = 1 to 200 do
          ignore (SL.upsert fx.sl ~tid k k)
        done);
    fx
  in
  let removals fx acked =
    List.init 4 (fun _ ~tid ->
        for i = 0 to 49 do
          let k = 1 + (i * 4) + tid in
          ignore (SL.remove fx.sl ~tid k);
          acked.(tid) <- k :: acked.(tid)
        done)
  in
  (* crash in the removals' last 0.3 % *)
  let events =
    crash_point 0.997 ~dry_run:(fun () ->
        let fx = setup () in
        snd (run fx.pmem (removals fx (Array.make 4 []))))
  in
  let fx = setup () in
  let acked = Array.make 4 [] in
  ignore (run_crash fx.pmem ~events (removals fx acked));
  Pmem.crash fx.pmem;
  Mem.reconnect fx.mem;
  Alcotest.(check (list string)) "audit clean after the crash" []
    (SL.audit_persistent fx.sl);
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

(* model check with small nodes: fingerprints, hints and splits under
   removes *)
let prop_model_with_extensions =
  let module M = Map.Make (Int) in
  qcase ~count:25 "model equivalence, both extensions (qcheck)"
    QCheck.(
      list_of_size (QCheck.Gen.int_range 10 150)
        (pair (int_range 1 50) (int_range 0 3)))
    (fun ops ->
      let fx = make_skiplist ~cfg:{ Config.default with keys_per_node = 4 } () in
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
          case "lost fingerprint line: a lookup reads fp_ok first"
            test_fp_ok_read_before_words;
        ] );
      ( "hints",
        [
          slow_case "crash grid: split" test_split_crash_grid;
          slow_case "crash grid: median split" test_median_split_crash_grid;
          slow_case "crash grid: median split, key kept in the old node"
            test_median_split_old_half_crash_grid;
          case "readers never miss a key a split or tower build moves"
            test_hint_reader_order;
          case "top level recomputed after a crash" test_top_after_crash;
          case "a level ends on a hint without loading its successor" test_hint_read_order;
          case "a header hop reads its line once" test_header_hop_one_line_read;
          case "an upper hop reads its tower line once" test_upper_hop_one_line_read;
          case "a hop prefetches the next line down on the node it enters"
            test_hop_prefetches_line_below;
          case "a fresh node's populate reads no line" test_populate_reads_no_line;
          case "a lookup reads its fingerprint line once" test_fp_line_one_read;
          case "a found lookup reads its slot line once"
            test_found_lookup_reads_its_slot_line_once;
          case "a key found by a repair answers with its own value"
            test_key_found_by_repair_answers_its_own_value;
          case "a split reads each slot line once" test_split_reads_each_slot_line_once;
          case "a range scan reads each slot line once" test_range_reads_each_slot_line_once;
          case "a new node's levels match a pointer-first walk"
            test_new_node_levels_match_walk;
          case "a link racing the walk's line copy" test_walk_racing_link;
          case "a tall insert's stale successors above top" test_stale_successors_above_top;
          case "a claim's nested traversal leaves the walk on its node"
            test_claim_nested_traversal;
        ] );
      ( "dead slots",
        [
          slow_case "crash grid: a claim reclaims a dead slot" test_dead_slot_claim_crash_grid;
          case "an interrupted split needs no repair" test_interrupted_split_needs_no_repair;
          case "a lookup across a split skips a dead slot being claimed"
            test_lookup_across_split_skips_a_dead_slot_being_claimed;
          case "racing claims of one key meet at a dead slot"
            test_racing_claims_of_one_key_meet_at_a_dead_slot;
          case "an update across a split retries into the new node"
            test_update_across_split_retries_into_the_new_node;
        ] );
      ( "split point",
        [
          case "ascending appends leave nodes K - K/8 full" test_split_ascending;
          case "cut rule: median or tail" test_split_cut_rule;
          case "interleaved appends: found, audited, half full"
            test_split_interleaved_appends;
          case "one split's flush budget" test_split_flush_budget;
          case "tower heights of an ascending load are pinned" test_tower_heights_pinned;
        ] );
      ( "layout",
        [
          case "audit flags over-height towers" test_audit_catches_overheight_towers;
        ] );
      ( "removal",
        [
          case "search after removal" test_search_after_removal;
          case "reinsert after removal" test_reinsert_after_removal;
          case "concurrent remove/insert" test_concurrent_remove_insert;
          case "readers survive removal" test_readers_survive_concurrent_removal;
          case "crash during removal" test_crash_during_removal;
        ] );
      ("model", [ prop_model_with_extensions ]);
    ]
