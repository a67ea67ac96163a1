(* Crash-recovery behaviour of UPSkipList: epoch-based lazy repair,
   durability of acknowledged operations, interrupted splits and tower
   builds, allocation-log reclamation, repeated crashes, and the recovery
   throttling budget (paper Sections 4.1.3-4.5.2). *)

open Testsupport
module SL = Upskiplist.Skiplist
module Config = Upskiplist.Config
module Mem = Memory.Mem
module Block_alloc = Memory.Block_alloc

let opt_int = Alcotest.(option int)

(* Run an insert workload on a fixture from [make], crash it [fraction] of
   the way through the same workload's crash-free run on a fresh fixture
   (a dry run), reconnect, and return the fixture and the keys whose
   upsert was acknowledged before the crash. *)
let crash_during_inserts ?(threads = 4) ?(per_thread = 400) ?persist_line ~fraction make =
  let bodies fx acked =
    List.init threads (fun _ ~tid ->
        for i = 0 to per_thread - 1 do
          let k = 1 + (i * threads) + tid in
          ignore (SL.upsert fx.sl ~tid k (k * 2));
          acked.(tid) <- k :: acked.(tid)
        done)
  in
  let events =
    crash_point fraction ~dry_run:(fun () ->
        let fx = make () in
        snd (run fx.pmem (bodies fx (Array.make threads []))))
  in
  let fx = make () in
  let acked = Array.make threads [] in
  ignore (run_crash fx.pmem ~events (bodies fx acked));
  Pmem.crash ?persist_line fx.pmem;
  Mem.reconnect fx.mem;
  (fx, Array.to_list acked |> List.concat)

let test_acked_inserts_survive () =
  let fx, acked = crash_during_inserts ~fraction:0.9 make_skiplist in
  check_bool "some inserts acked before crash" true (List.length acked > 50);
  run1 fx.pmem (fun ~tid ->
      List.iter
        (fun k ->
          Alcotest.check opt_int
            (Printf.sprintf "acked key %d survives" k)
            (Some (k * 2)) (SL.search fx.sl ~tid k))
        acked)

let test_acked_updates_survive () =
  let setup () =
    let fx = make_skiplist () in
    run1 fx.pmem (fun ~tid ->
        for k = 1 to 100 do
          ignore (SL.upsert fx.sl ~tid k k)
        done);
    fx
  in
  (* updates acked before the crash must survive it *)
  let updates fx acked =
    List.init 4 (fun _ ~tid ->
        for k = 1 to 100 do
          if k mod 4 = tid then begin
            ignore (SL.upsert fx.sl ~tid k (k + 777));
            acked := k :: !acked
          end
        done)
  in
  (* crash 95 % of the way through the updates *)
  let events =
    crash_point 0.95 ~dry_run:(fun () ->
        let fx = setup () in
        snd (run fx.pmem (updates fx (ref []))))
  in
  let fx = setup () in
  let acked = ref [] in
  ignore (run_crash fx.pmem ~events (updates fx acked));
  Pmem.crash fx.pmem;
  Mem.reconnect fx.mem;
  run1 fx.pmem (fun ~tid ->
      List.iter
        (fun k ->
          Alcotest.check opt_int "acked update survives" (Some (k + 777))
            (SL.search fx.sl ~tid k))
        !acked)

let test_acked_removes_survive () =
  let fx = make_skiplist () in
  run1 fx.pmem (fun ~tid ->
      for k = 1 to 50 do
        ignore (SL.upsert fx.sl ~tid k k)
      done;
      for k = 1 to 25 do
        ignore (SL.remove fx.sl ~tid k)
      done);
  Pmem.crash fx.pmem;
  Mem.reconnect fx.mem;
  run1 fx.pmem (fun ~tid ->
      for k = 1 to 25 do
        Alcotest.check opt_int "removed stays removed" None (SL.search fx.sl ~tid k)
      done;
      for k = 26 to 50 do
        Alcotest.check opt_int "kept" (Some k) (SL.search fx.sl ~tid k)
      done)

let test_structure_usable_after_crash () =
  let fx, _ = crash_during_inserts ~fraction:0.6 make_skiplist in
  (* post-crash writes and reads work, and repairs restore the invariants *)
  run1 fx.pmem (fun ~tid ->
      for k = 100_000 to 100_200 do
        ignore (SL.upsert fx.sl ~tid k k)
      done;
      for k = 100_000 to 100_200 do
        Alcotest.check opt_int "new insert found" (Some k) (SL.search fx.sl ~tid k)
      done)

let test_invariants_restored_after_retouch () =
  let fx, acked =
    crash_during_inserts ~threads:6 ~per_thread:200 ~fraction:0.7
      (make_skiplist ~cfg:{ Config.default with keys_per_node = 4 })
  in
  (* touching every key forces every node to be visited and repaired *)
  run1 fx.pmem (fun ~tid ->
      List.iter (fun k -> ignore (SL.upsert fx.sl ~tid k (k * 2))) acked;
      List.iter (fun k -> ignore (SL.search fx.sl ~tid k)) acked);
  check_no_invariant_errors fx.sl

let test_repeated_crashes () =
  let fx = make_skiplist () in
  let all_acked = ref [] in
  for round = 0 to 2 do
    let acked = Array.make 4 [] in
    let body ~tid =
      for i = 0 to 199 do
        let k = 1 + (round * 10_000) + (i * 4) + tid in
        ignore (SL.upsert fx.sl ~tid k (k * 2));
        acked.(tid) <- k :: acked.(tid)
      done
    in
    ignore (run_crash fx.pmem ~events:20_000 (List.init 4 (fun _ -> body)));
    Pmem.crash fx.pmem;
    Mem.reconnect fx.mem;
    all_acked := (Array.to_list acked |> List.concat) @ !all_acked
  done;
  check_int "three eras" 4 (Mem.epoch fx.mem);
  run1 fx.pmem (fun ~tid ->
      List.iter
        (fun k ->
          Alcotest.check opt_int "survives all crashes" (Some (k * 2))
            (SL.search fx.sl ~tid k))
        !all_acked)

let test_crash_with_random_eviction () =
  (* random cache evictions at crash time persist extra lines; acked ops
     must still be exactly preserved *)
  let make () =
    let pmem = fast_pmem ~seed:7 () in
    let cfg = Config.default in
    let block_words = SL.required_block_words cfg in
    let mem = make_mem ~block_words pmem in
    let sl = SL.create ~mem ~cfg ~max_threads:16 ~seed:7 in
    { pmem; mem; sl }
  in
  let coin = Sim.Rng.create 7 in
  let fx, acked =
    crash_during_inserts ~fraction:0.6 make
      ~persist_line:(fun ~pool:_ ~line:_ -> Sim.Rng.float coin < 0.5)
  in
  run1 fx.pmem (fun ~tid ->
      List.iter
        (fun k ->
          Alcotest.check opt_int "acked survives eviction-crash" (Some (k * 2))
            (SL.search fx.sl ~tid k))
        acked)

let test_block_conservation_after_crash () =
  (* no allocator block may leak across a crash once each thread has
     performed its next allocation (deferred log recovery, Function 3) *)
  let threads = 4 in
  let fx, _ =
    crash_during_inserts ~threads ~fraction:0.5
      (make_skiplist ~cfg:{ Config.default with keys_per_node = 4 })
  in
  (* force every thread to allocate again: log checks reclaim lost blocks *)
  let body ~tid =
    for i = 0 to 30 do
      ignore (SL.upsert fx.sl ~tid (500_000 + (i * threads) + tid) 1)
    done
  in
  ignore (run fx.pmem (List.init threads (fun _ -> body)));
  let total_blocks = Mem.total_blocks fx.mem in
  let free =
    let acc = ref 0 in
    for pool = 0 to Mem.n_pools fx.mem - 1 do
      for arena = 0 to fx.mem.Mem.n_arenas - 1 do
        acc := !acc + Block_alloc.free_list_length fx.mem ~pool ~arena
      done
    done;
    !acc
  in
  let in_structure = SL.node_count fx.sl in
  (* every block is either free or a linked node; allow the blocks still
     named in per-thread logs whose owners have not allocated again *)
  check_bool
    (Printf.sprintf "conservation: %d free + %d linked vs %d total" free
       in_structure total_blocks)
    true
    (free + in_structure = total_blocks)

let test_epoch_claim_is_per_node () =
  let fx = make_skiplist () in
  run1 fx.pmem (fun ~tid ->
      for k = 1 to 50 do
        ignore (SL.upsert fx.sl ~tid k k)
      done);
  Pmem.crash fx.pmem;
  Mem.reconnect fx.mem;
  (* a single search touches nodes on its path; their epochs advance *)
  run1 fx.pmem (fun ~tid -> ignore (SL.search fx.sl ~tid 25));
  let mem = SL.mem fx.sl in
  let visited_current =
    let rec walk n acc =
      if Memory.Riv.equal n (SL.tail fx.sl) then acc
      else begin
        let e = Mem.peek_field mem n Upskiplist.Node.o_epoch in
        walk
          (Memory.Riv.of_word
             (Mem.peek_field mem n Upskiplist.Node.o_next0))
          (if e = Mem.epoch mem then acc + 1 else acc)
      end
    in
    walk
      (Memory.Riv.of_word
         (Mem.peek_field mem (SL.head fx.sl) Upskiplist.Node.o_next0))
      0
  in
  check_bool "some nodes recovered lazily" true (visited_current > 0)

let test_zero_budget_still_correct () =
  (* recovery_budget = 0: traversals only repair locked nodes (split
     recovery); reads remain correct because towers are optional paths *)
  let fx, acked =
    crash_during_inserts ~fraction:0.6
      (make_skiplist ~cfg:{ Config.default with recovery_budget = 0 })
  in
  run1 fx.pmem (fun ~tid ->
      List.iter
        (fun k ->
          Alcotest.check opt_int "correct with zero budget" (Some (k * 2))
            (SL.search fx.sl ~tid k))
        acked)

let test_crash_before_any_flush () =
  let fx = make_skiplist () in
  ignore (run_crash fx.pmem ~events:3 [ (fun ~tid -> ignore (SL.upsert fx.sl ~tid 1 1)) ]);
  Pmem.crash fx.pmem;
  Mem.reconnect fx.mem;
  run1 fx.pmem (fun ~tid ->
      Alcotest.check opt_int "nothing acked, nothing found" None
        (SL.search fx.sl ~tid 1);
      Alcotest.check opt_int "insert works" None (SL.upsert fx.sl ~tid 1 10))


(* ---- what a claim repairs ------------------------------------------------ *)

module Node = Upskiplist.Node
module Riv = Memory.Riv

let claim_cfg = { Config.default with keys_per_node = 4 }

(* After a crash that interrupted no insert, first touches only claim: no
   node's tower needs a check (no log names an unfinished insert), so a
   search does no tower repair, never restarts, and flushes nothing (the
   epoch bump is not persisted). *)
let test_cold_search_repairs_nothing () =
  let fx = make_skiplist ~cfg:claim_cfg () in
  let keys = List.init 400 (fun i -> 1 + (2 * i)) in
  run1 fx.pmem (fun ~tid -> List.iter (fun k -> ignore (SL.upsert fx.sl ~tid k k)) keys);
  crash_and_reconnect fx;
  run1 fx.pmem (fun ~tid -> SL.recover fx.sl ~tid);
  Obs.reset ();
  let flushes () = (Pmem.counters fx.pmem).Pmem.flushes in
  let before = flushes () in
  run1 fx.pmem (fun ~tid ->
      List.iter
        (fun k -> Alcotest.check opt_int "found after the crash" (Some k) (SL.search fx.sl ~tid k))
        keys);
  check_bool "old-epoch nodes were claimed" true (Obs.total Obs.id_epoch_repair > 0);
  check_int "tower repairs" 0 (Obs.total Obs.id_tower_repair);
  check_int "restarts" 0 (Obs.total Obs.id_restart);
  check_int "flushes" 0 (flushes () - before);
  check_no_invariant_errors fx.sl

(* The levels of [n]'s tower at which it is linked, from the bottom up
   (volatile image, host side). *)
let linked_levels fx n =
  let ly = Node.layout (SL.config fx.sl) in
  let h = Node.meta_height (Mem.peek_field fx.mem n Node.o_meta) in
  let on_level level =
    let rec walk p =
      (not (Riv.is_null p))
      && (not (Riv.equal p (SL.tail fx.sl)))
      && (Riv.equal p n || walk (Mem.peek_ptr fx.mem p (Node.o_next ly level)))
    in
    walk (Mem.peek_ptr fx.mem (SL.head fx.sl) (Node.o_next ly level))
  in
  let rec count l = if l < h && on_level l then count (l + 1) else l in
  (count 0, h)

(* The node whose anchor is [key], if the bottom level reaches one. *)
let node_of fx key =
  let rec walk p =
    if Riv.is_null p || Riv.equal p (SL.tail fx.sl) then None
    else if Mem.peek_field fx.mem p Node.o_anchor = key then Some p
    else walk (Mem.peek_ptr fx.mem p Node.o_next0)
  in
  walk (Mem.peek_ptr fx.mem (SL.head fx.sl) Node.o_next0)

(* Thread 1 (the owner) inserts [key] below every preloaded key, so the
   insert links a new node after the head; thread 0 preloads. *)
let owner = 1
let owner_key = 50

let tall_fixture ?(cfg = claim_cfg) seed =
  let fx = make_skiplist ~cfg ~seed () in
  run1 fx.pmem (fun ~tid ->
      for i = 0 to 60 do
        ignore (SL.upsert fx.sl ~tid (100 + (2 * i)) 1)
      done);
  fx

let as_thread tid body = List.init (tid + 1) (fun i -> if i = tid then body else fun ~tid:_ -> ())

let owner_insert fx ~tid = ignore (SL.upsert fx.sl ~tid owner_key 7)

(* A fixture seed whose owner insert builds a node at least four levels
   tall, and the events that insert takes. *)
let tall_seed () =
  let rec try_seed seed =
    let fx = tall_fixture seed in
    let _, events = run fx.pmem (as_thread owner (owner_insert fx)) in
    match node_of fx owner_key with
    | Some n when snd (linked_levels fx n) >= 4 -> (seed, events)
    | _ -> try_seed (seed + 1)
  in
  try_seed 1

(* Crash the owner's insert after [events] events, then crash once more
   with nothing run in between. Returns the node when the first crash cut
   its tower: linked at level 0 but not at every level below its height. *)
let cut_tower_twice seed events =
  let fx = tall_fixture seed in
  ignore (run_crash fx.pmem ~events (as_thread owner (owner_insert fx)));
  crash_and_reconnect fx;
  run1 fx.pmem (fun ~tid -> SL.recover fx.sl ~tid);
  match node_of fx owner_key with
  | Some n ->
      let linked, h = linked_levels fx n in
      if linked >= 1 && linked < h then begin
        crash_and_reconnect fx;
        run1 fx.pmem (fun ~tid -> SL.recover fx.sl ~tid);
        Some (fx, n)
      end
      else None
  | None -> None

(* Every crash point of the owner's insert that leaves its tower cut, left
   untouched through a second crash: the owner's next allocation completes
   the tower before it overwrites its log entry, and before that
   allocation another thread's claim, directed by the same entry,
   completes it. *)
let test_cut_tower_two_crash_grid () =
  let seed, events = tall_seed () in
  let cut = ref 0 in
  for e = 1 to events - 1 do
    (match cut_tower_twice seed e with
    | None -> ()
    | Some (fx, n) ->
        incr cut;
        (* a key below node [n]: the owner's traversal passes nothing, and
           its allocation links a new head successor *)
        Obs.reset ();
        run fx.pmem (as_thread owner (fun ~tid -> ignore (SL.upsert fx.sl ~tid 10 1)))
        |> ignore;
        let linked, h = linked_levels fx n in
        check_int (Printf.sprintf "event %d: owner's allocation completes the tower" e)
          h linked;
        check_int (Printf.sprintf "event %d: one tower repair" e) 1
          (Obs.total Obs.id_tower_repair);
        check_no_invariant_errors fx.sl;
        check_int "audit clean" 0 (List.length (SL.audit_persistent fx.sl)));
    match cut_tower_twice seed e with
    | None -> ()
    | Some (fx, n) ->
        run1 fx.pmem (fun ~tid ->
            Alcotest.check opt_int "the owner's key" (Some 7) (SL.search fx.sl ~tid owner_key));
        let linked, h = linked_levels fx n in
        check_int (Printf.sprintf "event %d: a claim completes the tower" e) h linked;
        check_no_invariant_errors fx.sl
  done;
  check_bool (Printf.sprintf "some of %d crash points cut the tower" events) true (!cut > 0)

(* A writer bit under the current stamp belongs to a live writer. With a
   zero budget no traversal claims the owner's logged node, so the owner
   fills it and splits it unclaimed; the allocation inside that split
   claims the node under the owner rule, and must not repair the split in
   flight as an interrupted one. The split runs alone on a machine that
   records every store: none reaches the slot it moves, which stays in
   place, dead by the new node's anchor, and the owner's unlock clears the
   writer bit. *)
let test_live_split_is_not_interrupted () =
  let seed, _ = tall_seed () in
  let fx = tall_fixture ~cfg:{ claim_cfg with recovery_budget = 0 } seed in
  run fx.pmem (as_thread owner (owner_insert fx)) |> ignore;
  crash_and_reconnect fx;
  run1 fx.pmem (fun ~tid -> SL.recover fx.sl ~tid);
  Obs.reset ();
  let k = claim_cfg.Config.keys_per_node in
  let upsert_all keys ~tid = List.iter (fun key -> ignore (SL.upsert fx.sl ~tid key key)) keys in
  run fx.pmem (as_thread owner (upsert_all (List.init (k - 1) (fun i -> owner_key + 1 + i))))
  |> ignore;
  check_int "the node is full, unsplit" 0 (Obs.total Obs.id_split);
  let stored = Hashtbl.create 64 in
  let m = Pmem.machine fx.pmem in
  let machine =
    {
      m with
      Sim.Sched.write =
        (fun ~tid a v ->
          Hashtbl.replace stored a ();
          m.Sim.Sched.write ~tid a v);
      cas =
        (fun ~tid a e d ->
          Hashtbl.replace stored a ();
          m.Sim.Sched.cas ~tid a e d);
    }
  in
  (match
     Sim.Sched.run ~machine
       (List.mapi (fun tid body -> (tid, body)) (as_thread owner (upsert_all [ owner_key + k ])))
   with
  | Sim.Sched.Completed _ -> ()
  | Sim.Sched.Crashed_at _ -> Alcotest.fail "unexpected simulated crash");
  check_int "one split" 1 (Obs.total Obs.id_split);
  check_int "the owner rule claimed the node" 1 (Obs.total Obs.id_epoch_repair);
  let n = Option.get (node_of fx owner_key) in
  let ly = Node.layout claim_cfg in
  let succ = Mem.peek_ptr fx.mem n Node.o_next0 in
  let bound = Mem.peek_field fx.mem succ Node.o_anchor in
  let moved = List.filter (fun i -> Mem.peek_field fx.mem n (Node.o_key ly i) >= bound) (List.init k Fun.id) in
  check_bool "the split left a moved slot in place" true (moved <> []);
  let base = Mem.resolve fx.mem n in
  List.iter
    (fun i ->
      check_bool (Printf.sprintf "no store to moved slot %d" i) false
        (Hashtbl.mem stored (base + Node.o_key ly i) || Hashtbl.mem stored (base + Node.o_value ly i)))
    moved;
  check_bool "the owner's unlock cleared the writer bit" false
    (Mem.peek_field fx.mem n Node.o_lock land Node.writer_bit <> 0);
  check_no_invariant_errors fx.sl;
  run1 fx.pmem (fun ~tid ->
      for key = owner_key + 1 to owner_key + k do
        Alcotest.check opt_int "inserted" (Some key) (SL.search fx.sl ~tid key)
      done)

(* ---- one-line upper hops -------------------------------------------------- *)

(* On a fixed tree, a search reads no header-line word of a node it passes
   only above level 1: such a hop reads the tower line alone (pointer, hint
   and anchor copy), and Function 10 runs only at levels 1 and 0. The one
   node of the upper levels that a search continues from at level 1 is its
   level-2 predecessor. *)
let test_upper_hops_read_one_line () =
  let fx = make_skiplist ~cfg:claim_cfg () in
  run1 fx.pmem (fun ~tid ->
      for k = 1 to 2_000 do
        ignore (SL.upsert fx.sl ~tid k k)
      done);
  let ly = Node.layout claim_cfg in
  let line a = a / Config.line_words in
  let nodes =
    let rec walk p acc =
      if Riv.equal p (SL.tail fx.sl) then acc
      else walk (Mem.peek_ptr fx.mem p Node.o_next0) (p :: acc)
    in
    walk (Mem.peek_ptr fx.mem (SL.head fx.sl) Node.o_next0) []
  in
  let height n = Node.meta_height (Mem.peek_field fx.mem n Node.o_meta) in
  (* the last node on level 2 whose anchor is at most [key] *)
  let pred2 key =
    let rec walk p =
      let q = Mem.peek_ptr fx.mem p (Node.o_next ly 2) in
      if Riv.equal q (SL.tail fx.sl) || Mem.peek_field fx.mem q Node.o_anchor > key then p
      else walk q
    in
    walk (SL.head fx.sl)
  in
  let routed_only = ref 0 in
  List.iter
    (fun key ->
      let lines = Hashtbl.create 64 in
      let m = Pmem.machine fx.pmem in
      let machine =
        { m with Sim.Sched.read = (fun ~tid a -> Hashtbl.replace lines (line a) (); m.read ~tid a) }
      in
      (match
         Sim.Sched.run ~machine
           [ (0, fun ~tid -> Alcotest.check opt_int "found" (Some key) (SL.search fx.sl ~tid key)) ]
       with
      | Sim.Sched.Completed _ -> ()
      | Sim.Sched.Crashed_at _ -> Alcotest.fail "unexpected crash");
      let p2 = pred2 key in
      List.iter
        (fun n ->
          let base = Mem.resolve fx.mem n in
          let tower_read =
            List.exists
              (fun g -> Hashtbl.mem lines (line (base + ly.Node.o_tower) + g))
              (List.init (Node.tower_lines (height n)) Fun.id)
          in
          if tower_read && not (Riv.equal n p2) then begin
            incr routed_only;
            check_bool
              (Printf.sprintf "search %d: header of a node passed above level 1" key)
              false
              (Hashtbl.mem lines (line base))
          end)
        nodes)
    [ 3; 500; 999; 1_234; 1_777; 2_000 ];
  check_bool "searches passed nodes above level 1" true (!routed_only > 0)

let () =
  Alcotest.run "skiplist_recovery"
    [
      ( "durability",
        [
          case "acked inserts survive" test_acked_inserts_survive;
          case "acked updates survive" test_acked_updates_survive;
          case "acked removes survive" test_acked_removes_survive;
          case "eviction-crash durability" test_crash_with_random_eviction;
        ] );
      ( "repair",
        [
          case "usable after crash" test_structure_usable_after_crash;
          case "invariants after retouch" test_invariants_restored_after_retouch;
          case "repeated crashes" test_repeated_crashes;
          case "lazy per-node epochs" test_epoch_claim_is_per_node;
          case "zero recovery budget" test_zero_budget_still_correct;
          case "crash before any flush" test_crash_before_any_flush;
        ] );
      ( "allocation",
        [ case "block conservation" test_block_conservation_after_crash ] );
      ( "claims",
        [
          case "a cold search repairs nothing" test_cold_search_repairs_nothing;
          case "two-crash grid: a cut tower, owner or claim" test_cut_tower_two_crash_grid;
          case "a live split is not an interrupted one" test_live_split_is_not_interrupted;
          case "upper hops read one line" test_upper_hops_read_one_line;
        ] );
    ]
