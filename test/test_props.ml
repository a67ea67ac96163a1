(* Property-based tests (qcheck): UPSkipList against a model map under
   random operation sequences — sequential, concurrent, and with a crash in
   the middle — plus allocator and RIV properties under random loads. *)

open Testsupport
module SL = Upskiplist.Skiplist
module Config = Upskiplist.Config

(* random op sequences over a small keyspace *)
type op = Ins of int * int | Del of int | Get of int | Rng of int * int

let op_gen keyspace =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun k v -> Ins (k, v + 1)) (int_range 1 keyspace) (int_range 1 10_000));
        (2, map (fun k -> Del k) (int_range 1 keyspace));
        (3, map (fun k -> Get k) (int_range 1 keyspace));
        (1, map2 (fun a b -> Rng (min a b, max a b)) (int_range 1 keyspace) (int_range 1 keyspace));
      ])

let ops_arb keyspace n =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Ins (k, v) -> Printf.sprintf "I(%d,%d)" k v
             | Del k -> Printf.sprintf "D(%d)" k
             | Get k -> Printf.sprintf "G(%d)" k
             | Rng (a, b) -> Printf.sprintf "R(%d,%d)" a b)
           ops))
    QCheck.Gen.(list_size (int_range 1 n) (op_gen keyspace))

(* model: a plain assoc map *)
module M = Map.Make (Int)

let apply_model model = function
  | Ins (k, v) -> M.add k v model
  | Del k -> M.remove k model
  | Get _ | Rng _ -> model

(* sequential equivalence with the model, checking every observation *)
let prop_sequential_model cfg ops =
  let fx = make_skiplist ~cfg () in
  let ok = ref true in
  run1 fx.pmem (fun ~tid ->
      let model = ref M.empty in
      List.iter
        (fun op ->
          (match op with
          | Ins (k, v) ->
              let expected = M.find_opt k !model in
              let got = SL.upsert fx.sl ~tid k v in
              if got <> expected then ok := false
          | Del k ->
              let expected = M.find_opt k !model in
              let got = SL.remove fx.sl ~tid k in
              if got <> expected then ok := false
          | Get k ->
              if SL.search fx.sl ~tid k <> M.find_opt k !model then ok := false
          | Rng (a, b) ->
              let got = SL.range fx.sl ~tid ~lo:a ~hi:b in
              let expected =
                M.bindings (M.filter (fun k _ -> k >= a && k <= b) !model)
              in
              if got <> expected then ok := false);
          model := apply_model !model op)
        ops);
  !ok
  && SL.to_alist fx.sl
     = M.bindings
         (List.fold_left apply_model M.empty ops)
  && SL.check_invariants fx.sl = []

let prop_concurrent_disjoint seeds =
  (* each thread applies its own ops to a disjoint key region; the final
     state must equal the union of per-thread models *)
  let threads = List.length seeds in
  if threads = 0 then true
  else begin
    let fx = make_skiplist ~cfg:{ Config.default with keys_per_node = 4 } () in
    let models = Array.make threads M.empty in
    let bodies =
      List.mapi
        (fun i seed ->
          fun ~tid ->
            let rng = Sim.Rng.create seed in
            for _ = 1 to 60 do
              let k = 1 + (i * 1000) + Sim.Rng.int rng 50 in
              if Sim.Rng.int rng 4 = 0 then begin
                ignore (SL.remove fx.sl ~tid k);
                models.(i) <- M.remove k models.(i)
              end
              else begin
                let v = 1 + Sim.Rng.int rng 1000 in
                ignore (SL.upsert fx.sl ~tid k v);
                models.(i) <- M.add k v models.(i)
              end
            done)
        seeds
    in
    ignore (run fx.pmem bodies);
    let merged =
      Array.fold_left (fun acc m -> M.union (fun _ a _ -> Some a) acc m) M.empty models
    in
    SL.to_alist fx.sl = M.bindings merged && SL.check_invariants fx.sl = []
  end

let prop_crash_keeps_acked (seed, crash_events) =
  (* random crash point: acked inserts must survive; unacked keys may or
     may not exist, but values must never be corrupted *)
  let fx = make_skiplist ~cfg:{ Config.default with keys_per_node = 4 } ~seed () in
  let threads = 3 in
  let acked = Array.make threads [] in
  let body ~tid =
    for i = 0 to 149 do
      let k = 1 + (i * threads) + tid in
      ignore (SL.upsert fx.sl ~tid k (k * 2));
      acked.(tid) <- k :: acked.(tid)
    done
  in
  (match
     Sim.Sched.run
       ~crash:(Sim.Sched.After_events (500 + crash_events))
       ~machine:(Pmem.machine fx.pmem)
       (List.init threads (fun tid -> (tid, body)))
   with
  | Sim.Sched.Crashed_at _ -> ()
  | Sim.Sched.Completed _ -> ());
  Pmem.crash fx.pmem;
  Memory.Mem.reconnect fx.mem;
  let ok = ref true in
  run1 fx.pmem (fun ~tid ->
      Array.iter
        (List.iter (fun k ->
             match SL.search fx.sl ~tid k with
             | Some v when v = k * 2 -> ()
             | _ -> ok := false))
        acked;
      (* any other surviving pair must carry an uncorrupted value *)
      List.iter
        (fun (k, v) -> if v <> k * 2 then ok := false)
        (SL.to_alist fx.sl));
  !ok

let prop_alloc_no_double (seed, n_threads) =
  let pmem = fast_pmem ~seed () in
  let mem = make_mem ~block_words:16 ~blocks_per_chunk:8 ~n_arenas:2 pmem in
  let dummy = Memory.Mem.root_alloc mem ~pool:0 ~words:8 in
  Memory.Mem.poke_field mem dummy 5 max_int;
  let ops =
    {
      Memory.Block_alloc.key0 = (fun n -> Memory.Mem.read_field mem n 5);
      next0 = (fun n -> Memory.Mem.read_ptr mem n 6);
      complete_tower = (fun ~tid:_ _ -> ());
    }
  in
  let results = Array.make n_threads [] in
  let body ~tid =
    for i = 1 to 25 do
      let b =
        Memory.Block_alloc.alloc_block mem ~tid ~ops ~pred:dummy ~key:(100 + i)
      in
      results.(tid) <- Memory.Riv.to_word b :: results.(tid);
      if i mod 3 = 0 then begin
        (* free some blocks back *)
        match results.(tid) with
        | w :: rest ->
            Memory.Block_alloc.delete_linked_object mem ~tid (Memory.Riv.of_word w);
            results.(tid) <- rest
        | [] -> ()
      end
    done
  in
  (match
     Sim.Sched.run ~machine:(Pmem.machine pmem)
       (List.init n_threads (fun tid -> (tid, body)))
   with
  | Sim.Sched.Completed _ -> ()
  | Sim.Sched.Crashed_at _ -> failwith "crash");
  (* all currently-held blocks are distinct *)
  let held = Array.to_list results |> List.concat in
  List.length (List.sort_uniq compare held) = List.length held

let prop_range_matches_filter ops =
  let fx = make_skiplist () in
  let result = ref true in
  run1 fx.pmem (fun ~tid ->
      List.iter (fun (k, v) -> ignore (SL.upsert fx.sl ~tid k v)) ops;
      let lo = 10 and hi = 40 in
      let got = SL.range fx.sl ~tid ~lo ~hi in
      let expected =
        List.fold_left (fun m (k, v) -> M.add k v m) M.empty ops
        |> M.filter (fun k _ -> k >= lo && k <= hi)
        |> M.bindings
      in
      result := got = expected);
  !result

let () =
  Alcotest.run "props"
    [
      ( "skiplist",
        [
          qcase ~count:30 "sequential model (K=16)"
            (ops_arb 60 120)
            (prop_sequential_model Config.default);
          qcase ~count:20 "sequential model (K=1)"
            (ops_arb 40 80)
            (prop_sequential_model { Config.default with keys_per_node = 1 });
          qcase ~count:20 "sequential model (K=4, h=8)"
            (ops_arb 50 100)
            (prop_sequential_model
               { Config.default with keys_per_node = 4; max_height = 8 });
          qcase ~count:15 "concurrent disjoint regions"
            QCheck.(list_of_size (QCheck.Gen.int_range 2 5) (int_bound 10_000))
            prop_concurrent_disjoint;
          qcase ~count:15 "random crash keeps acked"
            QCheck.(pair (int_bound 10_000) (int_bound 30_000))
            prop_crash_keeps_acked;
          qcase ~count:20 "range = filtered model"
            QCheck.(
              list_of_size (QCheck.Gen.int_range 1 80)
                (pair (int_range 1 60) (int_range 1 1000)))
            prop_range_matches_filter;
        ] );
      ( "allocator",
        [
          qcase ~count:20 "no double allocation under churn"
            QCheck.(pair (int_bound 10_000) (int_range 1 4))
            prop_alloc_no_double;
        ] );
    ]
