(* Crash-recovery anatomy: watch the paper's recovery machinery operate.

   We interrupt an insert storm with a power failure, then show
   - which acknowledged writes survived (all of them),
   - the epoch bump and lazy per-node repair during later traversals,
   - the allocation-log check reclaiming a block lost mid-insert,
   and finish with a strict-linearizability analysis of the whole recorded
   history, exactly as Chapter 6 does.

     dune exec examples/crash_recovery.exe *)

module Mem = Memory.Mem
module SL = Upskiplist.Skiplist
module Block_alloc = Memory.Block_alloc

let threads = 4

let () =
  let pmem = Pmem.create { Pmem.default_config with seed = 7 } in
  let cfg = { Upskiplist.Config.default with keys_per_node = 8 } in
  let block_words = SL.required_block_words cfg in
  let mem =
    Mem.create ~pmem ~chunk_words:(32 * block_words) ~block_words ~n_arenas:4 ()
  in
  Mem.format mem;
  let sl = SL.create ~mem ~cfg ~max_threads:threads ~seed:7 in
  let machine = Pmem.machine pmem in

  (* insert storm, interrupted at a random-ish point *)
  let acked = Array.make threads [] in
  let storm ~tid =
    for i = 0 to 999 do
      let k = 1 + (i * threads) + tid in
      ignore (SL.upsert sl ~tid k (k * 2));
      acked.(tid) <- k :: acked.(tid)
    done
  in
  (match
     Sim.Sched.run ~crash:(Sim.Sched.After_events 120_000) ~machine
       (List.init threads (fun tid -> (tid, storm)))
   with
  | Sim.Sched.Crashed_at { time; events } ->
      Fmt.pr "CRASH at %.2f ms (%d events); %d inserts had been acknowledged@."
        (time /. 1e6) events
        (Array.fold_left (fun a l -> a + List.length l) 0 acked)
  | Sim.Sched.Completed _ -> assert false);

  let free_before =
    let acc = ref 0 in
    for pool = 0 to Mem.n_pools mem - 1 do
      for arena = 0 to mem.Mem.n_arenas - 1 do
        acc := !acc + Block_alloc.free_list_length mem ~pool ~arena
      done
    done;
    !acc
  in

  Pmem.crash pmem;
  Mem.reconnect mem;
  Fmt.pr "reconnected: failure-free epoch is now %d (recovery deferred)@."
    (Mem.epoch mem);

  (* every acknowledged insert must be present with its exact value *)
  let missing = ref 0 in
  (match
     Sim.Sched.run ~machine
       [
         ( 0,
           fun ~tid ->
             Array.iter
               (List.iter (fun k ->
                    match SL.search sl ~tid k with
                    | Some v when v = k * 2 -> ()
                    | _ -> incr missing))
               acked );
       ]
   with
  | Sim.Sched.Completed _ -> ()
  | Sim.Sched.Crashed_at _ -> assert false);
  Fmt.pr "acked inserts missing after crash: %d (must be 0)@." !missing;

  (* the traversals above lazily claimed old-epoch nodes and repaired
     incomplete towers; allocation-log checks run on each thread's next
     allocation, reclaiming any block that was popped but never linked *)
  (match
     Sim.Sched.run ~machine
       (List.init threads (fun tid ->
            ( tid,
              fun ~tid ->
                for i = 0 to 9 do
                  ignore (SL.upsert sl ~tid (100_000 + (i * threads) + tid) 5)
                done )))
   with
  | Sim.Sched.Completed _ -> ()
  | Sim.Sched.Crashed_at _ -> assert false);
  let free_after =
    let acc = ref 0 in
    for pool = 0 to Mem.n_pools mem - 1 do
      for arena = 0 to mem.Mem.n_arenas - 1 do
        acc := !acc + Block_alloc.free_list_length mem ~pool ~arena
      done
    done;
    !acc
  in
  let total = Mem.total_blocks mem in
  Fmt.pr
    "block accounting: %d total carved, %d free before recovery allocs, %d \
     free after, %d linked as nodes -> %s@."
    total free_before free_after (SL.node_count sl)
    (if free_after + SL.node_count sl = total then "no leaks" else "LEAK");

  (* a fully recorded crash trial with the Chapter 6 analysis *)
  let trial =
    Harness.Fault.run_trial
      {
        Harness.Fault.default_spec with
        latency = Harness.Kv.Optane;
        threads = 4;
        keyspace = 200;
        ops_per_thread = 150;
        crash_at = 14_300;
        draw_seed = 3;
        seed = 3;
      }
  in
  Fmt.pr "strict-linearizability analysis over %d recorded ops: %d violations@."
    (Lincheck.History.size trial.Harness.Fault.history)
    (List.length trial.Harness.Fault.violations)
