(* A database-index scenario — the paper's motivating use case (§1.1):
   a fully PMEM-resident secondary index over an "orders" table that
   survives power failures without a rebuild.

   Rows live in a flat store; the index maps order-id -> row slot. We bulk
   load, serve a mixed point-lookup / order-scan workload from concurrent
   threads, crash the machine mid-traffic, and show the index resuming
   service immediately (recovery is O(pools), not O(index size)).

     dune exec examples/db_index.exe *)

module Mem = Memory.Mem
module SL = Upskiplist.Skiplist

let n_orders = 5_000
let threads = 8

let () =
  let pmem = Pmem.create Pmem.default_config in
  let cfg = { Upskiplist.Config.default with keys_per_node = 64 } in
  let block_words = SL.required_block_words cfg in
  let mem =
    Mem.create ~pmem ~chunk_words:(64 * block_words) ~block_words ~n_arenas:8 ()
  in
  Mem.format mem;
  let index = SL.create ~mem ~cfg ~max_threads:threads ~seed:11 in
  let machine = Pmem.machine pmem in

  (* bulk load: order ids are sparse (gaps from cancelled orders) *)
  let loader ~tid =
    let rng = Sim.Rng.create (100 + tid) in
    let i = ref (tid + 1) in
    while !i <= n_orders do
      let order_id = !i * 3 in
      let row_slot = 1 + Sim.Rng.int rng 1_000_000 in
      ignore (SL.upsert index ~tid order_id row_slot);
      i := !i + threads
    done
  in
  (match
     Sim.Sched.run ~machine (List.init threads (fun tid -> (tid, loader)))
   with
  | Sim.Sched.Completed { time; _ } ->
      Fmt.pr "bulk-loaded %d index entries in %.2f ms (simulated)@." n_orders
        (time /. 1e6)
  | Sim.Sched.Crashed_at _ -> assert false);

  (* mixed OLTP-ish traffic: 80%% point lookups, 15%% updates (order moved
     to a new row after an update), 5%% range scans (reports) *)
  let found = ref 0 and scanned = ref 0 in
  let worker ~tid =
    let rng = Sim.Rng.create (200 + tid) in
    for _ = 1 to 400 do
      let dice = Sim.Rng.int rng 100 in
      let order_id = 3 * (1 + Sim.Rng.int rng n_orders) in
      if dice < 80 then begin
        match SL.search index ~tid order_id with
        | Some _ -> incr found
        | None -> ()
      end
      else if dice < 95 then
        ignore (SL.upsert index ~tid order_id (1 + Sim.Rng.int rng 1_000_000))
      else begin
        let r = SL.range index ~tid ~lo:order_id ~hi:(order_id + 90) in
        scanned := !scanned + List.length r
      end
    done
  in
  let burst_events =
    match
      Sim.Sched.run ~machine (List.init threads (fun tid -> (tid, worker)))
    with
    | Sim.Sched.Completed { time; events; _ } ->
        Fmt.pr
          "served %d ops from %d threads: %.2f ms simulated (%d events), %d \
           lookups hit, %d rows scanned@."
          (threads * 400) threads (time /. 1e6) events !found !scanned;
        events
    | Sim.Sched.Crashed_at _ -> assert false
  in

  (* crash mid-traffic: halfway through a burst as long as the first *)
  (match
     Sim.Sched.run ~crash:(Sim.Sched.After_events (burst_events / 2)) ~machine
       (List.init threads (fun tid -> (tid, worker)))
   with
  | Sim.Sched.Crashed_at { time; _ } ->
      Fmt.pr "power failed %.2f ms into the next burst@." (time /. 1e6)
  | Sim.Sched.Completed _ -> assert false);
  Pmem.crash pmem;
  Mem.reconnect mem;

  (* service resumes immediately; a full verification pass follows *)
  (match
     Sim.Sched.run ~machine
       [
         ( 0,
           fun ~tid ->
             let t0 = Sim.Sched.now () in
             ignore (SL.search index ~tid 300);
             Fmt.pr "first lookup after recovery served in %.1f us@."
               ((Sim.Sched.now () -. t0) /. 1e3) );
       ]
   with
  | Sim.Sched.Completed _ -> ()
  | Sim.Sched.Crashed_at _ -> assert false);
  let entries = SL.to_alist index in
  Fmt.pr "index intact after crash: %d entries, invariants %s@."
    (List.length entries)
    (match SL.check_invariants index with [] -> "OK" | e -> String.concat "; " e)
