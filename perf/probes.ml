(* Fixed-size probes of single layers, independent of the workload: the
   scheduler on a machine that does nothing, the PMEM model net of that
   machine, and the detect wrappers against plain upserts. Traced runs
   report them beside the workload's own per-layer numbers. *)

module Kv = Harness.Kv

(* A machine whose every callback costs 1 simulated ns and does no work:
   timing the scheduler on it isolates the scheduler's own host cost. *)
let null_machine () =
  let latency = [| 0.0 |] in
  {
    Sim.Sched.read =
      (fun ~tid:_ _ ->
        latency.(0) <- 1.0;
        0);
    write = (fun ~tid:_ _ _ -> latency.(0) <- 1.0);
    cas =
      (fun ~tid:_ _ _ _ ->
        latency.(0) <- 1.0;
        true);
    flush = (fun ~tid:_ _ -> latency.(0) <- 1.0);
    fence = (fun ~tid:_ -> latency.(0) <- 1.0);
    clock = [| 0.0 |];
    latency;
  }

(* Host ns per loop iteration of [body] run by [fibers] fibers of
   [iters / fibers] iterations each. *)
let per_iteration ~machine ~fibers ~iters body =
  let each = iters / fibers in
  let (), ns =
    Clock.timed "probe" (fun () ->
        match
          Sim.Sched.run ~machine (List.init fibers (fun tid -> (tid, body ~each)))
        with
        | Sim.Sched.Completed _ -> ()
        | Sim.Sched.Crashed_at _ -> failwith "probe crashed")
  in
  float_of_int ns /. float_of_int (each * fibers)

let hot_read ~each ~tid =
  let a = Pmem.addr ~pool:0 ~word:(64 * tid) in
  for _ = 1 to each do
    ignore (Sim.Sched.read a)
  done

(* Reads spread over far more lines than the timing cache holds. *)
let spread_read ~each ~tid =
  let rng = Sim.Rng.create (tid + 1) in
  for _ = 1 to each do
    ignore (Sim.Sched.read (Pmem.addr ~pool:0 ~word:(Sim.Rng.int rng 1_000_000)))
  done

let write_flush_fence ~each ~tid =
  let a = Pmem.addr ~pool:0 ~word:(64 * tid) in
  for i = 1 to each do
    Sim.Sched.write a i;
    Sim.Sched.flush a;
    Sim.Sched.fence ()
  done

let pmem () =
  Pmem.machine
    (Pmem.create
       { Pmem.default_config with numa_nodes = 1; n_pools = 1; pool_words = 1 lsl 20 })

(* Descriptor cost: one fiber's upsert stream through [upsert] and through
   [d_upsert], each on a fresh fixture, alternating three times; host times
   are medians (the first fixture of a process also pays for mapping fresh
   memory). One fiber, so contention can neither hide nor add cost. *)
let detect ~ops =
  let keys = 2_000 in
  let run ~detect =
    let kv =
      Workloads.make_fixture ~detect_clients:1 ~mode:Pmem.Striped ~pool_words:(1 lsl 16) ()
    in
    ignore (Workloads.preload kv (Workloads.dense keys) : int);
    let body ~tid =
      for j = 1 to ops do
        let k = 1 + (j * 104729 mod keys) in
        let v = Harness.Driver.value_of ~tid ~seq:j in
        if detect then ignore (Kv.d_upsert kv ~tid ~client:0 ~seq:j k v)
        else ignore (kv.Kv.upsert ~tid k v)
      done
    in
    let outcome, ns =
      Clock.timed "probe" (fun () -> Sim.Sched.run ~machine:(Kv.machine kv) [ (0, body) ])
    in
    (fst (Workloads.completed outcome), float_of_int ns)
  in
  let rounds = List.init 3 (fun _ -> (run ~detect:false, run ~detect:true)) in
  let (plain_sim, _), (d_sim, _) = List.hd rounds in
  let host pick = Verdict.median (List.map (fun r -> snd (pick r)) rounds) in
  [
    ("detect.sim_overhead_frac", (d_sim /. plain_sim) -. 1.0);
    ("detect.host_overhead_ns", (host snd -. host fst) /. float_of_int ops);
  ]

let all ~scale =
  let iters = match scale with Workloads.Full -> 400_000 | Workloads.Tiny -> 8_000 in
  let null ~fibers body = per_iteration ~machine:(null_machine ()) ~fibers ~iters body in
  let on_pmem body = per_iteration ~machine:(pmem ()) ~fibers:1 ~iters body in
  let inline = null ~fibers:1 hot_read in
  [
    ("sched.inline_event_ns", inline);
    ("sched.null_event_ns", null ~fibers:8 hot_read);
    ("pmem.hit_read_ns", on_pmem hot_read -. inline);
    ("pmem.miss_read_ns", on_pmem spread_read -. null ~fibers:1 spread_read);
    ("pmem.flush_fence_ns", on_pmem write_flush_fence -. null ~fibers:1 write_flush_fence);
  ]
  @ detect ~ops:(iters / 25)
