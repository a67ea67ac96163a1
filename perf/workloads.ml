(* The four benchmark workloads.

   A workload is a function from (seed, sub-run index) to one complete,
   self-contained simulation — fresh fixture, generated streams, set-up,
   measured phase, output checks — plus the host time each part took. Every
   simulated number of a sub-run depends only on (seed, index); the runner
   repeats sub-runs and checks that they reproduce.

   All structure workloads use one UPSkipList configuration (64 keys per
   node) so their numbers compare. Its own seed (tower heights) is a
   constant: the structure is the system under test, and the benchmark
   seed varies only the operation streams. *)

module Kv = Harness.Kv
module H = Sim.Histogram

type scale = Full | Tiny

(* ---- operations and their expected results -------------------------------- *)

type op = { kind : int; key : int; value : int; expect : int }

let k_read = 0
let k_update = 1
let k_insert = 2
let k_remove = 3

(* [expect]: the value the call must return; [absent] for None, [present]
   for any Some. Stored values are never 0 or negative. *)
let absent = 0
let present = -1

let check expect got =
  match got with
  | None -> expect = absent
  | Some v -> expect = present || v = expect

let preload_value k = k + (1 lsl 30)

let sub_seed ~seed sub = Ycsb.Zipfian.hash ((seed lsl 8) lor sub) land 0x3FFF_FFFF

(* ---- one sub-run's result ------------------------------------------------- *)

type sub = {
  (* simulated: a function of (seed, index) alone *)
  ops : int;  (* operations behind the latency and throughput numbers *)
  sim_ns : float;
  lat : H.t;  (* per-operation latency of those operations, ns *)
  by_kind : H.t array;  (* the same, split by [kind] *)
  events : int;  (* scheduler events of the measured phase; 0 = not visible *)
  obs : int array;  (* Obs counter deltas over the measured phase *)
  pmem : int array;  (* Pmem counter deltas, see [pmem_snapshot] *)
  attempted : int;  (* every operation the sub-run issued *)
  failed : int;  (* operations that returned a wrong result or were refused *)
  errors : string list;  (* failed output checks other than single ops *)
  layer : (string * float) list;  (* simulated per-layer values *)
  (* host *)
  setup_ns : int;
  measured_ns : int;
  host_ops : int;  (* operations executed during [measured_ns] *)
  callback_ns : float;  (* estimated host ns inside PMEM callbacks (traced) *)
  host : (string * float) list;  (* host per-layer values, seconds *)
}

let pmem_snapshot p =
  let c = Pmem.counters p in
  Pmem.
    [|
      c.loads;
      c.load_misses;
      c.stores;
      c.store_misses;
      c.cas_ops;
      c.cas_failures;
      c.flushes;
      c.dirty_flushes;
      c.fences;
      c.remote_accesses;
      c.accesses;
    |]

let pmem_remote = 9
let pmem_accesses = 10
let pmem_none = Array.make 11 0  (* a [pmem_snapshot] of a machine not visible *)
let diff a b = Array.mapi (fun i x -> x - a.(i)) b

(* Everything simulated about a sub-run, as text, so two runs can be
   compared byte for byte. [only] restricts the per-layer values to those
   keys (a traced sub-run reports a few an untraced one cannot see). *)
let digest ?only s =
  let keep k = match only with None -> true | Some keys -> List.mem k keys in
  let b = Buffer.create 512 in
  let hist h =
    if H.count h = 0 then Buffer.add_string b "-"
    else
      Printf.bprintf b "%d:%h:%h:%h:%h:%h" (H.count h) (H.sum h) (H.percentile h 50.0)
        (H.percentile h 99.0) (H.percentile h 99.9) (H.max_value h)
  in
  Printf.bprintf b "ops=%d sim=%h events=%d att=%d failed=%d lat=" s.ops s.sim_ns
    s.events s.attempted s.failed;
  hist s.lat;
  Array.iter
    (fun h ->
      Buffer.add_char b ' ';
      hist h)
    s.by_kind;
  Array.iter (Printf.bprintf b " %d") s.obs;
  Array.iter (Printf.bprintf b " %d") s.pmem;
  List.iter (fun (k, v) -> if keep k then Printf.bprintf b " %s=%h" k v) s.layer;
  List.iter (Printf.bprintf b " err:%s") s.errors;
  Buffer.contents b

(* ---- fixtures and playback ------------------------------------------------- *)

let structure_seed = 42

let make_fixture ?detect_clients ~mode ~pool_words () =
  let sys = { Kv.default_sys with mode; pool_words; seed = structure_seed } in
  let cfg = { Upskiplist.Config.default with keys_per_node = 64 } in
  Kv.make_upskiplist ~cfg ?detect_clients sys

let machine ~trace kv =
  if trace then
    let m, c = Clock.timed_machine (Kv.machine kv) in
    (m, Some c)
  else (Kv.machine kv, None)

let fibers threads body = List.init threads (fun tid -> (tid, body))

let completed = function
  | Sim.Sched.Completed { time; events; _ } -> (time, events)
  | Sim.Sched.Crashed_at _ -> failwith "unexpected crash"

type played = {
  p_ops : int;
  p_sim_ns : float;
  p_events : int;
  p_failed : int;
  p_lat : H.t;
  p_by_kind : H.t array;
  p_obs : int array;
  p_pmem : int array;
  p_host_ns : int;
  p_callback_ns : float;
}

(* Play one stream per fiber through the Kv closures, timing each
   operation in simulated time and checking its result. *)
let play ~name ~trace (kv : Kv.t) (streams : op array array) =
  let lat = H.create () and by_kind = Array.init 4 (fun _ -> H.create ()) in
  let failed = ref 0 in
  let body ~tid =
    Array.iter
      (fun op ->
        let t0 = Sim.Sched.now () in
        let got =
          if op.kind = k_read then kv.Kv.search ~tid op.key
          else if op.kind = k_remove then kv.Kv.remove ~tid op.key
          else kv.Kv.upsert ~tid op.key op.value
        in
        let dt = Sim.Sched.now () -. t0 in
        H.add lat dt;
        H.add by_kind.(op.kind) dt;
        if not (check op.expect got) then incr failed)
      streams.(tid)
  in
  let m, cb = machine ~trace kv in
  let obs0 = Obs.totals () and pmem0 = pmem_snapshot kv.Kv.pmem in
  let outcome, host_ns =
    Clock.timed name (fun () ->
        Sim.Sched.run ~machine:m (fibers (Array.length streams) body))
  in
  let sim_ns, events = completed outcome in
  {
    p_ops = Array.fold_left (fun a s -> a + Array.length s) 0 streams;
    p_sim_ns = sim_ns;
    p_events = events;
    p_failed = !failed;
    p_lat = lat;
    p_by_kind = by_kind;
    p_obs = diff obs0 (Obs.totals ());
    p_pmem = diff pmem0 (pmem_snapshot kv.Kv.pmem);
    p_host_ns = host_ns;
    p_callback_ns = (match cb with Some c -> Clock.callback_ns c | None -> 0.0);
  }

(* Insert [keys] in order from one fiber, each with [preload_value]. *)
let preload (kv : Kv.t) keys =
  let body ~tid = Array.iter (fun k -> ignore (kv.Kv.upsert ~tid k (preload_value k))) keys in
  snd
    (Clock.timed "preload" (fun () ->
         ignore (completed (Sim.Sched.run ~machine:(Kv.machine kv) [ (0, body) ]))))

let dense n = Array.init n (fun i -> i + 1)

(* Simulated PMEM the allocator has provisioned, and its free blocks. *)
let memory_layer (kv : Kv.t) ~live_keys =
  let mem = kv.Kv.mem in
  let chunks = Memory.Mem.chunks_allocated mem in
  let free = ref 0 in
  for pool = 0 to Memory.Mem.n_pools mem - 1 do
    for arena = 0 to mem.Memory.Mem.n_arenas - 1 do
      free := !free + Memory.Block_alloc.free_list_length mem ~pool ~arena
    done
  done;
  [
    ("mem.chunks", float_of_int chunks);
    ("mem.free_blocks", float_of_int !free);
    ( "mem.bytes_per_key",
      float_of_int (chunks * mem.Memory.Mem.chunk_words * 8) /. float_of_int live_keys );
  ]

let of_played ?(layer = []) ?(errors = []) ?(host = []) ~setup_ns ~attempted ~failed
    (p : played) =
  {
    ops = p.p_ops;
    sim_ns = p.p_sim_ns;
    lat = p.p_lat;
    by_kind = p.p_by_kind;
    events = p.p_events;
    obs = p.p_obs;
    pmem = p.p_pmem;
    attempted;
    failed;
    errors;
    layer;
    setup_ns;
    measured_ns = p.p_host_ns;
    host_ops = p.p_ops;
    callback_ns = p.p_callback_ns;
    host;
  }

let secs ns = float_of_int ns *. 1e-9

(* The per-layer split of a sub-run's set-up time. *)
let setup_times ?warmup_ns ~fixture_ns ~generate_ns ~preload_ns () =
  [
    ("setup.fixture_s", secs fixture_ns);
    ("setup.generate_s", secs generate_ns);
    ("setup.preload_s", secs preload_ns);
  ]
  @ match warmup_ns with Some ns -> [ ("setup.warmup_s", secs ns) ] | None -> []

(* ---- ycsb-c-100k ----------------------------------------------------------- *)

(* Read-only YCSB C (zipfian) from 48 fibers over 100k preloaded keys: a
   working set far larger than each fiber's 4096-line timing cache. *)
let ycsb_c ~scale ~trace ~seed ~sub =
  let n, threads, warm, per =
    match scale with Full -> (100_000, 48, 250, 1000) | Tiny -> (2_000, 8, 20, 100)
  in
  let s = sub_seed ~seed sub in
  let kv, fixture_ns =
    Clock.timed "fixture" (fun () ->
        make_fixture ~mode:Pmem.Striped ~pool_words:(1 lsl 19) ())
  in
  let (warm_streams, streams), generate_ns =
    Clock.timed "generate" (fun () ->
        let gen seed per =
          Ycsb.Workload.generate ~seed ~spec:Ycsb.Workload.c ~n_initial:n ~threads
            ~ops_per_thread:per
          |> Array.map
               (Array.map (function
                 | Ycsb.Workload.Read k ->
                     { kind = k_read; key = k; value = 0; expect = preload_value k }
                 | _ -> invalid_arg "YCSB C generated a write"))
        in
        (gen s warm, gen (s + 1) per))
  in
  let preload_ns = preload kv (dense n) in
  let w = play ~name:"warmup" ~trace kv warm_streams in
  let p = play ~name:"playback" ~trace kv streams in
  of_played p
    ~setup_ns:(fixture_ns + generate_ns + preload_ns + w.p_host_ns)
    ~attempted:(w.p_ops + p.p_ops) ~failed:(w.p_failed + p.p_failed)
    ~layer:(memory_layer kv ~live_keys:n)
    ~host:(setup_times ~fixture_ns ~generate_ns ~preload_ns ~warmup_ns:w.p_host_ns ())

(* ---- churn-4k ---------------------------------------------------------------- *)

(* Per-fiber churn streams over a constant-size live set. Fiber [tid] owns
   the key range starting at [range_base tid]: [owned] preloaded keys, then
   fresh keys in increasing order. Its stream is 50% reads and 20% updates
   of its own live keys, zipfian over recency, 15% inserts of its next
   fresh key and 15% removes of its oldest live key, in shuffled blocks of
   20 with that exact mix (so the live set drifts by at most 3 keys). Every
   result is therefore predictable. Returns the streams, each fiber's
   preloaded keys, and the final live (key, value) pairs.

   The ranges are disjoint and preloaded highest range first, so no node
   ever holds two fibers' keys: a fiber's lookups never overlap a split of
   their node by another fiber. (UPSkipList's search can miss a present key
   while a concurrent split moves it; this workload measures the write path,
   not that race.) *)
let range_base tid = (tid + 1) lsl 24

let churn_streams ~seed ~owned ~threads ~ops =
  let block =
    Array.concat
      [ Array.make 10 k_read; Array.make 4 k_update; Array.make 3 k_insert; Array.make 3 k_remove ]
  in
  let final = ref [] in
  let streams =
    Array.init threads (fun tid ->
        let rng = Sim.Rng.create (seed + (7919 * tid)) in
        let recency = Ycsb.Zipfian.create ~seed:(seed + (104729 * tid)) owned in
        (* live keys are keys.(lo .. hi-1), oldest first *)
        let keys = Array.init (owned + ops) (fun i -> range_base tid + i) in
        let values = Hashtbl.create (2 * owned) in
        for i = 0 to owned - 1 do
          Hashtbl.replace values keys.(i) (preload_value keys.(i))
        done;
        let lo = ref 0 and hi = ref owned in
        let recent () =
          let r = min (Ycsb.Zipfian.next_rank recency) (!hi - !lo - 1) in
          keys.(!hi - 1 - r)
        in
        let kinds = Array.copy block in
        let stream =
          Array.init ops (fun seq ->
              if seq mod Array.length block = 0 then Sim.Rng.shuffle rng kinds;
              let kind = kinds.(seq mod Array.length block) in
              let value = Harness.Driver.value_of ~tid ~seq in
              if kind = k_read then
                let key = recent () in
                { kind; key; value = 0; expect = Hashtbl.find values key }
              else if kind = k_update then begin
                let key = recent () in
                let prev = Hashtbl.find values key in
                Hashtbl.replace values key value;
                { kind; key; value; expect = prev }
              end
              else if kind = k_insert then begin
                let key = keys.(!hi) in
                incr hi;
                Hashtbl.replace values key value;
                { kind; key; value; expect = absent }
              end
              else begin
                let key = keys.(!lo) in
                incr lo;
                let prev = Hashtbl.find values key in
                Hashtbl.remove values key;
                { kind; key; value = 0; expect = prev }
              end)
        in
        Hashtbl.iter (fun k v -> final := (k, v) :: !final) values;
        stream)
  in
  let preloaded =
    Array.concat
      (List.init threads (fun i -> Array.init owned (fun j -> range_base (threads - 1 - i) + j)))
  in
  (streams, preloaded, List.sort compare !final)

let churn ~scale ~trace ~seed ~sub =
  let owned, threads, warm, per =
    match scale with Full -> (256, 16, 1000, 5000) | Tiny -> (64, 4, 40, 200)
  in
  let s = sub_seed ~seed sub in
  let kv, fixture_ns =
    Clock.timed "fixture" (fun () ->
        make_fixture ~mode:Pmem.Striped ~pool_words:(1 lsl 18) ())
  in
  let (warm_streams, streams, preloaded, expected), generate_ns =
    Clock.timed "generate" (fun () ->
        let all, preloaded, expected =
          churn_streams ~seed:s ~owned ~threads ~ops:(warm + per)
        in
        ( Array.map (fun a -> Array.sub a 0 warm) all,
          Array.map (fun a -> Array.sub a warm per) all,
          preloaded,
          expected ))
  in
  let preload_ns = preload kv preloaded in
  let w = play ~name:"warmup" ~trace kv warm_streams in
  let p = play ~name:"playback" ~trace kv streams in
  let errors, _ =
    Clock.timed "verify" (fun () ->
        (if kv.Kv.to_alist () = expected then []
         else [ "final key set differs from the model" ])
        @ kv.Kv.audit ())
  in
  of_played p
    ~setup_ns:(fixture_ns + generate_ns + preload_ns + w.p_host_ns)
    ~attempted:(w.p_ops + p.p_ops) ~failed:(w.p_failed + p.p_failed) ~errors
    ~layer:(memory_layer kv ~live_keys:(List.length expected))
    ~host:(setup_times ~fixture_ns ~generate_ns ~preload_ns ~warmup_ns:w.p_host_ns ())

(* ---- svc-a-detect ------------------------------------------------------------ *)

(* The sharded service as a user sees it: 4 shards, 16 open-loop Poisson
   clients, YCSB A, detectable upserts. Latency is timed from each
   request's scheduled arrival, so the generator is never late. The offered
   rate sits below the knee, where the tail is steady from seed to seed
   (at 2.0 Mop/s p99 moved 4-9%); capacity is the ladder's job. *)
let svc_offered_mops = 1.5

let svc_config ~scale ~seed ~spans ~rate =
  let rpc = match scale with Full -> 4000 | Tiny -> 60 in
  {
    Svc.Config.default with
    workload = Ycsb.Workload.a;
    detect = true;
    offered_mops = rate;
    requests_per_client = rpc;
    seed;
    spans;
    (* one window per run: the windowed series is not reported here, and
       each window holds a histogram per phase *)
    window_ns = (if spans then 1e15 else Svc.Config.default.window_ns);
  }

let slo_layer (r : Svc.Slo.t) =
  let sum f = List.fold_left (fun a s -> a + f s) 0 r.Svc.Slo.shard_reports in
  let batches = sum (fun s -> s.Svc.Slo.s_batches) in
  let per_batch x = if batches = 0 then 0.0 else float_of_int x /. float_of_int batches in
  let phases =
    match r.Svc.Slo.spans with
    | None -> []
    | Some sp ->
        let mean x =
          if sp.Svc.Slo.sp_count = 0 then 0.0 else x /. float_of_int sp.sp_count /. 1e3
        in
        List.init Obs.Span.n_phases (fun ph ->
            ("svc." ^ Obs.Span.phase_name ph ^ "_us", mean sp.sp_phase_sum.(ph)))
        @ [ ("svc.fence_wait_us", mean sp.sp_fence_sum) ]
  in
  [
    ("svc.batch_size", per_batch (sum (fun s -> s.Svc.Slo.s_completed)));
    ("svc.group_flushes_per_batch", per_batch (sum (fun s -> s.Svc.Slo.s_group_flushes)));
    ( "svc.queue_hwm",
      float_of_int
        (List.fold_left (fun a s -> max a s.Svc.Slo.queue_high_water) 0 r.shard_reports) );
    ("pmem.remote_frac", r.remote_fraction);
  ]
  @ phases

let svc ~scale ~trace ~seed ~sub =
  let cfg = svc_config ~scale ~seed:(sub_seed ~seed sub) ~spans:trace ~rate:svc_offered_mops in
  (* the service builds and preloads its shards inside [Domains.run]; a run
     with no requests times exactly that set-up *)
  let _, setup_ns =
    Clock.timed "svc.setup" (fun () ->
        Svc.Domains.run ~domains:1 { cfg with requests_per_client = 0 })
  in
  let obs0 = Obs.totals () in
  let r, run_ns = Clock.timed "svc.run" (fun () -> Svc.Domains.run ~domains:1 cfg) in
  let obs = diff obs0 (Obs.totals ()) in
  let failed = r.Svc.Slo.shed + r.lost + r.failed_scans in
  let audit = List.fold_left (fun a s -> a + s.Svc.Slo.audit_errors) 0 r.shard_reports in
  let errors =
    (if audit > 0 then [ Printf.sprintf "%d shard audit errors" audit ] else [])
    @
    if r.completed + r.shed + r.lost <> r.requests then
      [ Printf.sprintf "%d requests, %d completed, %d shed, %d lost" r.requests r.completed r.shed r.lost ]
    else []
  in
  {
    ops = r.completed;
    sim_ns = r.span_ns;
    lat = r.merged;
    by_kind = Array.init 4 (fun _ -> H.create ());
    events = 0;
    obs;
    pmem = pmem_none;
    attempted = r.requests;
    failed;
    errors;
    layer = slo_layer r;
    setup_ns;
    measured_ns = max 1 (run_ns - setup_ns);
    host_ops = r.requests;
    callback_ns = 0.0;
    host = [];
  }

(* The highest offered rate on a 1.0..4.0 Mop/s ladder (0.25 steps) whose
   p99 latency is within 50 us with nothing shed. *)
let svc_ladder ~scale ~seed =
  let rpc = match scale with Full -> 1000 | Tiny -> 30 in
  let rates = List.init 13 (fun i -> 1.0 +. (0.25 *. float_of_int i)) in
  let meets rate =
    let cfg =
      { (svc_config ~scale ~seed ~spans:false ~rate) with requests_per_client = rpc }
    in
    let r = Svc.Domains.run ~domains:1 cfg in
    r.Svc.Slo.shed = 0 && r.lost = 0
    && H.count r.merged > 0
    && H.percentile r.merged 99.0 <= 50_000.0
  in
  fst
    (Clock.timed "svc.ladder" (fun () ->
         List.fold_left (fun best rate -> if meets rate then rate else best) 0.0 rates))

(* ---- crash-recover ------------------------------------------------------------ *)

(* One crash trial: 8 clients upsert fresh keys through their detect
   descriptors until a power failure at a grid crash point; then reopen,
   recover the structure and the descriptors, check that every acknowledged
   key survived and every descriptor verdict agrees with the structure,
   and serve two YCSB B windows. The first window carries the lazy-repair
   work; the second is the steady state it is compared to. *)
let crash_recover ~scale ~trace ~seed ~sub =
  let n, clients, per, window, grid =
    match scale with
    | Full ->
        (20_000, 8, 4000, 3000, { Harness.Fault.origin = 150_000; stride = 40_000; points = 4; jitter = 20_000 })
    | Tiny -> (1_000, 8, 300, 100, { Harness.Fault.origin = 20_000; stride = 2_000; points = 4; jitter = 1_000 })
  in
  let s = sub_seed ~seed sub in
  let crash_at = List.nth (Harness.Fault.grid_points ~seed grid) (sub mod grid.points) in
  let kv, fixture_ns =
    Clock.timed "fixture" (fun () ->
        make_fixture ~detect_clients:clients ~mode:Pmem.Multi_pool ~pool_words:(1 lsl 19) ())
  in
  let windows, generate_ns =
    Clock.timed "generate" (fun () ->
        Array.init 2 (fun i ->
            Ycsb.Workload.generate ~seed:(s + i) ~spec:Ycsb.Workload.b ~n_initial:n
              ~threads:clients ~ops_per_thread:window
            |> Array.mapi (fun tid ->
                   Array.mapi (fun seq -> function
                     | Ycsb.Workload.Read k ->
                         { kind = k_read; key = k; value = 0; expect = present }
                     | Ycsb.Workload.Update k ->
                         let seq = per + 1 + (i * window) + seq in
                         let value = Harness.Driver.value_of ~tid ~seq in
                         { kind = k_update; key = k; value; expect = present }
                     | _ -> invalid_arg "YCSB B generated an insert or scan"))))
  in
  let preload_ns = preload kv (dense n) in
  (* fresh key j of client c, and the unique value it writes *)
  let key c j = n + 1 + c + (clients * j) in
  let value c j = Harness.Driver.value_of ~tid:c ~seq:(j + 1) in
  let acked = Array.make clients 0 in
  let body ~tid =
    for j = 0 to per - 1 do
      ignore (Kv.d_upsert kv ~tid ~client:tid ~seq:(j + 1) (key tid j) (value tid j));
      acked.(tid) <- j + 1
    done
  in
  let m, cb = machine ~trace kv in
  let outcome, pre_ns =
    Clock.timed "playback" (fun () ->
        Sim.Sched.run ~machine:m ~crash:(Sim.Sched.After_events crash_at)
          (fibers clients body))
  in
  let crashed = match outcome with Sim.Sched.Crashed_at _ -> true | _ -> false in
  let in_flight = Array.fold_left (fun a x -> if x < per then a + 1 else a) 0 acked in
  let pre_ops = Array.fold_left ( + ) in_flight acked in
  let (), crash_ns =
    Clock.timed "crash" (fun () ->
        Pmem.crash kv.Kv.pmem;
        kv.Kv.reconnect ())
  in
  let obs_before_recovery = Obs.totals () in
  let recover_step name f =
    let outcome, ns = Clock.timed name (fun () -> Sim.Sched.run ~machine:m [ (0, f) ]) in
    (fst (completed outcome), ns)
  in
  let structure_ns, recover_host_ns = recover_step "recover" (fun ~tid -> kv.Kv.recover ~tid) in
  let resolve_ns, resolve_host_ns =
    recover_step "d_recover" (fun ~tid -> ignore (Kv.d_recover kv ~tid : int))
  in
  let pool_open_ns = Harness.Fault.pool_open_ns ~pools:kv.Kv.pools in
  (* durability: every acknowledged key survived, and every in-flight
     upsert is in the structure exactly when its descriptor says it applied *)
  let (lost, disagree, audit), _ =
    Clock.timed "verify" (fun () ->
        let live = Hashtbl.create (2 * n) in
        List.iter (fun (k, v) -> Hashtbl.replace live k v) (kv.Kv.to_alist ());
        let lost = ref 0 in
        for k = 1 to n do
          if Hashtbl.find_opt live k <> Some (preload_value k) then incr lost
        done;
        Array.iteri
          (fun c a ->
            for j = 0 to a - 1 do
              if Hashtbl.find_opt live (key c j) <> Some (value c j) then incr lost
            done)
          acked;
        let disagree = ref 0 in
        let probe ~tid =
          Array.iteri
            (fun c a ->
              if a < per then
                let found = kv.Kv.search ~tid (key c a) in
                let applied =
                  match Kv.d_decide kv ~client:c ~seq:(a + 1) with
                  | Detect.Applied _ | Detect.Applied_unknown -> true
                  | Detect.Not_applied -> false
                in
                if found <> (if applied then Some (value c a) else None) then
                  incr disagree)
            acked
        in
        ignore (completed (Sim.Sched.run ~machine:m [ (0, probe) ]));
        (!lost, !disagree, kv.Kv.audit ()))
  in
  let w1 = play ~name:"window1" ~trace kv windows.(0) in
  let w2 = play ~name:"window2" ~trace kv windows.(1) in
  let repairs =
    let d = diff obs_before_recovery (Obs.totals ()) in
    d.(Obs.id_epoch_repair) + d.(Obs.id_split_repair) + d.(Obs.id_tower_repair)
  in
  let mops (p : played) = float_of_int p.p_ops /. p.p_sim_ns in
  let r =
    of_played w1
      ~setup_ns:(fixture_ns + generate_ns + preload_ns)
      ~attempted:(pre_ops + w1.p_ops + w2.p_ops)
      ~failed:(lost + disagree + w1.p_failed + w2.p_failed)
      ~errors:((if crashed then [] else [ "the crash point was never reached" ]) @ audit)
      ~layer:
        ([
           ("recovery.total_ms", (pool_open_ns +. structure_ns +. resolve_ns) /. 1e6);
           ("recovery.pool_open_ms", pool_open_ns /. 1e6);
           ("recovery.structure_us", structure_ns /. 1e3);
           ("recovery.detect_resolve_us", resolve_ns /. 1e3);
           ("recovery.repairs_per_trial", float_of_int repairs);
           ("recovery.post_crash_ratio", mops w1 /. mops w2);
           ("recovery.lost_acked", float_of_int lost);
         ]
        @ memory_layer kv ~live_keys:(n + Array.fold_left ( + ) 0 acked))
      ~host:(setup_times ~fixture_ns ~generate_ns ~preload_ns ())
  in
  (* the measured phase is everything after set-up: the pre-crash
     upserts, the power failure, recovery and both windows *)
  {
    r with
    measured_ns =
      pre_ns + crash_ns + recover_host_ns + resolve_host_ns + w1.p_host_ns + w2.p_host_ns;
    host_ops = pre_ops + w1.p_ops + w2.p_ops;
    callback_ns =
      (match cb with Some c -> Clock.callback_ns c | None -> 0.0)
      +. w1.p_callback_ns +. w2.p_callback_ns;
  }

(* ---- the registry ---------------------------------------------------------------- *)

type t = {
  name : string;
  subs : int;  (* distinct sub-runs behind the simulated metrics *)
  run : scale:scale -> trace:bool -> seed:int -> sub:int -> sub;
  traced_extra : scale:scale -> seed:int -> (string * float) list;
      (* per-layer values a traced run measures once, beside the sub-runs *)
}

let nothing_extra ~scale:_ ~seed:_ = []

let all =
  [
    { name = "ycsb-c-100k"; subs = 3; run = ycsb_c; traced_extra = nothing_extra };
    { name = "churn-4k"; subs = 3; run = churn; traced_extra = nothing_extra };
    {
      name = "svc-a-detect";
      subs = 3;
      run = svc;
      traced_extra =
        (fun ~scale ~seed -> [ ("svc.max_mops_at_slo", svc_ladder ~scale ~seed) ]);
    };
    { name = "crash-recover"; subs = 4; run = crash_recover; traced_extra = nothing_extra };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
