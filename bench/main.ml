(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Chapter 5), the correctness campaign (Chapter 6), the
   background complexity table (2.1), and the design-choice ablations
   called out in DESIGN.md.

     dune exec bench/main.exe                 # everything, quick scale
     dune exec bench/main.exe -- fig5.1 table5.4
     dune exec bench/main.exe -- --full all   # larger workloads
     dune exec bench/main.exe -- claims       # the paper's claims, 5 fixture seeds

   Absolute numbers come from the simulated-PMEM machine (calibrated to the
   Optane measurements the paper cites), so only the *shape* — who wins, by
   what factor, where curves cross — is comparable to the paper; see
   EXPERIMENTS.md for the paper-vs-measured record. *)

module Kv = Harness.Kv
module Driver = Harness.Driver
module Report = Harness.Report
module Fault = Harness.Fault
module W = Ycsb.Workload
module Stats = Sim.Stats

(* ---- scale ----------------------------------------------------------------- *)

type scale = {
  threads_sweep : int list;
  n_initial : int;
  ops_at : int -> int;  (* total operations for a thread count *)
  latency_threads : int;
  latency_ops : int;
  trials : int;
  chapter6_trials : int;
}

let quick =
  {
    threads_sweep = [ 1; 2; 4; 8; 16; 32; 48; 64; 80 ];
    n_initial = 10_000;
    ops_at = (fun threads -> max 4_000 (threads * 120));
    latency_threads = 80;
    latency_ops = 12_000;
    trials = 3;
    chapter6_trials = 30;
  }

let full =
  {
    threads_sweep = [ 1; 2; 4; 8; 16; 32; 48; 64; 80; 120; 160 ];
    n_initial = 50_000;
    ops_at = (fun threads -> max 20_000 (threads * 400));
    latency_threads = 80;
    latency_ops = 60_000;
    trials = 3;
    chapter6_trials = 30;
  }

let scale = ref quick
let seed = 20210811

(* Worker domains for the sweep grid (-j N; -j 1 = the sequential path).
   Every job below is a self-contained chain — it creates its own fixture,
   preloads it, and runs its sweeps in the exact order the sequential code
   always did — and all printing happens after ordered collection, so the
   report (and the --json samples) are byte-identical for any [jobs]. *)
let jobs = ref (Sim.Pool.default_jobs ())

(* The seed of the figures' fixtures (tower heights), [--fixture-seed];
   Table 5.4's trials add its distance from the default to their seeds. *)
let fixture_seed = ref Kv.default_sys.seed

(* The paper runs the three-way comparison on the striped device. *)
let striped_sys () =
  { Kv.default_sys with mode = Pmem.Striped; pool_words = 1 lsl 21; seed = !fixture_seed }

let multi_sys () =
  { Kv.default_sys with mode = Pmem.Multi_pool; pool_words = 1 lsl 21; seed = !fixture_seed }

let bench_cfg = { Upskiplist.Config.default with keys_per_node = 64 }

(* Crash trials build their fixture from a spec: the figures' Optane
   latency model on the numa layout, default tuning. *)
let optane_spec = { Fault.default_spec with latency = Kv.Optane }

let structure_makers () =
  [
    ("UPSkipList", fun () -> Kv.make_upskiplist ~cfg:bench_cfg (striped_sys ()));
    ("BzTree", fun () -> Kv.make_bztree ~n_descriptors:120_000 (striped_sys ()));
    ("PMDK skip list", fun () -> Kv.make_pmdk_list (striped_sys ()));
  ]

(* Throughput sweep for one (structure, workload): preload once, then run
   each thread count, [trials] seeds per point. *)
let sweep kv ~spec =
  let s = !scale in
  List.map
    (fun threads ->
      let ops_per_thread = max 20 (s.ops_at threads / threads) in
      Driver.throughput_trials kv ~spec ~threads ~n_initial:s.n_initial
        ~ops_per_thread ~seed ~trials:s.trials)
    s.threads_sweep

let preload_threads = 8

let throughput_figure ~title ~workloads =
  Report.heading title;
  (* one job per structure: each owns its kv for the whole figure and runs
     the workloads in order, so per-kv simulated results match a
     sequential run exactly *)
  let per_structure =
    Sim.Pool.run ~jobs:!jobs
      (List.map
         (fun (name, make) () ->
           let kv = make () in
           Driver.preload kv ~threads:preload_threads ~n:!scale.n_initial;
           (name, List.map (fun spec -> (spec, sweep kv ~spec)) workloads))
         (structure_makers ()))
  in
  List.iter
    (fun spec ->
      let columns =
        List.map
          (fun (name, sweeps) -> (name ^ " (Mops/s)", List.assq spec sweeps))
          per_structure
      in
      Report.series
        ~title:
          (Printf.sprintf "Workload %s (%s, %s)" spec.W.label spec.W.name
             "striped device")
        ~x_label:"threads" ~x_values:!scale.threads_sweep ~columns)
    workloads

(* ---- Figures 5.1 / 5.2 ------------------------------------------------------ *)

let fig_5_1 () =
  throughput_figure
    ~title:
      "Figure 5.1 — throughput, YCSB A (update-heavy) and B (read-mostly)"
    ~workloads:[ W.a; W.b ]

let fig_5_2 () =
  throughput_figure
    ~title:"Figure 5.2 — throughput, YCSB C (read-only) and D (read-latest)"
    ~workloads:[ W.c; W.d ]

(* ---- Figure 5.3: RIV pointers vs libpmemobj fat pointers ------------------- *)

let fig_5_3 () =
  Report.heading
    "Figure 5.3 — read-only throughput: RIV pointers (UPSkipList, 1 key/node) \
     vs fat pointers (PMDK lock-based skip list)";
  let cfg1 = { Upskiplist.Config.default with keys_per_node = 1 } in
  let n = !scale.n_initial / 2 in
  let run kv =
    List.map
      (fun threads ->
        let ops_per_thread = max 20 (!scale.ops_at threads / threads) in
        Driver.throughput_trials kv ~spec:W.c ~threads ~n_initial:n
          ~ops_per_thread ~seed ~trials:!scale.trials)
      !scale.threads_sweep
  in
  let chain make () =
    let kv = make () in
    Driver.preload kv ~threads:preload_threads ~n;
    run kv
  in
  let riv_series, fat_series =
    match
      Sim.Pool.run ~jobs:!jobs
        [
          chain (fun () -> Kv.make_upskiplist ~cfg:cfg1 (striped_sys ()));
          chain (fun () -> Kv.make_pmdk_list ~max_height:24 (striped_sys ()));
        ]
    with
    | [ r; f ] -> (r, f)
    | _ -> assert false
  in
  Report.series ~title:"Workload C, single key per node" ~x_label:"threads"
    ~x_values:!scale.threads_sweep
    ~columns:
      [
        ("RIV pointers (Mops/s)", riv_series);
        ("fat pointers (Mops/s)", fat_series);
      ];
  let ratio =
    List.fold_left2
      (fun acc (r, _) (f, _) -> acc +. (f /. r))
      0.0 riv_series fat_series
    /. float_of_int (List.length riv_series)
  in
  Fmt.pr "@.fat-pointer throughput as a fraction of RIV: %.2f (paper: ~0.70)@."
    ratio

(* ---- Figure 5.4 / Table 5.2: NUMA-aware pools vs striped ------------------- *)

let fig_5_4 () =
  Report.heading
    "Figure 5.4 / Table 5.2 — UPSkipList on one pool per NUMA node \
     (NUMA-aware) vs a single striped pool";
  let wl = [ W.a; W.b; W.c; W.d ] in
  let chain sys () =
    let kv = Kv.make_upskiplist ~cfg:bench_cfg sys in
    Driver.preload kv ~threads:preload_threads ~n:!scale.n_initial;
    List.map (fun spec -> sweep kv ~spec) wl
  in
  let s_sweeps, m_sweeps =
    match Sim.Pool.run ~jobs:!jobs [ chain (striped_sys ()); chain (multi_sys ()) ] with
    | [ s; m ] -> (s, m)
    | _ -> assert false
  in
  let impacts =
    List.map2
      (fun spec (s_series, m_series) ->
        Report.series
          ~title:(Printf.sprintf "Workload %s" spec.W.label)
          ~x_label:"threads" ~x_values:!scale.threads_sweep
          ~columns:
            [
              ("striped (Mops/s)", s_series); ("multi-pool (Mops/s)", m_series);
            ];
        let mean xs = List.fold_left (fun a (x, _) -> a +. x) 0.0 xs
                      /. float_of_int (List.length xs) in
        let impact = 100.0 *. (1.0 -. (mean m_series /. mean s_series)) in
        (spec.W.label, impact))
      wl
      (List.combine s_sweeps m_sweeps)
  in
  Report.subheading "Table 5.2 — throughput reduction of NUMA-aware multi-pool";
  Report.table
    ~headers:("Workload" :: List.map fst impacts @ [ "Average" ])
    ~rows:
      [
        "Reduction (%)"
        :: (List.map (fun (_, i) -> Printf.sprintf "%.1f" i) impacts
           @ [
               Printf.sprintf "%.1f"
                 (List.fold_left (fun a (_, i) -> a +. i) 0.0 impacts /. 4.0);
             ]);
      ];
  Fmt.pr "@.(paper: 5.1 / 5.6 / 5.9 / 6.0, average 5.6%%)@."

(* ---- Figures 5.5 / 5.6 + Table 5.3: latency percentiles -------------------- *)

let latency_runs () =
  Sim.Pool.run ~jobs:!jobs
    (List.map
       (fun (name, make) () ->
         let kv = make () in
         Driver.preload kv ~threads:preload_threads ~n:!scale.n_initial;
         let per_workload =
           List.map
             (fun spec ->
               let threads = !scale.latency_threads in
               let res =
                 Driver.run_workload kv ~spec ~threads ~n_initial:!scale.n_initial
                   ~ops_per_thread:(max 10 (!scale.latency_ops / threads))
                   ~seed:(seed + 5)
               in
               (spec, res))
             [ W.a; W.b; W.c; W.d ]
         in
         (name, per_workload))
       (structure_makers ()))

let fig_5_5_5_6_table_5_3 () =
  Report.heading
    "Figures 5.5 / 5.6 + Table 5.3 — latency percentiles per YCSB workload \
     (80 threads)";
  let all = latency_runs () in
  List.iter
    (fun (name, per_workload) ->
      List.iter
        (fun ((spec : W.spec), (res : Driver.result)) ->
          let rows =
            List.filter_map
              (fun (label, hist) ->
                if Sim.Histogram.count hist = 0 then None
                else Some (Report.latency_row label hist))
              [
                ("reads", res.Driver.read_hist);
                ("updates", res.Driver.update_hist);
                ("inserts", res.Driver.insert_hist);
                ("scans", res.Driver.scan_hist);
              ]
          in
          Report.latency_table
            ~title:(Printf.sprintf "%s — workload %s (%s)" name spec.W.label spec.W.name)
            ~rows)
        per_workload)
    all;
  Report.subheading "Table 5.3 — median latency (microseconds)";
  let median_rows =
    List.concat_map
      (fun ((spec : W.spec), op_label, pick) ->
        [
          (spec.W.name ^ " / " ^ op_label)
          :: List.map
               (fun (_, per_workload) ->
                 let _, res = List.find (fun (s, _) -> s == spec) per_workload in
                 let hist : Sim.Histogram.t = pick res in
                 if Sim.Histogram.count hist = 0 then "-"
                 else Printf.sprintf "%.1f" (Sim.Histogram.median hist /. 1000.0))
               all;
        ])
      [
        (W.a, "reads", fun (r : Driver.result) -> r.Driver.read_hist);
        (W.a, "updates", fun r -> r.Driver.update_hist);
        (W.b, "reads", fun r -> r.Driver.read_hist);
        (W.b, "updates", fun r -> r.Driver.update_hist);
        (W.c, "reads", fun r -> r.Driver.read_hist);
        (W.d, "reads", fun r -> r.Driver.read_hist);
        (W.d, "inserts", fun r -> r.Driver.insert_hist);
      ]
  in
  Report.table
    ~headers:("workload / op" :: List.map fst all)
    ~rows:median_rows

(* ---- Workload E (scan-heavy): the range-query extension ------------------- *)

let workload_e () =
  Report.heading
    "Workload E (scan-heavy, extension) — range-query throughput across the \
     three structures";
  (* UPSkipList's scan cost beside [writers] concurrent writers: 16
     scanners time 40 scans of 100 keys each while the writers update
     random keys until the last scanner is done. Each row is its own pool
     job on a fresh fixture, so every row starts from the same caches. *)
  let scan_cost writers =
    let cfg = bench_cfg in
    let sys = striped_sys () in
    let pmem = Kv.make_pmem sys in
    let bw = Upskiplist.Skiplist.required_block_words cfg in
    let mem = Memory.Mem.create ~pmem ~chunk_words:(64 * bw) ~block_words:bw ~n_arenas:8 () in
    Memory.Mem.format mem;
    let sl = Upskiplist.Skiplist.create ~mem ~cfg ~max_threads:sys.Kv.max_threads ~seed in
    let run_fibers bodies =
      match
        Sim.Sched.run ~machine:(Pmem.machine pmem)
          (List.mapi (fun tid body -> (tid, body)) bodies)
      with
      | Sim.Sched.Completed _ -> ()
      | Sim.Sched.Crashed_at _ -> failwith "crash"
    in
    run_fibers
      (List.init 8 (fun tid ~tid:_ ->
           let i = ref (tid + 1) in
           while !i <= !scale.n_initial do
             ignore (Upskiplist.Skiplist.upsert sl ~tid !i (!i + 7));
             i := !i + 8
           done));
    let total = ref 0.0 and count = ref 0 and scanning = ref 16 in
    let scanner ~tid =
      let rng = Sim.Rng.create (7000 + tid) in
      for _ = 1 to 40 do
        let lo = 1 + Sim.Rng.int rng (!scale.n_initial - 200) in
        let t0 = Sim.Sched.now () in
        ignore (Upskiplist.Skiplist.range sl ~tid ~lo ~hi:(lo + 100));
        total := !total +. (Sim.Sched.now () -. t0);
        incr count
      done;
      decr scanning
    in
    let writer ~tid =
      let rng = Sim.Rng.create (9000 + tid) in
      while !scanning > 0 do
        let k = 1 + Sim.Rng.int rng !scale.n_initial in
        ignore (Upskiplist.Skiplist.upsert sl ~tid k (k + tid))
      done
    in
    run_fibers (List.init 16 (fun _ -> scanner) @ List.init writers (fun _ -> writer));
    [ string_of_int writers; Printf.sprintf "%.2f" (!total /. float_of_int !count /. 1000.0) ]
  in
  let sweep_jobs =
    List.map
      (fun (name, make) () ->
        let kv = make () in
        Driver.preload kv ~threads:preload_threads ~n:!scale.n_initial;
        `Sweep (name ^ " (Mops/s)", sweep kv ~spec:W.e))
      (structure_makers ())
  in
  let results =
    Sim.Pool.run ~jobs:!jobs
      (sweep_jobs @ List.map (fun w () -> `Row (scan_cost w)) [ 0; 16; 64 ])
  in
  let columns =
    List.filter_map (function `Sweep c -> Some c | `Row _ -> None) results
  in
  let rows = List.filter_map (function `Row r -> Some r | `Sweep _ -> None) results in
  Report.series ~title:"Workload E (95% scans of <=100 keys, 5% inserts)"
    ~x_label:"threads" ~x_values:!scale.threads_sweep ~columns;
  Report.subheading "UPSkipList range cost (100-key scans, 16 scanning threads)";
  Report.table ~headers:[ "concurrent writers"; "mean scan latency (us)" ] ~rows

(* ---- Table 5.4: recovery time ----------------------------------------------- *)

(* Fault's single-crash trial: preload the keyspace, crash an upsert
   workload mid-run, reconnect, and time recovery (pool reopen + the
   structure's recovery fiber). Trial [i] of a row runs its spec with the
   crash point moved [i * 13_337] events and the draw seed [i] later. Every
   trial is a fresh fixture, so the whole 4-structure x 3-trial grid pools
   freely. *)
let recovery_trial_spec (base : Fault.spec) i =
  {
    base with
    threads = 8;
    keyspace = !scale.n_initial / 2;
    ops_per_thread = 2_000;
    read_fraction = 0.0;
    crash_at = Event (50_000 + (i * 13_337));
    draw_seed = seed + i + (!fixture_seed - Kv.default_sys.seed);
    seed = seed + (!fixture_seed - Kv.default_sys.seed);
  }

let recovery_trial_once base i =
  let r = Fault.run_trial (recovery_trial_spec base i) in
  if r.Fault.crashes = 0 then failwith "table5.4: expected crash";
  r.Fault.recovery_ns /. 1.0e9

let table_5_4 () =
  Report.heading "Table 5.4 — recovery time (average of 3 trials)";
  let bztree descriptors =
    { optane_spec with structure = Kv.Bztree; mode = Pmem.Striped; descriptors }
  in
  let entries =
    [
      ("UPSkipList (4 pools)", { optane_spec with cfg = bench_cfg });
      ("BzTree (500K descriptors)", bztree 500_000);
      ("BzTree (100K descriptors)", bztree 100_000);
      ( "libpmemobj lock-based list",
        { optane_spec with structure = Kv.Pmdk; mode = Pmem.Striped } );
    ]
  in
  let times =
    Sim.Pool.map ~jobs:!jobs
      (fun (base, i) -> recovery_trial_once base i)
      (List.concat_map (fun (_, base) -> List.init 3 (fun i -> (base, i))) entries)
  in
  (* regroup the flat trial list: 3 consecutive times per structure *)
  let rows =
    List.mapi
      (fun k (label, _) ->
        let ts =
          List.filteri (fun idx _ -> idx / 3 = k) times
        in
        let mean, sd = Stats.mean_std ts in
        Report.record ~series:"recovery time (ms)" ~column:label ~x:0
          (mean *. 1000.0, sd *. 1000.0);
        (label, mean, sd))
      entries
  in
  Report.table
    ~headers:[ "structure"; "recovery time (ms)"; "stddev" ]
    ~rows:
      (List.map
         (fun (label, mean, sd) ->
           [ label; Printf.sprintf "%.1f" (mean *. 1000.0); Printf.sprintf "%.1f" (sd *. 1000.0) ])
         rows);
  Fmt.pr "@.(paper: 83.7 / 760 / 239 / 55.5 ms)@.";
  Fmt.pr
    "@.replay lines (trial 0 of 3; trial i adds i*13337 to crash_at, i to \
     draw):@.";
  List.iter
    (fun (label, base) ->
      Fmt.pr "  %s: %s@." label (Fault.spec_to_string (recovery_trial_spec base 0)))
    entries

(* ---- Table 2.1: empirical complexity ---------------------------------------- *)

let table_2_1 () =
  Report.heading
    "Table 2.1 (empirical) — expected O(log n) skip list operations: mean \
     simulated latency vs structure size";
  let sizes = [ 1_000; 4_000; 16_000; 64_000 ] in
  let rows =
    Sim.Pool.map ~jobs:!jobs
      (fun n ->
        let kv = Kv.make_upskiplist ~cfg:bench_cfg (striped_sys ()) in
        Driver.preload kv ~threads:4 ~n;
        let res =
          Driver.run_workload kv ~spec:W.a ~threads:1 ~n_initial:n
            ~ops_per_thread:3_000 ~seed
        in
        [
          string_of_int n;
          Printf.sprintf "%.0f" (Sim.Histogram.mean res.Driver.read_hist);
          Printf.sprintf "%.0f" (Sim.Histogram.mean res.Driver.update_hist);
        ])
      sizes
  in
  Report.table ~headers:[ "n (keys)"; "read mean (ns)"; "update mean (ns)" ] ~rows;
  Fmt.pr "@.(latency should grow ~logarithmically — x4 keys, +constant)@."

(* ---- Chapter 6: linearizability campaign ------------------------------------ *)

let chapter6 () =
  Report.heading
    (Printf.sprintf
       "Chapter 6 — black-box strict-linearizability campaign (%d crash \
        trials, UPSkipList)"
       !scale.chapter6_trials);
  let trials = !scale.chapter6_trials in
  (* one trial per crash point, spread over [16k, 24k) events *)
  let step = 8_000 / trials in
  let base =
    {
      optane_spec with
      threads = 8;
      keyspace = 200;
      ops_per_thread = 120;
      draw_seed = seed + 77;
      seed = seed + 77;
    }
  in
  let grid = { Fault.origin = 16_000; stride = step; points = trials; jitter = step } in
  let s =
    Fault.run_campaign ~jobs:!jobs
      { Fault.base; points = Fault.grid_points ~seed:base.seed grid; draws = 1 }
  in
  (match s.Fault.failures with
  | [] ->
      Fmt.pr
        "all %d trials strictly linearizable (paper: 32 power-failure logs, \
         0 violations)@."
        trials
  | failures -> List.iter (Fmt.pr "%a" Fault.pp_failure) failures);
  (* sanity check of the analyzer itself, as in the thesis: inject errors *)
  let trial =
    Fault.run_trial
      {
        optane_spec with
        threads = 4;
        keyspace = 100;
        ops_per_thread = 100;
        crash_at = Event 9_940;
        draw_seed = seed + 99;
        seed = seed + 99;
      }
  in
  let events = Lincheck.History.events trial.Fault.history in
  let mutated =
    List.mapi
      (fun i (e : Lincheck.History.event) ->
        match e.Lincheck.History.kind with
        | Lincheck.History.Read { out = Some _ } when i mod 37 = 0 ->
            { e with Lincheck.History.kind = Lincheck.History.Read { out = Some 999_999_999 } }
        | _ -> e)
      events
  in
  let bad =
    Lincheck.Checker.check
      (Lincheck.History.create
         ~eras:(Lincheck.History.eras trial.Fault.history)
         mutated)
  in
  Fmt.pr "analyzer self-check: %d injected-error violations detected (>0 expected)@."
    (List.length bad)

(* ---- ablations ---------------------------------------------------------------- *)

(* Keys per node: the multi-key-node design choice (Section 4.2). *)
let ablation_keys_per_node () =
  Report.heading "Ablation — keys per node (multi-key nodes, Section 4.2)";
  let ks = [ 1; 4; 16; 64; 256 ] in
  let results =
    Sim.Pool.map ~jobs:!jobs
      (fun k ->
        let cfg = { Upskiplist.Config.default with keys_per_node = k } in
        let kv = Kv.make_upskiplist ~cfg (striped_sys ()) in
        Driver.preload kv ~threads:4 ~n:(!scale.n_initial / 2);
        let run spec =
          (Driver.run_workload kv ~spec ~threads:16
             ~n_initial:(!scale.n_initial / 2)
             ~ops_per_thread:400 ~seed)
            .Driver.throughput_mops
        in
        [ string_of_int k; Printf.sprintf "%.3f" (run W.a); Printf.sprintf "%.3f" (run W.c) ])
      ks
  in
  Report.table
    ~headers:[ "keys/node"; "A Mops/s (16 thr)"; "C Mops/s (16 thr)" ]
    ~rows:results

(* Recovery budget: post-crash throughput throttling (Section 4.4.1). *)
let ablation_recovery_budget () =
  Report.heading
    "Ablation — recoveries per traversal after a crash (Section 4.4.1)";
  let budgets = [ 0; 1; 4; 1_000_000 ] in
  let rows =
    Sim.Pool.map ~jobs:!jobs
      (fun budget ->
        let cfg = { bench_cfg with recovery_budget = budget } in
        let kv = Kv.make_upskiplist ~cfg (multi_sys ()) in
        Driver.preload kv ~threads:4 ~n:(!scale.n_initial / 2);
        (* crash mid-insert-workload *)
        let body ~tid =
          for k = 1_000_000 + tid to 1_050_000 do
            if k mod 8 = tid then ignore (kv.Kv.upsert ~tid k 7)
          done
        in
        (match
           Sim.Sched.run
             ~crash:(Sim.Sched.After_events 60_000)
             ~machine:(Kv.machine kv)
             (List.init 8 (fun tid -> (tid, body)))
         with
        | Sim.Sched.Crashed_at _ -> ()
        | Sim.Sched.Completed _ -> failwith "expected crash");
        Pmem.crash kv.Kv.pmem;
        kv.Kv.reconnect ();
        (* post-recovery read-mostly throughput in two consecutive windows *)
        let window i =
          (Driver.run_workload kv ~spec:W.b
             ~threads:8
             ~n_initial:(!scale.n_initial / 2)
             ~ops_per_thread:400 ~seed:(seed + i))
            .Driver.throughput_mops
        in
        let w1 = window 1 in
        let w2 = window 2 in
        [
          (if budget > 1000 then "unbounded" else string_of_int budget);
          Printf.sprintf "%.3f" w1;
          Printf.sprintf "%.3f" w2;
        ])
      budgets
  in
  Report.table
    ~headers:
      [ "recoveries/traversal"; "post-crash window 1 Mops/s"; "window 2 Mops/s" ]
    ~rows

(* Allocator arenas: free-list contention (Section 4.3.3). *)
let ablation_arenas () =
  Report.heading "Ablation — allocator arenas per pool (Section 4.3.3)";
  let rows =
    Sim.Pool.map ~jobs:!jobs
      (fun n_arenas ->
        let kv = Kv.make_upskiplist ~cfg:bench_cfg ~n_arenas (striped_sys ()) in
        let res =
          (* insert-heavy: allocation on the critical path *)
          Driver.preload kv ~threads:16 ~n:!scale.n_initial;
          Driver.run_workload kv ~spec:W.d ~threads:16
            ~n_initial:!scale.n_initial ~ops_per_thread:400 ~seed
        in
        [ string_of_int n_arenas; Printf.sprintf "%.3f" res.Driver.throughput_mops ])
      [ 1; 2; 8; 32 ]
  in
  Report.table ~headers:[ "arenas"; "D Mops/s (16 thr)" ] ~rows

(* Split point: the tail cut (DESIGN.md, "Split point") bets that inserts
   arrive near-ascending. Each row loads one fiber's n keys into a K = 64
   tree, in key order (the property) or in a seeded random order (without
   it), then measures a window: YCSB C reads, or uniform upserts of odd
   keys between the loaded even ones. A key-order load followed by such
   inserts is where the bet loses: the window pays the splits the load left
   undone, so the load and the window are also reported together. Ten
   fixture seeds per row; window throughput as nearest-rank quartiles, the
   other columns as medians. *)
let split_point () =
  Report.heading "Ablation — split point: inputs with and without ascending runs";
  let n = 2 * !scale.n_initial and threads = 8 in
  let seeds = List.init 10 (fun i -> i + 1) in
  let windows = [ `Reads; `Inserts (n / 20); `Inserts (n / 5); `Inserts n ] in
  let rows =
    List.concat_map
      (fun order -> List.map (fun w -> (order, w)) windows)
      [ `Key_order; `Random_order ]
  in
  let sim kv bodies =
    match Sim.Sched.run ~machine:(Kv.machine kv) bodies with
    | Sim.Sched.Completed { time; _ } -> time
    | Sim.Sched.Crashed_at _ -> failwith "unexpected crash"
  in
  let trial (order, window) s =
    let kv = Kv.make_upskiplist ~cfg:bench_cfg { Kv.default_sys with seed = s } in
    let step = match window with `Reads -> 1 | `Inserts _ -> 2 in
    let keys = Array.init n (fun i -> step * (i + 1)) in
    (if order = `Random_order then
       let rng = Sim.Rng.create (7919 * s) in
       for i = n - 1 downto 1 do
         let j = Sim.Rng.int rng (i + 1) in
         let k = keys.(i) in
         keys.(i) <- keys.(j);
         keys.(j) <- k
       done);
    let splits () = Obs.total Obs.id_split and tails () = Obs.total Obs.id_split_tail in
    let s0 = splits () and t0 = tails () in
    let load_ns =
      sim kv [ (0, fun ~tid -> Array.iter (fun k -> ignore (kv.Kv.upsert ~tid k k)) keys) ]
    in
    let load_splits = splits () - s0 and load_tails = tails () - t0 in
    let s1 = splits () in
    let mops, window_ns =
      match window with
      | `Reads ->
          let r =
            Driver.run_workload kv ~spec:W.c ~threads ~n_initial:n
              ~ops_per_thread:1_000 ~seed:s
          in
          (r.Driver.throughput_mops, r.Driver.sim_ns)
      | `Inserts r ->
          let per = r / threads in
          let ns =
            sim kv
              (List.init threads (fun tid ->
                   ( tid,
                     fun ~tid ->
                       let rng = Sim.Rng.create ((1_000 * s) + tid) in
                       for _ = 1 to per do
                         ignore (kv.Kv.upsert ~tid ((2 * Sim.Rng.int rng n) + 1) 1)
                       done )))
          in
          (float_of_int (per * threads) /. ns *. 1e3, ns)
    in
    [|
      float_of_int load_splits;
      float_of_int load_tails;
      mops;
      float_of_int (splits () - s1);
      (load_ns +. window_ns) /. 1e6;
    |]
  in
  let results =
    Sim.Pool.map ~jobs:!jobs
      (fun row -> (row, List.map (trial row) seeds))
      rows
  in
  let table_rows =
    List.map
      (fun ((order, window), trials) ->
        (* one Stats per column, over the seeds *)
        let col i =
          let st = Stats.create () in
          List.iter (fun t -> Stats.add st t.(i)) trials;
          st
        in
        let mops = col 2 in
        [
          (if order = `Key_order then "key order" else "random order");
          (match window with
          | `Reads -> Printf.sprintf "C reads (%d thr)" threads
          | `Inserts r -> Printf.sprintf "%d odd-key upserts (%d thr)" r threads);
          Printf.sprintf "%.0f (%.0f)" (Stats.median (col 0)) (Stats.median (col 1));
          Printf.sprintf "%.3f / %.3f / %.3f" (Stats.percentile mops 25.0)
            (Stats.median mops) (Stats.percentile mops 75.0);
          Printf.sprintf "%.0f" (Stats.median (col 3));
          Printf.sprintf "%.2f" (Stats.median (col 4));
        ])
      results
  in
  Report.table
    ~headers:
      [
        Printf.sprintf "load (%d keys, 1 fiber)" n;
        "window";
        "load splits (tail)";
        "window Mops/s q1 / med / q3";
        "window splits";
        "load + window sim ms";
      ]
    ~rows:table_rows

let ablations () =
  ablation_keys_per_node ();
  ablation_recovery_budget ();
  ablation_arenas ()

(* ---- node-layout cost table ------------------------------------------------- *)

(* Per-op simulated cache misses, flushes, and fences on the YCSB A path,
   one row set per keys-per-node setting. Machine-readable copy lands in
   bench_layout.json, which bench/dune's layout gate diffs against
   layout_baseline.json. *)
let layout_variants = [ ("K16", Upskiplist.Config.default); ("K64", bench_cfg) ]

let layout () =
  Report.heading
    "Node layout costs (misses/op, flushes/op; YCSB A)";
  let n = 4_000 in
  (* YCSB A proper (read/update), plus an upsert mix with fresh-key inserts
     so the slot-claim path (key+value persistence) is on the table too *)
  let a_ins =
    { W.a with W.label = "A+ins"; update = 0.25; insert = 0.25 }
  in
  let run (label, cfg) () =
    let kv = Kv.make_upskiplist ~cfg (striped_sys ()) in
    Driver.preload kv ~threads:4 ~n;
    List.map
      (fun spec ->
        let res =
          Driver.run_workload kv ~spec ~threads:8 ~n_initial:n
            ~ops_per_thread:400 ~seed
        in
        (label ^ "/" ^ spec.W.label, res.Driver.digests))
      [ W.a; a_ins ]
  in
  let results =
    List.concat (Sim.Pool.run ~jobs:!jobs (List.map run layout_variants))
  in
  let rows =
    List.concat_map
      (fun (label, digests) ->
        List.map
          (fun d ->
            let r id =
              Printf.sprintf "%.3f"
                (float_of_int d.Driver.totals.(id)
                /. float_of_int (max 1 d.Driver.count))
            in
            [
              label;
              d.Driver.op;
              string_of_int d.Driver.count;
              r Obs.id_load_miss;
              r Obs.id_store_miss;
              r Obs.id_flush;
              r Obs.id_dirty_flush;
              r Obs.id_fence;
              r Obs.id_fp_match;
              r Obs.id_fp_false_positive;
              r Obs.id_hint_stop;
              r Obs.id_hint_stale;
            ])
          digests)
      results
  in
  Report.table
    ~headers:
      [
        "variant"; "op"; "n"; "ld-miss/op"; "st-miss/op"; "flush/op";
        "dirty-fl/op"; "fence/op"; "fp-match/op"; "fp-false/op";
        "hint-stop/op"; "hint-stale/op";
      ]
    ~rows;
  Json.write_file "bench_layout.json"
    (Report.metrics_json ~label:"node layout costs (YCSB A, 8 threads)" ~seed
       (List.map
          (fun (label, ds) ->
            ( label,
              List.map
                (fun d -> (d.Driver.op, d.Driver.count, d.Driver.totals))
                ds ))
          results));
  Fmt.pr "layout metrics written to bench_layout.json@."

(* ---- service-layer scaling ----------------------------------------------------- *)

(* Shard-count scaling of the simulated KV service (lib/svc): the same
   offered open-loop load against 1/2/4/8 UPSkipList shards; adding shards
   absorbs the queueing and pulls the tail latency down (and converts shed
   into goodput once one shard saturates). Each row runs the identical
   simulation twice, with every station on the calling domain (--domains
   1) and with one worker domain per shard (--domains = shards); the
   simulated report must be byte-identical, and the two host walls are
   reported side by side. With fewer cores than domains the parallel wall
   only shows the domain-spawn/barrier overhead (EXPERIMENTS.md,
   "Multicore sweeps"). See EXPERIMENTS.md for the recorded run. *)
let svc_scaling () =
  Report.heading
    "Service scaling — sharded KV service, YCSB C at a fixed offered load";
  Fmt.pr "host cores: %d@." (Domain.recommended_domain_count ());
  let cfg shards =
    {
      Svc.Config.default with
      shards;
      zones = shards;
      clients = 16;
      requests_per_client = (if !scale == full then 1_000 else 400);
      offered_mops = 2.0;
      workload = W.c;
      n_initial = 4_096;
      seed;
      sys = { Svc.Config.default.sys with seed };
    }
  in
  (* no Pool.map here: the parallel leg must own the machine's domains *)
  let rows =
    List.map
      (fun shards ->
        let timed domains =
          let t = Unix.gettimeofday () in
          let r = Svc.Domains.run ~domains (cfg shards) in
          (r, Unix.gettimeofday () -. t)
        in
        let r, w_seq = timed 1 in
        let r_par, w_par = timed shards in
        if Json.to_string (Svc.Slo.to_json r) <> Json.to_string (Svc.Slo.to_json r_par)
        then
          failwith
            (Printf.sprintf
               "svc-scaling: report diverged at %d shards (domains 1 vs %d)"
               shards shards);
        let m = Svc.Slo.summarize r.Svc.Slo.merged in
        [
          string_of_int shards;
          Printf.sprintf "%.3f" r.Svc.Slo.goodput_mops;
          Printf.sprintf "%.1f" (100.0 *. r.Svc.Slo.shed_rate);
          Printf.sprintf "%.2f" (m.Svc.Slo.p50 /. 1e3);
          Printf.sprintf "%.2f" (m.Svc.Slo.p99 /. 1e3);
          Printf.sprintf "%.2f" (m.Svc.Slo.p999 /. 1e3);
          Printf.sprintf "%.2f" w_seq;
          Printf.sprintf "%.2f" w_par;
        ])
      [ 1; 2; 4; 8 ]
  in
  Report.table
    ~headers:
      [
        "shards";
        "goodput (Mops/s)";
        "shed (%)";
        "p50 (us)";
        "p99 (us)";
        "p99.9 (us)";
        "seq wall (s)";
        "par wall (s)";
      ]
    ~rows;
  Fmt.pr
    "@.(offered load fixed at 2.0 Mops/s; the tail shrinks as shards absorb \
     the queueing; the simulated columns are byte-identical across domain \
     counts, walls are host time)@."

(* ---- smoke figure (CI) --------------------------------------------------------- *)

(* A deliberately tiny figure for the `bench/smoke` dune alias: one
   structure, two workloads, two thread counts. Finishes in seconds while
   still exercising the full preload → driver → report → --json path. *)
let smoke () =
  Report.heading "Smoke — UPSkipList, workloads A and C (tiny CI figure)";
  let n = 2_000 in
  let threads_sweep = [ 1; 8 ] in
  (* one kv per workload so even the smoke figure exercises the pool (and
     the -j determinism check actually spawns domains in CI) *)
  let per_workload =
    Sim.Pool.map ~jobs:!jobs
      (fun spec ->
        let kv = Kv.make_upskiplist ~cfg:bench_cfg (striped_sys ()) in
        Driver.preload kv ~threads:4 ~n;
        ( spec,
          List.map
            (fun threads ->
              Driver.throughput_trials kv ~spec ~threads ~n_initial:n
                ~ops_per_thread:200 ~seed ~trials:1)
            threads_sweep ))
      [ W.a; W.c ]
  in
  List.iter
    (fun ((spec : W.spec), series) ->
      Report.series
        ~title:(Printf.sprintf "Workload %s (smoke scale)" spec.W.label)
        ~x_label:"threads" ~x_values:threads_sweep
        ~columns:[ ("UPSkipList (Mops/s)", series) ])
    per_workload

(* ---- the paper's claims, checked ---------------------------------------------- *)

(* Each claim of the paper as a predicate over one fixture seed's samples
   ([sample figure series column x]: the mean of the sample whose figure
   heading and series title start with [figure] and [series]). [check]
   says whether the claim holds on that seed and what it measured there.
   A claim is reproduced when it holds on every seed; otherwise it takes
   the status written beside it. *)
type claim = {
  claim : string;
  paper : string;
  check : (string -> string -> string -> int -> float) -> bool * string;
  otherwise : string;
}

let claims_table =
  let ups = "UPSkipList (Mops/s)" and bz = "BzTree (Mops/s)" in
  let pmdk = "PMDK skip list (Mops/s)" in
  let fig51 get series column x = get "Figure 5.1" series column x in
  [
    {
      claim = "Fig 5.1 A: BzTree below UPSkipList, 80 threads";
      paper = "76 % below";
      check =
        (fun get ->
          let r = 1.0 -. (fig51 get "Workload A" bz 80 /. fig51 get "Workload A" ups 80) in
          (r > 0.0, Printf.sprintf "%.0f %%" (100.0 *. r)));
      otherwise = "deviates";
    };
    {
      claim = "Fig 5.1 A: BzTree falls off after its peak";
      paper = "yes";
      check =
        (fun get ->
          let at x = fig51 get "Workload A" bz x in
          let r = (at 80 /. List.fold_left Float.max 0.0 (List.map at [ 1; 8; 80 ])) -. 1.0 in
          (r < 0.0, Printf.sprintf "%+.1f %%" (100.0 *. r)));
      otherwise = "deviates";
    };
    {
      claim = "Fig 5.1 A: PMDK list at or above BzTree, 80 threads";
      paper = "yes";
      check =
        (fun get ->
          let r = fig51 get "Workload A" pmdk 80 /. fig51 get "Workload A" bz 80 in
          (r >= 1.0, Printf.sprintf "%.2fx" r));
      otherwise = "deviates";
    };
    {
      claim = "Fig 5.1 B: UPSkipList slightly ahead of BzTree, 80 threads";
      paper = "slightly";
      check =
        (fun get ->
          let r = fig51 get "Workload B" ups 80 /. fig51 get "Workload B" bz 80 in
          (r > 1.0 && r <= 1.5, Printf.sprintf "%.2fx" r));
      otherwise = "superseded by hints and fingerprints";
    };
    {
      claim = "Fig 5.2 C: BzTree ahead of UPSkipList, 80 threads";
      paper = "+93 %";
      check =
        (fun get ->
          let c column = get "Figure 5.2" "Workload C" column 80 in
          let r = (c bz /. c ups) -. 1.0 in
          (r > 0.0, Printf.sprintf "%+.0f %%" (100.0 *. r)));
      otherwise = "superseded by fingerprints";
    };
    {
      claim = "Fig 5.3: fat-pointer / RIV throughput below 1";
      paper = "~0.70";
      check =
        (fun get ->
          let ratio x =
            get "Figure 5.3" "Workload C" "fat pointers (Mops/s)" x
            /. get "Figure 5.3" "Workload C" "RIV pointers (Mops/s)" x
          in
          let r = List.fold_left (fun a x -> a +. ratio x) 0.0 [ 1; 8; 80 ] /. 3.0 in
          (r < 1.0, Printf.sprintf "%.2f" r));
      otherwise = "deviates";
    };
    {
      claim = "Fig 5.4 / Table 5.2: multi-pool slower than striped";
      paper = "5.6 % average";
      check =
        (fun get ->
          let reduction w =
            let mean column =
              List.fold_left (fun a x -> a +. get "Figure 5.4" ("Workload " ^ w) column x) 0.0
                [ 1; 8; 80 ]
            in
            1.0 -. (mean "multi-pool (Mops/s)" /. mean "striped (Mops/s)")
          in
          let r =
            List.fold_left (fun a w -> a +. reduction w) 0.0 [ "A"; "B"; "C"; "D" ] /. 4.0
          in
          (r > 0.0, Printf.sprintf "%+.1f %%" (100.0 *. r)));
      otherwise = "deviates: the preload's towers set the sign";
    };
    {
      claim = "Table 5.4: BzTree 500K > BzTree 100K > UPSkipList > PMDK list";
      paper = "760 > 239 > 83.7 > 55.5 ms";
      check =
        (fun get ->
          let ms column = get "Table 5.4" "recovery time" column 0 in
          let t =
            List.map ms
              [
                "BzTree (500K descriptors)"; "BzTree (100K descriptors)";
                "UPSkipList (4 pools)"; "libpmemobj lock-based list";
              ]
          in
          let rec descending = function
            | a :: (b :: _ as rest) -> a > b && descending rest
            | _ -> true
          in
          (descending t, String.concat " > " (List.map (Printf.sprintf "%.1f") t)));
      otherwise = "deviates";
    };
  ]

(* The reduced grid the claims run on: the quick scale at 1, 8 and 80
   threads. *)
let claims_scale = { quick with threads_sweep = [ 1; 8; 80 ] }
let claims_seeds = 5

(* Run [f] with everything it prints on stdout going nowhere (its
   samples are still captured). The report's text goes through the std
   formatter, but replacing that formatter's out functions does not hold
   it: the first domain a figure spawns swaps them for buffered ones
   (Format's [before_first_spawn] hook), which printed the text with its
   newlines dropped, and each worker domain prints through a formatter of
   its own. Standard output itself is what all of them share. *)
let quietly f =
  Format.pp_print_flush Format.std_formatter ();
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 null Unix.stdout;
  Unix.close null;
  Fun.protect f ~finally:(fun () ->
      Format.pp_print_flush Format.std_formatter ();
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)

(* Every claim of [claims_table] at [claims_seeds] fixture seeds from
   [--fixture-seed] on, each seed with its own preloads: one line per claim
   with the paper's number, the status and each seed's measurement. The
   figures' own text is not printed, and their samples are not kept. The
   claim and status columns alone land in bench_claims.txt, which
   bench/dune's claims alias diffs against claims_status.txt: the per-seed
   numbers move with every tower redraw, a status only when a claim's
   verdict does. *)
let claims () =
  Report.heading "Paper claims (Fig 5.1-5.4, Table 5.4; threads 1, 8, 80)";
  let first = !fixture_seed and saved_scale = !scale in
  let seeds = List.init claims_seeds (fun i -> first + i) in
  let per_seed =
    List.map
      (fun s ->
        fixture_seed := s;
        scale := claims_scale;
        let before = Report.sample_count () in
        Fun.protect
          (fun () ->
            quietly (fun () ->
                List.iter (fun f -> f ()) [ fig_5_1; fig_5_2; fig_5_3; fig_5_4; table_5_4 ]))
          ~finally:(fun () ->
            fixture_seed := first;
            scale := saved_scale);
        List.filteri (fun i _ -> i >= before) (Report.samples ()))
      seeds
  in
  Report.reset_samples ();
  let starts prefix s = String.starts_with ~prefix s in
  let rows =
    List.map
      (fun c ->
        let results =
          List.map
            (fun samples ->
              c.check (fun figure series column x ->
                  match
                    List.find_opt
                      (fun (r : Report.sample) ->
                        starts figure r.figure && starts series r.series && r.column = column
                        && r.x = x)
                      samples
                  with
                  | Some r -> r.mean
                  | None ->
                      failwith
                        (Printf.sprintf "claims: no sample %s / %s / %s / %d" figure series
                           column x)))
            per_seed
        in
        let held = List.length (List.filter fst results) in
        let status =
          if held = claims_seeds then "reproduced"
          else Printf.sprintf "%s (%d of %d seeds)" c.otherwise held claims_seeds
        in
        [ c.claim; c.paper; status; String.concat " | " (List.map snd results) ])
      claims_table
  in
  Report.table ~headers:[ "claim"; "paper"; "status"; "per seed" ] ~rows;
  let seeds = String.concat ", " (List.map string_of_int seeds) in
  Fmt.pr "@.(fixture seeds %s)@." seeds;
  Out_channel.with_open_text "bench_claims.txt" (fun oc ->
      Printf.fprintf oc "# claim\tstatus (fixture seeds %s)\n" seeds;
      List.iter
        (function
          | claim :: _ :: status :: _ -> Printf.fprintf oc "%s\t%s\n" claim status
          | _ -> ())
        rows);
  Fmt.pr "claim statuses written to bench_claims.txt@."

(* ---- registry ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig5.1", fig_5_1);
    ("fig5.2", fig_5_2);
    ("fig5.3", fig_5_3);
    ("fig5.4", fig_5_4);
    ("fig5.5", fig_5_5_5_6_table_5_3);
    ("table5.4", table_5_4);
    ("workloadE", workload_e);
    ("table2.1", table_2_1);
    ("chapter6", chapter6);
    ("ablations", ablations);
    ("split-point", split_point);
    ("layout", layout);
    ("svc-scaling", svc_scaling);
    ("claims", claims);
    ("smoke", smoke);
  ]

(* every experiment but the smoke figure, in registry order *)
let default_set =
  List.filter (fun n -> n <> "smoke" && n <> "claims") (List.map fst experiments)

let () =
  (* The simulator allocates a handful of small objects per event (effect
     payloads, continuations, waiters); a larger minor heap trades a little
     memory for far fewer collections. Wall clock only — simulated results
     are identical under any GC settings. *)
  Gc.set { (Gc.get ()) with minor_heap_size = 1 lsl 22; space_overhead = 200 };
  let json_path = ref None in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--full" :: rest ->
        scale := full;
        parse acc rest
    | ("-j" | "--jobs") :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            jobs := n;
            parse acc rest
        | _ -> failwith "-j requires a positive integer")
    | [ ("-j" | "--jobs") ] -> failwith "-j requires a positive integer"
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse acc rest
    | "--fixture-seed" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n ->
            fixture_seed := n;
            parse acc rest
        | None -> failwith "--fixture-seed requires an integer")
    | [ "--fixture-seed" ] -> failwith "--fixture-seed requires an integer"
    | [ "--json" ] -> failwith "--json requires a file argument"
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let selected = match args with [] | [ "all" ] -> default_set | names -> names in
  (* a misspelt or retired name fails before any experiment runs *)
  (match List.filter (fun name -> not (List.mem_assoc name experiments)) selected with
  | [] -> ()
  | unknown ->
      List.iter
        (fun name ->
          Fmt.epr "unknown experiment %S; available: %s@." name
            (String.concat ", " (List.map fst experiments)))
        unknown;
      exit 2);
  let t0 = Unix.gettimeofday () in
  let figures = ref [] in
  List.iter
    (fun name ->
      let samples_before = Report.sample_count () in
      let t = Unix.gettimeofday () in
      (List.assoc name experiments) ();
      let wall_s = Unix.gettimeofday () -. t in
      Fmt.pr "@.[%s finished in %.1f s]@." name wall_s;
      let sim =
        (* samples captured by this experiment only *)
        List.filteri (fun i _ -> i >= samples_before) (Report.samples ())
      in
      figures := (name, sim) :: !figures)
    selected;
  let total_wall_s = Unix.gettimeofday () -. t0 in
  Fmt.pr "@.total wall time: %.1f s@." total_wall_s;
  match !json_path with
  | None -> ()
  | Some path ->
      let figures = List.rev !figures in
      Json.write_file path
        (Report.samples_json
           ~label:(Printf.sprintf "upskiplist bench (%d figures)" (List.length figures))
           ~scale:(if !scale == full then "full" else "quick")
           figures);
      Fmt.pr "perf trajectory written to %s@." path
