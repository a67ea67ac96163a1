(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Chapter 5), the correctness campaign (Chapter 6), the
   background complexity table (2.1), and the design-choice ablations
   called out in DESIGN.md.

     dune exec bench/main.exe                 # everything, quick scale
     dune exec bench/main.exe -- fig5.1 table5.4
     dune exec bench/main.exe -- --full all   # larger workloads

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

(* The paper runs the three-way comparison on the striped device. *)
let striped_sys =
  { Kv.default_sys with mode = Pmem.Striped; pool_words = 1 lsl 21 }

let multi_sys = { Kv.default_sys with mode = Pmem.Multi_pool; pool_words = 1 lsl 21 }

let bench_cfg = { Upskiplist.Config.default with keys_per_node = 64; max_height = 24 }

let structure_makers () =
  [
    ("UPSkipList", fun () -> Kv.make_upskiplist ~cfg:bench_cfg striped_sys);
    ("BzTree", fun () -> Kv.make_bztree ~n_descriptors:120_000 striped_sys);
    ("PMDK skip list", fun () -> Kv.make_pmdk_list striped_sys);
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
  let cfg1 = { Upskiplist.Config.default with keys_per_node = 1; max_height = 24 } in
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
          chain (fun () -> Kv.make_upskiplist ~cfg:cfg1 striped_sys);
          chain (fun () -> Kv.make_pmdk_list ~max_height:24 striped_sys);
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
    match Sim.Pool.run ~jobs:!jobs [ chain striped_sys; chain multi_sys ] with
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
                 let stats : Stats.t = pick res in
                 if Stats.count stats = 0 then "-"
                 else Printf.sprintf "%.1f" (Stats.median stats /. 1000.0))
               all;
        ])
      [
        (W.a, "reads", fun (r : Driver.result) -> r.Driver.read_lat);
        (W.a, "updates", fun r -> r.Driver.update_lat);
        (W.b, "reads", fun r -> r.Driver.read_lat);
        (W.b, "updates", fun r -> r.Driver.update_lat);
        (W.c, "reads", fun r -> r.Driver.read_lat);
        (W.d, "reads", fun r -> r.Driver.read_lat);
        (W.d, "inserts", fun r -> r.Driver.insert_lat);
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
  (* snapshot vs per-node-validated range cost on UPSkipList; its own
     skip-list fixture, so it runs as one more pool job beside the sweeps *)
  let range_semantics () =
    let cfg = bench_cfg in
    let sys = striped_sys in
    let pmem = Kv.make_pmem sys in
    let bw = Upskiplist.Skiplist.required_block_words cfg in
    let mem = Memory.Mem.create ~pmem ~chunk_words:(64 * bw) ~block_words:bw ~n_arenas:8 () in
    Memory.Mem.format mem;
    let sl = Upskiplist.Skiplist.create ~mem ~cfg ~max_threads:sys.Kv.max_threads ~seed in
    (match
       Sim.Sched.run ~machine:(Pmem.machine pmem)
         (List.init 8 (fun tid ->
              ( tid,
                fun ~tid ->
                  let i = ref (tid + 1) in
                  while !i <= !scale.n_initial do
                    ignore (Upskiplist.Skiplist.upsert sl ~tid !i (!i + 7));
                    i := !i + 8
                  done )))
     with
    | Sim.Sched.Completed _ -> ()
    | Sim.Sched.Crashed_at _ -> failwith "crash");
    let time_kind name f =
      let total = ref 0.0 and count = ref 0 in
      (match
         Sim.Sched.run ~machine:(Pmem.machine pmem)
           (List.init 16 (fun tid ->
                ( tid,
                  fun ~tid ->
                    let rng = Sim.Rng.create (7000 + tid) in
                    for _ = 1 to 40 do
                      let lo = 1 + Sim.Rng.int rng (!scale.n_initial - 200) in
                      let t0 = Sim.Sched.now () in
                      ignore (f ~tid ~lo ~hi:(lo + 100));
                      total := !total +. (Sim.Sched.now () -. t0);
                      incr count
                    done )))
       with
      | Sim.Sched.Completed _ -> ()
      | Sim.Sched.Crashed_at _ -> failwith "crash");
      (name, !total /. float_of_int !count /. 1000.0)
    in
    [
      time_kind "per-node validated range (paper semantics)"
        (fun ~tid ~lo ~hi -> Upskiplist.Skiplist.range sl ~tid ~lo ~hi);
      time_kind "linearizable snapshot range (extension)"
        (fun ~tid ~lo ~hi -> Upskiplist.Skiplist.range_snapshot sl ~tid ~lo ~hi);
    ]
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
      (sweep_jobs @ [ (fun () -> `Rows (range_semantics ())) ])
  in
  let columns =
    List.filter_map (function `Sweep c -> Some c | `Rows _ -> None) results
  in
  let rows =
    match List.filter_map (function `Rows r -> Some r | `Sweep _ -> None) results with
    | [ r ] -> r
    | _ -> assert false
  in
  Report.series ~title:"Workload E (95% scans of <=100 keys, 5% inserts)"
    ~x_label:"threads" ~x_values:!scale.threads_sweep ~columns;
  Report.subheading "range semantics cost (100-key scans, 16 threads)";
  Report.table
    ~headers:[ "semantics"; "mean latency (us)" ]
    ~rows:(List.map (fun (n, v) -> [ n; Printf.sprintf "%.1f" v ]) rows)

(* ---- Table 5.4: recovery time ----------------------------------------------- *)

(* Fault's single-crash trial: preload the keyspace, crash an upsert
   workload mid-run, reconnect, and time recovery (pool reopen + the
   structure's recovery fiber). Every trial is a fresh fixture, so the
   whole 4-structure x 3-trial grid pools freely. *)
let recovery_trial_once ~make i =
  let r =
    Fault.run_trial ~make
      {
        Fault.default_spec with
        threads = 8;
        keyspace = !scale.n_initial / 2;
        ops_per_thread = 2_000;
        read_fraction = 0.0;
        crash_at = 50_000 + (i * 13_337);
        draw_seed = seed + i;
        seed;
      }
  in
  if r.Fault.crashes = 0 then failwith "table5.4: expected crash";
  r.Fault.recovery_ns /. 1.0e9

let table_5_4 () =
  Report.heading "Table 5.4 — recovery time (average of 3 trials)";
  let entries =
    [
      ( "UPSkipList (4 pools)",
        fun () -> Kv.make_upskiplist ~cfg:bench_cfg multi_sys );
      ( "BzTree (500K descriptors)",
        fun () ->
          Kv.make_bztree ~n_descriptors:500_000
            { striped_sys with pool_words = 1 lsl 23 } );
      ( "BzTree (100K descriptors)",
        fun () -> Kv.make_bztree ~n_descriptors:100_000 striped_sys );
      ( "libpmemobj lock-based list",
        fun () -> Kv.make_pmdk_list striped_sys );
    ]
  in
  let times =
    Sim.Pool.map ~jobs:!jobs
      (fun (_, make, i) -> recovery_trial_once ~make i)
      (List.concat_map
         (fun (label, make) -> List.init 3 (fun i -> (label, make, i)))
         entries)
  in
  (* regroup the flat trial list: 3 consecutive times per structure *)
  let rows =
    List.mapi
      (fun k (label, _) ->
        let ts =
          List.filteri (fun idx _ -> idx / 3 = k) times
        in
        let mean, sd = Stats.mean_std ts in
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
  Fmt.pr "@.(paper: 83.7 / 760 / 239 / 55.5 ms)@."

(* ---- Table 2.1: empirical complexity ---------------------------------------- *)

let table_2_1 () =
  Report.heading
    "Table 2.1 (empirical) — expected O(log n) skip list operations: mean \
     simulated latency vs structure size";
  let sizes = [ 1_000; 4_000; 16_000; 64_000 ] in
  let rows =
    Sim.Pool.map ~jobs:!jobs
      (fun n ->
        let kv = Kv.make_upskiplist ~cfg:bench_cfg striped_sys in
        Driver.preload kv ~threads:4 ~n;
        let res =
          Driver.run_workload kv ~spec:W.a ~threads:1 ~n_initial:n
            ~ops_per_thread:3_000 ~seed
        in
        [
          string_of_int n;
          Printf.sprintf "%.0f" (Stats.mean res.Driver.read_lat);
          Printf.sprintf "%.0f" (Stats.mean res.Driver.update_lat);
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
  let sys = { multi_sys with pool_words = 1 lsl 20 } in
  let make () = Kv.make_upskiplist sys in
  let trials = !scale.chapter6_trials in
  (* one trial per crash point, spread over [16k, 24k) events *)
  let step = 8_000 / trials in
  let s =
    Fault.run_campaign ~jobs:!jobs ~make
      {
        Fault.base =
          {
            Fault.default_spec with
            threads = 8;
            keyspace = 200;
            ops_per_thread = 120;
            draw_seed = seed + 77;
            seed = seed + 77;
          };
        grid = { Fault.origin = 16_000; stride = step; points = trials; jitter = step };
        draws = 1;
      }
  in
  (match s.Fault.failures with
  | [] ->
      Fmt.pr
        "all %d trials strictly linearizable (paper: 32 power-failure logs, \
         0 violations)@."
        trials
  | failures ->
      List.iter
        (fun ((spec : Fault.spec), (r : Fault.result)) ->
          let pr what = Fmt.pr "crash_at %d: %s@." spec.Fault.crash_at what in
          List.iter
            (fun v -> pr (Fmt.str "%a" Lincheck.Checker.pp_violation v))
            r.Fault.violations;
          List.iter (fun e -> pr ("audit: " ^ e)) r.Fault.audit_errors)
        failures);
  (* sanity check of the analyzer itself, as in the thesis: inject errors *)
  let trial =
    Fault.run_trial ~make
      {
        Fault.default_spec with
        threads = 4;
        keyspace = 100;
        ops_per_thread = 100;
        crash_at = 9_940;
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
        let kv = Kv.make_upskiplist ~cfg striped_sys in
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
        let kv = Kv.make_upskiplist ~cfg multi_sys in
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
        let kv = Kv.make_upskiplist ~cfg:bench_cfg ~n_arenas striped_sys in
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

(* Physical removal: memory actually comes back (paper §4.6 follow-up). *)
let ablation_reclamation () =
  Report.heading "Ablation — tombstones vs physical removal (paper §4.6)";
  let run reclaim =
    let cfg = { bench_cfg with keys_per_node = 16; reclaim_empty_nodes = reclaim } in
    let kv = Kv.make_upskiplist ~cfg striped_sys in
    let n = !scale.n_initial / 2 in
    Driver.preload kv ~threads:4 ~n;
    (* remove everything, then measure occupancy *)
    (match
       Sim.Sched.run ~machine:(Kv.machine kv)
         (List.init 4 (fun tid ->
              ( tid,
                fun ~tid ->
                  let i = ref (tid + 1) in
                  while !i <= n do
                    ignore (kv.Kv.remove ~tid !i);
                    i := !i + 4
                  done )))
     with
    | Sim.Sched.Completed _ -> ()
    | Sim.Sched.Crashed_at _ -> failwith "unexpected crash");
    (* quiesced point: let the grace period expire and free everything *)
    (match
       Sim.Sched.run ~machine:(Kv.machine kv)
         [ (0, fun ~tid -> kv.Kv.quiesce ~tid) ]
     with
    | Sim.Sched.Completed _ -> ()
    | Sim.Sched.Crashed_at _ -> failwith "unexpected crash");
    let mem = kv.Kv.mem in
    let free =
      let acc = ref 0 in
      for pool = 0 to Memory.Mem.n_pools mem - 1 do
        for arena = 0 to mem.Memory.Mem.n_arenas - 1 do
          acc := !acc + Memory.Block_alloc.free_list_length mem ~pool ~arena
        done
      done;
      !acc
    in
    let total = Memory.Mem.total_blocks mem in
    [
      (if reclaim then "physical removal" else "tombstones only (paper)");
      string_of_int (total - free);
      string_of_int free;
      string_of_int (Memory.Mem.chunks_allocated mem);
    ]
  in
  Report.table
    ~headers:
      [
        "mode";
        "blocks still held after delete-all";
        "blocks back in the free lists";
        "chunks";
      ]
    ~rows:(Sim.Pool.map ~jobs:!jobs run [ false; true ]);
  Fmt.pr
    "@.(with tombstones every node survives its own deletion; physical \
     removal returns the memory - the reclamation the paper calls out as \
     required future work)@."

let ablations () =
  ablation_keys_per_node ();
  ablation_recovery_budget ();
  ablation_arenas ();
  ablation_reclamation ()

(* ---- node-layout cost table ------------------------------------------------- *)

(* Per-op simulated cache misses, flushes, and fences on the YCSB A path,
   one row set per keys-per-node setting. Machine-readable copy lands in
   bench_layout.json (consumed by bench/check_layout_regression.sh). *)
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
    let kv = Kv.make_upskiplist ~cfg striped_sys in
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

(* ---- bechamel micro-benchmarks ------------------------------------------------ *)

(* Host-time microbenchmarks of the core op paths (one Test.make per
   table/figure subject), run with a small quota. *)
let micro () =
  Report.heading "Bechamel micro-benchmarks (host time per simulated op)";
  let make_env () =
    let sys = { striped_sys with latency = Pmem.Latency.uniform } in
    let kv = Kv.make_upskiplist ~cfg:bench_cfg sys in
    Driver.preload kv ~threads:4 ~n:5_000;
    kv
  in
  let kv = make_env () in
  let bz = Kv.make_bztree ~n_descriptors:120_000 { striped_sys with latency = Pmem.Latency.uniform } in
  Driver.preload bz ~threads:4 ~n:5_000;
  let pl = Kv.make_pmdk_list { striped_sys with latency = Pmem.Latency.uniform } in
  Driver.preload pl ~threads:4 ~n:5_000;
  let counter = ref 0 in
  let one_op (kv : Kv.t) op () =
    incr counter;
    let k = 1 + (!counter * 7919 mod 5_000) in
    match
      Sim.Sched.run ~machine:(Kv.machine kv)
        [
          ( 0,
            fun ~tid ->
              match op with
              | `Search -> ignore (kv.Kv.search ~tid k)
              | `Upsert -> ignore (kv.Kv.upsert ~tid k (1 + !counter)) );
        ]
    with
    | Sim.Sched.Completed _ -> ()
    | Sim.Sched.Crashed_at _ -> assert false
  in
  let open Bechamel in
  let tests =
    [
      Test.make ~name:"fig5.1/upskiplist-upsert" (Staged.stage (one_op kv `Upsert));
      Test.make ~name:"fig5.1/bztree-upsert" (Staged.stage (one_op bz `Upsert));
      Test.make ~name:"fig5.1/pmdk-upsert" (Staged.stage (one_op pl `Upsert));
      Test.make ~name:"fig5.2/upskiplist-search" (Staged.stage (one_op kv `Search));
      Test.make ~name:"fig5.2/bztree-search" (Staged.stage (one_op bz `Search));
      Test.make ~name:"fig5.2/pmdk-search" (Staged.stage (one_op pl `Search));
    ]
  in
  let cfg = Benchmark.cfg ~quota:(Time.second 0.5) ~limit:500 () in
  let raws =
    Benchmark.all cfg
      Toolkit.Instance.[ monotonic_clock ]
      (Test.make_grouped ~name:"micro" tests)
  in
  let analysis =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  Hashtbl.iter
    (fun name raw ->
      match Analyze.one analysis Toolkit.Instance.monotonic_clock raw with
      | ols -> (
          match Analyze.OLS.estimates ols with
          | Some (est :: _) -> Fmt.pr "  %-36s %12.0f ns/op (host)@." name est
          | _ -> Fmt.pr "  %-36s (no estimate)@." name)
      | exception _ -> Fmt.pr "  %-36s (analysis failed)@." name)
    raws

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

(* ---- tail anatomy --------------------------------------------------------------- *)

(* Power-fail tail anatomy: a 4-shard service campaign with span recording,
   crashing shard 1 at a seeded grid of virtual times. The aggregated
   anatomy table attributes the p99.9 cohort's excess latency to named
   phases — recovery overlap inside the queue wait dominating. -j safe:
   trials run on pool domains, all printing happens after collection. *)
let tail_anatomy () =
  Report.heading
    "Tail anatomy — power-fail campaign, per-phase p99.9 attribution";
  let points = if !scale == full then 6 else 3 in
  let grid =
    { Fault.origin = 40_000; stride = 25_000; points; jitter = 5_000 }
  in
  let crash_times = Fault.grid_points ~seed grid in
  let cfg at_ns =
    {
      Svc.Config.default with
      shards = 4;
      zones = 4;
      clients = 8;
      requests_per_client = (if !scale == full then 400 else 200);
      offered_mops = 4.0;
      workload = W.a;
      queue_cap = 64;
      n_initial = 1_024;
      seed;
      spans = true;
      crash =
        Some
          { Svc.Config.crash_shard = 1; crash_at_ns = float_of_int at_ns };
    }
  in
  let reports =
    Sim.Pool.map ~jobs:!jobs (fun at -> Svc.Domains.run (cfg at)) crash_times
  in
  let merged =
    Sim.Histogram.merge_list (List.map (fun r -> r.Svc.Slo.merged) reports)
  in
  match List.filter_map (fun r -> r.Svc.Slo.spans) reports with
  | [] -> Fmt.pr "no spans recorded@."
  | summaries ->
      let summary = Svc.Slo.merge_summaries summaries in
      Fmt.pr "%d trials, crash shard 1 at %s us@." (List.length crash_times)
        (String.concat "/"
           (List.map
              (fun at -> Printf.sprintf "%.1f" (float_of_int at /. 1_000.0))
              crash_times));
      Fmt.pr "%a@." (fun fmt () -> Svc.Slo.pp_anatomy fmt ~merged summary) ()

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
        let kv = Kv.make_upskiplist ~cfg:bench_cfg striped_sys in
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

(* ---- observability artifacts (--trace / --metrics-json) ------------------------ *)

(* Instrumented passes: a YCSB A run with per-op counter attribution
   (optionally recording a Chrome trace of it) and a small crash-recovery
   campaign whose counter digest isolates the lazy-repair cost. Both are
   deterministic: the same seed yields byte-identical artifacts. *)
let obs_artifacts ~trace_path ~metrics_path () =
  Report.heading
    "Observability — per-op counter attribution (YCSB A + crash recovery)";
  let kv = Kv.make_upskiplist ~cfg:bench_cfg striped_sys in
  let n = 2_000 in
  Driver.preload kv ~threads:4 ~n;
  Obs.reset ();
  if trace_path <> None then Obs.Trace.start ~capacity:(1 lsl 16) ();
  let res =
    Driver.run_workload kv ~spec:W.a ~threads:8 ~n_initial:n
      ~ops_per_thread:200 ~seed
  in
  Obs.Trace.stop ();
  (match trace_path with
  | Some path ->
      Json.write_file path (Obs.Trace.to_chrome ());
      Fmt.pr "trace: %d events (%d dropped) -> %s@." (Obs.Trace.recorded ())
        (Obs.Trace.dropped ()) path
  | None -> ());
  let ycsb_digests =
    List.map
      (fun d -> (d.Driver.op, d.Driver.count, d.Driver.totals))
      res.Driver.digests
  in
  Report.digest_table
    ~title:"YCSB A per-op persistence cost (UPSkipList, 8 threads)"
    ycsb_digests;
  (* crash-recovery campaign: two rounds per trial, so round 1 runs on a
     freshly crashed structure and performs its lazy repairs inline *)
  let before = Obs.totals () in
  let campaign =
    {
      Fault.base = { Fault.default_spec with rounds = 2; seed };
      grid = { Fault.origin = 8_000; stride = 6_000; points = 2; jitter = 500 };
      draws = 1;
    }
  in
  let s = Fault.run_campaign ~jobs:!jobs campaign in
  Fault.print_summary ~name:"observability crash-recovery digest" s;
  let after = Obs.totals () in
  let delta = Array.init Obs.n_ids (fun id -> after.(id) - before.(id)) in
  let recovery_digests = [ ("trial", s.Fault.trials, delta) ] in
  Report.digest_table
    ~title:"crash-recovery campaign counter digest (per crashed trial)"
    recovery_digests;
  match metrics_path with
  | Some path ->
      Json.write_file path
        (Report.metrics_json ~label:"bench observability" ~seed
           [ ("ycsb-a", ycsb_digests); ("crash-recovery", recovery_digests) ]);
      Fmt.pr "metrics written to %s@." path
  | None -> ()

(* ---- registry ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig5.1", fig_5_1);
    ("fig5.2", fig_5_2);
    ("fig5.3", fig_5_3);
    ("fig5.4", fig_5_4);
    ("fig5.5", fig_5_5_5_6_table_5_3);
    ("table5.3", fig_5_5_5_6_table_5_3);
    ("table5.4", table_5_4);
    ("workloadE", workload_e);
    ("table2.1", table_2_1);
    ("chapter6", chapter6);
    ("ablations", ablations);
    ("layout", layout);
    ("svc-scaling", svc_scaling);
    ("tail-anatomy", tail_anatomy);
    ("micro", micro);
    ("smoke", smoke);
  ]

(* run each distinct function once even when selected under two names *)
let default_set =
  [
    "fig5.1"; "fig5.2"; "fig5.3"; "fig5.4"; "fig5.5"; "table5.4"; "workloadE";
    "table2.1"; "chapter6"; "ablations"; "layout"; "svc-scaling";
    "tail-anatomy";
  ]

let () =
  (* The simulator allocates a handful of small objects per event (effect
     payloads, continuations, waiters); a larger minor heap trades a little
     memory for far fewer collections. Wall clock only — simulated results
     are identical under any GC settings. *)
  Gc.set { (Gc.get ()) with minor_heap_size = 1 lsl 22; space_overhead = 200 };
  let json_path = ref None in
  let trace_path = ref None in
  let metrics_path = ref None in
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
    | [ "--json" ] -> failwith "--json requires a file argument"
    | "--trace" :: path :: rest ->
        trace_path := Some path;
        parse acc rest
    | [ "--trace" ] -> failwith "--trace requires a file argument"
    | "--metrics-json" :: path :: rest ->
        metrics_path := Some path;
        parse acc rest
    | [ "--metrics-json" ] -> failwith "--metrics-json requires a file argument"
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let selected =
    match args with
    (* asking only for observability artifacts runs only the instrumented
       passes, not the whole default figure set *)
    | [] when !trace_path <> None || !metrics_path <> None -> []
    | [] | [ "all" ] -> default_set
    | names -> names
  in
  let t0 = Unix.gettimeofday () in
  let figures = ref [] in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
          let samples_before = Report.sample_count () in
          let t = Unix.gettimeofday () in
          f ();
          let wall_s = Unix.gettimeofday () -. t in
          Fmt.pr "@.[%s finished in %.1f s]@." name wall_s;
          let sim =
            (* samples captured by this experiment only *)
            List.filteri
              (fun i _ -> i >= samples_before)
              (Report.samples ())
          in
          figures := (name, sim) :: !figures
      | None ->
          Fmt.epr "unknown experiment %S; available: %s@." name
            (String.concat ", " (List.map fst experiments)))
    selected;
  (if !trace_path <> None || !metrics_path <> None then begin
     let t = Unix.gettimeofday () in
     obs_artifacts ~trace_path:!trace_path ~metrics_path:!metrics_path ();
     Fmt.pr "@.[observability finished in %.1f s]@." (Unix.gettimeofday () -. t)
   end);
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
