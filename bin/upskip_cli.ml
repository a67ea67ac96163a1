(* Command-line driver for the UPSkipList reproduction.

     upskip_cli run --structure upskiplist --workload a --threads 16
     upskip_cli crash-sweep --structure bztree --points 4 --depth 2
     upskip_cli crash-replay structure=upskiplist crash_at=5000 mutant=dangle

   Everything executes on the simulated-PMEM machine; reported times are
   simulated nanoseconds (see DESIGN.md). *)

module Kv = Harness.Kv
module Driver = Harness.Driver

open Cmdliner

(* ---- shared options -------------------------------------------------------- *)

(* converters over the one spelling table per vocabulary in Harness.Kv *)
let spelling parse name =
  Arg.conv ((fun s -> Result.map_error (fun e -> `Msg e) (parse s)), Fmt.of_to_string name)

let structure_t =
  Arg.(
    value
    & opt (spelling Kv.structure_of_string Kv.structure_name) Kv.Upskiplist
    & info [ "s"; "structure" ] ~doc:"Structure: upskiplist | bztree | pmdk.")

let mode_t =
  Arg.(
    value
    & opt (spelling Kv.mode_of_string Kv.mode_name) Pmem.Striped
    & info [ "mode" ] ~doc:"PMEM layout: striped (one pool) or numa (one pool per node).")

let latency_t =
  Arg.(
    value
    & opt (spelling Kv.latency_of_string Kv.latency_name) Kv.Uniform
    & info [ "latency" ] ~doc:"Latency model: uniform | optane.")

let threads_t =
  Arg.(value & opt int 8 & info [ "t"; "threads" ] ~doc:"Simulated threads.")

let keys_t =
  Arg.(value & opt int 10_000 & info [ "k"; "keys" ] ~doc:"Preloaded keys.")

let ops_t =
  Arg.(value & opt int 20_000 & info [ "o"; "ops" ] ~doc:"Total operations.")

let seed_t = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let descriptors_t =
  Arg.(
    value & opt int 100_000
    & info [ "descriptors" ] ~doc:"PMwCAS descriptor pool size (BzTree).")

let workload_t =
  Arg.(
    value & opt string "a"
    & info [ "w"; "workload" ] ~doc:"YCSB workload: a | b | c | d | e.")

let make_kv structure mode descriptors =
  let sys = { Kv.default_sys with mode; pool_words = 1 lsl 22 } in
  match structure with
  | Kv.Upskiplist ->
      Kv.make_upskiplist
        ~cfg:{ Upskiplist.Config.default with keys_per_node = 64 }
        sys
  | Kv.Bztree -> Kv.make_bztree ~n_descriptors:descriptors sys
  | Kv.Pmdk -> Kv.make_pmdk_list sys

(* ---- run ------------------------------------------------------------------- *)

(* With --trace-out the measured run records an event trace (the preload
   runs untraced) and exports it as Chrome trace_event JSON (open in
   about://tracing or https://ui.perfetto.dev); --metrics-json writes the
   per-op counter digests. Deterministic: the same seed produces
   byte-identical artifacts. *)
let run_cmd structure mode workload threads keys ops seed descriptors trace_out
    metrics_out capacity =
  let kv = make_kv structure mode descriptors in
  let spec = Ycsb.Workload.by_label workload in
  Fmt.pr "preloading %d keys into %s...@." keys kv.Kv.name;
  Driver.preload kv ~threads:(min threads 8) ~n:keys;
  if trace_out <> None then Obs.Trace.start ~capacity ();
  let res =
    Driver.run_workload kv ~spec ~threads ~n_initial:keys
      ~ops_per_thread:(max 1 (ops / threads))
      ~seed
  in
  Obs.Trace.stop ();
  Fmt.pr "workload %s on %s, %d threads:@." spec.Ycsb.Workload.label kv.Kv.name
    threads;
  Fmt.pr "  throughput  %.3f Mops/s (simulated)@." res.Driver.throughput_mops;
  Fmt.pr "  span        %.3f ms simulated for %d ops@."
    (res.Driver.sim_ns /. 1e6) res.Driver.ops;
  List.iter
    (fun (label, hist) ->
      if Sim.Histogram.count hist > 0 then
        Fmt.pr "  %-8s p50 %.1f us   p99 %.1f us   p99.9 %.1f us@." label
          (Sim.Histogram.percentile hist 50.0 /. 1e3)
          (Sim.Histogram.percentile hist 99.0 /. 1e3)
          (Sim.Histogram.percentile hist 99.9 /. 1e3))
    [
      ("reads", res.Driver.read_hist);
      ("updates", res.Driver.update_hist);
      ("inserts", res.Driver.insert_hist);
      ("scans", res.Driver.scan_hist);
    ];
  Option.iter
    (fun path ->
      Json.write_file path (Obs.Trace.to_chrome ());
      Fmt.pr "trace: %d events (%d dropped) -> %s@." (Obs.Trace.recorded ())
        (Obs.Trace.dropped ()) path)
    trace_out;
  let digests =
    List.map
      (fun d -> (d.Driver.op, d.Driver.count, d.Driver.totals))
      res.Driver.digests
  in
  Harness.Report.digest_table
    ~title:
      (Printf.sprintf "workload %s per-op persistence cost (%s, %d threads)"
         spec.Ycsb.Workload.label kv.Kv.name threads)
    digests;
  Option.iter
    (fun path ->
      Json.write_file path
        (Harness.Report.metrics_json
           ~label:(Printf.sprintf "%s workload %s" kv.Kv.name spec.Ycsb.Workload.label)
           ~seed
           [ ("ycsb-" ^ spec.Ycsb.Workload.label, digests) ]);
      Fmt.pr "metrics written to %s@." path)
    metrics_out;
  0

let trace_out_t =
  Arg.(
    value & opt (some string) None
    & info [ "trace-out" ]
        ~doc:
          "Record an event trace of the measured run and write Chrome \
           trace_event JSON here (serve-sim adds windowed counter tracks \
           when --spans).")

let metrics_json_t =
  Arg.(
    value & opt (some string) None
    & info [ "metrics-json" ] ~doc:"Also write per-op counter digests as JSON.")

let trace_capacity_t =
  Arg.(
    value & opt int 65_536
    & info [ "capacity" ]
        ~doc:"Trace ring capacity in events (oldest events drop beyond it).")

let run_term =
  Term.(
    const run_cmd $ structure_t $ mode_t $ workload_t $ threads_t $ keys_t
    $ ops_t $ seed_t $ descriptors_t $ trace_out_t $ metrics_json_t
    $ trace_capacity_t)

(* ---- crash-sweep ------------------------------------------------------------- *)

module Fault = Harness.Fault

let jobs_t =
  Arg.(
    value
    & opt int (Sim.Pool.default_jobs ())
    & info [ "j"; "jobs" ]
        ~doc:
          "Worker domains for independent trials (1 = sequential). Results \
           are identical for any value.")

let keyspace_t =
  Arg.(value & opt int 120 & info [ "keyspace" ] ~doc:"Workload keyspace.")

let sweep_ops_t =
  Arg.(value & opt int 100 & info [ "ops-per-thread" ] ~doc:"Ops per thread per round.")

let rounds_t =
  Arg.(value & opt int 1 & info [ "rounds" ] ~doc:"Workload rounds, each crashed.")

let depth_t =
  Arg.(
    value & opt int 2
    & info [ "depth" ] ~doc:"Crash points injected into the recovery fiber itself.")

let evict_t =
  Arg.(
    value & opt float 0.0
    & info [ "evict" ]
        ~doc:
          "Persisted-state adversary: the probability in [0,1] that each \
           dirty cache line persists at a power failure (0 loses them all).")

let draws_t =
  Arg.(
    value & opt int 2
    & info [ "draws" ] ~doc:"Persisted-state draws per crash point.")

let origin_t =
  Arg.(value & opt int 5_000 & info [ "origin" ] ~doc:"First crash point (events).")

let stride_t =
  Arg.(value & opt int 5_000 & info [ "stride" ] ~doc:"Crash-point spacing.")

let points_t =
  Arg.(value & opt int 4 & info [ "points" ] ~doc:"Crash points in the sweep.")

let jitter_t =
  Arg.(
    value & opt int 500
    & info [ "jitter" ] ~doc:"Seeded displacement added to each grid point.")

let shrink_t =
  Arg.(
    value & flag
    & info [ "shrink" ] ~doc:"On failure, shrink the first failing trial to a minimal spec.")

let mutant_t =
  Arg.(
    value & opt string "none"
    & info [ "mutant" ]
        ~doc:
          "Self-validation mutant applied after recovery: none | skip_resolve \
           | lose_key | skip_fp_repair | raise_hint | dangle | stale_tower_anchor.")

let sweep_detect_t =
  Arg.(
    value & flag
    & info [ "detect" ]
        ~doc:
          "Detectable operations: route upserts through per-client \
           persistent descriptors, replay unacked ops after each crash and \
           check exactly-once histories.")

let json_out_t =
  Arg.(
    value & opt (some string) None
    & info [ "json-out" ] ~doc:"Write the deterministic JSON summary here.")

let base_spec structure mode latency threads keyspace ops rounds depth evict seed
    mutant detect =
  Fault.validate
    {
      Fault.default_spec with
      structure;
      latency;
      mode;
      threads;
      keyspace;
      ops_per_thread = ops;
      rounds;
      depth;
      evict;
      draw_seed = seed + 1;
      seed;
      mutant;
      detect;
    }

let report_failures ~shrink failures =
  List.iteri
    (fun i ((spec : Fault.spec), (res : Fault.result)) ->
      Fmt.pr "@.FAILURE %d: %d violation(s), %d audit error(s)@." i
        (List.length res.Fault.violations)
        (List.length res.Fault.audit_errors);
      List.iter
        (fun v -> Fmt.pr "  %a@." Lincheck.Checker.pp_violation v)
        res.Fault.violations;
      List.iter (fun e -> Fmt.pr "  audit: %s@." e) res.Fault.audit_errors;
      Option.iter (Fmt.pr "  raised: %s@.") res.Fault.raised;
      Fmt.pr "  replay: %s@." (Fault.spec_to_string spec);
      if shrink && i = 0 then begin
        Fmt.pr "  shrinking...@.";
        let small = Fault.shrink spec in
        Fmt.pr "  minimal: %s@." (Fault.spec_to_string small)
      end)
    failures

(* Deterministic campaign summary (stable across reruns and -j), read by
   the exactly-once runtest gate. *)
let write_campaign_json path (base : Fault.spec) (s : Fault.summary) =
  Json.write_file path
    (Json.Schema.doc Json.Schema.crash_campaign
       [
         ("structure", Json.Str (Kv.structure_name base.Fault.structure));
         ("mutant", Json.Str base.Fault.mutant); ("trials", Json.int s.Fault.trials);
         ("crashed_trials", Json.int s.Fault.crashed_trials);
         ("total_crashes", Json.int s.Fault.total_crashes);
         ("audit_passes", Json.int s.Fault.audit_passes);
         ("audit_failures", Json.int s.Fault.audit_failures);
         ("violation_trials", Json.int s.Fault.violation_trials);
         ("replays", Json.int s.Fault.replays);
         ("suppressions", Json.int s.Fault.suppressions);
         ( "failures",
           Json.List
             (List.map (fun (spec, _) -> Json.Str (Fault.spec_to_string spec)) s.Fault.failures)
         );
       ]);
  Fmt.pr "campaign summary written to %s@." path

let sweep_cmd structure mode latency threads keyspace ops rounds depth evict
    draws origin stride points jitter seed mutant detect shrink jobs json_out =
  match
    base_spec structure mode latency threads keyspace ops rounds depth evict seed
      mutant detect
  with
  | Error e ->
      Fmt.epr "crash-sweep: %s@." e;
      2
  | Ok base ->
      let campaign =
        { Fault.base; grid = { Fault.origin; stride; points; jitter }; draws }
      in
      Fmt.pr "adversarial crash sweep on %s: %d points x %d draws, depth %d%s@."
        (Kv.structure_name base.Fault.structure) points draws depth
        (if detect then ", detectable ops" else "");
      let before = Obs.totals () in
      let s = Fault.run_campaign ~jobs campaign in
      let after = Obs.totals () in
      Fault.print_summary ~name:(Kv.structure_name base.Fault.structure) s;
      (* the campaign's counter delta: with --rounds 2, round 1 runs on a
         freshly crashed structure and pays its lazy repairs inline *)
      Harness.Report.digest_table
        ~title:"crash-recovery campaign counter digest (per crashed trial)"
        [ ("trial", s.Fault.trials, Array.map2 ( - ) after before) ];
      report_failures ~shrink s.Fault.failures;
      Option.iter (fun path -> write_campaign_json path base s) json_out;
      if s.Fault.failures = [] then 0 else 1

let sweep_term =
  Term.(
    const sweep_cmd $ structure_t $ mode_t $ latency_t $ threads_t $ keyspace_t
    $ sweep_ops_t $ rounds_t $ depth_t $ evict_t $ draws_t $ origin_t $ stride_t
    $ points_t $ jitter_t $ seed_t $ mutant_t $ sweep_detect_t $ shrink_t
    $ jobs_t $ json_out_t)

(* ---- crash-replay ------------------------------------------------------------- *)

let spec_tokens_t =
  Arg.(
    non_empty & pos_all string []
    & info [] ~docv:"SPEC"
        ~doc:
          "Replay spec as printed by crash-sweep (key=value tokens; quoting the \
           whole line as one argument also works). $(b,mutant=) takes none | \
           skip_resolve | lose_key | skip_fp_repair | raise_hint | dangle | \
           stale_tower_anchor.")

let replay_cmd tokens =
  let line = String.concat " " tokens in
  match Fault.spec_of_string line with
  | Error e ->
      Fmt.epr "crash-replay: %s@." e;
      2
  | Ok spec ->
      Fmt.pr "replaying: %s@." (Fault.spec_to_string spec);
      let res = Fault.run_spec spec in
      Fmt.pr "crashes %d (first at %d events), recoveries audited %d, \
              recovery %.2f ms@."
        res.Fault.crashes res.Fault.crash_events res.Fault.audits
        (res.Fault.recovery_ns /. 1.0e6);
      if res.Fault.completed_events > 0 then
        Fmt.pr "%s@."
          (Fault.missed_message (spec.Fault.crash_at, res.Fault.completed_events));
      List.iter
        (fun v -> Fmt.pr "VIOLATION: %a@." Lincheck.Checker.pp_violation v)
        res.Fault.violations;
      List.iter (fun e -> Fmt.pr "AUDIT: %s@." e) res.Fault.audit_errors;
      Option.iter (Fmt.pr "RAISED: %s@.") res.Fault.raised;
      if Fault.failed res then begin
        Fmt.pr "verdict: FAIL@.";
        1
      end
      else begin
        Fmt.pr "verdict: PASS@.";
        0
      end

let replay_term = Term.(const replay_cmd $ spec_tokens_t)

(* ---- serve-sim ----------------------------------------------------------------- *)

(* Simulated sharded KV service (lib/svc): open-loop clients over
   hash-routed per-zone shards with batching, group flush, admission
   control, and an SLO report. Deterministic: the same options produce
   byte-identical SLO JSON. *)

let serve_cmd structure shards zones clients requests load arrival workload
    batch queue_cap keys latency shard_mode shard_nodes seed crash_shard
    crash_at_us json_out spans window_us span_json trace_out trace_capacity
    detect domains exchange_ns obs_out =
  let ( let* ) r f =
    match r with
    | Error e ->
        Fmt.epr "serve-sim: %s@." e;
        2
    | Ok v -> f v
  in
  let* arrival = Sim.Arrival.kind_of_string arrival in
  let* workload =
    match Ycsb.Workload.by_label workload with
    | spec -> Ok spec
    | exception Invalid_argument e -> Error e
  in
  let crash =
    if crash_shard < 0 then None
    else
      Some
        { Svc.Config.crash_shard; crash_at_ns = crash_at_us *. 1_000.0 }
  in
  let cfg =
    {
      Svc.Config.structure;
      shards;
      zones;
      clients;
      requests_per_client = requests;
      offered_mops = load;
      arrival;
      workload;
      n_initial = keys;
      batch;
      queue_cap;
      seed;
      sys =
        {
          Kv.default_sys with
          latency = Kv.latency_params latency;
          mode = shard_mode;
          numa_nodes = shard_nodes;
          pool_words = 1 lsl 20;
          seed;
        };
      crash;
      spans = spans || span_json <> None;
      window_ns = window_us *. 1_000.0;
      detect;
      exchange_ns;
    }
  in
  let* () = Svc.Config.validate cfg in
  if trace_out <> None then Obs.Trace.start ~capacity:trace_capacity ();
  let report = Svc.Domains.run ~domains cfg in
  Obs.Trace.stop ();
  Svc.Slo.pp Format.std_formatter report;
  (match json_out with
  | Some path ->
      Json.write_file path (Svc.Slo.to_json report);
      Fmt.pr "SLO report written to %s@." path
  | None -> ());
  (match span_json with
  | Some path ->
      Json.write_file path (Svc.Slo.spans_to_json report);
      Fmt.pr "span summary written to %s@." path
  | None -> ());
  (match obs_out with
  | Some path ->
      (* deterministic counter totals, for the domain-determinism gate *)
      Json.write_file path
        (Json.Schema.doc Json.Schema.obs_totals
           [
             ( "totals",
               Json.Obj
                 (Array.to_list (Array.mapi (fun i v -> (Obs.id_name i, Json.int v)) (Obs.totals ())))
             );
           ]);
      Fmt.pr "Obs totals written to %s@." path
  | None -> ());
  (match trace_out with
  | Some path ->
      (* windowed SLO series ride along as Chrome counter tracks *)
      let w_ns = report.Svc.Slo.window_ns in
      let series f =
        List.map
          (fun w -> (float_of_int w.Svc.Slo.w_idx *. w_ns, f w))
          report.Svc.Slo.windows
      in
      let p99 i w =
        let h = w.Svc.Slo.w_phase.(i) in
        if Sim.Histogram.count h = 0 then 0.0
        else Sim.Histogram.percentile h 99.0
      in
      let counter_tracks =
        if report.Svc.Slo.windows = [] then []
        else
          [
            ("completed/window", series (fun w -> float_of_int w.Svc.Slo.w_completed));
            ("shed/window", series (fun w -> float_of_int w.Svc.Slo.w_shed));
            ("fences/window", series (fun w -> float_of_int w.Svc.Slo.w_fences));
            ("queue depth", series (fun w -> w.Svc.Slo.w_depth));
            ("queue p99 (ns)", series (p99 Obs.Span.ph_queue));
            ("commit p99 (ns)", series (p99 Obs.Span.ph_commit));
          ]
      in
      Json.write_file path (Obs.Trace.to_chrome ~counter_tracks ());
      Fmt.pr "trace: %d events (%d dropped) -> %s@." (Obs.Trace.recorded ())
        (Obs.Trace.dropped ()) path
  | None -> ());
  0

let shards_t =
  Arg.(value & opt int 4 & info [ "shards" ] ~doc:"Shard (structure) count.")

let zones_t =
  Arg.(
    value & opt int 4
    & info [ "zones" ] ~doc:"Simulated NUMA zones; shard s pins to s mod zones.")

let clients_t =
  Arg.(value & opt int 16 & info [ "clients" ] ~doc:"Open-loop connections.")

let requests_t =
  Arg.(
    value & opt int 512 & info [ "requests" ] ~doc:"Requests per connection.")

let load_t =
  Arg.(
    value & opt float 2.0
    & info [ "load" ] ~doc:"Aggregate offered load in Mops/s.")

let arrival_t =
  Arg.(
    value & opt string "poisson"
    & info [ "arrival" ] ~doc:"Inter-arrival process: poisson | fixed | jitter:<f>.")

let batch_t =
  Arg.(
    value & opt int 8
    & info [ "batch" ] ~doc:"Max requests coalesced into one worker batch.")

let queue_cap_t =
  Arg.(
    value & opt int 256
    & info [ "queue-cap" ]
        ~doc:"Per-shard admission-control queue bound; overflow is shed.")

let shard_nodes_t =
  Arg.(
    value & opt int 1
    & info [ "shard-nodes" ] ~doc:"NUMA nodes inside each shard's device.")

let crash_shard_t =
  Arg.(
    value & opt int (-1)
    & info [ "crash-shard" ] ~doc:"Crash this shard mid-run (-1 = no crash).")

let crash_at_t =
  Arg.(
    value & opt float 50.0
    & info [ "crash-at-us" ] ~doc:"Simulated crash time in microseconds.")

let serve_json_t =
  Arg.(
    value & opt (some string) None
    & info [ "json-out" ] ~doc:"Write the deterministic SLO report JSON here.")

let spans_t =
  Arg.(
    value & flag
    & info [ "spans" ]
        ~doc:
          "Record per-request spans (phase decomposition) and windowed SLO \
           time-series (virtual time; deterministic).")

let window_us_t =
  Arg.(
    value & opt float 20.0
    & info [ "window-us" ]
        ~doc:"Virtual-time window for the --spans time-series, microseconds.")

let span_json_t =
  Arg.(
    value & opt (some string) None
    & info [ "span-json" ]
        ~doc:"Write the span summary JSON here (implies --spans).")

let detect_t =
  Arg.(
    value & flag
    & info [ "detect" ]
        ~doc:
          "Detectable operations: clients stamp per-connection sequence \
           numbers, upserts announce a persistent descriptor before \
           executing, and after a shard power failure stranded requests are \
           decided through their descriptors (acked if applied, replayed \
           exactly once if not).")

let domains_t =
  Arg.(
    value & opt int 1
    & info [ "domains" ]
        ~doc:
          "Host domains for the service engine: 1 (default) steps every \
           station sequentially on one domain, N>1 pins shard stations to \
           up to N parallel domains. The SLO/span/Obs output is \
           byte-identical for every value.")

let exchange_ns_t =
  Arg.(
    value
    & opt float Svc.Config.default.Svc.Config.exchange_ns
    & info [ "exchange-ns" ]
        ~doc:
          "Exchange-epoch length of the service engine in simulated ns: \
           stations step their schedulers this far between mailbox \
           exchanges. A request is admitted when its network hop ends, or \
           at the next exchange if the hop ends inside the epoch it was \
           sent in. Part of the config, so it changes the simulated \
           schedule.")

let obs_out_t =
  Arg.(
    value & opt (some string) None
    & info [ "obs-out" ]
        ~doc:"Write deterministic observability counter totals JSON here.")

let serve_term =
  Term.(
    const serve_cmd $ structure_t $ shards_t $ zones_t $ clients_t $ requests_t
    $ load_t $ arrival_t $ workload_t $ batch_t $ queue_cap_t $ keys_t
    $ latency_t $ mode_t $ shard_nodes_t $ seed_t $ crash_shard_t $ crash_at_t
    $ serve_json_t $ spans_t $ window_us_t $ span_json_t $ trace_out_t
    $ trace_capacity_t $ detect_t $ domains_t $ exchange_ns_t $ obs_out_t)

(* ---- tail-anatomy -------------------------------------------------------------- *)

(* Power-fail tail-anatomy campaign: the same service config over a seeded
   grid of crash times (one mid-run shard power failure per trial), spans
   on, aggregated into one per-phase tail breakdown. Trials fan out on a
   Sim.Pool and all printing happens after ordered collection, so the
   output is byte-identical for any -j. *)
let tail_cmd structure shards zones clients requests load workload keys seed
    crash_shard origin_us stride_us points jitter_us jobs json_out =
  let ( let* ) r f =
    match r with
    | Error e ->
        Fmt.epr "tail-anatomy: %s@." e;
        2
    | Ok v -> f v
  in
  let* workload =
    match Ycsb.Workload.by_label workload with
    | spec -> Ok spec
    | exception Invalid_argument e -> Error e
  in
  let* () = if points <= 0 then Error "points must be positive" else Ok () in
  let grid =
    {
      Fault.origin = int_of_float (origin_us *. 1_000.0);
      stride = int_of_float (stride_us *. 1_000.0);
      points;
      jitter = int_of_float (jitter_us *. 1_000.0);
    }
  in
  let crash_times = Fault.grid_points ~seed grid in
  let cfg_of at_ns =
    {
      Svc.Config.default with
      structure;
      shards;
      zones;
      clients;
      requests_per_client = requests;
      offered_mops = load;
      workload;
      n_initial = keys;
      seed;
      sys = { Kv.default_sys with numa_nodes = 1; pool_words = 1 lsl 20; seed };
      crash =
        (if crash_shard < 0 then None
         else
           Some { Svc.Config.crash_shard; crash_at_ns = float_of_int at_ns });
      spans = true;
    }
  in
  let* () = Svc.Config.validate (cfg_of (List.hd crash_times)) in
  Fmt.pr "tail-anatomy: %d power-fail trials on %d shards (crash shard %d)@."
    points shards crash_shard;
  let reports =
    Sim.Pool.map ~jobs (fun at -> Svc.Domains.run (cfg_of at)) crash_times
  in
  List.iter2
    (fun at r ->
      let m = Svc.Slo.summarize r.Svc.Slo.merged in
      let rv =
        match r.Svc.Slo.spans with
        | Some sp -> sp.Svc.Slo.sp_residual_violations
        | None -> 0
      in
      Fmt.pr
        "  crash@%.1fus: completed %d  p99 %.0f ns  p99.9 %.0f ns  residual \
         violations %d@."
        (float_of_int at /. 1_000.0)
        r.Svc.Slo.completed m.Svc.Slo.p99 m.Svc.Slo.p999 rv)
    crash_times reports;
  let merged =
    Sim.Histogram.merge_list (List.map (fun r -> r.Svc.Slo.merged) reports)
  in
  let agg =
    Svc.Slo.merge_summaries
      (List.filter_map (fun r -> r.Svc.Slo.spans) reports)
  in
  Svc.Slo.pp_anatomy Format.std_formatter ~merged agg;
  (match json_out with
  | Some path ->
      Json.write_file path
        (Json.Schema.doc Json.Schema.svc_tail
           [ ("trials", Json.List (List.map Svc.Slo.spans_to_json reports)) ]);
      Fmt.pr "per-trial span summaries written to %s@." path
  | None -> ());
  0

let tail_crash_shard_t =
  Arg.(
    value & opt int 1
    & info [ "crash-shard" ]
        ~doc:"Shard to power-fail in every trial (-1 = healthy baseline).")

let origin_us_t =
  Arg.(
    value & opt float 40.0
    & info [ "origin-us" ] ~doc:"First crash time, simulated microseconds.")

let stride_us_t =
  Arg.(
    value & opt float 25.0
    & info [ "stride-us" ] ~doc:"Spacing between crash times, microseconds.")

let points_t =
  Arg.(value & opt int 4 & info [ "points" ] ~doc:"Number of crash times.")

let jitter_us_t =
  Arg.(
    value & opt float 5.0
    & info [ "jitter-us" ]
        ~doc:"Seeded per-point displacement in [0, jitter) microseconds.")

let tail_json_t =
  Arg.(
    value & opt (some string) None
    & info [ "json-out" ] ~doc:"Write per-trial span summaries (JSON) here.")

let tail_term =
  Term.(
    const tail_cmd $ structure_t $ shards_t $ zones_t $ clients_t $ requests_t
    $ load_t $ workload_t $ keys_t $ seed_t $ tail_crash_shard_t $ origin_us_t
    $ stride_us_t $ points_t $ jitter_us_t $ jobs_t $ tail_json_t)

(* ---- assembly ------------------------------------------------------------------ *)

let cmds =
  [
    Cmd.v
      (Cmd.info "run"
         ~doc:
           "Run a YCSB workload and report throughput, latency and per-op \
            counter digests; optionally record a deterministic event trace.")
      run_term;
    Cmd.v
      (Cmd.info "crash-sweep"
         ~doc:
           "Adversarial fault-injection campaign: crash-point grid, \
            persisted-state draws, crash-during-recovery, heap audits, and \
            (--detect) exactly-once replay of unacked ops.")
      sweep_term;
    Cmd.v
      (Cmd.info "crash-replay"
         ~doc:"Re-execute a failing trial from its printed replay spec.")
      replay_term;
    Cmd.v
      (Cmd.info "serve-sim"
         ~doc:
           "Simulate a sharded KV service: open-loop clients, NUMA-aware \
            shard routing, batching with group flush, admission control, \
            optional mid-run shard crash, SLO report.")
      serve_term;
    Cmd.v
      (Cmd.info "tail-anatomy"
         ~doc:
           "Power-fail tail-anatomy campaign: sweep a seeded grid of crash \
            times through the service with request spans on and attribute \
            the p99/p99.9 latency cohorts to pipeline phases (queue wait, \
            recovery overlap, fence, ...).")
      tail_term;
  ]

let () =
  let info =
    Cmd.info "upskip_cli" ~version:"1.0"
      ~doc:"UPSkipList — recoverable PMEM skip list (simulated reproduction)"
  in
  exit (Cmd.eval' (Cmd.group info cmds))
