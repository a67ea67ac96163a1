(* Command-line driver for the UPSkipList reproduction.

     upskip_cli run --structure upskiplist --workload a --threads 16
     upskip_cli crash-test --trials 5
     upskip_cli recovery --structure bztree --descriptors 100000
     upskip_cli demo

   Everything executes on the simulated-PMEM machine; reported times are
   simulated nanoseconds (see DESIGN.md). *)

module Kv = Harness.Kv
module Driver = Harness.Driver

open Cmdliner

(* ---- shared options -------------------------------------------------------- *)

let structure_t =
  let parse = function
    | "upskiplist" | "ups" -> Ok `Upskiplist
    | "bztree" | "bz" -> Ok `Bztree
    | "pmdk" | "lock" -> Ok `Pmdk
    | s -> Error (`Msg ("unknown structure: " ^ s))
  in
  let print fmt v =
    Fmt.string fmt
      (match v with `Upskiplist -> "upskiplist" | `Bztree -> "bztree" | `Pmdk -> "pmdk")
  in
  Arg.(
    value
    & opt (conv (parse, print)) `Upskiplist
    & info [ "s"; "structure" ] ~doc:"Structure: upskiplist | bztree | pmdk.")

let mode_t =
  let parse = function
    | "striped" -> Ok Pmem.Striped
    | "numa" | "multi" -> Ok Pmem.Multi_pool
    | s -> Error (`Msg ("unknown mode: " ^ s))
  in
  let print fmt v =
    Fmt.string fmt (match v with Pmem.Striped -> "striped" | Pmem.Multi_pool -> "numa")
  in
  Arg.(
    value
    & opt (conv (parse, print)) Pmem.Striped
    & info [ "mode" ] ~doc:"PMEM layout: striped (one pool) or numa (one pool per node).")

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
  | `Upskiplist ->
      Kv.make_upskiplist
        ~cfg:{ Upskiplist.Config.default with keys_per_node = 64 }
        sys
  | `Bztree -> Kv.make_bztree ~n_descriptors:descriptors sys
  | `Pmdk -> Kv.make_pmdk_list sys

(* ---- run ------------------------------------------------------------------- *)

let run_cmd structure mode workload threads keys ops seed descriptors =
  let kv = make_kv structure mode descriptors in
  let spec = Ycsb.Workload.by_label workload in
  Fmt.pr "preloading %d keys into %s...@." keys kv.Kv.name;
  Driver.preload kv ~threads:(min threads 8) ~n:keys;
  let res =
    Driver.run_workload kv ~spec ~threads ~n_initial:keys
      ~ops_per_thread:(max 1 (ops / threads))
      ~seed
  in
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
    ];
  0

let run_term =
  Term.(
    const run_cmd $ structure_t $ mode_t $ workload_t $ threads_t $ keys_t
    $ ops_t $ seed_t $ descriptors_t)

(* ---- trace --------------------------------------------------------------------- *)

(* Record an event trace of a workload run and export it as Chrome
   trace_event JSON (open in about://tracing or https://ui.perfetto.dev).
   The preload runs untraced; counters are reset after it so the digest
   and metrics attribute the traced window only. Deterministic: the same
   seed produces byte-identical artifacts. *)
let trace_cmd structure mode workload threads keys ops seed descriptors out
    metrics_out capacity spans window_us =
  let kv = make_kv structure mode descriptors in
  let spec = Ycsb.Workload.by_label workload in
  Fmt.pr "preloading %d keys into %s...@." keys kv.Kv.name;
  Driver.preload kv ~threads:(min threads 8) ~n:keys;
  Obs.reset ();
  Obs.Trace.start ~capacity ();
  let res =
    Driver.run_workload kv ~spec ~threads ~n_initial:keys
      ~ops_per_thread:(max 1 (ops / threads))
      ~seed
  in
  Obs.Trace.stop ();
  (* --spans: derive windowed counter tracks (ops, flushes, fences per
     window of virtual time) from the retained events, so the exported
     trace carries the time-series alongside the event slices *)
  let counter_tracks =
    if not spans then []
    else begin
      let w_ns = window_us *. 1_000.0 in
      let tally kind_of =
        let tbl = Hashtbl.create 64 in
        let max_w = ref 0 in
        Obs.Trace.iter_retained (fun ~ts ~tid:_ ~kind ~arg:_ ~farg:_ ->
            if kind_of kind then begin
              let w = max 0 (int_of_float (ts /. w_ns)) in
              if w > !max_w then max_w := w;
              Hashtbl.replace tbl w
                (1 + Option.value ~default:0 (Hashtbl.find_opt tbl w))
            end);
        List.init (!max_w + 1) (fun w ->
            ( float_of_int w *. w_ns,
              float_of_int (Option.value ~default:0 (Hashtbl.find_opt tbl w))
            ))
      in
      [
        ("ops/window", tally (fun k -> k = Obs.Trace.k_op_end));
        ("flushes/window", tally (fun k -> k = Obs.id_flush));
        ("fences/window", tally (fun k -> k = Obs.id_fence));
      ]
    end
  in
  let oc = open_out out in
  output_string oc (Obs.Trace.to_chrome_string ~counter_tracks ());
  close_out oc;
  Fmt.pr "trace: %d events (%d dropped) -> %s@." (Obs.Trace.recorded ())
    (Obs.Trace.dropped ()) out;
  let digests =
    List.map
      (fun d -> (d.Driver.op, d.Driver.count, d.Driver.totals))
      res.Driver.digests
  in
  Harness.Report.digest_table
    ~latency:
      [
        ("read", res.Driver.read_hist);
        ("update", res.Driver.update_hist);
        ("insert", res.Driver.insert_hist);
        ("scan", res.Driver.scan_hist);
      ]
    ~title:
      (Printf.sprintf "workload %s per-op persistence cost (%s, %d threads)"
         spec.Ycsb.Workload.label kv.Kv.name threads)
    digests;
  (match metrics_out with
  | Some path ->
      Harness.Report.write_metrics_json ~path
        ~label:
          (Printf.sprintf "%s workload %s" kv.Kv.name spec.Ycsb.Workload.label)
        ~seed
        [ ("ycsb-" ^ spec.Ycsb.Workload.label, digests) ];
      Fmt.pr "metrics written to %s@." path
  | None -> ());
  0

let trace_out_t =
  Arg.(
    value & opt string "upskip.trace.json"
    & info [ "out" ] ~doc:"Chrome trace_event JSON output file.")

let trace_metrics_t =
  Arg.(
    value & opt (some string) None
    & info [ "metrics-json" ] ~doc:"Also write per-op counter digests as JSON.")

let trace_capacity_t =
  Arg.(
    value & opt int 65_536
    & info [ "capacity" ]
        ~doc:"Trace ring capacity in events (oldest events drop beyond it).")

let spans_t =
  Arg.(
    value & flag
    & info [ "spans" ]
        ~doc:
          "Record request/op spans and windowed counter tracks (virtual \
           time; deterministic).")

let window_us_t =
  Arg.(
    value & opt float 20.0
    & info [ "window-us" ]
        ~doc:"Virtual-time window for the --spans time-series, microseconds.")

let trace_term =
  Term.(
    const trace_cmd $ structure_t $ mode_t $ workload_t $ threads_t $ keys_t
    $ ops_t $ seed_t $ descriptors_t $ trace_out_t $ trace_metrics_t
    $ trace_capacity_t $ spans_t $ window_us_t)

(* ---- crash-test -------------------------------------------------------------- *)

let crash_cmd structure mode trials threads seed descriptors jobs =
  let make () = make_kv structure mode descriptors in
  Fmt.pr "running %d crash trials on %s with strict-linearizability analysis...@."
    trials (make ()).Kv.name;
  let violations =
    Harness.Crash_test.campaign ~jobs ~make ~threads ~keyspace:300
      ~ops_per_thread:150 ~crash_events:40_000 ~seed ~trials ()
  in
  (match violations with
  | [] -> Fmt.pr "all %d trials strictly linearizable.@." trials
  | vs ->
      List.iter
        (fun (i, v) ->
          Fmt.pr "trial %d VIOLATION: %a@." i Lincheck.Checker.pp_violation v)
        vs);
  if violations = [] then 0 else 1

let crash_trials_t =
  Arg.(value & opt int 5 & info [ "trials" ] ~doc:"Number of crash trials.")

let jobs_t =
  Arg.(
    value
    & opt int (Sim.Pool.default_jobs ())
    & info [ "j"; "jobs" ]
        ~doc:
          "Worker domains for independent trials (1 = sequential). Results \
           are identical for any value.")

let crash_term =
  Term.(
    const crash_cmd $ structure_t $ mode_t $ crash_trials_t $ threads_t $ seed_t
    $ descriptors_t $ jobs_t)

(* ---- crash-sweep ------------------------------------------------------------- *)

module Fault = Harness.Fault

let structure_name = function
  | `Upskiplist -> "upskiplist"
  | `Bztree -> "bztree"
  | `Pmdk -> "pmdk"

let mode_name = function Pmem.Striped -> "striped" | Pmem.Multi_pool -> "numa"

let latency_t =
  Arg.(
    value & opt string "uniform"
    & info [ "latency" ] ~doc:"Latency model: uniform | optane.")

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
    value & opt string "config"
    & info [ "evict" ]
        ~doc:
          "Persisted-state adversary: 'config' (pool's eviction coin) or a \
           per-dirty-line persistence probability in [0,1].")

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
        ~doc:"Self-validation mutant applied after recovery: none | lose_key | drop_fp | dangle.")

let base_spec structure mode latency threads keyspace ops rounds depth evict seed
    mutant =
  let adversary =
    if evict = "config" then Ok Fault.Config_default
    else
      match float_of_string_opt evict with
      | Some p when p >= 0.0 && p <= 1.0 -> Ok (Fault.Subset p)
      | _ -> Error ("bad --evict (want 'config' or a probability): " ^ evict)
  in
  Result.map
    (fun adversary ->
      {
        Fault.default_spec with
        structure = structure_name structure;
        latency;
        mode = mode_name mode;
        threads;
        keyspace;
        ops_per_thread = ops;
        rounds;
        depth;
        adversary;
        draw_seed = seed + 1;
        seed;
        mutant;
      })
    adversary

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
      Fmt.pr "  replay: %s@." (Fault.spec_to_string spec);
      if shrink && i = 0 then begin
        Fmt.pr "  shrinking...@.";
        let small = Fault.shrink spec in
        Fmt.pr "  minimal: %s@." (Fault.spec_to_string small)
      end)
    failures

let sweep_cmd structure mode latency threads keyspace ops rounds depth evict
    draws origin stride points jitter seed mutant shrink jobs =
  match
    base_spec structure mode latency threads keyspace ops rounds depth evict seed
      mutant
  with
  | Error e ->
      Fmt.epr "crash-sweep: %s@." e;
      2
  | Ok base ->
      let campaign =
        { Fault.base; grid = { Fault.origin; stride; points; jitter }; draws }
      in
      Fmt.pr "adversarial crash sweep on %s: %d points x %d draws, depth %d@."
        base.Fault.structure points draws depth;
      let s = Fault.run_campaign ~jobs campaign in
      Fault.print_summary ~name:base.Fault.structure s;
      report_failures ~shrink s.Fault.failures;
      if s.Fault.failures = [] then 0 else 1

let sweep_term =
  Term.(
    const sweep_cmd $ structure_t $ mode_t $ latency_t $ threads_t $ keyspace_t
    $ sweep_ops_t $ rounds_t $ depth_t $ evict_t $ draws_t $ origin_t $ stride_t
    $ points_t $ jitter_t $ seed_t $ mutant_t $ shrink_t $ jobs_t)

(* ---- crash-replay ------------------------------------------------------------- *)

let spec_tokens_t =
  Arg.(
    non_empty & pos_all string []
    & info [] ~docv:"SPEC"
        ~doc:
          "Replay spec as printed by crash-sweep (key=value tokens; quoting the \
           whole line as one argument also works).")

let replay_cmd tokens =
  let line = String.concat " " tokens in
  match Fault.spec_of_string line with
  | Error e ->
      Fmt.epr "crash-replay: %s@." e;
      2
  | Ok spec -> (
      Fmt.pr "replaying: %s@." (Fault.spec_to_string spec);
      match Fault.run_spec spec with
      | Error e ->
          Fmt.epr "crash-replay: %s@." e;
          2
      | Ok res ->
          Fmt.pr "crashes %d (first at %d events), recoveries audited %d, \
                  recovery %.2f ms@."
            res.Fault.crashes res.Fault.crash_events res.Fault.audits
            (res.Fault.recovery_ns /. 1.0e6);
          List.iter
            (fun v -> Fmt.pr "VIOLATION: %a@." Lincheck.Checker.pp_violation v)
            res.Fault.violations;
          List.iter (fun e -> Fmt.pr "AUDIT: %s@." e) res.Fault.audit_errors;
          if Fault.failed res then begin
            Fmt.pr "verdict: FAIL@.";
            1
          end
          else begin
            Fmt.pr "verdict: PASS@.";
            0
          end)

let replay_term = Term.(const replay_cmd $ spec_tokens_t)

(* ---- recovery ----------------------------------------------------------------- *)

let recovery_cmd structure mode keys descriptors =
  let kv = make_kv structure mode descriptors in
  Driver.preload kv ~threads:8 ~n:keys;
  let body ~tid =
    for k = 1_000_000 + tid to 1_000_000 + tid + 100_000 do
      ignore (kv.Kv.upsert ~tid k 7)
    done
  in
  (match
     Sim.Sched.run
       ~crash:(Sim.Sched.After_events 60_000)
       ~machine:(Kv.machine kv)
       (List.init 8 (fun tid -> (tid, body)))
   with
  | Sim.Sched.Crashed_at { events; _ } ->
      Fmt.pr "crashed after %d simulated events@." events
  | Sim.Sched.Completed _ -> failwith "expected crash");
  Pmem.crash kv.Kv.pmem;
  kv.Kv.reconnect ();
  let t = Harness.Crash_test.recovery_time_s kv in
  Fmt.pr "%s recovery time: %.1f ms (pool reopen + structure work)@." kv.Kv.name
    (t *. 1000.0);
  0

let recovery_term =
  Term.(const recovery_cmd $ structure_t $ mode_t $ keys_t $ descriptors_t)

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
  let* latency =
    match String.lowercase_ascii latency with
    | "uniform" -> Ok Pmem.Latency.uniform
    | "optane" -> Ok Pmem.Latency.default
    | s -> Error ("unknown latency model (want uniform | optane): " ^ s)
  in
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
      Svc.Config.default with
      structure = structure_name structure;
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
          latency;
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
      let oc = open_out path in
      output_string oc (Svc.Slo.to_json report);
      output_char oc '\n';
      close_out oc;
      Fmt.pr "SLO report written to %s@." path
  | None -> ());
  (match span_json with
  | Some path ->
      let oc = open_out path in
      output_string oc (Svc.Slo.spans_to_json report);
      output_char oc '\n';
      close_out oc;
      Fmt.pr "span summary written to %s@." path
  | None -> ());
  (match obs_out with
  | Some path ->
      (* deterministic counter totals, for the domain-determinism gate *)
      let totals = Obs.totals () in
      let oc = open_out path in
      output_string oc
        "{\"schema\":\"upskip-obs-totals/1\",\"schema_version\":1,\"totals\":{";
      Array.iteri
        (fun i v ->
          if i > 0 then output_char oc ',';
          Printf.fprintf oc "\"%s\":%d" (Obs.id_name i) v)
        totals;
      output_string oc "}}\n";
      close_out oc;
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
      let oc = open_out path in
      output_string oc (Obs.Trace.to_chrome_string ~counter_tracks ());
      close_out oc;
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

let span_json_t =
  Arg.(
    value & opt (some string) None
    & info [ "span-json" ]
        ~doc:"Write the span summary JSON here (implies --spans).")

let serve_trace_t =
  Arg.(
    value & opt (some string) None
    & info [ "trace-out" ]
        ~doc:
          "Record an event trace of the service run and write Chrome \
           trace_event JSON (with windowed counter tracks when --spans) \
           here.")

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
           exchanges. Part of the config, so it changes the simulated \
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
    $ serve_json_t $ spans_t $ window_us_t $ span_json_t $ serve_trace_t
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
      structure = structure_name structure;
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
      let oc = open_out path in
      output_string oc
        "{\"schema\":\"upskip-svc-tail/1\",\"schema_version\":1,\"trials\":[";
      List.iteri
        (fun i r ->
          if i > 0 then output_char oc ',';
          output_string oc (Svc.Slo.spans_to_json r))
        reports;
      output_string oc "]}\n";
      close_out oc;
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

(* ---- detect-campaign ----------------------------------------------------------- *)

(* Exactly-once crash-replay campaign: the adversarial crash sweep with
   detectable operations on, so every trial additionally replays unacked
   ops through their persistent descriptors and runs the exactly-once
   history analysis (an op completes exactly once if acked, at most once
   if not). Deterministic for any -j; --json-out writes a stable summary
   for the runtest gate. *)
let detect_campaign_cmd structure mode latency threads keyspace ops rounds depth
    evict draws origin stride points jitter seed mutant jobs json_out =
  match
    base_spec structure mode latency threads keyspace ops rounds depth evict seed
      mutant
  with
  | Error e ->
      Fmt.epr "detect-campaign: %s@." e;
      2
  | Ok base ->
      let base = { base with Fault.detect = true } in
      let campaign =
        { Fault.base; grid = { Fault.origin; stride; points; jitter }; draws }
      in
      Fmt.pr
        "exactly-once crash-replay campaign on %s: %d points x %d draws, \
         depth %d, mutant %s@."
        base.Fault.structure points draws depth base.Fault.mutant;
      let s = Fault.run_campaign ~jobs campaign in
      Fault.print_summary ~name:base.Fault.structure s;
      report_failures ~shrink:false s.Fault.failures;
      (match json_out with
      | Some path ->
          let buf = Buffer.create 512 in
          Buffer.add_string buf
            "{\"schema\":\"upskip-detect-campaign/1\",\"schema_version\":1";
          Printf.bprintf buf ",\"structure\":\"%s\",\"mutant\":\"%s\""
            base.Fault.structure base.Fault.mutant;
          Printf.bprintf buf
            ",\"trials\":%d,\"crashed_trials\":%d,\"total_crashes\":%d"
            s.Fault.trials s.Fault.crashed_trials s.Fault.total_crashes;
          Printf.bprintf buf
            ",\"audit_passes\":%d,\"audit_failures\":%d,\"violation_trials\":%d"
            s.Fault.audit_passes s.Fault.audit_failures s.Fault.violation_trials;
          Printf.bprintf buf ",\"replays\":%d,\"suppressions\":%d"
            s.Fault.replays s.Fault.suppressions;
          Buffer.add_string buf ",\"failures\":[";
          List.iteri
            (fun i ((spec : Fault.spec), _) ->
              if i > 0 then Buffer.add_char buf ',';
              Printf.bprintf buf "\"%s\"" (Fault.spec_to_string spec))
            s.Fault.failures;
          Buffer.add_string buf "]}\n";
          let oc = open_out path in
          Buffer.output_buffer oc buf;
          close_out oc;
          Fmt.pr "campaign summary written to %s@." path
      | None -> ());
      if s.Fault.failures = [] then 0 else 1

let detect_json_t =
  Arg.(
    value & opt (some string) None
    & info [ "json-out" ]
        ~doc:"Write the deterministic campaign summary JSON here.")

let detect_campaign_term =
  Term.(
    const detect_campaign_cmd $ structure_t $ mode_t $ latency_t $ threads_t
    $ keyspace_t $ sweep_ops_t $ rounds_t $ depth_t $ evict_t $ draws_t
    $ origin_t $ stride_t $ points_t $ jitter_t $ seed_t $ mutant_t $ jobs_t
    $ detect_json_t)

(* ---- detect-bench --------------------------------------------------------------- *)

(* Descriptor overhead: the same upsert stream with and without
   announce/resolve, reporting simulated throughput plus fences and
   flushes per op from the observability counters. *)
let detect_bench_cmd threads keys ops seed json_out =
  let run ~detect =
    let sys =
      {
        Kv.default_sys with
        latency = Pmem.Latency.uniform;
        pool_words = 1 lsl 22;
        seed;
      }
    in
    let kv =
      if detect then Kv.make_upskiplist ~detect_clients:threads sys
      else Kv.make_upskiplist sys
    in
    Driver.preload kv ~threads:(min threads 8) ~n:keys;
    Obs.reset ();
    let per = max 1 (ops / threads) in
    let body ~tid =
      for j = 0 to per - 1 do
        let k = 1 + ((tid * 7919 + j * 104729) mod keys) in
        let v = 1 + tid + (threads * j) in
        if detect then
          ignore (Kv.d_upsert kv ~tid ~client:tid ~seq:(j + 1) k v)
        else ignore (kv.Kv.upsert ~tid k v)
      done
    in
    match
      Sim.Sched.run ~machine:(Kv.machine kv)
        (List.init threads (fun tid -> (tid, body)))
    with
    | Sim.Sched.Completed { time; _ } ->
        let n = float_of_int (threads * per) in
        ( threads * per,
          time,
          n /. time *. 1e3,
          float_of_int (Obs.total Obs.id_fence) /. n,
          float_of_int (Obs.total Obs.id_flush) /. n )
    | Sim.Sched.Crashed_at _ -> failwith "unexpected crash"
  in
  let p_ops, p_ns, p_mops, p_fences, p_flushes = run ~detect:false in
  let d_ops, d_ns, d_mops, d_fences, d_flushes = run ~detect:true in
  assert (p_ops = d_ops);
  Fmt.pr "descriptor overhead, %d threads, %d upserts:@." threads p_ops;
  Fmt.pr "  plain   %.3f Mops/s  %.2f fences/op  %.2f flushes/op@." p_mops
    p_fences p_flushes;
  Fmt.pr "  detect  %.3f Mops/s  %.2f fences/op  %.2f flushes/op@." d_mops
    d_fences d_flushes;
  Fmt.pr "  overhead: %.1f%% throughput, +%.2f fences/op, +%.2f flushes/op@."
    ((p_mops /. d_mops -. 1.0) *. 100.0)
    (d_fences -. p_fences) (d_flushes -. p_flushes);
  (match json_out with
  | Some path ->
      let oc = open_out path in
      Printf.fprintf oc
        "{\"schema\":\"upskip-detect-bench/1\",\"schema_version\":1,\"threads\":%d,\"keys\":%d,\"ops\":%d,\"seed\":%d,\"plain\":{\"sim_ns\":%.0f,\"mops\":%.4f,\"fences_per_op\":%.4f,\"flushes_per_op\":%.4f},\"detect\":{\"sim_ns\":%.0f,\"mops\":%.4f,\"fences_per_op\":%.4f,\"flushes_per_op\":%.4f},\"overhead\":{\"throughput_pct\":%.2f,\"extra_fences_per_op\":%.4f,\"extra_flushes_per_op\":%.4f}}\n"
        threads keys p_ops seed p_ns p_mops p_fences p_flushes d_ns d_mops
        d_fences d_flushes
        ((p_mops /. d_mops -. 1.0) *. 100.0)
        (d_fences -. p_fences) (d_flushes -. p_flushes);
      close_out oc;
      Fmt.pr "bench written to %s@." path
  | None -> ());
  0

let detect_bench_term =
  Term.(
    const detect_bench_cmd $ threads_t $ keys_t $ ops_t $ seed_t $ detect_json_t)

(* ---- demo ---------------------------------------------------------------------- *)

let demo_cmd () =
  let sys = Kv.default_sys in
  let kv = Kv.make_upskiplist sys in
  Fmt.pr "UPSkipList demo on simulated Optane (4 NUMA pools)@.";
  (match
     Sim.Sched.run ~machine:(Kv.machine kv)
       [
         ( 0,
           fun ~tid ->
             for k = 1 to 10 do
               ignore (kv.Kv.upsert ~tid k (k * 100))
             done;
             Fmt.pr "  inserted keys 1..10@.";
             Fmt.pr "  search 7 -> %a@." Fmt.(option int) (kv.Kv.search ~tid 7);
             ignore (kv.Kv.remove ~tid 7);
             Fmt.pr "  removed 7; search 7 -> %a@."
               Fmt.(option int)
               (kv.Kv.search ~tid 7) );
       ]
   with
  | Sim.Sched.Completed { time; events; _ } ->
      Fmt.pr "  (%d simulated events, %.0f ns virtual time)@." events time
  | Sim.Sched.Crashed_at _ -> assert false);
  Pmem.crash kv.Kv.pmem;
  kv.Kv.reconnect ();
  (match
     Sim.Sched.run ~machine:(Kv.machine kv)
       [
         ( 0,
           fun ~tid ->
             Fmt.pr "  after power failure + reconnect: search 3 -> %a@."
               Fmt.(option int)
               (kv.Kv.search ~tid 3) );
       ]
   with
  | Sim.Sched.Completed _ -> ()
  | Sim.Sched.Crashed_at _ -> assert false);
  0

let demo_term = Term.(const demo_cmd $ const ())

(* ---- assembly ------------------------------------------------------------------ *)

let cmds =
  [
    Cmd.v (Cmd.info "run" ~doc:"Run a YCSB workload and report throughput/latency.") run_term;
    Cmd.v
      (Cmd.info "trace"
         ~doc:
           "Record a deterministic event trace of a workload run and export \
            Chrome trace_event JSON plus per-op counter digests.")
      trace_term;
    Cmd.v
      (Cmd.info "crash-test"
         ~doc:"Crash trials with strict-linearizability analysis.")
      crash_term;
    Cmd.v
      (Cmd.info "crash-sweep"
         ~doc:
           "Adversarial fault-injection campaign: crash-point grid, \
            persisted-state draws, crash-during-recovery, heap audits.")
      sweep_term;
    Cmd.v
      (Cmd.info "crash-replay"
         ~doc:"Re-execute a failing trial from its printed replay spec.")
      replay_term;
    Cmd.v (Cmd.info "recovery" ~doc:"Measure post-crash recovery time.") recovery_term;
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
    Cmd.v
      (Cmd.info "detect-campaign"
         ~doc:
           "Exactly-once crash-replay campaign: adversarial crash sweep with \
            detectable operations, replaying unacked ops through persistent \
            descriptors and checking exactly-once histories.")
      detect_campaign_term;
    Cmd.v
      (Cmd.info "detect-bench"
         ~doc:
           "Measure detectable-operation overhead: throughput, fences/op and \
            flushes/op with and without descriptors.")
      detect_bench_term;
    Cmd.v (Cmd.info "demo" ~doc:"Small interactive walk-through.") demo_term;
  ]

let () =
  let info =
    Cmd.info "upskip_cli" ~version:"1.0"
      ~doc:"UPSkipList — recoverable PMEM skip list (simulated reproduction)"
  in
  exit (Cmd.eval' (Cmd.group info cmds))
