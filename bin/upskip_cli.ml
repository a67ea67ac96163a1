(* Command-line driver for the UPSkipList reproduction.

     upskip_cli run --structure upskiplist --workload a --threads 16
     upskip_cli crash-sweep structure=bztree depth=2 --points 4
     upskip_cli crash-replay structure=upskiplist crash_at=5000 mutant=dangle
     upskip_cli serve-sim shards=4 workload=a crash=1@50000 --json-out slo.json

   crash-sweep and crash-replay take the same SPEC tokens, the replay line
   a failing trial prints (Harness.Fault's key table): a bare crash-sweep
   runs the default trial, and any replay line is a valid campaign base.
   serve-sim and tail-anatomy take a service run's SPEC tokens the same
   way (Svc.Config's key table), as every SLO report prints its config.

   Everything executes on the simulated-PMEM machine; reported times are
   simulated nanoseconds (see DESIGN.md). *)

module Kv = Harness.Kv
module Driver = Harness.Driver

open Cmdliner

let ( let* ) = Result.bind

(* Bad input: one line on stderr and exit 2, before anything runs. *)
let checked cmd r k =
  match r with
  | Error e ->
      Fmt.epr "%s: %s@." cmd e;
      2
  | Ok v -> k v

let write_json what path doc =
  Json.write_file path doc;
  Fmt.pr "%s written to %s@." what path

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
  let max_threads = Kv.default_sys.max_threads in
  checked "run"
    (let* spec = Ycsb.Workload.of_label workload in
     if threads < 1 || threads > max_threads then
       Error (Fmt.str "threads must be in 1..%d: %d" max_threads threads)
     else if keys < 2 then Error (Fmt.str "keys must be >= 2: %d" keys)
     else if descriptors < 1 then Error (Fmt.str "descriptors must be >= 1: %d" descriptors)
     else Ok spec)
  @@ fun spec ->
  let kv = make_kv structure mode descriptors in
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
      write_json "metrics" path
        (Harness.Report.metrics_json
           ~label:(Printf.sprintf "%s workload %s" kv.Kv.name spec.Ycsb.Workload.label)
           ~seed
           [ ("ycsb-" ^ spec.Ycsb.Workload.label, digests) ]))
    metrics_out;
  0

let trace_out_t =
  Arg.(
    value & opt (some string) None
    & info [ "trace-out" ]
        ~doc:
          "Record an event trace of the measured run and write Chrome \
           trace_event JSON here (serve-sim adds windowed counter tracks \
           with spans=on).")

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

let draws_t =
  Arg.(
    value & opt int 2
    & info [ "draws" ] ~doc:"Persisted-state draws per crash point.")

(* The grid is fractions of the base's crash-free run, which one dry run
   resolves to event counts, so a gate's points stay in the same phase of
   its workload when operations get cheaper or dearer. *)
let from_t =
  Arg.(
    value & opt float 0.02
    & info [ "from" ] ~docv:"F"
        ~doc:"First crash point, as a fraction of the base's crash-free run.")

let to_t =
  Arg.(
    value & opt float 0.98
    & info [ "to" ] ~docv:"G"
        ~doc:"Last crash point, as a fraction of the base's crash-free run.")

let points_t =
  Arg.(value & opt int 4 & info [ "points" ] ~doc:"Crash points in the sweep, evenly spaced.")

let shrink_t =
  Arg.(
    value & flag
    & info [ "shrink" ] ~doc:"On failure, shrink the first failing trial to a minimal spec.")

let json_out_t =
  Arg.(
    value & opt (some string) None
    & info [ "json-out" ] ~doc:"Write the deterministic JSON summary here.")

(* Each failure's replay line, then where its crash point lies in the
   base's dry run of [events]. *)
let report_failures ~shrink ~events failures =
  List.iteri
    (fun i (((spec : Fault.spec), _) as failure) ->
      Fmt.pr "@.%a" Fault.pp_failure failure;
      Fmt.pr "  crash point: event %d, %.4f of the %d-event dry run@." spec.Fault.crash_at
        (float_of_int spec.Fault.crash_at /. float_of_int events)
        events;
      if shrink && i = 0 then begin
        Fmt.pr "  shrinking...@.";
        Fmt.pr "  minimal: %s@." (Fault.spec_to_string (Fault.shrink spec))
      end)
    failures

(* Deterministic campaign summary (stable across reruns and -j), read by
   the exactly-once runtest gate. *)
let write_campaign_json path (base : Fault.spec) (s : Fault.summary) =
  write_json "campaign summary" path
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
       ])

(* The SPEC arguments' doc, [lead] first; the key list comes from Fault. *)
let spec_doc lead =
  let key (k, tunes) =
    match tunes with
    | None -> Printf.sprintf "$(b,%s=)" k
    | Some st -> Printf.sprintf "$(b,%s=) (tunes %s)" k (Kv.structure_name st)
  in
  Printf.sprintf
    "%s A spec is key=value tokens, as a failing trial prints them (quoting \
     the whole line as one argument also works). The line is the trial's \
     whole fixture; unnamed keys take their defaults. Keys: %s. Mutants: \
     %s. A tuning key prints only off its default, and tuning a structure \
     the spec does not build is rejected (exit 2)."
    lead
    (String.concat " " (List.map key Fault.spec_keys))
    (String.concat " | " Fault.mutants)

let sweep_cmd tokens draws from upto points shrink jobs json_out =
  checked "crash-sweep"
    (let* base = Fault.spec_of_string (String.concat " " tokens) in
     if not (0.0 <= from && from <= upto && upto <= 1.0) then
       Error (Printf.sprintf "want 0 <= --from <= --to <= 1, got %g and %g" from upto)
     else if points < 1 then Error "want --points >= 1"
     else Ok base)
  @@ fun base ->
  let events = Fault.trial_events base in
  let stride = if points > 1 then (upto -. from) /. float_of_int (points - 1) else 0.0 in
  let grid = Fault.dry_run_grid ~events base ~first:from ~stride ~jitter:0.0 ~points in
  let campaign = { Fault.base; grid; draws } in
  Fmt.pr
    "adversarial crash sweep: %d points x %d draws at %g .. %g of a %d-event dry run \
     (events %d .. %d) from %s@."
    points draws from upto events grid.Fault.origin
    (grid.Fault.origin + ((points - 1) * grid.Fault.stride))
    (Fault.spec_to_string base);
  let before = Obs.totals () in
  let s = Fault.run_campaign ~jobs campaign in
  let after = Obs.totals () in
  Fault.print_summary ~name:(Kv.structure_name base.Fault.structure) s;
  (* the campaign's counter delta: with rounds=2, round 1 runs on a
     freshly crashed structure and pays its lazy repairs inline *)
  Harness.Report.digest_table
    ~title:"crash-recovery campaign counter digest (per crashed trial)"
    [ ("trial", s.Fault.trials, Array.map2 ( - ) after before) ];
  report_failures ~shrink ~events s.Fault.failures;
  Option.iter (fun path -> write_campaign_json path base s) json_out;
  (* a trial that never crashed tested nothing: the sweep fails *)
  if s.Fault.missed <> [] then
    Fmt.pr "FAIL: %d of %d trials never crashed@." (List.length s.Fault.missed)
      s.Fault.trials;
  if s.Fault.failures = [] && s.Fault.missed = [] then 0 else 1

let sweep_term =
  Term.(
    const sweep_cmd
    $ Arg.(
        value & pos_all string []
        & info [] ~docv:"SPEC"
            ~doc:
              (spec_doc
                 "The campaign's base trial: the grid overrides its crash \
                  point and each draw offsets its persisted-state seed. No \
                  SPEC runs the default trial; any replay line is a valid \
                  base."))
    $ draws_t $ from_t $ to_t $ points_t $ shrink_t $ jobs_t
    $ json_out_t)

(* ---- crash-replay ------------------------------------------------------------- *)

let spec_tokens_t =
  Arg.(
    non_empty & pos_all string []
    & info [] ~docv:"SPEC" ~doc:(spec_doc "The trial to re-execute."))

let replay_cmd tokens =
  checked "crash-replay" (Fault.spec_of_string (String.concat " " tokens))
  @@ fun spec ->
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
  else if res.Fault.completed_events > 0 then begin
    (* no recovery ran, so no recovery was checked *)
    Fmt.pr "verdict: NO CRASH@.";
    3
  end
  else begin
    Fmt.pr "verdict: PASS@.";
    0
  end

let replay_term = Term.(const replay_cmd $ spec_tokens_t)

(* ---- serve-sim ----------------------------------------------------------------- *)

(* Simulated sharded KV service (lib/svc): open-loop clients over
   hash-routed per-zone shards with batching, group flush, admission
   control, and an SLO report. The run is its SPEC (Svc.Config's key
   table); the flags name outputs and host settings only. Deterministic:
   the same SPEC produces byte-identical SLO JSON. *)

(* The SPEC arguments' doc, [lead] first; the keys and their defaults come
   from Svc.Config. *)
let svc_spec_doc lead =
  Printf.sprintf
    "%s A spec is key=value tokens, as a report's $(b,config) object lists \
     them; unnamed keys keep the default run's values: %s. $(b,crash=) takes \
     $(b,none) or SHARD@NS. An out-of-range value is rejected (exit 2)."
    lead (Svc.Config.to_string Svc.Config.default)

let serve_cmd tokens json_out span_json trace_out trace_capacity domains obs_out =
  checked "serve-sim" (Svc.Config.of_string (String.concat " " tokens))
  @@ fun cfg ->
  let cfg = { cfg with spans = cfg.spans || span_json <> None } in
  if trace_out <> None then Obs.Trace.start ~capacity:trace_capacity ();
  let report = Svc.Domains.run ~domains cfg in
  Obs.Trace.stop ();
  Svc.Slo.pp Format.std_formatter report;
  Option.iter (fun p -> write_json "SLO report" p (Svc.Slo.to_json report)) json_out;
  Option.iter (fun p -> write_json "span summary" p (Svc.Slo.spans_to_json report)) span_json;
  (* deterministic counter totals, for the domain-determinism gate *)
  Option.iter
    (fun p ->
      write_json "Obs totals" p
        (Json.Schema.doc Json.Schema.obs_totals
           [
             ( "totals",
               Json.Obj
                 (Array.to_list (Array.mapi (fun i v -> (Obs.id_name i, Json.int v)) (Obs.totals ())))
             );
           ]))
    obs_out;
  (match trace_out with
  | Some path ->
      (* windowed SLO series ride along as Chrome counter tracks *)
      let series f =
        List.map
          (fun w -> (float_of_int w.Svc.Slo.w_idx *. cfg.window_ns, f w))
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

let serve_json_t =
  Arg.(
    value & opt (some string) None
    & info [ "json-out" ] ~doc:"Write the deterministic SLO report JSON here.")

let span_json_t =
  Arg.(
    value & opt (some string) None
    & info [ "span-json" ]
        ~doc:"Write the span summary JSON here (implies $(b,spans=on)).")

let domains_t =
  Arg.(
    value & opt int 1
    & info [ "domains" ]
        ~doc:
          "Host domains for the service engine: 1 (default) steps every \
           station sequentially on one domain, N>1 pins shard stations to \
           up to N parallel domains. The SLO/span/Obs output is \
           byte-identical for every value.")

let obs_out_t =
  Arg.(
    value & opt (some string) None
    & info [ "obs-out" ]
        ~doc:"Write deterministic observability counter totals JSON here.")

let serve_term =
  Term.(
    const serve_cmd
    $ Arg.(
        value & pos_all string []
        & info [] ~docv:"SPEC" ~doc:(svc_spec_doc "The service run."))
    $ serve_json_t $ span_json_t $ trace_out_t $ trace_capacity_t $ domains_t
    $ obs_out_t)

(* ---- tail-anatomy -------------------------------------------------------------- *)

(* Power-fail tail-anatomy campaign: the SPEC's service run over a seeded
   grid of crash times (one mid-run shard power failure per trial), spans
   on, aggregated into one per-phase tail breakdown. Trials fan out on a
   Sim.Pool and all printing happens after ordered collection, so the
   output is byte-identical for any -j. *)
let tail_cmd tokens origin_us stride_us points jitter_us jobs json_out =
  let grid =
    {
      Fault.origin = int_of_float (origin_us *. 1_000.0);
      stride = int_of_float (stride_us *. 1_000.0);
      points;
      jitter = int_of_float (jitter_us *. 1_000.0);
    }
  in
  (* every trial's config, each checked before the first runs *)
  checked "tail-anatomy"
    (let* base = Svc.Config.of_string (String.concat " " tokens) in
     let* () = if points <= 0 then Error "points must be positive" else Ok () in
     let crash_shard = match base.crash with Some c -> c.crash_shard | None -> 1 in
     let trial at =
       let cfg =
         { base with spans = true; crash = Some { crash_shard; crash_at_ns = float_of_int at } }
       in
       Result.map (fun () -> (at, cfg)) (Svc.Config.validate cfg)
     in
     List.fold_right
       (fun at acc -> let* rest = acc in let* t = trial at in Ok (t :: rest))
       (Fault.grid_points ~seed:base.seed grid)
       (Ok []))
  @@ fun trials ->
  let cfg = snd (List.hd trials) in
  Fmt.pr "tail-anatomy: %d power-fail trials of %s@." points
    (Svc.Config.to_string cfg);
  let reports = Sim.Pool.map ~jobs (fun (_, cfg) -> Svc.Domains.run cfg) trials in
  List.iter2
    (fun (at, _) r ->
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
    trials reports;
  let merged =
    Sim.Histogram.merge_list (List.map (fun r -> r.Svc.Slo.merged) reports)
  in
  let agg =
    Svc.Slo.merge_summaries
      (List.filter_map (fun r -> r.Svc.Slo.spans) reports)
  in
  Svc.Slo.pp_anatomy Format.std_formatter ~merged agg;
  Option.iter
    (fun p ->
      write_json "per-trial span summaries" p
        (Json.Schema.doc Json.Schema.svc_tail
           [ ("trials", Json.List (List.map Svc.Slo.spans_to_json reports)) ]))
    json_out;
  0

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
    const tail_cmd
    $ Arg.(
        value & pos_all string []
        & info [] ~docv:"SPEC"
            ~doc:
              (svc_spec_doc
                 "Every trial's service run. Every trial runs with \
                  $(b,spans=on), whatever $(b,spans=) says, and crashes at \
                  its grid time (the seed jitters the grid): $(b,crash=S@T) \
                  names the crashed shard S and the grid replaces T; with \
                  $(b,crash=none), the default, shard 1 crashes. There is \
                  no crash-free trial; $(b,serve-sim) runs one."))
    $ origin_us_t $ stride_us_t $ points_t $ jitter_us_t $ jobs_t $ tail_json_t)

(* ---- assembly ------------------------------------------------------------------ *)

(* The crash commands' exit codes: [codes] first, then bad input and
   Cmdliner's own for a bad command line and an uncaught exception. *)
let crash_exits codes =
  let open Cmd.Exit in
  List.map (fun (code, doc) -> info code ~doc) codes
  @ [
      info 2 ~doc:"the SPEC is malformed; nothing ran.";
      info cli_error ~doc:"on command line parsing errors.";
      info internal_error ~doc:"on unexpected internal errors (bugs).";
    ]

let failed_doc =
  "a strict-linearizability violation, a non-empty persistent-heap audit, \
   or an exception after a power failure"

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
           "Adversarial fault-injection campaign over a replay spec: \
            crash-point grid, persisted-state draws, crash-during-recovery, \
            heap audits, and (with detectable ops on) exactly-once replay of \
            unacked ops. Exits 1 when a trial fails or never crashes (its \
            crash point lies past the workload)."
         ~exits:
           (crash_exits
              [
                (0, "every trial crashed and passed.");
                (1, "a trial failed (" ^ failed_doc ^ ") or never crashed.");
              ]))
      sweep_term;
    Cmd.v
      (Cmd.info "crash-replay"
         ~doc:
           "Re-execute a failing trial from its printed replay spec. Exits 3 \
            when the trial never crashed: its crash point lies past the \
            workload, so no recovery was checked."
         ~exits:
           (crash_exits
              [
                (0, "the trial crashed and passed.");
                (1, "the trial failed: " ^ failed_doc ^ ".");
                ( 3,
                  "the trial passed but never crashed: its crash point lies \
                   past the workload, so no recovery ran or was audited." );
              ]))
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
