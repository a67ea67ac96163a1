(* Tests for the observability layer: log-bucketed histograms, per-fiber
   counter attribution, the event-trace ring, and the determinism of the
   Chrome trace / metrics JSON exporters. *)

open Testsupport

(* ---- histograms ---------------------------------------------------------- *)

let raises_invalid f =
  match f () with
  | (_ : float) -> false
  | exception Invalid_argument _ -> true

let test_histogram_empty_raises () =
  let h = Sim.Histogram.create () in
  check_int "count" 0 (Sim.Histogram.count h);
  check_bool "percentile raises" true
    (raises_invalid (fun () -> Sim.Histogram.percentile h 50.0));
  check_bool "median raises" true
    (raises_invalid (fun () -> Sim.Histogram.median h));
  check_bool "min raises" true
    (raises_invalid (fun () -> Sim.Histogram.min_value h));
  check_bool "max raises" true
    (raises_invalid (fun () -> Sim.Histogram.max_value h))

(* Values below 2^sub_bits land in unit-width buckets: percentiles of
   small integers are exact (up to the half-bucket midpoint offset). *)
let test_histogram_small_values_exact () =
  let h = Sim.Histogram.create () in
  for i = 1 to 100 do
    Sim.Histogram.add h (float_of_int i)
  done;
  check_int "count" 100 (Sim.Histogram.count h);
  check_bool "min" true (Sim.Histogram.min_value h = 1.0);
  check_bool "max" true (Sim.Histogram.max_value h = 100.0);
  check_bool "sum" true (Sim.Histogram.sum h = 5050.0);
  check_bool "p50 in bucket" true
    (abs_float (Sim.Histogram.percentile h 50.0 -. 50.0) <= 1.0);
  check_bool "p100 = max" true (Sim.Histogram.percentile h 100.0 = 100.0)

(* Against the exact sorted-sample implementation on log-normal-ish
   samples: every percentile within the documented relative error. *)
let test_histogram_vs_exact_stats () =
  let h = Sim.Histogram.create () in
  let s = Sim.Stats.create () in
  let rng = Sim.Rng.create 1234 in
  for _ = 1 to 10_000 do
    (* spread over ~5 decades, like latencies in ns *)
    let v = 10.0 ** (1.0 +. (4.0 *. Sim.Rng.float rng)) in
    Sim.Histogram.add h v;
    Sim.Stats.add s v
  done;
  check_int "counts agree" (Sim.Stats.count s) (Sim.Histogram.count h);
  List.iter
    (fun p ->
      let exact = Sim.Stats.percentile s p in
      let approx = Sim.Histogram.percentile h p in
      let rel = abs_float (approx -. exact) /. exact in
      if rel > Sim.Histogram.max_rel_error +. 0.002 then
        Alcotest.failf "p%g: exact %.3f approx %.3f rel err %.5f" p exact
          approx rel)
    [ 50.0; 90.0; 99.0; 99.9; 99.99 ];
  check_bool "min exact" true
    (Sim.Histogram.min_value h = Sim.Stats.min_value s);
  check_bool "max exact" true
    (Sim.Histogram.max_value h = Sim.Stats.max_value s)

(* empty -> add -> clear -> add: bucket rows exist only while the
   histogram holds samples — one sample allocates the row table and the one
   128-bucket row it lands in, not all 7296 buckets — and a cleared
   histogram behaves like a fresh one *)
let test_histogram_clear () =
  let words h = Obj.reachable_words (Obj.repr h) in
  let h = Sim.Histogram.create () in
  check_bool "empty holds no buckets" true (words h < 64);
  Sim.Histogram.add h 42.0;
  check_bool "first add allocates one bucket row" true
    (words h > 128 && words h < 512);
  Sim.Histogram.add h 1e6;
  check_bool "a sample in another row allocates that row" true
    (words h > 256 && words h < 640);
  Sim.Histogram.clear h;
  check_int "count after clear" 0 (Sim.Histogram.count h);
  check_bool "percentile raises after clear" true
    (raises_invalid (fun () -> Sim.Histogram.percentile h 50.0));
  check_bool "clear drops buckets" true (words h < 64);
  Sim.Histogram.add h 7.0;
  Sim.Histogram.add h 9.0;
  check_int "count after re-add" 2 (Sim.Histogram.count h);
  check_bool "min after re-add" true (Sim.Histogram.min_value h = 7.0);
  check_bool "p100 after re-add" true (Sim.Histogram.percentile h 100.0 = 9.0)

(* ---- counters ------------------------------------------------------------ *)

let test_counters_basic () =
  Obs.reset ();
  Obs.bump ~tid:0 Obs.id_flush;
  Obs.bump ~tid:0 Obs.id_flush;
  Obs.bump ~tid:5 Obs.id_flush;
  Obs.bump ~tid:5 Obs.id_cas_fail;
  check_int "tid 0 flushes" 2 (Obs.counter ~tid:0 Obs.id_flush);
  check_int "tid 5 flushes" 1 (Obs.counter ~tid:5 Obs.id_flush);
  check_int "total flushes" 3 (Obs.total Obs.id_flush);
  check_int "unused id" 0 (Obs.total Obs.id_fence);
  let row = Array.make Obs.n_ids 0 in
  Obs.read_row ~tid:5 ~into:row;
  check_int "row flush" 1 row.(Obs.id_flush);
  check_int "row cas_fail" 1 row.(Obs.id_cas_fail);
  let totals = Obs.totals () in
  check_int "totals flush" 3 totals.(Obs.id_flush);
  Obs.reset ();
  check_int "reset" 0 (Obs.total Obs.id_flush)

(* The scheduler fast path must not change attribution: PMEM primitives
   are counted per tid identically with fast_path on and off. *)
let test_counters_fastpath_invariant () =
  let run_one fast_path =
    Obs.reset ();
    let pmem = fast_pmem () in
    let body ~tid =
      let a = Pmem.addr ~pool:0 ~word:(64 * tid) in
      for i = 1 to 10 do
        Sim.Sched.write a i;
        Sim.Sched.flush a;
        Sim.Sched.fence ();
        ignore (Sim.Sched.cas a ~expected:i ~desired:(i + 1));
        ignore (Sim.Sched.cas a ~expected:999_999 ~desired:0)
      done
    in
    (match
       Sim.Sched.run ~fast_path ~machine:(Pmem.machine pmem)
         (List.init 4 (fun tid -> (tid, body)))
     with
    | Sim.Sched.Completed _ -> ()
    | Sim.Sched.Crashed_at _ -> Alcotest.fail "unexpected crash");
    List.concat_map
      (fun tid ->
        List.init Obs.n_ids (fun id -> (tid, id, Obs.counter ~tid id)))
      [ 0; 1; 2; 3 ]
  in
  let fast = run_one true and slow = run_one false in
  check_bool "attribution identical across fast_path" true (fast = slow);
  check_int "flushes per tid" 10 (Obs.counter ~tid:2 Obs.id_flush);
  check_int "fences per tid" 10 (Obs.counter ~tid:2 Obs.id_fence);
  check_int "cas per tid" 20 (Obs.counter ~tid:2 Obs.id_pmem_cas);
  check_int "cas failures per tid" 10 (Obs.counter ~tid:2 Obs.id_pmem_cas_fail)

(* ---- report sample capture ----------------------------------------------- *)

let test_report_samples () =
  let module R = Harness.Report in
  R.reset_samples ();
  check_int "empty after reset" 0 (List.length (R.samples ()));
  R.heading "figure A";
  R.series ~title:"throughput" ~x_label:"threads" ~x_values:[ 1; 2; 4 ]
    ~columns:
      [
        ("ups", [ (1.0, 0.1); (2.0, 0.2); (3.0, 0.3) ]);
        ("bz", [ (0.5, 0.0); (1.0, 0.0); (1.5, 0.0) ]);
      ];
  let ss = R.samples () in
  check_int "six samples" 6 (List.length ss);
  (* capture order: column-major, x ascending within each column *)
  let first = List.hd ss in
  check_bool "figure" true (first.R.figure = "figure A");
  check_bool "series" true (first.R.series = "throughput");
  check_bool "column" true (first.R.column = "ups");
  check_int "x" 1 first.R.x;
  check_bool "mean" true (first.R.mean = 1.0);
  let xs = List.map (fun s -> (s.R.column, s.R.x)) ss in
  check_bool "ordering" true
    (xs = [ ("ups", 1); ("ups", 2); ("ups", 4); ("bz", 1); ("bz", 2); ("bz", 4) ]);
  R.reset_samples ();
  check_int "reset clears" 0 (List.length (R.samples ()))

(* latency_table rows come from histograms; cross-check one row against
   the exact per-sample stats it replaced. *)
let test_latency_table_agreement () =
  let h = Sim.Histogram.create () in
  let s = Sim.Stats.create () in
  let rng = Sim.Rng.create 77 in
  for _ = 1 to 5_000 do
    let v = 200.0 +. (1.0e6 *. Sim.Rng.float rng) in
    Sim.Histogram.add h v;
    Sim.Stats.add s v
  done;
  List.iter
    (fun p ->
      let exact = Sim.Stats.percentile s p in
      let approx = Sim.Histogram.percentile h p in
      check_bool
        (Printf.sprintf "p%g within bucket error" p)
        true
        (abs_float (approx -. exact) /. exact
        <= Sim.Histogram.max_rel_error +. 0.002))
    [ 50.0; 90.0; 99.0; 99.9 ]

(* ---- spans ---------------------------------------------------------------- *)

(* A span whose phases sum exactly to [lat] (single non-zero phase, so
   float addition cannot disturb the total). *)
let mk_span ?(client = 1) ?(seq = 0) ~lat () =
  {
    Obs.Span.sp_id = Obs.Span.id ~client ~seq;
    sp_client = client;
    sp_seq = seq;
    sp_shard = 0;
    sp_op = 0;
    sp_arrival = 0.0;
    sp_lat = lat;
    sp_phase = [| 0.0; lat; 0.0; 0.0; 0.0 |];
    sp_fence = 0.0;
    sp_recovery = 0.0;
    sp_replay = 0;
    sp_flushes = 0;
    sp_fences = 0;
    sp_load_misses = 0;
  }

let test_span_id_encoding () =
  check_int "id packs client and seq" ((3 lsl 24) lor 5)
    (Obs.Span.id ~client:3 ~seq:5);
  check_int "seq masked to 24 bits" ((1 lsl 24) lor 1)
    (Obs.Span.id ~client:1 ~seq:((1 lsl 24) + 1))

(* The collector keeps the slowest [top] spans (ties broken by id) and
   sums every recorded span into the phase totals. *)
let test_span_collector_topk () =
  let c = Obs.Span.create ~top:4 ~sample:0 ~seed:9 () in
  List.iter
    (fun lat -> Obs.Span.record c (mk_span ~seq:(int_of_float lat) ~lat ()))
    [ 30.0; 80.0; 10.0; 100.0; 50.0; 90.0; 20.0; 70.0; 40.0; 60.0 ];
  check_int "count sees every span" 10 (Obs.Span.count c);
  let tops = List.map (fun s -> s.Obs.Span.sp_lat) (Obs.Span.tops c) in
  check_bool "slowest four, slowest first" true
    (tops = [ 100.0; 90.0; 80.0; 70.0 ]);
  check_bool "latency total over all spans" true
    (Obs.Span.lat_total c = 550.0);
  check_bool "phase totals over all spans" true
    ((Obs.Span.phase_totals c).(Obs.Span.ph_queue) = 550.0);
  check_int "no residual violations" 0 (Obs.Span.residual_violations c)

(* The reservoir is driven by a seeded stream: same seed, same sample. *)
let test_span_reservoir_deterministic () =
  let fill seed =
    let c = Obs.Span.create ~top:2 ~sample:8 ~seed () in
    for i = 0 to 199 do
      Obs.Span.record c (mk_span ~seq:i ~lat:(float_of_int (100 + i)) ())
    done;
    List.map (fun s -> s.Obs.Span.sp_seq) (Obs.Span.sampled c)
  in
  let a = fill 42 and b = fill 42 in
  check_int "reservoir at capacity" 8 (List.length a);
  check_bool "same seed, same sample" true (a = b);
  check_bool "different seed, different sample" true (a <> fill 43)

(* A span whose phases do not telescope to its latency is flagged. *)
let test_span_residual_violation () =
  let c = Obs.Span.create ~top:4 ~sample:0 ~seed:1 () in
  Obs.Span.record c (mk_span ~lat:100.0 ());
  check_int "exact span is clean" 0 (Obs.Span.residual_violations c);
  check_bool "zero residual" true (Obs.Span.residual_max c = 0.0);
  let broken = { (mk_span ~seq:1 ~lat:100.0 ()) with Obs.Span.sp_lat = 101.0 } in
  Obs.Span.record c broken;
  check_int "mismatched span is flagged" 1 (Obs.Span.residual_violations c);
  check_bool "residual magnitude" true
    (abs_float (Obs.Span.residual_max c -. 1.0) < 1e-9)

(* ---- trace ring ----------------------------------------------------------- *)

let contains json needle =
  let n = String.length needle in
  let rec scan i =
    i + n <= String.length json
    && (String.sub json i n = needle || scan (i + 1))
  in
  scan 0

let test_trace_ring_drop () =
  Obs.Trace.start ~capacity:8 ();
  for i = 1 to 20 do
    Obs.Trace.emit ~ts:(float_of_int i) ~tid:0 ~kind:Obs.Trace.k_resume ~arg:i
      ~farg:0.0
  done;
  Obs.Trace.stop ();
  check_int "retained" 8 (Obs.Trace.recorded ());
  check_int "dropped" 12 (Obs.Trace.dropped ());
  check_int "total emitted" 20 (Obs.Trace.total_emitted ());
  let json = Json.to_string (Obs.Trace.to_chrome ()) in
  check_bool "reports drops" true (contains json "\"droppedEvents\":12");
  check_bool "schema version" true
    (contains json "{\"schema\":\"upskip-obs-trace/3\",\"schema_version\":3,");
  Obs.Trace.clear ()

(* After drop-oldest overflow the retained window is the newest [capacity]
   events, oldest first. *)
let test_trace_surviving_window () =
  Obs.Trace.start ~capacity:8 ();
  for i = 1 to 20 do
    Obs.Trace.emit ~ts:(float_of_int i) ~tid:0 ~kind:Obs.Trace.k_resume ~arg:i
      ~farg:0.0
  done;
  Obs.Trace.stop ();
  let seen = ref [] in
  Obs.Trace.iter_retained (fun ~ts ~tid:_ ~kind:_ ~arg:_ ~farg:_ ->
      seen := ts :: !seen);
  check_bool "window is events 13..20 in order" true
    (List.rev !seen = List.init 8 (fun i -> float_of_int (13 + i)));
  Obs.Trace.clear ()

(* The extended exporter: counter tracks and request-phase async pairs,
   byte-identical across renders. *)
let test_chrome_counters_and_phases () =
  Obs.Trace.start ~capacity:64 ();
  Obs.Trace.emit ~ts:1000.0 ~tid:0 ~kind:Obs.Trace.k_req_phase
    ~arg:((Obs.Span.id ~client:2 ~seq:7 lsl 3) lor Obs.Span.ph_queue)
    ~farg:500.0;
  Obs.Trace.stop ();
  let tracks = [ ("ops/window", [ (0.0, 1.0); (20_000.0, 3.0) ]) ] in
  let j1 = Json.to_string (Obs.Trace.to_chrome ~counter_tracks:tracks ()) in
  let j2 = Json.to_string (Obs.Trace.to_chrome ~counter_tracks:tracks ()) in
  check_bool "byte-identical across renders" true (String.equal j1 j2);
  check_bool "counter track" true (contains j1 "\"ph\":\"C\"");
  check_bool "counter name" true (contains j1 "\"ops/window\"");
  check_bool "phase begin" true (contains j1 "\"ph\":\"b\"");
  check_bool "phase end" true (contains j1 "\"ph\":\"e\"");
  check_bool "request category" true (contains j1 "\"cat\":\"req\"");
  Obs.Trace.clear ()

let run_traced seed =
  let sys =
    {
      Harness.Kv.default_sys with
      latency = Pmem.Latency.default;
      pool_words = 1 lsl 20;
      max_threads = 16;
    }
  in
  let kv = Harness.Kv.make_upskiplist sys in
  Harness.Driver.preload kv ~threads:2 ~n:300;
  Obs.reset ();
  Obs.Trace.start ~capacity:(1 lsl 14) ();
  let res =
    Harness.Driver.run_workload kv ~spec:Ycsb.Workload.a ~threads:4
      ~n_initial:300 ~ops_per_thread:60 ~seed
  in
  Obs.Trace.stop ();
  let trace = Json.to_string (Obs.Trace.to_chrome ()) in
  Obs.Trace.clear ();
  let digests =
    List.map
      (fun d -> (d.Harness.Driver.op, d.Harness.Driver.count, d.Harness.Driver.totals))
      res.Harness.Driver.digests
  in
  let metrics =
    Json.to_string
      (Harness.Report.metrics_json ~label:"trace determinism" ~seed
         [ ("ycsb-a", digests) ])
  in
  (trace, metrics)

(* The tentpole acceptance test: the same seed on a fresh fixture yields
   byte-identical Chrome trace JSON and metrics JSON. *)
let test_trace_determinism () =
  let t1, m1 = run_traced 11 in
  let t2, m2 = run_traced 11 in
  check_bool "trace non-trivial" true (String.length t1 > 10_000);
  check_bool "trace byte-identical" true (String.equal t1 t2);
  check_bool "metrics byte-identical" true (String.equal m1 m2);
  let t3, _ = run_traced 12 in
  check_bool "different seed differs" true (not (String.equal t1 t3))

(* Per-op digests must decompose the run: summed per-op counter totals
   equal the global counters touched by the traced window. *)
let test_digest_decomposition () =
  let sys =
    { Harness.Kv.default_sys with pool_words = 1 lsl 20; max_threads = 16 }
  in
  let kv = Harness.Kv.make_upskiplist sys in
  Harness.Driver.preload kv ~threads:2 ~n:300;
  Obs.reset ();
  let res =
    Harness.Driver.run_workload kv ~spec:Ycsb.Workload.a ~threads:4
      ~n_initial:300 ~ops_per_thread:60 ~seed:5
  in
  let digests = res.Harness.Driver.digests in
  check_bool "has digests" true (digests <> []);
  let ops = List.fold_left (fun a d -> a + d.Harness.Driver.count) 0 digests in
  check_int "digest counts partition ops" res.Harness.Driver.ops ops;
  List.iter
    (fun id ->
      let summed =
        List.fold_left
          (fun a d -> a + d.Harness.Driver.totals.(id))
          0 digests
      in
      check_int
        (Printf.sprintf "digest sum = global total (%s)" (Obs.id_name id))
        (Obs.total id) summed)
    [ Obs.id_flush; Obs.id_fence; Obs.id_pmem_cas; Obs.id_cas ];
  let flushes =
    List.fold_left (fun a d -> a + d.Harness.Driver.totals.(Obs.id_flush)) 0
      digests
  in
  check_bool "ycsb-a updates flush" true (flushes > 0)

let () =
  Alcotest.run "obs"
    [
      ( "histogram",
        [
          case "empty raises" test_histogram_empty_raises;
          case "small values exact" test_histogram_small_values_exact;
          case "vs exact stats" test_histogram_vs_exact_stats;
          case "clear" test_histogram_clear;
        ] );
      ( "counters",
        [
          case "basic attribution" test_counters_basic;
          case "fast-path invariant" test_counters_fastpath_invariant;
        ] );
      ( "report",
        [
          case "sample capture" test_report_samples;
          case "latency table agreement" test_latency_table_agreement;
        ] );
      ( "spans",
        [
          case "id encoding" test_span_id_encoding;
          case "collector top-k" test_span_collector_topk;
          case "reservoir deterministic" test_span_reservoir_deterministic;
          case "residual violation" test_span_residual_violation;
        ] );
      ( "trace",
        [
          case "ring drop" test_trace_ring_drop;
          case "surviving window" test_trace_surviving_window;
          case "chrome counters and phases" test_chrome_counters_and_phases;
          case "determinism" test_trace_determinism;
          case "digest decomposition" test_digest_decomposition;
        ] );
    ]
