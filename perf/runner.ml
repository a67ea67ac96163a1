(* One benchmark run of one workload: repeat its sub-runs for the requested
   time, check that every repeat reproduces the simulated numbers of the
   first, and reduce everything to the catalogue's metrics.

   Simulated metrics pool the workload's distinct sub-runs, so they depend
   on the seed alone. Host metrics are medians over every repetition. A
   traced run pairs each repetition with a traced one, which must reproduce
   the untraced simulated numbers byte for byte. *)

module H = Sim.Histogram
module W = Workloads

type result = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  reps : int;
  attempted : int;
  failed : int;
  errors : string list;
  samples : int;  (* latency samples behind the simulated percentiles *)
  metrics : (string * float) list;
      (* end-to-end metrics untraced, per-layer metrics traced *)
  spans : Clock.span list;
}

let correct r = r.errors = [] && r.failed = 0

(* A run makes at least every sub-run once, and stops repeating after this
   many repetitions however short they are. *)
let max_reps = 60

let median xs = Verdict.median xs
let ratio a b = if b = 0.0 then 0.0 else a /. b
let sumf f l = List.fold_left (fun a x -> a +. f x) 0.0 l
let sumi f l = List.fold_left (fun a x -> a + f x) 0 l

let sum_arrays f subs =
  match subs with
  | [] -> [||]
  | s :: _ ->
      let acc = Array.make (Array.length (f s)) 0 in
      List.iter (fun s -> Array.iteri (fun i x -> acc.(i) <- acc.(i) + x) (f s)) subs;
      acc

(* Median over sub-runs of a per-layer value they report. *)
let layer_median subs key =
  match List.filter_map (fun (s : W.sub) -> List.assoc_opt key s.layer) subs with
  | [] -> None
  | xs -> Some (median xs)

(* A host value of a run: the mean over its distinct sub-runs of the median
   over each one's repetitions. Sub-runs differ in cost, and a run's time
   budget repeats some of them more often than others; a plain median over
   repetitions would move with that mix. [reps] pairs each repetition with
   its sub-run index. *)
let host_value reps f =
  let subs = List.sort_uniq compare (List.map fst reps) in
  let per_sub i = median (List.filter_map (fun (j, s) -> if i = j then Some (f s) else None) reps) in
  sumf per_sub subs /. float_of_int (List.length subs)

let host_ns_per_op reps =
  host_value reps (fun (s : W.sub) ->
      float_of_int s.measured_ns /. float_of_int (max 1 s.host_ops))

let percentile_us h p = if H.count h = 0 then 0.0 else H.percentile h p /. 1e3

let end_to_end ~distinct ~reps ~peak_words =
  let lat = H.merge_list (List.map (fun (s : W.sub) -> s.lat) distinct) in
  let ops = sumi (fun (s : W.sub) -> s.ops) distinct in
  let sim_ns = sumf (fun (s : W.sub) -> s.sim_ns) distinct in
  [
    ("sim_mops", float_of_int ops /. sim_ns *. 1e3);
    ("sim_p50_us", percentile_us lat 50.0);
    ("sim_p99_us", percentile_us lat 99.0);
    ("sim_p999_us", percentile_us lat 99.9);
    ("host_ns_per_op", host_ns_per_op reps);
    ("host_peak_mb", float_of_int (peak_words * (Sys.word_size / 8)) /. 1e6);
    ("setup_s", host_value reps (fun (s : W.sub) -> float_of_int s.setup_ns *. 1e-9));
  ]

let per_layer ~distinct ~reps ~traced ~pairs ~extra =
  let ops = float_of_int (sumi (fun (s : W.sub) -> s.ops) distinct) in
  let obs = sum_arrays (fun (s : W.sub) -> s.obs) distinct in
  let pm = sum_arrays (fun (s : W.sub) -> s.pmem) distinct in
  let o id = float_of_int obs.(id) in
  let per_op id = ratio (o id) ops and per_kop id = ratio (o id) ops *. 1e3 in
  let events = float_of_int (sumi (fun (s : W.sub) -> s.events) distinct) in
  let machine_visible = events > 0.0 in
  let host_per_op = host_ns_per_op reps in
  let pmem_host =
    if not machine_visible then 0.0
    else
      host_value traced (fun (s : W.sub) ->
          s.callback_ns /. float_of_int (max 1 s.host_ops))
  in
  let kind k =
    H.merge_list (List.map (fun (s : W.sub) -> s.by_kind.(k)) distinct)
  in
  let announces = o Obs.id_detect_announce in
  let computed =
    [
      ("sched.events_per_op", ratio events ops);
      ("sched.host_ns_per_event", ratio host_per_op (ratio events ops));
      ("pmem.load_misses_per_op", per_op Obs.id_load_miss);
      ("pmem.store_misses_per_op", per_op Obs.id_store_miss);
      ("pmem.flushes_per_op", per_op Obs.id_flush);
      ("pmem.dirty_flushes_per_op", per_op Obs.id_dirty_flush);
      ("pmem.fences_per_op", per_op Obs.id_fence);
      ("pmem.cas_fail_frac", ratio (o Obs.id_pmem_cas_fail) (o Obs.id_pmem_cas));
      ( "pmem.remote_frac",
        ratio (float_of_int pm.(W.pmem_remote)) (float_of_int pm.(W.pmem_accesses)) );
      ("pmem.host_ns_per_op", pmem_host);
      ("mem.allocs_per_kop", per_kop Obs.id_alloc);
      ("mem.frees_per_kop", per_kop Obs.id_free);
      ("skiplist.read_p50_us", percentile_us (kind W.k_read) 50.0);
      ("skiplist.update_p50_us", percentile_us (kind W.k_update) 50.0);
      ("skiplist.insert_p50_us", percentile_us (kind W.k_insert) 50.0);
      ("skiplist.remove_p50_us", percentile_us (kind W.k_remove) 50.0);
      ("skiplist.read_p99_us", percentile_us (kind W.k_read) 99.0);
      ("skiplist.update_p99_us", percentile_us (kind W.k_update) 99.0);
      ("skiplist.cas_per_op", per_op Obs.id_cas);
      ("skiplist.cas_fail_frac", ratio (o Obs.id_cas_fail) (o Obs.id_cas));
      ("skiplist.restarts_per_kop", per_kop Obs.id_restart);
      ("skiplist.splits_per_kop", per_kop Obs.id_split);
      ("skiplist.helps_per_kop", per_kop Obs.id_help);
      ("skiplist.finger_hit_frac", per_op Obs.id_finger_hit);
      ("skiplist.finger_invalid_per_kop", per_kop Obs.id_finger_invalid);
      ( "skiplist.host_ns_per_op",
        if machine_visible then host_per_op -. pmem_host else 0.0 );
      ("detect.announces_per_kop", per_kop Obs.id_detect_announce);
      ("detect.resolves_per_kop", per_kop Obs.id_detect_resolve);
      ("detect.fences_per_upsert", ratio (o Obs.id_fence) announces);
      ( "trace.overhead_frac",
        median
          (List.map
             (fun ((u : W.sub), (t : W.sub)) ->
               (float_of_int t.measured_ns /. float_of_int u.measured_ns) -. 1.0)
             pairs) );
    ]
  in
  (* precedence: what the workload reports itself, then probes and the
     ladder, then the counters; a layer the workload does not exercise
     reads 0 *)
  List.map
    (fun (m : Catalogue.layer_metric) ->
      let k = m.lname in
      let v =
        match layer_median distinct k with
        | Some v -> v
        | None -> (
            match List.assoc_opt k (snd (List.hd reps)).W.host with
            | Some _ ->
                host_value reps (fun (s : W.sub) -> List.assoc k s.host)
            | None -> (
                match List.assoc_opt k extra with
                | Some v -> v
                | None -> Option.value (List.assoc_opt k computed) ~default:0.0))
      in
      (k, v))
    Catalogue.per_layer

let run ?(scale = W.Full) ~(workload : W.t) ~seed ~seconds ~trace () =
  let start = Clock.now_ns () in
  let firsts = Array.make workload.subs None in
  let untraced = ref [] and traced = ref [] in
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let reps = ref 0 in
  (* the heap peak after the distinct sub-runs, whose allocations (and so
     the collector's decisions) depend on the seed alone; later
     repetitions would make it depend on how many fit in [seconds] *)
  let peak_words = ref 0 in
  if trace then Clock.start_recording ();
  Clock.pause ();
  while
    !reps < workload.subs
    || (!reps < max_reps && Clock.now_ns () - start < seconds * 1_000_000_000)
  do
    let sub = !reps mod workload.subs in
    (* every repetition starts from a compacted heap, so none pays for
       garbage an earlier one left *)
    Gc.compact ();
    let u = workload.run ~scale ~trace:false ~seed ~sub in
    let d = W.digest u in
    (match firsts.(sub) with
    | None -> firsts.(sub) <- Some (u, d)
    | Some (_, d0) ->
        if d <> d0 then error "sub-run %d did not reproduce its simulated results" sub);
    untraced := (sub, u) :: !untraced;
    if trace then begin
      Gc.compact ();
      Clock.resume ();
      let t, _ =
        Clock.timed (Printf.sprintf "sub-run %d" sub) (fun () ->
            workload.run ~scale ~trace:true ~seed ~sub)
      in
      Clock.pause ();
      if W.digest ~only:(List.map fst u.layer) t <> d then
        error "traced sub-run %d changed the simulated results" sub;
      traced := (sub, t) :: !traced
    end;
    incr reps;
    if !reps = workload.subs then peak_words := (Gc.quick_stat ()).top_heap_words
  done;
  let reps_l = List.rev !untraced in
  let distinct = Array.to_list (Array.map (fun f -> fst (Option.get f)) firsts) in
  let traced_l = List.rev !traced in
  let all_subs = List.map snd (reps_l @ traced_l) in
  let metrics =
    if not trace then end_to_end ~distinct ~reps:reps_l ~peak_words:!peak_words
    else begin
      Clock.resume ();
      let extra = Probes.all ~scale @ workload.traced_extra ~scale ~seed in
      Clock.pause ();
      let distinct_traced =
        List.init workload.subs (fun i -> List.assoc i traced_l)
      in
      per_layer ~distinct:distinct_traced ~reps:reps_l
        ~traced:traced_l
        ~pairs:(List.combine (List.map snd reps_l) (List.map snd traced_l))
        ~extra
    end
  in
  List.iter (fun (s : W.sub) -> List.iter (fun e -> error "%s" e) s.errors) all_subs;
  {
    workload = workload.name;
    seed;
    seconds;
    trace;
    reps = !reps;
    attempted = sumi (fun (s : W.sub) -> s.attempted) all_subs;
    failed = sumi (fun (s : W.sub) -> s.failed) all_subs;
    errors = List.sort_uniq compare !errors;
    samples = sumi (fun (s : W.sub) -> H.count s.lat) distinct;
    metrics;
    spans = (if trace then Clock.spans () else []);
  }

(* ---- output ------------------------------------------------------------- *)

let unit_of name =
  match List.find_opt (fun (m : Catalogue.e2e) -> m.name = name) Catalogue.end_to_end with
  | Some m -> m.unit
  | None -> (
      match
        List.find_opt (fun (m : Catalogue.layer_metric) -> m.lname = name) Catalogue.per_layer
      with
      | Some m -> m.lunit
      | None -> "")

let print r =
  Printf.printf "%s  seed %d  %s run  %d repetitions  %d ops attempted, %d failed\n"
    r.workload r.seed
    (if r.trace then "traced" else "untraced")
    r.reps r.attempted r.failed;
  if not r.trace then
    Printf.printf "  (simulated percentiles over %d latency samples)\n" r.samples;
  List.iter
    (fun (k, v) -> Printf.printf "  %-34s %14.4f %s\n" k v (unit_of k))
    r.metrics;
  List.iter (Printf.printf "  ERROR %s\n") r.errors

(* The line the benchmark contract reads: the last line of stdout. *)
let summary_json r =
  Json.(
    Obj
      [
        ("correct", Bool (correct r));
        ("attempted", int r.attempted);
        ("failed", int r.failed);
        ( "metrics",
          Obj (List.map (fun (k, v) -> (k, Obj [ ("value", Num v); ("unit", Str (unit_of k)) ])) r.metrics) );
      ])

let metric_json k v =
  match List.find_opt (fun (m : Catalogue.e2e) -> m.name = k) Catalogue.end_to_end with
  | Some m ->
      Json.(
        Obj
          [
            ("value", Num v);
            ("unit", Str m.unit);
            ("better", Str (Catalogue.better_to_string m.better));
            ("bound", Num m.bound);
          ])
  | None -> (
      match
        List.find_opt (fun (m : Catalogue.layer_metric) -> m.lname = k) Catalogue.per_layer
      with
      | Some m ->
          Json.(
            Obj
              [
                ("value", Num v);
                ("unit", Str m.lunit);
                ("better", Str (Catalogue.better_to_string m.lbetter));
                ("target", Str m.target);
              ])
      | None -> Json.Num v)

(* The run record, schema upskip-perf/1. *)
let record_json r =
  Json.(
    Obj
      [
        ("schema", Str "upskip-perf/1");
        ("workload", Str r.workload);
        ("seed", int r.seed);
        ("seconds", int r.seconds);
        ("trace", Bool r.trace);
        ("host_cores", int (Domain.recommended_domain_count ()));
        ("domains", int 1);
        ("reps", int r.reps);
        ("correct", Bool (correct r));
        ("attempted", int r.attempted);
        ("failed", int r.failed);
        ("errors", List (List.map (fun e -> Str e) r.errors));
        ("latency_samples", int r.samples);
        ("metrics", Obj (List.map (fun (k, v) -> (k, metric_json k v)) r.metrics));
      ])

(* The traced run's spans, each with its parent, and per span name the
   total and self time (duration minus the part its children cover). *)
let spans_json spans =
  let secs ns = Json.Num (float_of_int ns *. 1e-9) in
  let dur (s : Clock.span) = s.stop_ns - s.start_ns in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun (s : Clock.span) ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (dur s + Option.value (Hashtbl.find_opt child_time s.parent) ~default:0))
    spans;
  let totals = Hashtbl.create 16 in
  List.iter
    (fun (s : Clock.span) ->
      let self = dur s - Option.value (Hashtbl.find_opt child_time s.id) ~default:0 in
      let n, t, sf = Option.value (Hashtbl.find_opt totals s.name) ~default:(0, 0, 0) in
      Hashtbl.replace totals s.name (n + 1, t + dur s, sf + self))
    spans;
  let names = List.sort_uniq compare (List.map (fun (s : Clock.span) -> s.name) spans) in
  Json.
    [
      ( "spans",
        List
          (List.map
             (fun (s : Clock.span) ->
               Obj
                 [
                   ("id", int s.id);
                   ("name", Str s.name);
                   ("parent", int s.parent);
                   ("start_s", secs s.start_ns);
                   ("end_s", secs s.stop_ns);
                 ])
             spans) );
      ( "span_totals",
        List
          (List.map
             (fun name ->
               let n, t, sf = Hashtbl.find totals name in
               Obj [ ("name", Str name); ("count", int n); ("total_s", secs t); ("self_s", secs sf) ])
             names) );
    ]

let trace_json r =
  match record_json r with
  | Json.Obj kvs ->
      Json.Obj
        ((("schema", Json.Str "upskip-perf-trace/1") :: List.remove_assoc "schema" kvs)
        @ spans_json r.spans)
  | j -> j
