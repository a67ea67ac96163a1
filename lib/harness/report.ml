(* Plain-text table and series printers for the benchmark output.

   Every figure is rendered as a data series (x = threads, y = Mops/s or
   latency), every table as aligned columns — the same rows/series the
   paper reports, ready to plot.

   Every printed series is also captured as {!sample} records so the bench
   driver can emit them as a machine-readable document (`--json`). *)

type sample = {
  figure : string;  (* heading active when the series was printed *)
  series : string;  (* series title *)
  column : string;  (* column label, e.g. "UPSkipList (Mops/s)" *)
  x : int;  (* x value, e.g. thread count *)
  mean : float;
  sd : float;
}

(* Capture state is domain-local so pool workers can never race the main
   domain's sample list; figures print (and therefore capture) only after
   collecting their jobs, so all samples land on the calling domain. *)
type capture = { mutable captured : sample list (* newest first *); mutable current_figure : string }

let capture_key : capture Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { captured = []; current_figure = "" })

let samples () = List.rev (Domain.DLS.get capture_key).captured
let sample_count () = List.length (Domain.DLS.get capture_key).captured
let reset_samples () =
  let c = Domain.DLS.get capture_key in
  c.captured <- [];
  c.current_figure <- ""

let heading title =
  (Domain.DLS.get capture_key).current_figure <- title;
  let line = String.make (String.length title) '=' in
  Fmt.pr "@.%s@.%s@." title line

let subheading title = Fmt.pr "@.-- %s --@." title

(* Print a table: column headers plus rows of strings, aligned. *)
let pad width cell = Printf.sprintf "%-*s" width cell

let table ~headers ~rows =
  let ncols = List.length headers in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  measure headers;
  List.iter measure rows;
  let print_row row =
    Fmt.pr "  %s@."
      (String.concat "  " (List.mapi (fun i cell -> pad widths.(i) cell) row))
  in
  print_row headers;
  print_row (List.map (fun w -> String.make w '-') (Array.to_list widths));
  List.iter print_row rows

let f2 x = Printf.sprintf "%.2f" x
let f3 x = Printf.sprintf "%.3f" x

(* Capture one sample under the current figure without printing it: a
   table's row that later checks read as a sample. *)
let record ~series ~column ~x (mean, sd) =
  let c = Domain.DLS.get capture_key in
  c.captured <- { figure = c.current_figure; series; column; x; mean; sd } :: c.captured

(* A throughput series: one row per thread count, one column per system. *)
let series ~title ~x_label ~x_values ~columns =
  List.iter
    (fun (column, ys) -> List.iter2 (fun x y -> record ~series:title ~column ~x y) x_values ys)
    columns;
  subheading title;
  let headers = x_label :: List.map fst columns in
  let rows =
    List.mapi
      (fun i x ->
        string_of_int x
        :: List.map
             (fun (_, ys) ->
               let v, sd = List.nth ys i in
               Printf.sprintf "%s ±%s" (f3 v) (f2 sd))
             columns)
      x_values
  in
  table ~headers ~rows

let percentiles = [ 50.0; 90.0; 99.0; 99.9; 99.99 ]

(* Latency rows read from the log-bucketed histograms: O(1) per insert
   during the run, each percentile within ~0.8% of the exact sample. *)
let latency_row name (hist : Sim.Histogram.t) =
  name
  :: List.map
       (fun p -> f2 (Sim.Histogram.percentile hist p /. 1000.0))
       percentiles

let latency_table ~title ~rows =
  subheading title;
  table
    ~headers:("operation" :: List.map (fun p -> Printf.sprintf "p%g (us)" p) percentiles)
    ~rows

(* ---- fault-injection campaign summary ----------------------------------- *)

(* One-row digest of an adversarial crash campaign: trial/crash coverage,
   audit verdicts, and the min/median/max of the modeled per-trial recovery
   time (milliseconds) across crashed trials. *)
let campaign_summary ~name ~trials ~crashed ~crash_points ~draws ~total_crashes
    ~audit_passes ~audit_failures ~violation_trials ~repairs ~recovery_ns =
  subheading (Printf.sprintf "campaign: %s" name);
  let ms x = f2 (x /. 1.0e6) in
  let sorted = List.sort compare recovery_ns in
  let n = List.length sorted in
  let rec_stats =
    if n = 0 then [ "-"; "-"; "-" ]
    else
      [
        ms (List.nth sorted 0);
        ms (List.nth sorted (n / 2));
        ms (List.nth sorted (n - 1));
      ]
  in
  table
    ~headers:
      [
        "trials"; "crashed"; "points"; "draws/pt"; "crashes"; "audits";
        "audit fails"; "lin fails"; "repairs"; "rec min (ms)"; "rec med (ms)";
        "rec max (ms)";
      ]
    ~rows:
      [
        [
          string_of_int trials;
          string_of_int crashed;
          string_of_int crash_points;
          string_of_int draws;
          string_of_int total_crashes;
          string_of_int audit_passes;
          string_of_int audit_failures;
          string_of_int violation_trials;
          string_of_int repairs;
        ]
        @ rec_stats;
      ]

(* ---- bench --json: the simulated samples ------------------------------- *)

(* One entry per executed experiment, [(name, samples it printed)]. Means
   and deviations keep 6 significant digits, the precision the tables
   print from. *)
let samples_json ~label ~scale figures =
  let sig6 x = Json.Num (float_of_string (Printf.sprintf "%.6g" x)) in
  let sample s =
    Json.Obj
      [
        ("figure", Json.Str s.figure); ("series", Json.Str s.series);
        ("column", Json.Str s.column); ("x", Json.int s.x); ("mean", sig6 s.mean);
        ("sd", sig6 s.sd);
      ]
  in
  Json.Schema.doc Json.Schema.bench_samples
    [
      ("label", Json.Str label); ("scale", Json.Str scale);
      ( "figures",
        Json.List
          (List.map
             (fun (name, sim) ->
               Json.Obj [ ("name", Json.Str name); ("sim", Json.List (List.map sample sim)) ])
             figures) );
    ]

(* ---- observability counter digests -------------------------------------- *)

(* A digest is (op label, op count, Obs-id-indexed counter totals); a
   section groups the digests of one instrumented pass (a YCSB workload, a
   crash-recovery campaign, ...). *)

(* One row per counter id, one column per op type showing the total and
   the per-op rate. Counters that are zero everywhere are elided. *)
let digest_table ~title digests =
  subheading title;
  let interesting id =
    List.exists (fun (_, _, totals) -> totals.(id) <> 0) digests
  in
  let headers =
    "counter"
    :: List.map (fun (op, count, _) -> Printf.sprintf "%s (n=%d)" op count)
         digests
  in
  let rows =
    List.filter_map
      (fun id ->
        if not (interesting id) then None
        else
          Some
            (Obs.id_name id
            :: List.map
                 (fun (_, count, totals) ->
                   Printf.sprintf "%d (%s/op)" totals.(id)
                     (f2 (float_of_int totals.(id) /. float_of_int (max 1 count))))
                 digests))
      (List.init Obs.n_ids (fun id -> id))
  in
  table ~headers ~rows

let metrics_json ~label ~seed sections =
  let counters f = Json.Obj (List.init Obs.n_ids (fun id -> (Obs.id_name id, f id))) in
  let digest (op, count, totals) =
    Json.Obj
      [
        ("op", Json.Str op); ("count", Json.int count);
        ("counters", counters (fun id -> Json.int totals.(id)));
        ( "per_op",
          counters (fun id ->
              Json.Fixed (4, float_of_int totals.(id) /. float_of_int (max 1 count))) );
      ]
  in
  Json.Schema.doc Json.Schema.obs_metrics
    [
      ("label", Json.Str label); ("seed", Json.int seed);
      ( "sections",
        Json.List
          (List.map
             (fun (name, digests) ->
               Json.Obj [ ("name", Json.Str name); ("ops", Json.List (List.map digest digests)) ])
             sections) );
    ]
