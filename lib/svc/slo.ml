type lat_summary = {
  p50 : float;
  p99 : float;
  p999 : float;
  mean : float;
  max : float;
  count : int;
}

let summarize h =
  let n = Sim.Histogram.count h in
  if n = 0 then { p50 = 0.0; p99 = 0.0; p999 = 0.0; mean = 0.0; max = 0.0; count = 0 }
  else
    {
      p50 = Sim.Histogram.percentile h 50.0;
      p99 = Sim.Histogram.percentile h 99.0;
      p999 = Sim.Histogram.percentile h 99.9;
      mean = Sim.Histogram.mean h;
      max = Sim.Histogram.max_value h;
      count = n;
    }

type shard_report = {
  shard : int;
  zone : int;
  s_enqueued : int;
  s_completed : int;
  s_shed : int;
  s_lost : int;
  s_batches : int;
  s_group_flushes : int;
  queue_high_water : int;
  crashed : bool;
  down_ns : float;
  completed_in_outage : int;
  audit_errors : int;
  shard_lat : Sim.Histogram.t;
}

type client_report = {
  cr_client : int;
  cr_shed : int;
  cr_replayed : int;
  cr_suppressed : int;
}

type window = {
  w_idx : int;
  w_completed : int;
  w_shed : int;
  w_fences : int;
  w_depth : float;
  w_phase : Sim.Histogram.t array;
}

type span_summary = {
  sp_count : int;
  sp_top : Obs.Span.t list;
  sp_sample : Obs.Span.t list;
  sp_phase_hist : Sim.Histogram.t array;
  sp_phase_sum : float array;
  sp_lat_sum : float;
  sp_fence_sum : float;
  sp_recovery_sum : float;
  sp_residual_max : float;
  sp_residual_violations : int;
  sp_outages : (int * float * float) list;
}

type t = {
  config_summary : (string * string) list;
  span_ns : float;
  requests : int;
  enqueued : int;
  completed : int;
  shed : int;
  lost : int;
  failed_scans : int;
  replayed : int;
  dup_suppressed : int;
  client_reports : client_report list;
  goodput_mops : float;
  offered_mops : float;
  shed_rate : float;
  remote_fraction : float;
  merged : Sim.Histogram.t;
  shard_reports : shard_report list;
  depth_series : (float * int array) list;
  window_ns : float;
  windows : window list;
  spans : span_summary option;
}

(* Floats print as %.3f ([Json.Fixed]) so the JSON is byte-stable across
   runs: virtual ns and rates need no more precision, and the shortest
   form would print float noise. *)
let fnum v = Json.Fixed (3, v)

let lat_json h =
  let s = summarize h in
  Json.Obj
    [
      ("count", Json.int s.count); ("mean", fnum s.mean); ("p50", fnum s.p50);
      ("p99", fnum s.p99); ("p999", fnum s.p999); ("max", fnum s.max);
    ]

let shard_json s =
  Json.Obj
    [
      ("shard", Json.int s.shard); ("zone", Json.int s.zone);
      ("enqueued", Json.int s.s_enqueued); ("completed", Json.int s.s_completed);
      ("shed", Json.int s.s_shed); ("lost", Json.int s.s_lost);
      ("batches", Json.int s.s_batches);
      ("group_flushes", Json.int s.s_group_flushes);
      ("queue_high_water", Json.int s.queue_high_water);
      ("crashed", Json.Bool s.crashed); ("down_ns", fnum s.down_ns);
      ("completed_in_outage", Json.int s.completed_in_outage);
      ("audit_errors", Json.int s.audit_errors);
      ("latency_ns", lat_json s.shard_lat);
    ]

let empty_summary () =
  {
    sp_count = 0;
    sp_top = [];
    sp_sample = [];
    sp_phase_hist = Array.init Obs.Span.n_phases (fun _ -> Sim.Histogram.create ());
    sp_phase_sum = Array.make Obs.Span.n_phases 0.0;
    sp_lat_sum = 0.0;
    sp_fence_sum = 0.0;
    sp_recovery_sum = 0.0;
    sp_residual_max = 0.0;
    sp_residual_violations = 0;
    sp_outages = [];
  }

let slower a b =
  let open Obs.Span in
  a.sp_lat > b.sp_lat || (a.sp_lat = b.sp_lat && a.sp_id > b.sp_id)

(* Aggregate across independent runs (e.g. a crash-time grid): histograms
   and sums merge exactly; the aggregate top list is the slowest-N over the
   union (N = the largest per-run retention); samples and outages
   concatenate in run order. *)
let merge_summaries = function
  | [] -> empty_summary ()
  | sums ->
      let np = Obs.Span.n_phases in
      let cap = List.fold_left (fun m s -> max m (List.length s.sp_top)) 0 sums in
      let tops =
        List.concat_map (fun s -> s.sp_top) sums
        |> List.sort (fun a b ->
               if slower a b then -1 else if slower b a then 1 else 0)
        |> List.filteri (fun i _ -> i < cap)
      in
      {
        sp_count = List.fold_left (fun a s -> a + s.sp_count) 0 sums;
        sp_top = tops;
        sp_sample = List.concat_map (fun s -> s.sp_sample) sums;
        sp_phase_hist =
          Array.init np (fun i ->
              Sim.Histogram.merge_list
                (List.map (fun s -> s.sp_phase_hist.(i)) sums));
        sp_phase_sum =
          Array.init np (fun i ->
              List.fold_left (fun a s -> a +. s.sp_phase_sum.(i)) 0.0 sums);
        sp_lat_sum = List.fold_left (fun a s -> a +. s.sp_lat_sum) 0.0 sums;
        sp_fence_sum = List.fold_left (fun a s -> a +. s.sp_fence_sum) 0.0 sums;
        sp_recovery_sum =
          List.fold_left (fun a s -> a +. s.sp_recovery_sum) 0.0 sums;
        sp_residual_max =
          List.fold_left (fun a s -> Float.max a s.sp_residual_max) 0.0 sums;
        sp_residual_violations =
          List.fold_left (fun a s -> a + s.sp_residual_violations) 0 sums;
        sp_outages = List.concat_map (fun s -> s.sp_outages) sums;
      }

let op_name = function 0 -> "read" | _ -> "upsert"

let span_json sp =
  let open Obs.Span in
  Json.Obj
    [
      ("id", Json.int sp.sp_id); ("client", Json.int sp.sp_client);
      ("seq", Json.int sp.sp_seq); ("shard", Json.int sp.sp_shard);
      ("op", Json.Str (op_name sp.sp_op)); ("arrival_ns", fnum sp.sp_arrival);
      ("lat_ns", fnum sp.sp_lat);
      ("phase_ns", Json.Obj (List.init n_phases (fun i -> (phase_name i, fnum sp.sp_phase.(i)))));
      ("fence_ns", fnum sp.sp_fence); ("recovery_ns", fnum sp.sp_recovery);
      ("flushes", Json.int sp.sp_flushes); ("fences", Json.int sp.sp_fences);
      ("load_misses", Json.int sp.sp_load_misses);
    ]

let window_json w =
  let q p =
    Json.List
      (Array.to_list
         (Array.map
            (fun h ->
              fnum (if Sim.Histogram.count h = 0 then 0.0 else Sim.Histogram.percentile h p))
            w.w_phase))
  in
  Json.Obj
    [
      ("idx", Json.int w.w_idx); ("completed", Json.int w.w_completed);
      ("shed", Json.int w.w_shed); ("fences", Json.int w.w_fences);
      ("depth", fnum w.w_depth); ("phase_p50", q 50.0); ("phase_p99", q 99.0);
    ]

let span_summary_json = function
  | None -> Json.Null
  | Some sp ->
      Json.Obj
        [
          ("count", Json.int sp.sp_count);
          (* residuals get 6 decimals: conservation is asserted at ns
             resolution and the true float noise is ~1e-10 ns, so this
             prints 0.000000 *)
          ("residual_max_ns", Json.Fixed (6, sp.sp_residual_max));
          ("residual_violations", Json.int sp.sp_residual_violations);
          ("lat_ns_total", fnum sp.sp_lat_sum);
          ("fence_ns_total", fnum sp.sp_fence_sum);
          ("recovery_ns_total", fnum sp.sp_recovery_sum);
          ( "phases",
            Json.List
              (Array.to_list
                 (Array.mapi
                    (fun i h ->
                      Json.Obj
                        [
                          ("name", Json.Str (Obs.Span.phase_name i));
                          ("total_ns", fnum sp.sp_phase_sum.(i));
                          ("latency_ns", lat_json h);
                        ])
                    sp.sp_phase_hist)) );
          ( "outages",
            Json.List
              (List.map
                 (fun (s, t0, t1) ->
                   Json.Obj
                     [ ("shard", Json.int s); ("t0_ns", fnum t0); ("t1_ns", fnum t1) ])
                 sp.sp_outages) );
          ("top", Json.List (List.map span_json sp.sp_top));
          ("sample", Json.List (List.map span_json sp.sp_sample));
        ]

(* The SLO report's fields, in document order. *)
let fields t =
  [
    ("config", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) t.config_summary));
    ("span_ns", fnum t.span_ns);
    ("offered_mops", fnum t.offered_mops); ("goodput_mops", fnum t.goodput_mops);
    ("requests", Json.int t.requests); ("enqueued", Json.int t.enqueued);
    ("completed", Json.int t.completed); ("shed", Json.int t.shed);
    ("lost", Json.int t.lost); ("failed_scans", Json.int t.failed_scans);
    ("replayed", Json.int t.replayed); ("dup_suppressed", Json.int t.dup_suppressed);
    ("shed_rate", fnum t.shed_rate); ("remote_fraction", fnum t.remote_fraction);
    ("latency_ns", lat_json t.merged);
    ("shards", Json.List (List.map shard_json t.shard_reports));
    ( "clients",
      Json.List
        (List.map
           (fun c ->
             Json.Obj
               [
                 ("client", Json.int c.cr_client); ("shed", Json.int c.cr_shed);
                 ("replayed", Json.int c.cr_replayed);
                 ("dup_suppressed", Json.int c.cr_suppressed);
               ])
           t.client_reports) );
    ( "depth_series",
      Json.List
        (List.map
           (fun (time, depths) ->
             Json.Obj
               [
                 ("t_ns", fnum time);
                 ("depth", Json.List (Array.to_list (Array.map Json.int depths)));
               ])
           t.depth_series) );
    ("window_ns", fnum t.window_ns);
    ("windows", Json.List (List.map window_json t.windows));
    ("spans", span_summary_json t.spans);
  ]

let to_json t = Json.Schema.doc Json.Schema.svc_slo (fields t)

(* Standalone span-summary document: what `serve-sim --span-json` and the
   smoke/conservation gates consume. Its fields are a subset of the SLO
   report's, in the same order. *)
let spans_to_json t =
  let keep = [ "config"; "span_ns"; "completed"; "latency_ns"; "window_ns"; "windows"; "spans" ] in
  Json.Schema.doc Json.Schema.svc_spans (List.filter (fun (k, _) -> List.mem k keep) (fields t))

(* Per-phase breakdown for latency cohorts. The "all" column is exact
   (sums over every span); the tail cohorts are computed over the retained
   spans (slowest-N plus reservoir) at or above the merged histogram's
   p99/p99.9, so with the default retention of ~1k slowest spans the tail
   cohorts are complete, not sampled. *)
let pp_anatomy fmt ~merged sp =
  let open Format in
  let np = Obs.Span.n_phases in
  fprintf fmt
    "span conservation: %d spans, max residual %.6f ns, %d violations@."
    sp.sp_count sp.sp_residual_max sp.sp_residual_violations;
  List.iter
    (fun (s, t0, t1) ->
      fprintf fmt "  outage: shard %d down %.3f-%.3f ms (%.3f ms)@." s
        (t0 /. 1e6) (t1 /. 1e6)
        ((t1 -. t0) /. 1e6))
    sp.sp_outages;
  if sp.sp_count > 0 then begin
    let m = summarize merged in
    let retained =
      sp.sp_top
      @ List.filter (fun s -> not (List.memq s sp.sp_top)) sp.sp_sample
    in
    let cohort thr = List.filter (fun s -> s.Obs.Span.sp_lat >= thr) retained in
    let stats spans =
      match List.length spans with
      | 0 -> None
      | n ->
          let fn = float_of_int n in
          let ph = Array.make np 0.0 in
          let fence = ref 0.0 and recov = ref 0.0 and lat = ref 0.0 in
          List.iter
            (fun s ->
              let open Obs.Span in
              for i = 0 to np - 1 do
                ph.(i) <- ph.(i) +. s.sp_phase.(i)
              done;
              fence := !fence +. s.sp_fence;
              recov := !recov +. s.sp_recovery;
              lat := !lat +. s.sp_lat)
            spans;
          Some
            ( n,
              Array.map (fun v -> v /. fn) ph,
              !fence /. fn,
              !recov /. fn,
              !lat /. fn )
    in
    let all =
      let fn = float_of_int sp.sp_count in
      Some
        ( sp.sp_count,
          Array.map (fun v -> v /. fn) sp.sp_phase_sum,
          sp.sp_fence_sum /. fn,
          sp.sp_recovery_sum /. fn,
          sp.sp_lat_sum /. fn )
    in
    let c99 = stats (cohort m.p99) and c999 = stats (cohort m.p999) in
    let cols = [ ("all", all); ("p99+", c99); ("p99.9+", c999) ] in
    fprintf fmt "tail anatomy (mean ns per phase; %% of cohort latency)@.";
    fprintf fmt "  %-20s" "phase";
    List.iter (fun (lbl, _) -> fprintf fmt " %10s %6s" lbl "%") cols;
    fprintf fmt "@.";
    let row name get =
      fprintf fmt "  %-20s" name;
      List.iter
        (fun (_, st) ->
          match st with
          | None -> fprintf fmt " %10s %6s" "-" "-"
          | Some (_, _, _, _, lat) as st ->
              let v = get (Option.get st) in
              fprintf fmt " %10.1f %5.1f%%" v
                (if lat > 0.0 then 100.0 *. v /. lat else 0.0))
        cols;
      fprintf fmt "@."
    in
    for i = 0 to np - 1 do
      row (Obs.Span.phase_name i) (fun (_, ph, _, _, _) -> ph.(i))
    done;
    row "  - fence (commit)" (fun (_, _, f, _, _) -> f);
    row "  - recovery (queue)" (fun (_, _, _, r, _) -> r);
    row "end-to-end" (fun (_, _, _, _, l) -> l);
    fprintf fmt "  %-20s" "cohort spans";
    List.iter
      (fun (_, st) ->
        match st with
        | None -> fprintf fmt " %10s %6s" "-" ""
        | Some (n, _, _, _, _) -> fprintf fmt " %10d %6s" n "")
      cols;
    fprintf fmt "@.";
    match (c999, all) with
    | Some (_, ph9, _, r9, l9), Some (_, pha, _, ra, la) ->
        let excess = l9 -. la in
        if excess > 0.0 then begin
          let parts =
            List.init np (fun i -> (i, ph9.(i) -. pha.(i)))
            |> List.filter (fun (_, d) -> d > 0.0)
            |> List.sort (fun (i, a) (j, b) ->
                   if a = b then compare i j else compare b a)
          in
          let top3 = List.filteri (fun i _ -> i < 3) parts in
          fprintf fmt "  p99.9 cohort excess over mean: +%.1f ns -" excess;
          List.iteri
            (fun k (i, d) ->
              if k > 0 then fprintf fmt ",";
              fprintf fmt " %s %.1f%%" (Obs.Span.phase_name i)
                (100.0 *. d /. excess);
              if i = Obs.Span.ph_queue then begin
                let dr = r9 -. ra in
                if dr > 0.0 then
                  fprintf fmt " (recovery overlap %.1f%%)"
                    (100.0 *. dr /. excess)
              end)
            top3;
          fprintf fmt "@."
        end
    | _ -> ()
  end

let pp fmt t =
  let open Format in
  let m = summarize t.merged in
  fprintf fmt "service run: %d requests over %.3f ms simulated@."
    t.requests (t.span_ns /. 1e6);
  fprintf fmt
    "  offered %.3f Mops/s  goodput %.3f Mops/s  shed rate %.2f%%@."
    t.offered_mops t.goodput_mops (100.0 *. t.shed_rate);
  fprintf fmt
    "  completed %d  shed %d  lost %d  failed scans %d@." t.completed t.shed
    t.lost t.failed_scans;
  if t.replayed > 0 || t.dup_suppressed > 0 then
    fprintf fmt "  exactly-once: %d replayed  %d duplicate-suppressed@."
      t.replayed t.dup_suppressed;
  fprintf fmt
    "  latency p50 %.0f ns  p99 %.0f ns  p99.9 %.0f ns  mean %.0f ns@."
    m.p50 m.p99 m.p999 m.mean;
  fprintf fmt "  remote PMEM access fraction %.3f@." t.remote_fraction;
  fprintf fmt
    "  %-5s %-4s %9s %9s %6s %6s %7s %7s %6s %9s %9s@." "shard" "zone"
    "enqueued" "complete" "shed" "lost" "batches" "hwm" "audit" "p50ns"
    "p99ns";
  List.iter
    (fun s ->
      let l = summarize s.shard_lat in
      fprintf fmt "  %-5d %-4d %9d %9d %6d %6d %7d %7d %6d %9.0f %9.0f%s@."
        s.shard s.zone s.s_enqueued s.s_completed s.s_shed s.s_lost
        s.s_batches s.queue_high_water s.audit_errors l.p50 l.p99
        (if s.crashed then
           Printf.sprintf "  [crashed, down %.3f ms]" (s.down_ns /. 1e6)
         else if s.completed_in_outage > 0 then
           Printf.sprintf "  [%d completed during outage]"
             s.completed_in_outage
         else ""))
    t.shard_reports;
  match t.spans with
  | Some sp -> pp_anatomy fmt ~merged:t.merged sp
  | None -> ()
