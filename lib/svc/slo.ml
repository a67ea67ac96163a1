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

(* Fixed number formatting keeps the JSON byte-stable across runs: floats
   always go through %.3f (virtual ns and rates need no more precision and
   %g's exponent switch-over would make near-zero values format-unstable). *)
let fnum v = Printf.sprintf "%.3f" v

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let lat_json h =
  let s = summarize h in
  Printf.sprintf
    "{\"count\":%d,\"mean\":%s,\"p50\":%s,\"p99\":%s,\"p999\":%s,\"max\":%s}"
    s.count (fnum s.mean) (fnum s.p50) (fnum s.p99) (fnum s.p999) (fnum s.max)

let shard_json s =
  Printf.sprintf
    "{\"shard\":%d,\"zone\":%d,\"enqueued\":%d,\"completed\":%d,\"shed\":%d,\
     \"lost\":%d,\"batches\":%d,\"group_flushes\":%d,\"queue_high_water\":%d,\
     \"crashed\":%b,\"down_ns\":%s,\"completed_in_outage\":%d,\
     \"audit_errors\":%d,\"latency_ns\":%s}"
    s.shard s.zone s.s_enqueued s.s_completed s.s_shed s.s_lost s.s_batches
    s.s_group_flushes s.queue_high_water s.crashed (fnum s.down_ns)
    s.completed_in_outage s.audit_errors (lat_json s.shard_lat)

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
  Printf.sprintf
    "{\"id\":%d,\"client\":%d,\"seq\":%d,\"shard\":%d,\"op\":\"%s\",\
     \"arrival_ns\":%s,\"lat_ns\":%s,\"phase_ns\":{%s},\"fence_ns\":%s,\
     \"recovery_ns\":%s,\"flushes\":%d,\"fences\":%d,\"load_misses\":%d}"
    sp.sp_id sp.sp_client sp.sp_seq sp.sp_shard (op_name sp.sp_op)
    (fnum sp.sp_arrival) (fnum sp.sp_lat)
    (String.concat ","
       (List.init n_phases (fun i ->
            Printf.sprintf "\"%s\":%s" (phase_name i) (fnum sp.sp_phase.(i)))))
    (fnum sp.sp_fence) (fnum sp.sp_recovery) sp.sp_flushes sp.sp_fences
    sp.sp_load_misses

let window_json w =
  let q p =
    Array.map
      (fun h ->
        if Sim.Histogram.count h = 0 then 0.0 else Sim.Histogram.percentile h p)
      w.w_phase
  in
  let arr a =
    String.concat "," (Array.to_list (Array.map fnum a))
  in
  Printf.sprintf
    "{\"idx\":%d,\"completed\":%d,\"shed\":%d,\"fences\":%d,\"depth\":%s,\
     \"phase_p50\":[%s],\"phase_p99\":[%s]}"
    w.w_idx w.w_completed w.w_shed w.w_fences (fnum w.w_depth)
    (arr (q 50.0)) (arr (q 99.0))

let span_summary_json sp =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\"count\":%d," sp.sp_count;
  (* residuals get 6 decimals: conservation is asserted at ns resolution
     and the true float noise is ~1e-10 ns, so this prints 0.000000 *)
  add "\"residual_max_ns\":%.6f," sp.sp_residual_max;
  add "\"residual_violations\":%d," sp.sp_residual_violations;
  add "\"lat_ns_total\":%s," (fnum sp.sp_lat_sum);
  add "\"fence_ns_total\":%s," (fnum sp.sp_fence_sum);
  add "\"recovery_ns_total\":%s," (fnum sp.sp_recovery_sum);
  add "\"phases\":[";
  Array.iteri
    (fun i h ->
      if i > 0 then Buffer.add_char b ',';
      add "{\"name\":\"%s\",\"total_ns\":%s,\"latency_ns\":%s}"
        (Obs.Span.phase_name i)
        (fnum sp.sp_phase_sum.(i))
        (lat_json h))
    sp.sp_phase_hist;
  add "],";
  add "\"outages\":[";
  List.iteri
    (fun i (s, t0, t1) ->
      if i > 0 then Buffer.add_char b ',';
      add "{\"shard\":%d,\"t0_ns\":%s,\"t1_ns\":%s}" s (fnum t0) (fnum t1))
    sp.sp_outages;
  add "],";
  add "\"top\":[%s]," (String.concat "," (List.map span_json sp.sp_top));
  add "\"sample\":[%s]}" (String.concat "," (List.map span_json sp.sp_sample));
  Buffer.contents b

let to_json t =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\"schema\":\"upskip-svc-slo/4\",\"schema_version\":4,";
  add "\"config\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      add "\"%s\":\"%s\"" (escape k) (escape v))
    t.config_summary;
  add "},";
  add "\"span_ns\":%s," (fnum t.span_ns);
  add "\"offered_mops\":%s," (fnum t.offered_mops);
  add "\"goodput_mops\":%s," (fnum t.goodput_mops);
  add "\"requests\":%d," t.requests;
  add "\"enqueued\":%d," t.enqueued;
  add "\"completed\":%d," t.completed;
  add "\"shed\":%d," t.shed;
  add "\"lost\":%d," t.lost;
  add "\"failed_scans\":%d," t.failed_scans;
  add "\"replayed\":%d," t.replayed;
  add "\"dup_suppressed\":%d," t.dup_suppressed;
  add "\"shed_rate\":%s," (fnum t.shed_rate);
  add "\"remote_fraction\":%s," (fnum t.remote_fraction);
  add "\"latency_ns\":%s," (lat_json t.merged);
  add "\"shards\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (shard_json s))
    t.shard_reports;
  add "],";
  add "\"clients\":[";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char b ',';
      add
        "{\"client\":%d,\"shed\":%d,\"replayed\":%d,\"dup_suppressed\":%d}"
        c.cr_client c.cr_shed c.cr_replayed c.cr_suppressed)
    t.client_reports;
  add "],";
  add "\"depth_series\":[";
  List.iteri
    (fun i (time, depths) ->
      if i > 0 then Buffer.add_char b ',';
      add "{\"t_ns\":%s,\"depth\":[%s]}" (fnum time)
        (String.concat ","
           (Array.to_list (Array.map string_of_int depths))))
    t.depth_series;
  add "],";
  add "\"window_ns\":%s," (fnum t.window_ns);
  add "\"windows\":[";
  List.iteri
    (fun i w ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (window_json w))
    t.windows;
  add "],";
  (match t.spans with
  | None -> add "\"spans\":null"
  | Some sp -> add "\"spans\":%s" (span_summary_json sp));
  add "}";
  Buffer.contents b

(* Standalone span-summary document: what `serve-sim --span-json` and the
   smoke/conservation gates consume. Same determinism contract as
   [to_json]. *)
let spans_to_json t =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\"schema\":\"upskip-svc-spans/1\",\"schema_version\":1,";
  add "\"config\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      add "\"%s\":\"%s\"" (escape k) (escape v))
    t.config_summary;
  add "},";
  add "\"span_ns\":%s," (fnum t.span_ns);
  add "\"completed\":%d," t.completed;
  add "\"latency_ns\":%s," (lat_json t.merged);
  add "\"window_ns\":%s," (fnum t.window_ns);
  add "\"windows\":[%s],"
    (String.concat "," (List.map window_json t.windows));
  (match t.spans with
  | None -> add "\"spans\":null"
  | Some sp -> add "\"spans\":%s" (span_summary_json sp));
  add "}";
  Buffer.contents b

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
