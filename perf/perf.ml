(* The repository benchmark.

     perf.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
              [--json FILE] [--trace-json FILE]
     perf.exe compare DIR_A DIR_B
     perf.exe smoke BENCHMARK.json

   A run prints every metric with its unit and ends with one JSON line:
   {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
   end-to-end metrics, traced runs the per-layer ones (and write the
   traced run's spans to perf_trace_<workload>.json). [compare] reads two
   directories of run records (--json) and gives a verdict per metric and
   workload. [smoke] runs every workload at a tiny scale and checks
   determinism, correctness and the metric names BENCHMARK.json declares.
   See perf/README.md. *)

open Perfkit

let default_seed = 20210811

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perf: " ^ s);
      exit 2)
    fmt

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  output_char oc '\n';
  close_out oc

(* ---- run ------------------------------------------------------------------ *)

let run_main args =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10 in
  let trace = ref 0 and json = ref "" and trace_json = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 20210811)");
      ("--seconds", Arg.Set_int seconds, "S how long to keep repeating (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics from a traced run");
      ("--json", Arg.Set_string json, "FILE write the run record (upskip-perf/1)");
      ("--trace-json", Arg.Set_string trace_json, "FILE where a traced run writes its spans");
    ]
  in
  (try
     Arg.parse_argv ~current:(ref 0) args spec
       (fun a -> die "unexpected argument %s" a)
       "perf.exe --workload NAME [options]"
   with
  | Arg.Bad msg -> die "%s" msg
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None ->
        die "unknown workload %S (known: %s)" !workload
          (String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all))
  in
  if !seconds < 0 then die "--seconds must be non-negative";
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  let r = Runner.run ~workload:w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) () in
  Runner.print r;
  if !json <> "" then write_file !json (Json.to_string (Runner.record_json r));
  if r.trace then begin
    let path =
      if !trace_json <> "" then !trace_json else Printf.sprintf "perf_trace_%s.json" w.name
    in
    write_file path (Json.to_string (Runner.trace_json r));
    Printf.printf "  spans written to %s\n" path
  end;
  print_endline (Json.to_string (Runner.summary_json r));
  exit (if Runner.correct r then 0 else 1)

(* ---- compare -------------------------------------------------------------- *)

(* Untraced run records in [dir], in file-name order (so run i of one set
   pairs with run i of the other). *)
let records dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.filter_map (fun f ->
         let j = Json.read_file (Filename.concat dir f) in
         if Json.member "schema" j = Json.Str "upskip-perf/1"
            && Json.member "trace" j = Json.Bool false
         then Some j
         else None)

let compare_main dir_a dir_b =
  let a = records dir_a and b = records dir_b in
  if a = [] || b = [] then die "no untraced upskip-perf/1 records in %s or %s" dir_a dir_b;
  let values set workload metric =
    List.filter_map
      (fun j ->
        if Json.member "workload" j = Json.Str workload then
          match Json.member metric (Json.member "metrics" j) with
          | Json.Null -> None
          | m -> Some (Json.to_num (Json.member "value" m))
        else None)
      set
  in
  let workloads =
    List.sort_uniq compare (List.map (fun j -> Json.to_str (Json.member "workload" j)) a)
  in
  Printf.printf "%-14s %-15s %-8s %38s %38s  %s\n" "workload" "metric" "bound"
    "A: q1 / median / q3" "B: q1 / median / q3" "verdict";
  let counts = Hashtbl.create 4 in
  List.iter
    (fun workload ->
      List.iter
        (fun (m : Catalogue.e2e) ->
          match (values a workload m.name, values b workload m.name) with
          | [], _ | _, [] -> ()
          | va, vb ->
              let show v =
                let q1, med, q3 = Verdict.quartiles v in
                Printf.sprintf "%.6g / %.6g / %.6g (n=%d)" q1 med q3 (List.length v)
              in
              let v = Verdict.verdict ~better:m.better ~bound:m.bound ~base:va ~change:vb in
              Hashtbl.replace counts v
                (1 + Option.value (Hashtbl.find_opt counts v) ~default:0);
              Printf.printf "%-14s %-15s %-8g %38s %38s  %s\n" workload m.name m.bound
                (show va) (show vb) (Verdict.to_string v))
        Catalogue.end_to_end)
    workloads;
  Printf.printf "verdicts:";
  List.iter
    (fun v ->
      Printf.printf " %s %d" (Verdict.to_string v)
        (Option.value (Hashtbl.find_opt counts v) ~default:0))
    Verdict.[ Better; Same; Worse; Unresolved ];
  print_newline ()

(* ---- smoke ---------------------------------------------------------------- *)

let smoke_main benchmark_json =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let bench = Json.read_file benchmark_json in
  let declared key field =
    List.map (fun m -> Json.to_str (Json.member field m)) (Json.to_list (Json.member key bench))
  in
  let same what declared mine =
    if declared <> mine then
      fail "%s: BENCHMARK.json declares [%s], perf.exe has [%s]" what
        (String.concat " " declared) (String.concat " " mine)
  in
  same "workloads" (declared "workloads" "name")
    (List.map (fun (w : Workloads.t) -> w.name) Workloads.all);
  let e2e = Catalogue.end_to_end and layers = Catalogue.per_layer in
  same "end_to_end names" (declared "end_to_end" "name") (List.map (fun (m : Catalogue.e2e) -> m.name) e2e);
  same "end_to_end units" (declared "end_to_end" "unit") (List.map (fun (m : Catalogue.e2e) -> m.unit) e2e);
  same "end_to_end directions" (declared "end_to_end" "better")
    (List.map (fun (m : Catalogue.e2e) -> Catalogue.better_to_string m.better) e2e);
  same "end_to_end bounds"
    (List.map (fun m -> Json.num_to_string (Json.to_num (Json.member "bound" m)))
       (Json.to_list (Json.member "end_to_end" bench)))
    (List.map (fun (m : Catalogue.e2e) -> Json.num_to_string m.bound) e2e);
  same "per_layer names" (declared "per_layer" "name")
    (List.map (fun (m : Catalogue.layer_metric) -> m.lname) layers);
  same "per_layer units" (declared "per_layer" "unit")
    (List.map (fun (m : Catalogue.layer_metric) -> m.lunit) layers);
  same "per_layer directions" (declared "per_layer" "better")
    (List.map (fun (m : Catalogue.layer_metric) -> Catalogue.better_to_string m.lbetter) layers);
  let simulated = [ "sim_mops"; "sim_p50_us"; "sim_p99_us"; "sim_p999_us" ] in
  List.iter
    (fun (w : Workloads.t) ->
      let run trace =
        Runner.run ~scale:Workloads.Tiny ~workload:w ~seed:default_seed ~seconds:0 ~trace ()
      in
      let before = List.length !failures in
      let r1 = run false and r2 = run false and rt = run true in
      List.iter
        (fun (r : Runner.result) ->
          if not (Runner.correct r) then
            fail "%s (%s): %d of %d ops failed; %s" w.name
              (if r.trace then "traced" else "untraced")
              r.failed r.attempted (String.concat "; " r.errors))
        [ r1; r2; rt ];
      List.iter
        (fun k ->
          let v1 = List.assoc k r1.metrics and v2 = List.assoc k r2.metrics in
          if Printf.sprintf "%h" v1 <> Printf.sprintf "%h" v2 then
            fail "%s: %s differs between two runs (%h vs %h)" w.name k v1 v2)
        simulated;
      same (w.name ^ " end-to-end metrics") (declared "end_to_end" "name") (List.map fst r1.metrics);
      same (w.name ^ " per-layer metrics") (declared "per_layer" "name") (List.map fst rt.metrics);
      Printf.printf "%-14s %s: %d + %d + %d ops, sim_mops %.4f\n%!" w.name
        (if List.length !failures = before then "ok" else "FAILED")
        r1.attempted r2.attempted rt.attempted (List.assoc "sim_mops" r1.metrics))
    Workloads.all;
  match !failures with
  | [] -> print_endline "perf smoke: ok"
  | fs ->
      List.iter (fun f -> prerr_endline ("perf smoke: " ^ f)) (List.rev fs);
      exit 1

let () =
  Gc.set { (Gc.get ()) with minor_heap_size = 1 lsl 22; space_overhead = 200 };
  match Array.to_list Sys.argv with
  | _ :: "compare" :: [ a; b ] -> compare_main a b
  | _ :: "compare" :: _ -> die "usage: perf.exe compare DIR_A DIR_B"
  | _ :: "smoke" :: [ bench ] -> smoke_main bench
  | _ :: "smoke" :: _ -> die "usage: perf.exe smoke BENCHMARK.json"
  | _ -> run_main Sys.argv
