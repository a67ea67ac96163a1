(* Unit tests for the simulation substrate: RNG determinism, statistics,
   and the discrete-event scheduler (ordering, interleaving, crash
   semantics). *)

open Testsupport

(* ---- Rng ---------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Sim.Rng.create 7 and b = Sim.Rng.create 7 in
  for _ = 1 to 100 do
    check_int "same stream" (Sim.Rng.next a) (Sim.Rng.next b)
  done

let test_rng_seed_sensitivity () =
  let a = Sim.Rng.create 7 and b = Sim.Rng.create 8 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Sim.Rng.next a = Sim.Rng.next b then incr same
  done;
  check_bool "different seeds diverge" true (!same < 5)

let test_rng_int_bounds () =
  let r = Sim.Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Sim.Rng.int r 17 in
    check_bool "in range" true (x >= 0 && x < 17)
  done

let test_rng_float_bounds () =
  let r = Sim.Rng.create 5 in
  for _ = 1 to 1000 do
    let x = Sim.Rng.float r in
    check_bool "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_geometric_distribution () =
  let r = Sim.Rng.create 11 in
  let n = 20_000 in
  let counts = Array.make 33 0 in
  for _ = 1 to n do
    let h = Sim.Rng.geometric r ~p:0.5 ~max_value:32 in
    check_bool "height >= 1" true (h >= 1);
    counts.(h) <- counts.(h) + 1
  done;
  (* roughly half the samples have height 1, a quarter height 2, ... *)
  let frac i = float_of_int counts.(i) /. float_of_int n in
  check_bool "P(h=1) ~ 0.5" true (abs_float (frac 1 -. 0.5) < 0.03);
  check_bool "P(h=2) ~ 0.25" true (abs_float (frac 2 -. 0.25) < 0.03);
  check_bool "P(h=3) ~ 0.125" true (abs_float (frac 3 -. 0.125) < 0.02)

let test_rng_geometric_capped () =
  let r = Sim.Rng.create 13 in
  for _ = 1 to 2000 do
    check_bool "capped" true (Sim.Rng.geometric r ~p:0.9 ~max_value:4 <= 4)
  done

let test_rng_split_independent () =
  let parent = Sim.Rng.create 9 in
  let a = Sim.Rng.split parent and b = Sim.Rng.split parent in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Sim.Rng.next a = Sim.Rng.next b then incr same
  done;
  check_bool "split streams diverge" true (!same < 5)

let test_rng_shuffle_permutation () =
  let r = Sim.Rng.create 21 in
  let a = Array.init 50 (fun i -> i) in
  Sim.Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is permutation" (Array.init 50 (fun i -> i)) sorted

(* The first draws of two seeds, pinned. Every workload, jitter draw and
   crash point derives from these streams, so a change to the generator's
   representation must leave every value below, and the draw order, as
   they are. *)
type pinned = {
  seed : int;
  nexts : int list;  (* three [next] *)
  ints : int list;  (* then three [int _ 1000] *)
  floats : float list;  (* then three [float] *)
  bools : bool list;  (* then four [bool] *)
  split_nexts : int list;  (* then [split], and two [next] of the child *)
  after_split : int;  (* then one more [next] of the parent *)
  next64 : int64;  (* a fresh generator's first [next64] *)
  geometrics : int list;  (* its next six [geometric ~p:0.5 ~max_value:32] *)
  shuffled : int array;  (* then [shuffle] of [0..7] *)
}

let pinned_streams =
  [
    {
      seed = 1;
      nexts = [ 2612804094800205616; 3439311302766607129; 4477959822570722647 ];
      ints = [ 58; 190; 512 ];
      floats = [ 0x1.c133d8d9ae6c8p-1; 0x1.0bcf761e244f1p-1; 0x1.245c6378d5f8fp-2 ];
      bools = [ false; true; false; false ];
      split_nexts = [ 2122635599545759403; 2613312003845557881 ];
      after_split = 2010535538889790954;
      next64 = -7995527694508729151L;
      geometrics = [ 3; 1; 4; 2; 2; 2 ];
      shuffled = [| 0; 1; 5; 2; 3; 4; 7; 6 |];
    };
    {
      seed = 42;
      nexts = [ 3419864383188818853; 737456523031723072; 1284820937115690964 ];
      ints = [ 941; 812; 265 ];
      floats = [ 0x1.bf4b38e229bb7p-3; 0x1.99ec6bdd3d3c6p-1; 0x1.5c16e1dc2cf5fp-2 ];
      bools = [ false; true; false; false ];
      split_nexts = [ 4026823179717085339; 3514025872056610426 ];
      after_split = 3067506354810381239;
      next64 = -4767286540954276203L;
      geometrics = [ 1; 1; 1; 1; 2; 2 ];
      shuffled = [| 7; 0; 2; 1; 6; 5; 4; 3 |];
    };
  ]

let test_rng_pinned_stream () =
  List.iter
    (fun p ->
      let name what = Printf.sprintf "seed %d: %s" p.seed what in
      let draws n f = List.init n (fun _ -> f ()) in
      let r = Sim.Rng.create p.seed in
      Alcotest.(check (list int)) (name "next") p.nexts (draws 3 (fun () -> Sim.Rng.next r));
      Alcotest.(check (list int)) (name "int") p.ints (draws 3 (fun () -> Sim.Rng.int r 1000));
      (* bit-exact: compared through their hex renderings *)
      Alcotest.(check (list string))
        (name "float")
        (List.map (Printf.sprintf "%h") p.floats)
        (draws 3 (fun () -> Printf.sprintf "%h" (Sim.Rng.float r)));
      Alcotest.(check (list bool)) (name "bool") p.bools (draws 4 (fun () -> Sim.Rng.bool r));
      let child = Sim.Rng.split r in
      Alcotest.(check (list int))
        (name "split child") p.split_nexts
        (draws 2 (fun () -> Sim.Rng.next child));
      check_int (name "parent after split") p.after_split (Sim.Rng.next r);
      let r = Sim.Rng.create p.seed in
      Alcotest.(check int64) (name "next64") p.next64 (Sim.Rng.next64 r);
      Alcotest.(check (list int))
        (name "geometric") p.geometrics
        (draws 6 (fun () -> Sim.Rng.geometric r ~p:0.5 ~max_value:32));
      let a = Array.init 8 Fun.id in
      Sim.Rng.shuffle r a;
      Alcotest.(check (array int)) (name "shuffle") p.shuffled a)
    pinned_streams

let test_rng_copy () =
  let a = Sim.Rng.create 5 in
  ignore (Sim.Rng.next a : int);
  let b = Sim.Rng.copy a in
  let from_a = List.init 5 (fun _ -> Sim.Rng.next a) in
  (* the copy replays the original's future, and advancing one leaves the
     other's state alone *)
  Alcotest.(check (list int)) "copy replays" from_a (List.init 5 (fun _ -> Sim.Rng.next b));
  let c = Sim.Rng.copy b in
  ignore (Sim.Rng.next b : int);
  ignore (Sim.Rng.next b : int);
  check_int "copy independent" (Sim.Rng.next (Sim.Rng.copy a)) (Sim.Rng.next c)

(* ---- Stats -------------------------------------------------------------- *)

let test_stats_mean_stddev () =
  let s = Sim.Stats.create () in
  List.iter (Sim.Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_bool "mean" true (abs_float (Sim.Stats.mean s -. 5.0) < 1e-9);
  check_bool "stddev" true (abs_float (Sim.Stats.stddev s -. 2.138) < 1e-2)

let test_stats_percentiles () =
  let s = Sim.Stats.create () in
  for i = 1 to 100 do
    Sim.Stats.add s (float_of_int i)
  done;
  check_bool "p50" true (Sim.Stats.percentile s 50.0 = 50.0);
  check_bool "p99" true (Sim.Stats.percentile s 99.0 = 99.0);
  check_bool "p100" true (Sim.Stats.percentile s 100.0 = 100.0);
  check_bool "min" true (Sim.Stats.min_value s = 1.0);
  check_bool "max" true (Sim.Stats.max_value s = 100.0)

let test_stats_empty () =
  let s = Sim.Stats.create () in
  check_bool "mean of empty" true (Sim.Stats.mean s = 0.0);
  let raises f =
    match f () with
    | (_ : float) -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "p50 of empty raises" true
    (raises (fun () -> Sim.Stats.percentile s 50.0));
  check_bool "median of empty raises" true
    (raises (fun () -> Sim.Stats.median s));
  check_bool "min of empty raises" true
    (raises (fun () -> Sim.Stats.min_value s));
  check_bool "max of empty raises" true
    (raises (fun () -> Sim.Stats.max_value s))

let test_stats_growth () =
  let s = Sim.Stats.create ~capacity:2 () in
  for i = 1 to 1000 do
    Sim.Stats.add s (float_of_int i)
  done;
  check_int "count" 1000 (Sim.Stats.count s)

let test_stats_add_after_percentile () =
  let s = Sim.Stats.create () in
  Sim.Stats.add s 5.0;
  Sim.Stats.add s 1.0;
  ignore (Sim.Stats.percentile s 50.0);
  Sim.Stats.add s 0.5;
  check_bool "min updated" true (Sim.Stats.min_value s = 0.5)

let test_mean_std () =
  let m, sd = Sim.Stats.mean_std [ 1.0; 2.0; 3.0 ] in
  check_bool "mean" true (abs_float (m -. 2.0) < 1e-9);
  check_bool "std" true (abs_float (sd -. 1.0) < 1e-9);
  let m1, sd1 = Sim.Stats.mean_std [ 42.0 ] in
  check_bool "single mean" true (m1 = 42.0);
  check_bool "single std" true (sd1 = 0.0)

(* ---- Scheduler ----------------------------------------------------------- *)

let test_sched_single_fiber () =
  let pmem = fast_pmem () in
  let result = ref 0 in
  run1 pmem (fun ~tid:_ ->
      let a = Pmem.addr ~pool:0 ~word:100 in
      Sim.Sched.write a 42;
      result := Sim.Sched.read a);
  check_int "read back" 42 !result

let test_sched_fibers_interleave () =
  (* with uniform latency both fibers make progress in alternation; a
     shared counter incremented non-atomically must lose updates *)
  let pmem = fast_pmem () in
  let a = Pmem.addr ~pool:0 ~word:8 in
  let body ~tid:_ =
    for _ = 1 to 100 do
      let v = Sim.Sched.read a in
      Sim.Sched.write a (v + 1)
    done
  in
  ignore (run pmem [ body; body ]);
  let final = Pmem.peek pmem a in
  check_bool "non-atomic increments interleave (lost updates)" true (final < 200);
  check_bool "some progress" true (final >= 100)

let test_sched_cas_no_lost_updates () =
  let pmem = fast_pmem () in
  let a = Pmem.addr ~pool:0 ~word:8 in
  let body ~tid:_ =
    for _ = 1 to 100 do
      let rec incr_cas () =
        let v = Sim.Sched.read a in
        if not (Sim.Sched.cas a ~expected:v ~desired:(v + 1)) then incr_cas ()
      in
      incr_cas ()
    done
  in
  ignore (run pmem [ body; body; body ]);
  check_int "atomic increments" 300 (Pmem.peek pmem a)

let test_sched_virtual_time_advances () =
  let pmem = fast_pmem () in
  let times = ref [] in
  run1 pmem (fun ~tid:_ ->
      times := Sim.Sched.now () :: !times;
      Sim.Sched.charge 100.0;
      times := Sim.Sched.now () :: !times);
  match !times with
  | [ t2; t1 ] -> check_bool "charge advances clock" true (t2 >= t1 +. 100.0)
  | _ -> Alcotest.fail "expected two timestamps"

let test_sched_self () =
  let pmem = fast_pmem () in
  let seen = ref [] in
  ignore
    (run pmem
       [
         (fun ~tid -> seen := (tid, Sim.Sched.self ()) :: !seen);
         (fun ~tid -> seen := (tid, Sim.Sched.self ()) :: !seen);
       ]);
  List.iter (fun (tid, s) -> check_int "self = tid" tid s) !seen

let test_sched_determinism () =
  let run_once () =
    let pmem = fast_pmem ~seed:5 () in
    let a = Pmem.addr ~pool:0 ~word:8 in
    let body ~tid =
      for i = 1 to 50 do
        let v = Sim.Sched.read a in
        ignore (Sim.Sched.cas a ~expected:v ~desired:(v + tid + i))
      done
    in
    let time, events = run pmem [ body; body; body ] in
    (Pmem.peek pmem a, time, events)
  in
  let r1 = run_once () and r2 = run_once () in
  check_bool "identical replay" true (r1 = r2)

let test_sched_crash_stops_execution () =
  let pmem = fast_pmem () in
  let a = Pmem.addr ~pool:0 ~word:8 in
  let completed = ref false in
  let body ~tid:_ =
    for i = 1 to 10_000 do
      Sim.Sched.write a i
    done;
    completed := true
  in
  let _, events = run_crash pmem ~events:100 [ body ] in
  check_bool "fiber did not complete" false !completed;
  check_bool "stopped near the crash point" true (events <= 110)

let test_sched_crash_kills_all_fibers () =
  let pmem = fast_pmem () in
  let finished = ref 0 in
  let body ~tid:_ =
    for _ = 1 to 1000 do
      Sim.Sched.charge 10.0
    done;
    incr finished
  in
  ignore (run_crash pmem ~events:50 [ body; body; body; body ]);
  check_int "no fiber finished" 0 !finished

let test_sched_completed_counts_events () =
  let pmem = fast_pmem () in
  let body ~tid:_ =
    for _ = 1 to 10 do
      Sim.Sched.charge 1.0
    done
  in
  let _, events = run pmem [ body ] in
  check_int "ten events" 10 events

(* ---- Histogram merge ---------------------------------------------------- *)

let check_float = Alcotest.(check (float 1e-9))

let test_hist_merge_counts () =
  let a = Sim.Histogram.create () and b = Sim.Histogram.create () in
  List.iter (Sim.Histogram.add a) [ 1.0; 5.0; 100.0 ];
  List.iter (Sim.Histogram.add b) [ 2.0; 3000.0 ];
  let m = Sim.Histogram.merge a b in
  check_int "count" 5 (Sim.Histogram.count m);
  check_float "sum" 3108.0 (Sim.Histogram.sum m);
  check_float "min" 1.0 (Sim.Histogram.min_value m);
  check_float "max" 3000.0 (Sim.Histogram.max_value m);
  (* inputs untouched *)
  check_int "a intact" 3 (Sim.Histogram.count a);
  check_int "b intact" 2 (Sim.Histogram.count b)

(* An empty operand, on either side, is the identity of merge; two
   empties merge to an empty histogram that holds no bucket array. *)
let test_hist_merge_empty () =
  let a = Sim.Histogram.create () and b = Sim.Histogram.create () in
  List.iter (Sim.Histogram.add a) [ 42.0; 150.0; 150.0; 9_999.0; 2e6 ];
  let same m =
    check_int "count" (Sim.Histogram.count a) (Sim.Histogram.count m);
    check_float "sum" (Sim.Histogram.sum a) (Sim.Histogram.sum m);
    check_float "min" 42.0 (Sim.Histogram.min_value m);
    check_float "max" 2e6 (Sim.Histogram.max_value m);
    List.iter
      (fun p ->
        check_float
          (Printf.sprintf "p%g" p)
          (Sim.Histogram.percentile a p)
          (Sim.Histogram.percentile m p))
      [ 0.0; 20.0; 40.0; 60.0; 80.0; 100.0 ]
  in
  same (Sim.Histogram.merge a b);
  same (Sim.Histogram.merge b a);
  same (Sim.Histogram.merge_list [ b; a; b ]);
  let e = Sim.Histogram.(merge b (create ())) in
  check_int "both empty" 0 (Sim.Histogram.count e);
  check_bool "empty merge holds no buckets" true
    (Obj.reachable_words (Obj.repr e) < 64)

let test_hist_merge_percentiles () =
  (* merging shards must agree with recording everything in one histogram:
     identical bucket layouts make the merge exact, not approximate *)
  let whole = Sim.Histogram.create () in
  let parts = Array.init 4 (fun _ -> Sim.Histogram.create ()) in
  let r = Sim.Rng.create 99 in
  for i = 0 to 9_999 do
    let v = float_of_int (1 + Sim.Rng.int r 1_000_000) in
    Sim.Histogram.add whole v;
    Sim.Histogram.add parts.(i mod 4) v
  done;
  let m = Sim.Histogram.merge_list (Array.to_list parts) in
  check_int "count" (Sim.Histogram.count whole) (Sim.Histogram.count m);
  List.iter
    (fun p ->
      check_float
        (Printf.sprintf "p%g" p)
        (Sim.Histogram.percentile whole p)
        (Sim.Histogram.percentile m p))
    [ 0.0; 50.0; 99.0; 99.9; 100.0 ]

let test_hist_merge_list_empty () =
  check_int "empty list" 0 (Sim.Histogram.count (Sim.Histogram.merge_list []))

(* ---- Arrival processes -------------------------------------------------- *)

let test_arrival_deterministic () =
  let a = Sim.Arrival.create ~seed:5 ~mean_gap_ns:100.0 Sim.Arrival.Poisson in
  let b = Sim.Arrival.create ~seed:5 ~mean_gap_ns:100.0 Sim.Arrival.Poisson in
  for _ = 1 to 200 do
    check_float "same stream" (Sim.Arrival.next_gap_ns a)
      (Sim.Arrival.next_gap_ns b)
  done

let test_arrival_fixed () =
  let a = Sim.Arrival.create ~seed:1 ~mean_gap_ns:250.0 Sim.Arrival.Fixed in
  for _ = 1 to 10 do
    check_float "constant gap" 250.0 (Sim.Arrival.next_gap_ns a)
  done

let test_arrival_poisson_mean () =
  let a = Sim.Arrival.create ~seed:3 ~mean_gap_ns:1000.0 Sim.Arrival.Poisson in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let g = Sim.Arrival.next_gap_ns a in
    check_bool "positive" true (g > 0.0);
    sum := !sum +. g
  done;
  let mean = !sum /. float_of_int n in
  check_bool "mean within 5%" true (abs_float (mean -. 1000.0) < 50.0)

let test_arrival_jitter_bounds () =
  let a =
    Sim.Arrival.create ~seed:9 ~mean_gap_ns:1000.0 (Sim.Arrival.Jittered 0.25)
  in
  for _ = 1 to 1000 do
    let g = Sim.Arrival.next_gap_ns a in
    check_bool "within jitter band" true (g >= 750.0 && g <= 1250.0)
  done

let test_arrival_kind_strings () =
  List.iter
    (fun k ->
      match Sim.Arrival.kind_of_string (Sim.Arrival.kind_to_string k) with
      | Ok k' ->
          check_bool "round trip" true (k = k')
      | Error e -> Alcotest.fail e)
    [
      Sim.Arrival.Poisson; Sim.Arrival.Fixed; Sim.Arrival.Jittered 0.25;
      Sim.Arrival.Jittered 0.123456789;
    ];
  check_bool "unknown rejected" true
    (Result.is_error (Sim.Arrival.kind_of_string "bursty"))

let () =
  Alcotest.run "sim"
    [
      ( "rng",
        [
          case "deterministic" test_rng_deterministic;
          case "seed sensitivity" test_rng_seed_sensitivity;
          case "int bounds" test_rng_int_bounds;
          case "float bounds" test_rng_float_bounds;
          case "geometric distribution" test_rng_geometric_distribution;
          case "geometric capped" test_rng_geometric_capped;
          case "split independence" test_rng_split_independent;
          case "shuffle permutation" test_rng_shuffle_permutation;
          case "pinned stream" test_rng_pinned_stream;
          case "copy independent" test_rng_copy;
        ] );
      ( "stats",
        [
          case "mean/stddev" test_stats_mean_stddev;
          case "percentiles" test_stats_percentiles;
          case "empty" test_stats_empty;
          case "growth" test_stats_growth;
          case "add after percentile" test_stats_add_after_percentile;
          case "mean_std" test_mean_std;
        ] );
      ( "sched",
        [
          case "single fiber" test_sched_single_fiber;
          case "fibers interleave" test_sched_fibers_interleave;
          case "cas has no lost updates" test_sched_cas_no_lost_updates;
          case "virtual time advances" test_sched_virtual_time_advances;
          case "self" test_sched_self;
          case "deterministic replay" test_sched_determinism;
          case "crash stops execution" test_sched_crash_stops_execution;
          case "crash kills all fibers" test_sched_crash_kills_all_fibers;
          case "event counting" test_sched_completed_counts_events;
        ] );
      ( "histogram-merge",
        [
          case "counts and bounds" test_hist_merge_counts;
          case "empty operand" test_hist_merge_empty;
          case "percentiles match unsharded" test_hist_merge_percentiles;
          case "merge_list []" test_hist_merge_list_empty;
        ] );
      ( "arrival",
        [
          case "deterministic" test_arrival_deterministic;
          case "fixed gaps" test_arrival_fixed;
          case "poisson mean" test_arrival_poisson_mean;
          case "jitter bounds" test_arrival_jitter_bounds;
          case "kind strings" test_arrival_kind_strings;
        ] );
    ]
