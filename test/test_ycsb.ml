(* Tests for the YCSB workload generator: mixes, distributions, key ranges
   and determinism (paper Table 5.1). *)

open Testsupport
module W = Ycsb.Workload

let count_ops stream =
  Array.fold_left
    (fun (r, u, i) op ->
      match op with
      | W.Read _ -> (r + 1, u, i)
      | W.Update _ -> (r, u + 1, i)
      | W.Insert _ -> (r, u, i + 1)
      | W.Scan _ -> (r, u, i))
    (0, 0, 0) stream

let flatten streams = Array.to_list streams |> Array.concat

let gen ?(spec = W.a) ?(n_initial = 1000) ?(threads = 4) ?(ops = 2000) ?(seed = 5) () =
  W.generate ~seed ~spec ~n_initial ~threads ~ops_per_thread:ops

let test_mix_a () =
  let all = flatten (gen ~spec:W.a ()) in
  let r, u, i = count_ops all in
  let total = float_of_int (Array.length all) in
  check_bool "A reads ~50%" true (abs_float ((float_of_int r /. total) -. 0.5) < 0.03);
  check_bool "A updates ~50%" true (abs_float ((float_of_int u /. total) -. 0.5) < 0.03);
  check_int "A no inserts" 0 i

let test_mix_b () =
  let all = flatten (gen ~spec:W.b ()) in
  let r, u, i = count_ops all in
  let total = float_of_int (Array.length all) in
  check_bool "B reads ~95%" true (abs_float ((float_of_int r /. total) -. 0.95) < 0.02);
  check_bool "B updates ~5%" true (abs_float ((float_of_int u /. total) -. 0.05) < 0.02);
  check_int "B no inserts" 0 i

let test_mix_c () =
  let all = flatten (gen ~spec:W.c ()) in
  let r, u, i = count_ops all in
  check_int "C only reads" (Array.length all) r;
  check_int "C no updates" 0 u;
  check_int "C no inserts" 0 i

let test_mix_d () =
  let all = flatten (gen ~spec:W.d ()) in
  let r, _, i = count_ops all in
  let total = float_of_int (Array.length all) in
  check_bool "D reads ~95%" true (abs_float ((float_of_int r /. total) -. 0.95) < 0.02);
  check_bool "D has inserts" true (i > 0)

let test_mix_e () =
  let all = flatten (gen ~spec:W.e ()) in
  let scans =
    Array.fold_left
      (fun acc op -> match op with W.Scan _ -> acc + 1 | _ -> acc)
      0 all
  in
  let _, _, inserts = count_ops all in
  let total = float_of_int (Array.length all) in
  check_bool "E scans ~95%" true
    (abs_float ((float_of_int scans /. total) -. 0.95) < 0.02);
  check_bool "E has inserts" true (inserts > 0);
  Array.iter
    (function
      | W.Scan (_, len) -> check_bool "scan length 1..100" true (len >= 1 && len <= 100)
      | _ -> ())
    all

let test_keys_in_range () =
  let n_initial = 500 in
  let streams = gen ~spec:W.a ~n_initial () in
  Array.iter
    (Array.iter (function
      | W.Read k | W.Update k | W.Scan (k, _) ->
          check_bool "existing keyspace" true (k >= 1 && k <= n_initial)
      | W.Insert _ -> ()))
    streams

let test_insert_keys_unique_and_dense () =
  let n_initial = 100 in
  let streams = gen ~spec:W.d ~n_initial ~threads:4 ~ops:500 () in
  let inserts =
    List.filter_map
      (function W.Insert k -> Some k | _ -> None)
      (Array.to_list (flatten streams))
  in
  let sorted = List.sort compare inserts in
  check_int "unique" (List.length inserts) (List.length (List.sort_uniq compare inserts));
  (match sorted with
  | first :: _ -> check_int "continues keyspace" (n_initial + 1) first
  | [] -> Alcotest.fail "no inserts");
  check_int "dense"
    (List.length inserts)
    (match (sorted, List.rev sorted) with
    | first :: _, last :: _ -> last - first + 1
    | _ -> -1)

let test_zipfian_is_skewed () =
  let z = Ycsb.Zipfian.create ~seed:3 10_000 in
  let counts = Hashtbl.create 1024 in
  let n = 50_000 in
  for _ = 1 to n do
    let k = Ycsb.Zipfian.next_scrambled z in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  let freqs = Hashtbl.fold (fun _ c acc -> c :: acc) counts [] in
  let top = List.nth (List.sort (fun a b -> compare b a) freqs) 0 in
  (* the hottest item of a 0.99-zipfian over 10k items draws ~9-10% *)
  check_bool "hot key exists" true (float_of_int top /. float_of_int n > 0.02);
  check_bool "not everything is the hot key" true
    (float_of_int top /. float_of_int n < 0.3)

let test_zipfian_rank0_most_popular () =
  let z = Ycsb.Zipfian.create ~seed:9 1000 in
  let counts = Array.make 1000 0 in
  for _ = 1 to 20_000 do
    let r = Ycsb.Zipfian.next_rank z in
    counts.(r) <- counts.(r) + 1
  done;
  check_bool "rank 0 beats rank 10" true (counts.(0) > counts.(10));
  check_bool "rank 1 beats rank 100" true (counts.(1) > counts.(100))

let test_zipfian_bounds () =
  let z = Ycsb.Zipfian.create ~seed:1 50 in
  for _ = 1 to 5000 do
    let r = Ycsb.Zipfian.next_rank z in
    check_bool "rank in range" true (r >= 0 && r < 50);
    let s = Ycsb.Zipfian.next_scrambled z in
    check_bool "scrambled in range" true (s >= 0 && s < 50)
  done

let test_latest_targets_recent () =
  let streams = gen ~spec:W.d ~n_initial:1000 ~threads:2 ~ops:3000 ~seed:11 () in
  let reads =
    List.filter_map
      (function W.Read k -> Some k | _ -> None)
      (Array.to_list (flatten streams))
  in
  let recent = List.length (List.filter (fun k -> k > 700) reads) in
  (* "latest" skews towards the top of the (growing) keyspace *)
  check_bool "reads target recent keys" true
    (float_of_int recent /. float_of_int (List.length reads) > 0.5)

let test_determinism () =
  let a = gen ~seed:42 () and b = gen ~seed:42 () in
  check_bool "same seed, same streams" true (a = b);
  let c = gen ~seed:43 () in
  check_bool "different seed differs" true (a <> c)

let test_by_label () =
  check_bool "label a" true (W.of_label "a" = Ok W.a);
  check_bool "label B" true (W.of_label "B" = Ok W.b);
  match W.of_label "z" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown label accepted"

let () =
  Alcotest.run "ycsb"
    [
      ( "mixes",
        [
          case "workload A" test_mix_a;
          case "workload B" test_mix_b;
          case "workload C" test_mix_c;
          case "workload D" test_mix_d;
          case "workload E" test_mix_e;
        ] );
      ( "keys",
        [
          case "reads in keyspace" test_keys_in_range;
          case "inserts unique and dense" test_insert_keys_unique_and_dense;
          case "latest targets recent" test_latest_targets_recent;
        ] );
      ( "zipfian",
        [
          case "skewed" test_zipfian_is_skewed;
          case "rank order" test_zipfian_rank0_most_popular;
          case "bounds" test_zipfian_bounds;
        ] );
      ( "misc",
        [ case "determinism" test_determinism; case "by_label" test_by_label ] );
    ]
