(* Unit + property tests for extended RIV persistent pointers. *)

open Testsupport
module Riv = Memory.Riv

let test_null () =
  check_bool "null is null" true (Riv.is_null Riv.null);
  check_int "null word" 0 (Riv.to_word Riv.null)

let test_roundtrip () =
  let p = Riv.make ~pool:3 ~chunk:17 ~offset:12345 in
  check_int "pool" 3 (Riv.pool p);
  check_int "chunk" 17 (Riv.chunk p);
  check_int "offset" 12345 (Riv.offset p);
  check_bool "not null" false (Riv.is_null p)

let test_pool_zero_not_null () =
  (* pool 0, chunk 0, offset 0 must be distinguishable from null *)
  let p = Riv.make ~pool:0 ~chunk:0 ~offset:0 in
  check_bool "pool0/chunk0/offset0 is not null" false (Riv.is_null p)

let test_extremes () =
  let p = Riv.make ~pool:Riv.max_pool ~chunk:Riv.max_chunk ~offset:Riv.max_offset in
  check_int "max pool" Riv.max_pool (Riv.pool p);
  check_int "max chunk" Riv.max_chunk (Riv.chunk p);
  check_int "max offset" Riv.max_offset (Riv.offset p);
  check_bool "fits in 63-bit int (non-negative)" true (Riv.to_word p > 0)

let test_out_of_range () =
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> Riv.make ~pool:(-1) ~chunk:0 ~offset:0);
  expect_invalid (fun () -> Riv.make ~pool:(Riv.max_pool + 1) ~chunk:0 ~offset:0);
  expect_invalid (fun () -> Riv.make ~pool:0 ~chunk:(-1) ~offset:0);
  expect_invalid (fun () -> Riv.make ~pool:0 ~chunk:(Riv.max_chunk + 1) ~offset:0);
  expect_invalid (fun () -> Riv.make ~pool:0 ~chunk:0 ~offset:(-1));
  expect_invalid (fun () -> Riv.make ~pool:0 ~chunk:0 ~offset:(Riv.max_offset + 1))

let test_add () =
  let p = Riv.make ~pool:1 ~chunk:2 ~offset:100 in
  let q = Riv.add p 28 in
  check_int "same pool" 1 (Riv.pool q);
  check_int "same chunk" 2 (Riv.chunk q);
  check_int "displaced offset" 128 (Riv.offset q);
  let r = Riv.add q (-28) in
  check_bool "add inverse" true (Riv.equal p r)

let test_word_roundtrip () =
  let p = Riv.make ~pool:5 ~chunk:9 ~offset:4242 in
  check_bool "to/of word" true (Riv.equal p (Riv.of_word (Riv.to_word p)))

let test_pmwcas_bits_clear () =
  (* PMwCAS uses bits 60/61 for marking; realistic pool ids (< 16) must not
     touch them *)
  let p = Riv.make ~pool:15 ~chunk:Riv.max_chunk ~offset:Riv.max_offset in
  check_int "bit 61 clear" 0 (Riv.to_word p land (1 lsl 61));
  check_int "bit 60 clear" 0 (Riv.to_word p land (1 lsl 60))

let prop_roundtrip =
  qcase ~count:500 "roundtrip (qcheck)"
    QCheck.(
      triple (int_bound Riv.max_pool) (int_bound Riv.max_chunk)
        (int_bound Riv.max_offset))
    (fun (pool, chunk, offset) ->
      let p = Memory.Riv.make ~pool ~chunk ~offset in
      Memory.Riv.pool p = pool
      && Memory.Riv.chunk p = chunk
      && Memory.Riv.offset p = offset
      && not (Memory.Riv.is_null p))

let prop_distinct =
  qcase ~count:500 "equality iff same components (qcheck)"
    QCheck.(
      pair
        (triple (int_bound 7) (int_bound 100) (int_bound 1000))
        (triple (int_bound 7) (int_bound 100) (int_bound 1000)))
    (fun ((p1, c1, o1), (p2, c2, o2)) ->
      let a = Memory.Riv.make ~pool:p1 ~chunk:c1 ~offset:o1 in
      let b = Memory.Riv.make ~pool:p2 ~chunk:c2 ~offset:o2 in
      Memory.Riv.equal a b = (p1 = p2 && c1 = c2 && o1 = o2))

let () =
  Alcotest.run "riv"
    [
      ( "riv",
        [
          case "null" test_null;
          case "roundtrip" test_roundtrip;
          case "pool zero not null" test_pool_zero_not_null;
          case "extremes" test_extremes;
          case "out of range" test_out_of_range;
          case "add" test_add;
          case "word roundtrip" test_word_roundtrip;
          case "no mark-bit collision" test_pmwcas_bits_clear;
          prop_roundtrip;
          prop_distinct;
        ] );
    ]
