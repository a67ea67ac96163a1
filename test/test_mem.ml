(* Tests for the memory manager: pool formatting, RIV resolution with the
   lazily rebuilt DRAM chunk cache, coarse-grained chunk allocation, root
   allocation and the epoch lifecycle. *)

open Testsupport
module Mem = Memory.Mem
module Riv = Memory.Riv

let test_format_sets_epoch () =
  let pmem = fast_pmem () in
  let mem = make_mem pmem in
  check_int "initial epoch" 1 (Mem.epoch mem)

let test_reconnect_bumps_epoch () =
  let pmem = fast_pmem () in
  let mem = make_mem pmem in
  Pmem.crash pmem;
  Mem.reconnect mem;
  check_int "epoch 2" 2 (Mem.epoch mem);
  Pmem.crash pmem;
  Mem.reconnect mem;
  check_int "epoch 3" 3 (Mem.epoch mem)

let test_epoch_persistent () =
  let pmem = fast_pmem () in
  let mem = make_mem pmem in
  Pmem.crash pmem;
  Mem.reconnect mem;
  (* a second crash without more work must still see epoch 2 persisted *)
  Pmem.crash pmem;
  Mem.reconnect mem;
  check_int "epochs accumulate" 3 (Mem.epoch mem)

(* The magic word validates a pool's header: [format] pokes it last, and
   [reconnect] refuses a pool whose magic word is wrong, naming it. *)
let test_reconnect_refuses_bad_magic () =
  for pool = 0 to 3 do
    let pmem = fast_pmem ~n_pools:4 () in
    let mem = make_mem pmem in
    check_int "formatted magic" Mem.magic
      (Pmem.peek_persistent pmem (Pmem.addr ~pool ~word:Mem.magic_word));
    Pmem.poke pmem (Pmem.addr ~pool ~word:Mem.magic_word) 0;
    Pmem.crash pmem;
    Alcotest.check_raises
      (Printf.sprintf "pool %d refused" pool)
      (Invalid_argument (Printf.sprintf "Mem.reconnect: pool %d has no valid magic word" pool))
      (fun () -> Mem.reconnect mem)
  done

let test_resolve_root_area () =
  let pmem = fast_pmem () in
  let mem = make_mem pmem in
  let r = Mem.riv_of_root ~pool:2 ~word:5000 in
  let a = Mem.resolve mem r in
  check_int "pool" 2 (Pmem.pool_of a);
  check_int "word" 5000 (Pmem.word_of a)

let test_root_alloc_distinct () =
  let pmem = fast_pmem () in
  let mem = make_mem pmem in
  let a = Mem.root_alloc mem ~pool:0 ~words:64 in
  let b = Mem.root_alloc mem ~pool:0 ~words:64 in
  check_bool "distinct regions" false (Riv.equal a b);
  check_int "bump by 64" 64 (Riv.offset b - Riv.offset a)

let test_field_accessors () =
  let pmem = fast_pmem () in
  let mem = make_mem pmem in
  let obj = Mem.root_alloc mem ~pool:1 ~words:16 in
  run1 pmem (fun ~tid:_ ->
      Mem.write_field mem obj 3 99;
      check_int "read back" 99 (Mem.read_field mem obj 3);
      check_bool "cas ok" true (Mem.cas_field mem obj 3 ~expected:99 ~desired:100);
      check_bool "cas stale" false (Mem.cas_field mem obj 3 ~expected:99 ~desired:5);
      check_int "after cas" 100 (Mem.read_field mem obj 3))

let test_ptr_accessors () =
  let pmem = fast_pmem () in
  let mem = make_mem pmem in
  let obj = Mem.root_alloc mem ~pool:0 ~words:8 in
  let target = Riv.make ~pool:3 ~chunk:1 ~offset:64 in
  run1 pmem (fun ~tid:_ ->
      Mem.write_ptr mem obj 0 target;
      check_bool "ptr roundtrip" true (Riv.equal target (Mem.read_ptr mem obj 0)))

let test_persist_field_survives () =
  let pmem = fast_pmem () in
  let mem = make_mem pmem in
  let obj = Mem.root_alloc mem ~pool:0 ~words:8 in
  run1 pmem (fun ~tid:_ ->
      Mem.write_field mem obj 0 41;
      Mem.persist_field mem obj 0);
  Pmem.crash pmem;
  check_int "persisted" 41 (Mem.peek_field mem obj 0)

let test_persist_range_covers_lines () =
  let pmem = fast_pmem () in
  let mem = make_mem pmem in
  let obj = Mem.root_alloc mem ~pool:0 ~words:64 in
  run1 pmem (fun ~tid:_ ->
      for i = 0 to 63 do
        Mem.write_field mem obj i (i + 1)
      done;
      Mem.persist_range mem obj ~first:0 ~words:64);
  Pmem.crash pmem;
  for i = 0 to 63 do
    check_int "word persisted" (i + 1) (Mem.peek_field mem obj i)
  done

let test_allocate_chunk_registers () =
  let pmem = fast_pmem () in
  let mem = make_mem pmem in
  let got = ref None in
  run1 pmem (fun ~tid:_ -> got := Some (Mem.allocate_chunk mem ~pool:2));
  match !got with
  | None -> Alcotest.fail "no chunk"
  | Some (id, base) ->
      check_bool "chunk id positive" true (id > 0);
      check_bool "base beyond metadata" true (base >= Mem.chunks_start);
      (* resolution through the registry *)
      let r = Riv.make ~pool:2 ~chunk:id ~offset:7 in
      let a = Mem.resolve mem r in
      check_int "resolved word" (base + 7) (Pmem.word_of a)

let test_chunk_ids_distinct () =
  let pmem = fast_pmem () in
  let mem = make_mem pmem in
  let ids = ref [] in
  run1 pmem (fun ~tid:_ ->
      for _ = 1 to 5 do
        let id, _ = Mem.allocate_chunk mem ~pool:0 in
        ids := id :: !ids
      done);
  let sorted = List.sort_uniq compare !ids in
  check_int "all distinct" 5 (List.length sorted)

let test_concurrent_chunk_allocation () =
  let pmem = fast_pmem () in
  let mem = make_mem pmem in
  let results = Array.make 4 [] in
  let body ~tid =
    for _ = 1 to 8 do
      results.(tid) <- Mem.allocate_chunk mem ~pool:1 :: results.(tid)
    done
  in
  ignore (run pmem [ body; body; body; body ]);
  let all = Array.to_list results |> List.concat |> List.map fst in
  check_int "no duplicate chunks under concurrency" 32
    (List.length (List.sort_uniq compare all))

let test_resolve_cache_rebuilt_after_crash () =
  let pmem = fast_pmem () in
  let mem = make_mem pmem in
  let chunk = ref 0 in
  run1 pmem (fun ~tid:_ ->
      let id, _ = Mem.allocate_chunk mem ~pool:1 in
      chunk := id);
  let r = Riv.make ~pool:1 ~chunk:!chunk ~offset:3 in
  let before = Mem.resolve mem r in
  Pmem.crash pmem;
  Mem.reconnect mem;
  (* DRAM cache dropped; resolution must rebuild from the persistent
     registry and give the same physical address *)
  let after = Mem.resolve mem r in
  check_int "same address after lazy rebuild" before after

let test_resolve_null_rejected () =
  let pmem = fast_pmem () in
  let mem = make_mem pmem in
  match Mem.resolve mem Riv.null with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_local_pool_modes () =
  let pmem = fast_pmem ~mode:Pmem.Multi_pool () in
  let mem = make_mem pmem in
  check_int "tid 0 -> pool 0" 0 (Mem.local_pool mem ~tid:0);
  check_int "tid 6 -> pool 2" 2 (Mem.local_pool mem ~tid:6);
  let pmem1 = fast_pmem ~mode:Pmem.Striped ~n_pools:1 () in
  let mem1 = make_mem pmem1 in
  check_int "striped: always pool 0" 0 (Mem.local_pool mem1 ~tid:6)

let test_grab_region_poked () =
  let pmem = fast_pmem () in
  let mem = make_mem pmem in
  let r = Mem.grab_region_poked mem ~pool:0 ~words:1000 in
  check_bool "region in chunk area" true (Riv.offset r >= Mem.chunks_start);
  (* subsequent chunk allocation must not overlap the region *)
  let base = ref 0 in
  run1 pmem (fun ~tid:_ ->
      let _, b = Mem.allocate_chunk mem ~pool:0 in
      base := b);
  check_bool "no overlap" true (!base >= Riv.offset r + 1000)

let test_create_validation () =
  let pmem = fast_pmem () in
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () ->
      Mem.create ~pmem ~chunk_words:100 ~block_words:64 ~n_arenas:4 ());
  expect_invalid (fun () ->
      Mem.create ~pmem ~chunk_words:64 ~block_words:4 ~n_arenas:4 ());
  expect_invalid (fun () ->
      Mem.create ~pmem ~chunk_words:128 ~block_words:64 ~n_arenas:1000 ())

let () =
  Alcotest.run "mem"
    [
      ( "epoch",
        [
          case "format sets epoch" test_format_sets_epoch;
          case "reconnect bumps epoch" test_reconnect_bumps_epoch;
          case "epoch persistent" test_epoch_persistent;
          case "reconnect refuses a pool without its magic word"
            test_reconnect_refuses_bad_magic;
        ] );
      ( "resolution",
        [
          case "root area" test_resolve_root_area;
          case "root alloc distinct" test_root_alloc_distinct;
          case "cache rebuilt after crash" test_resolve_cache_rebuilt_after_crash;
          case "null rejected" test_resolve_null_rejected;
        ] );
      ( "fields",
        [
          case "field accessors" test_field_accessors;
          case "ptr accessors" test_ptr_accessors;
          case "persist field" test_persist_field_survives;
          case "persist range" test_persist_range_covers_lines;
        ] );
      ( "chunks",
        [
          case "allocate registers" test_allocate_chunk_registers;
          case "ids distinct" test_chunk_ids_distinct;
          case "concurrent allocation" test_concurrent_chunk_allocation;
          case "grab region" test_grab_region_poked;
        ] );
      ( "config",
        [
          case "local pool modes" test_local_pool_modes;
          case "create validation" test_create_validation;
        ] );
    ]
