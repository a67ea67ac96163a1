(* Unit tests for the persistent-memory model: volatile vs persistent
   images, flush/fence semantics, crash behaviour, NUMA mapping and the
   latency/bandwidth accounting; a differential run of the sparse
   representation against two full images, and its host footprint. *)

open Testsupport

let addr0 w = Pmem.addr ~pool:0 ~word:w

(* ---- addressing ---------------------------------------------------------- *)

let test_addr_roundtrip () =
  let a = Pmem.addr ~pool:3 ~word:123456 in
  check_int "pool" 3 (Pmem.pool_of a);
  check_int "word" 123456 (Pmem.word_of a)

let test_addr_zero () =
  let a = Pmem.addr ~pool:0 ~word:0 in
  check_int "pool" 0 (Pmem.pool_of a);
  check_int "word" 0 (Pmem.word_of a)

(* ---- persistence semantics ----------------------------------------------- *)

let test_unflushed_write_lost_on_crash () =
  let pmem = fast_pmem () in
  run1 pmem (fun ~tid:_ -> Sim.Sched.write (addr0 64) 99);
  check_int "volatile sees write" 99 (Pmem.peek pmem (addr0 64));
  Pmem.crash pmem;
  check_int "unflushed write lost" 0 (Pmem.peek pmem (addr0 64))

let test_flushed_write_survives_crash () =
  let pmem = fast_pmem () in
  run1 pmem (fun ~tid:_ ->
      Sim.Sched.write (addr0 64) 99;
      Sim.Sched.flush (addr0 64);
      Sim.Sched.fence ());
  Pmem.crash pmem;
  check_int "flushed write survives" 99 (Pmem.peek pmem (addr0 64))

let test_flush_covers_whole_line () =
  let pmem = fast_pmem () in
  run1 pmem (fun ~tid:_ ->
      (* words 64..71 share a line *)
      Sim.Sched.write (addr0 64) 1;
      Sim.Sched.write (addr0 71) 2;
      Sim.Sched.flush (addr0 67);
      Sim.Sched.fence ());
  Pmem.crash pmem;
  check_int "first word of line persisted" 1 (Pmem.peek pmem (addr0 64));
  check_int "last word of line persisted" 2 (Pmem.peek pmem (addr0 71))

let test_flush_does_not_cover_next_line () =
  let pmem = fast_pmem () in
  run1 pmem (fun ~tid:_ ->
      Sim.Sched.write (addr0 64) 1;
      Sim.Sched.write (addr0 72) 2;
      (* next line *)
      Sim.Sched.flush (addr0 64);
      Sim.Sched.fence ());
  Pmem.crash pmem;
  check_int "flushed line persisted" 1 (Pmem.peek pmem (addr0 64));
  check_int "other line lost" 0 (Pmem.peek pmem (addr0 72))

let test_cas_is_a_store_for_persistence () =
  let pmem = fast_pmem () in
  run1 pmem (fun ~tid:_ ->
      ignore (Sim.Sched.cas (addr0 64) ~expected:0 ~desired:7));
  Pmem.crash pmem;
  check_int "unflushed CAS lost" 0 (Pmem.peek pmem (addr0 64))

let test_rewrite_after_flush_needs_new_flush () =
  let pmem = fast_pmem () in
  run1 pmem (fun ~tid:_ ->
      Sim.Sched.write (addr0 64) 1;
      Sim.Sched.flush (addr0 64);
      Sim.Sched.fence ();
      Sim.Sched.write (addr0 64) 2);
  Pmem.crash pmem;
  check_int "old flushed value restored" 1 (Pmem.peek pmem (addr0 64))

let test_clean_shutdown_persists_everything () =
  let pmem = fast_pmem () in
  run1 pmem (fun ~tid:_ ->
      Sim.Sched.write (addr0 64) 5;
      Sim.Sched.write (addr0 128) 6);
  Pmem.clean_shutdown pmem;
  Pmem.crash pmem;
  check_int "word 64" 5 (Pmem.peek pmem (addr0 64));
  check_int "word 128" 6 (Pmem.peek pmem (addr0 128))

let test_crash_restores_volatile_from_persistent () =
  let pmem = fast_pmem () in
  Pmem.poke pmem (addr0 80) 11;
  run1 pmem (fun ~tid:_ -> Sim.Sched.write (addr0 80) 22);
  check_int "volatile updated" 22 (Pmem.peek pmem (addr0 80));
  Pmem.crash pmem;
  check_int "volatile rebuilt from persistent" 11 (Pmem.peek pmem (addr0 80))

let test_random_eviction_can_persist_dirty_lines () =
  (* a line [persist_line] keeps reaches the persistent image *)
  let pmem = fast_pmem () in
  run1 pmem (fun ~tid:_ -> Sim.Sched.write (addr0 64) 3);
  Pmem.crash ~persist_line:(fun ~pool:_ ~line:_ -> true) pmem;
  check_int "evicted line persisted" 3 (Pmem.peek pmem (addr0 64))

let test_crash_count () =
  let pmem = fast_pmem () in
  check_int "initial" 0 (Pmem.crash_count pmem);
  Pmem.crash pmem;
  Pmem.crash pmem;
  check_int "two crashes" 2 (Pmem.crash_count pmem)

let test_poke_writes_through () =
  let pmem = fast_pmem () in
  Pmem.poke pmem (addr0 96) 77;
  Pmem.crash pmem;
  check_int "poke persisted" 77 (Pmem.peek pmem (addr0 96));
  check_int "peek_persistent" 77 (Pmem.peek_persistent pmem (addr0 96))

(* ---- NUMA ------------------------------------------------------------------ *)

let test_multi_pool_home_nodes () =
  let pmem = fast_pmem ~mode:Pmem.Multi_pool () in
  for pool = 0 to 3 do
    check_int
      (Printf.sprintf "pool %d home" pool)
      pool
      (Pmem.home_node pmem (Pmem.addr ~pool ~word:100))
  done

let test_striped_home_nodes () =
  let pmem = fast_pmem ~mode:Pmem.Striped ~n_pools:1 () in
  (* stripe_words = 4096 in the fast fixture *)
  check_int "first stripe" 0 (Pmem.home_node pmem (addr0 0));
  check_int "second stripe" 1 (Pmem.home_node pmem (addr0 4096));
  check_int "third stripe" 2 (Pmem.home_node pmem (addr0 8192));
  check_int "wraps" 0 (Pmem.home_node pmem (addr0 16384))

let test_thread_node_round_robin () =
  let pmem = fast_pmem () in
  check_int "tid 0" 0 (Pmem.thread_node pmem 0);
  check_int "tid 5" 1 (Pmem.thread_node pmem 5);
  check_int "tid 7" 3 (Pmem.thread_node pmem 7)

(* ---- latency accounting ----------------------------------------------------- *)

let optane_pmem () =
  Pmem.create
    {
      Pmem.default_config with
      latency = { Pmem.Latency.default with jitter = 0.0 };
      n_pools = 4;
      pool_words = 1 lsl 16;
    }

let test_read_miss_slower_than_hit () =
  let pmem = optane_pmem () in
  let t_first = ref 0.0 and t_second = ref 0.0 in
  run1 pmem (fun ~tid:_ ->
      let t0 = Sim.Sched.now () in
      ignore (Sim.Sched.read (addr0 64));
      let t1 = Sim.Sched.now () in
      ignore (Sim.Sched.read (addr0 64));
      let t2 = Sim.Sched.now () in
      t_first := t1 -. t0;
      t_second := t2 -. t1);
  check_bool "miss costs pmem latency" true (!t_first >= 300.0);
  check_bool "hit is cheap" true (!t_second < 10.0)

let test_dirty_flush_costs_write_latency () =
  let pmem = optane_pmem () in
  let t_dirty = ref 0.0 and t_clean = ref 0.0 in
  run1 pmem (fun ~tid:_ ->
      Sim.Sched.write (addr0 64) 1;
      let t0 = Sim.Sched.now () in
      Sim.Sched.flush (addr0 64);
      let t1 = Sim.Sched.now () in
      Sim.Sched.flush (addr0 64);
      let t2 = Sim.Sched.now () in
      t_dirty := t1 -. t0;
      t_clean := t2 -. t1);
  check_bool "dirty flush >= persist latency" true (!t_dirty >= 90.0);
  check_bool "clean flush cheap" true (!t_clean < 10.0)

let test_write_bandwidth_queueing () =
  (* many concurrent flushers must see growing flush latency *)
  let pmem = optane_pmem () in
  let flush_time tid_count =
    Pmem.reset_counters pmem;
    let total = ref 0.0 in
    let body ~tid =
      for i = 0 to 19 do
        let a = Pmem.addr ~pool:0 ~word:((tid * 4096) + (i * 8) + 2048) in
        Sim.Sched.write a 1;
        let t0 = Sim.Sched.now () in
        Sim.Sched.flush a;
        total := !total +. (Sim.Sched.now () -. t0)
      done
    in
    ignore (run pmem (List.init tid_count (fun _ -> body)));
    !total /. float_of_int (tid_count * 20)
  in
  let lat1 = flush_time 1 in
  let lat16 = flush_time 16 in
  check_bool "controller saturates under concurrency" true (lat16 > 2.0 *. lat1)

let test_remote_access_penalty () =
  let pmem = optane_pmem () in
  (* tid 0 is on node 0; pool 1 lives on node 1 *)
  let t_local = ref 0.0 and t_remote = ref 0.0 in
  run1 pmem (fun ~tid:_ ->
      let local = Pmem.addr ~pool:0 ~word:512 in
      let remote = Pmem.addr ~pool:1 ~word:512 in
      let t0 = Sim.Sched.now () in
      ignore (Sim.Sched.read local);
      let t1 = Sim.Sched.now () in
      ignore (Sim.Sched.read remote);
      let t2 = Sim.Sched.now () in
      t_local := t1 -. t0;
      t_remote := t2 -. t1);
  check_bool "remote read slower" true (!t_remote > 1.5 *. !t_local)

let test_counters () =
  let pmem = fast_pmem () in
  run1 pmem (fun ~tid:_ ->
      ignore (Sim.Sched.read (addr0 64));
      Sim.Sched.write (addr0 64) 1;
      ignore (Sim.Sched.cas (addr0 64) ~expected:1 ~desired:2);
      ignore (Sim.Sched.cas (addr0 64) ~expected:1 ~desired:3);
      Sim.Sched.flush (addr0 64);
      Sim.Sched.fence ();
      (* a store to a line no timing cache has seen: a store miss, counted
         separately from load misses *)
      Sim.Sched.write (addr0 1024) 5);
  let c = Pmem.counters pmem in
  check_int "loads" 1 c.Pmem.loads;
  check_int "load misses" 1 c.Pmem.load_misses;
  check_int "stores" 2 c.Pmem.stores;
  check_int "store misses" 1 c.Pmem.store_misses;
  check_int "cas ops" 2 c.Pmem.cas_ops;
  check_int "cas failures" 1 c.Pmem.cas_failures;
  check_int "flushes" 1 c.Pmem.flushes;
  check_int "dirty flushes" 1 c.Pmem.dirty_flushes;
  check_int "fences" 1 c.Pmem.fences

(* The timing cache is direct-mapped on a line's low bits: with 512 lines,
   line 512 evicts line 0 and line 1 does not. *)
let test_cache_index_low_bits () =
  let pmem = fast_pmem () in
  let line l = addr0 (l * Pmem.line_words) in
  let misses reads =
    let before = (Pmem.counters pmem).Pmem.load_misses in
    run1 pmem (fun ~tid:_ -> List.iter (fun l -> ignore (Sim.Sched.read (line l))) reads);
    (Pmem.counters pmem).Pmem.load_misses - before
  in
  check_int "cold lines miss" 2 (misses [ 0; 1 ]);
  check_int "distinct slots stay cached" 0 (misses [ 0; 1; 0 ]);
  check_int "line 512 evicts line 0, not line 1" 2 (misses [ 512; 1; 0 ])

let test_cache_lines_validated () =
  List.iter
    (fun n ->
      Alcotest.check_raises
        (Printf.sprintf "cache_lines = %d" n)
        (Invalid_argument
           (Printf.sprintf
              "Pmem.create: cache_lines must be a positive power of two: %d" n))
        (fun () ->
          ignore (Pmem.create { Pmem.default_config with cache_lines = n })))
    [ 0; -4; 3; 4095 ];
  ignore
    (Pmem.create
       { Pmem.default_config with cache_lines = 1; n_pools = 1; pool_words = 1 lsl 16 })

(* A tag is the part of the line id the slot drops, renumbered over every
   pool's lines; it must stay below the 16-bit empty tag. *)
let test_tag_geometry_guard () =
  let geometry ~n_pools ~pool_words ~cache_lines =
    { Pmem.default_config with n_pools; pool_words; cache_lines }
  in
  let rejected name config =
    match Pmem.create config with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  (* 4 pools x 2^18 lines, one line per slot: 2^20 tags *)
  rejected "default pools, one cache line" (geometry ~n_pools:4 ~pool_words:(1 lsl 21) ~cache_lines:1);
  rejected "one tag too many"
    (geometry ~n_pools:1 ~pool_words:((8 * 0xFFFF) + 1) ~cache_lines:1);
  rejected "pools multiply the tags"
    (geometry ~n_pools:2 ~pool_words:(8 * 0x8000) ~cache_lines:1);
  (* 0xFFFF tags, 0 .. 0xFFFE: the largest geometry that fits, and its last
     line still hits once installed *)
  let pmem = Pmem.create (geometry ~n_pools:1 ~pool_words:(8 * 0xFFFF) ~cache_lines:1) in
  let mc = Pmem.machine pmem in
  let last = addr0 ((8 * 0xFFFF) - 1) in
  ignore (mc.read ~tid:0 last);
  ignore (mc.read ~tid:0 last);
  check_int "last line: one miss, then a hit" 1 (Pmem.counters pmem).Pmem.load_misses;
  (* every fixture in the tree is orders of magnitude inside the limit *)
  ignore (Pmem.create { Pmem.default_config with pool_words = 1 lsl 25 })

(* The 16-bit tags against a reference cache that keeps full (pool, line)
   ids: every access by every thread hits or misses exactly as the
   reference does, over 4 pools whose lines alias in a 16-line cache, a
   pool size that is not a multiple of the cache, thread ids that grow the
   per-thread table, and the crashes and clean shutdowns that empty every
   cache. *)
let packed_tags_run ~mode ~seed =
  let cache_lines = 16 and pool_words = 2000 and n_pools = 4 in
  let pmem =
    Pmem.create
      {
        Pmem.numa_nodes = 4;
        pool_words;
        n_pools;
        mode;
        stripe_words = 64;
        latency = Pmem.Latency.uniform;
        cache_lines;
        seed;
      }
  in
  let mc = Pmem.machine pmem in
  let tids = [| 0; 1; 2; 5; 17; 40 |] in
  let reference = Array.map (fun _ -> Array.make cache_lines (-1, -1)) tids in
  let load_misses = ref 0 and store_misses = ref 0 in
  let rng = Sim.Rng.create seed in
  let n_lines = (pool_words + Pmem.line_words - 1) / Pmem.line_words in
  (* lines of slots 0, 9 and 15 only, so they alias constantly; slot 9
     holds the partial last line, 249 *)
  let rec pick () =
    let slot = [| 0; 9; 15 |].(Sim.Rng.int rng 3) in
    let line = slot + (cache_lines * Sim.Rng.int rng ((n_lines / cache_lines) + 1)) in
    if line >= n_lines then pick ()
    else
      let pool = Sim.Rng.int rng n_pools in
      let base = line * Pmem.line_words in
      (pool, line, base + Sim.Rng.int rng (min Pmem.line_words (pool_words - base)))
  in
  let access ~store =
    let i = Sim.Rng.int rng (Array.length tids) in
    let pool, line, w = pick () in
    let a = Pmem.addr ~pool ~word:w in
    let tags = reference.(i) in
    let slot = line land (cache_lines - 1) in
    if tags.(slot) <> (pool, line) then begin
      tags.(slot) <- (pool, line);
      incr (if store then store_misses else load_misses)
    end;
    (tids.(i), a)
  in
  let empty () = Array.iter (fun t -> Array.fill t 0 cache_lines (-1, -1)) reference in
  for _ = 1 to 3000 do
    (match Sim.Rng.int rng 20 with
    | 0 ->
        Pmem.crash pmem;
        empty ()
    | 1 ->
        Pmem.clean_shutdown pmem;
        empty ()
    | 2 | 3 ->
        let tid, a = access ~store:true in
        mc.write ~tid a 1
    | 4 ->
        let tid, a = access ~store:true in
        ignore (mc.cas ~tid a 0 1)
    | 5 ->
        let _, _, w = pick () in
        mc.flush ~tid:0 (Pmem.addr ~pool:(Sim.Rng.int rng n_pools) ~word:w)
    | _ ->
        let tid, a = access ~store:false in
        ignore (mc.read ~tid a));
    let c = Pmem.counters pmem in
    check_int "load misses" !load_misses c.Pmem.load_misses;
    check_int "store misses" !store_misses c.Pmem.store_misses
  done

let test_packed_tags_exact () =
  for seed = 1 to 4 do
    packed_tags_run ~mode:Pmem.Multi_pool ~seed;
    packed_tags_run ~mode:Pmem.Striped ~seed
  done

(* ---- differential: the sparse images against two full ones --------------- *)

(* Reference model: the two full images and per-line dirty flags the
   persistence semantics are defined by, plus the functional counters.
   [mrng] is the eviction coin of the random-subset crashes. *)
type model = {
  vol : int array array;
  per : int array array;
  dirty : bool array array;
  mrng : Sim.Rng.t;
  mutable loads : int;
  mutable stores : int;
  mutable cas_ops : int;
  mutable cas_failures : int;
  mutable flushes : int;
  mutable dirty_flushes : int;
  mutable fences : int;
}

(* Not a multiple of the page (4096 words) nor of the line (8 words): the
   last line is partial and the last page short. *)
let diff_pool_words = (2 * 4096) + 1021

(* About 40 lines spread over every page, the partial last line included. *)
let diff_lines =
  let last = diff_pool_words / Pmem.line_words in
  Array.init 40 (fun i -> if i = 39 then last else i * 29 mod last)

let dirty_count m =
  Array.fold_left
    (fun n d -> Array.fold_left (fun n b -> if b then n + 1 else n) n d)
    0 m.dirty

(* Dirty lines in ascending (pool, line) order. *)
let dirty_lines m =
  List.concat
    (List.mapi
       (fun pool d ->
         List.filter_map
           (fun line -> if d.(line) then Some (pool, line) else None)
           (List.init (Array.length d) Fun.id))
       (Array.to_list m.dirty))

let line_range line =
  let base = line * Pmem.line_words in
  (base, min (base + Pmem.line_words) diff_pool_words)

let model_crash m decide =
  List.iter
    (fun (pool, line) ->
      let base, upto = line_range line in
      let src, dst = if decide ~pool ~line then (m.vol, m.per) else (m.per, m.vol) in
      Array.blit src.(pool) base dst.(pool) base (upto - base);
      m.dirty.(pool).(line) <- false)
    (dirty_lines m)

let check_against_model pmem m ~full =
  let check_word pool w =
    let a = Pmem.addr ~pool ~word:w in
    if Pmem.peek pmem a <> m.vol.(pool).(w) then
      Alcotest.failf "peek pool %d word %d: %d, model %d" pool w (Pmem.peek pmem a)
        m.vol.(pool).(w);
    if Pmem.peek_persistent pmem a <> m.per.(pool).(w) then
      Alcotest.failf "peek_persistent pool %d word %d: %d, model %d" pool w
        (Pmem.peek_persistent pmem a) m.per.(pool).(w)
  in
  Array.iteri
    (fun pool _ ->
      if full then for w = 0 to diff_pool_words - 1 do check_word pool w done
      else
        Array.iter
          (fun line ->
            let base, upto = line_range line in
            for w = base to upto - 1 do check_word pool w done)
          diff_lines)
    m.vol;
  check_int "dirty lines" (dirty_count m) (Pmem.dirty_line_count pmem);
  let c = Pmem.counters pmem in
  check_int "loads" m.loads c.Pmem.loads;
  check_int "stores" m.stores c.Pmem.stores;
  check_int "cas ops" m.cas_ops c.Pmem.cas_ops;
  check_int "cas failures" m.cas_failures c.Pmem.cas_failures;
  check_int "flushes" m.flushes c.Pmem.flushes;
  check_int "dirty flushes" m.dirty_flushes c.Pmem.dirty_flushes;
  check_int "fences" m.fences c.Pmem.fences;
  check_int "accesses" (m.loads + m.stores + m.cas_ops) c.Pmem.accesses

let differential_run ~mode ~n_pools ~seed ~steps =
  let pmem = fast_pmem ~mode ~n_pools ~pool_words:diff_pool_words ~seed () in
  let mc = Pmem.machine pmem in
  let m =
    {
      vol = Array.init n_pools (fun _ -> Array.make diff_pool_words 0);
      per = Array.init n_pools (fun _ -> Array.make diff_pool_words 0);
      dirty =
        Array.init n_pools (fun _ ->
            Array.make ((diff_pool_words / Pmem.line_words) + 1) false);
      mrng = Sim.Rng.create seed;
      loads = 0;
      stores = 0;
      cas_ops = 0;
      cas_failures = 0;
      flushes = 0;
      dirty_flushes = 0;
      fences = 0;
    }
  in
  let rng = Sim.Rng.create (seed + 1000) in
  (* a word of one of the ~40 lines; [any] also allows the words of the
     partial last line that lie past the end of the pool *)
  let pick ?(any = false) () =
    let pool = Sim.Rng.int rng n_pools in
    let line = diff_lines.(Sim.Rng.int rng (Array.length diff_lines)) in
    let base, upto = line_range line in
    let upto = if any then base + Pmem.line_words else upto in
    (pool, base + Sim.Rng.int rng (upto - base))
  in
  let value () = 1 + Sim.Rng.int rng 1_000_000 in
  let store pool w v =
    m.vol.(pool).(w) <- v;
    m.dirty.(pool).(w / Pmem.line_words) <- true
  in
  for _ = 1 to steps do
    (match Sim.Rng.int rng 13 with
    | 0 | 1 ->
        let pool, w = pick () in
        let v = value () in
        mc.write ~tid:0 (Pmem.addr ~pool ~word:w) v;
        m.stores <- m.stores + 1;
        store pool w v
    | 2 ->
        let pool, w = pick () in
        let v = value () in
        check_bool "CAS hit" true
          (mc.cas ~tid:1 (Pmem.addr ~pool ~word:w) m.vol.(pool).(w) v);
        m.cas_ops <- m.cas_ops + 1;
        store pool w v
    | 3 ->
        let pool, w = pick () in
        check_bool "CAS miss" false
          (mc.cas ~tid:1 (Pmem.addr ~pool ~word:w) (m.vol.(pool).(w) + 1) 7);
        m.cas_ops <- m.cas_ops + 1;
        m.cas_failures <- m.cas_failures + 1
    | 4 | 5 ->
        (* clean or dirty, whichever the line is *)
        let pool, w = pick ~any:true () in
        mc.flush ~tid:0 (Pmem.addr ~pool ~word:w);
        m.flushes <- m.flushes + 1;
        let line = w / Pmem.line_words in
        if m.dirty.(pool).(line) then begin
          let base, upto = line_range line in
          Array.blit m.vol.(pool) base m.per.(pool) base (upto - base);
          m.dirty.(pool).(line) <- false;
          m.dirty_flushes <- m.dirty_flushes + 1
        end
    | 6 ->
        mc.fence ~tid:0;
        m.fences <- m.fences + 1
    | 7 ->
        let pool, w = pick () in
        check_int "read" m.vol.(pool).(w) (mc.read ~tid:2 (Pmem.addr ~pool ~word:w));
        m.loads <- m.loads + 1
    | 8 ->
        let pool, w = pick () in
        let v = if Sim.Rng.bool rng then 0 else value () in
        Pmem.poke pmem (Pmem.addr ~pool ~word:w) v;
        m.vol.(pool).(w) <- v;
        m.per.(pool).(w) <- v
    | 9 ->
        (* a random subset, asked for line by line in (pool, line) order *)
        let asked = ref [] in
        Pmem.crash pmem ~persist_line:(fun ~pool ~line ->
            let keep = Sim.Rng.bool rng in
            asked := ((pool, line), keep) :: !asked;
            keep);
        let asked = List.rev !asked in
        if List.map fst asked <> dirty_lines m then
          Alcotest.fail "persist_line not asked once per dirty line in order";
        model_crash m (fun ~pool ~line -> List.assoc (pool, line) asked)
    | 11 ->
        (* dirty every line of one pool: over 64 dirty lines in all grows
           the shadow slots *)
        let pool = Sim.Rng.int rng n_pools in
        Array.iter
          (fun line ->
            let w = line * Pmem.line_words in
            let v = value () in
            mc.write ~tid:0 (Pmem.addr ~pool ~word:w) v;
            m.stores <- m.stores + 1;
            store pool w v)
          diff_lines
    | 10 ->
        (* each dirty line persists with probability 1/2: the instance and
           the model flip the same coin, line by line in (pool, line) order *)
        let coin rng ~pool:_ ~line:_ = Sim.Rng.float rng < 0.5 in
        let twin = Sim.Rng.copy m.mrng in
        Pmem.crash pmem ~persist_line:(coin m.mrng);
        model_crash m (coin twin)
    | _ ->
        Pmem.clean_shutdown pmem;
        Array.iteri
          (fun pool v -> Array.blit v 0 m.per.(pool) 0 diff_pool_words)
          m.vol;
        Array.iter (fun d -> Array.fill d 0 (Array.length d) false) m.dirty);
    check_against_model pmem m ~full:false
  done;
  check_against_model pmem m ~full:true

let test_differential_multi_pool () =
  for seed = 1 to 6 do
    differential_run ~mode:Pmem.Multi_pool ~n_pools:3 ~seed ~steps:600
  done

let test_differential_striped () =
  for seed = 1 to 6 do
    differential_run ~mode:Pmem.Striped ~n_pools:1 ~seed ~steps:600
  done

let test_out_of_range () =
  let pmem = fast_pmem ~n_pools:1 ~pool_words:diff_pool_words () in
  let mc = Pmem.machine pmem in
  let past = addr0 diff_pool_words in
  let raises name f =
    match f () with
    | exception Invalid_argument msg ->
        Alcotest.(check string) name "index out of bounds" msg
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  raises "peek" (fun () -> ignore (Pmem.peek pmem past));
  raises "peek_persistent" (fun () -> ignore (Pmem.peek_persistent pmem past));
  raises "poke" (fun () -> Pmem.poke pmem past 1);
  raises "read" (fun () -> ignore (mc.read ~tid:0 past));
  raises "write" (fun () -> mc.write ~tid:0 past 1);
  raises "cas" (fun () -> ignore (mc.cas ~tid:0 past 0 1));
  check_bool "last word valid" true (Pmem.valid_addr pmem (addr0 (diff_pool_words - 1)));
  check_bool "past the end invalid" false (Pmem.valid_addr pmem past);
  check_bool "bad pool invalid" false (Pmem.valid_addr pmem (Pmem.addr ~pool:1 ~word:0));
  (* the partial last line flushes even past the pool's end; the next does not *)
  let next_line = (diff_pool_words / Pmem.line_words + 1) * Pmem.line_words in
  mc.flush ~tid:0 (addr0 (next_line - 1));
  raises "flush" (fun () -> mc.flush ~tid:0 (addr0 next_line))

(* ---- line reads ---------------------------------------------------------- *)

(* A line read is one access: one load, one timing-cache lookup, and the
   latency of one word read of the same line — a miss when the line is
   cold, a hit after. *)
let test_read_line_one_access () =
  let line = Array.make Pmem.line_words 0 in
  let timed pmem read =
    let t = ref 0.0 in
    run1 pmem (fun ~tid:_ ->
        let t0 = Sim.Sched.now () in
        read ();
        t := Sim.Sched.now () -. t0);
    !t
  in
  let pmem = optane_pmem () in
  let c = Pmem.counters pmem in
  let cold = timed pmem (fun () -> Pmem.read_line pmem (addr0 64) line 0) in
  check_int "cold: one load" 1 c.Pmem.loads;
  check_int "cold: one access" 1 c.Pmem.accesses;
  check_int "cold: one miss" 1 c.Pmem.load_misses;
  let warm = timed pmem (fun () -> Pmem.read_line pmem (addr0 64) line 0) in
  check_int "warm: one more load" 2 c.Pmem.loads;
  check_int "warm: one more access" 2 c.Pmem.accesses;
  check_int "warm: a hit" 1 c.Pmem.load_misses;
  let word = optane_pmem () in
  let cold_word = timed word (fun () -> ignore (Sim.Sched.read (addr0 64) : int)) in
  let warm_word = timed word (fun () -> ignore (Sim.Sched.read (addr0 64) : int)) in
  Alcotest.(check (float 0.0)) "cold: one miss's latency" cold_word cold;
  Alcotest.(check (float 0.0)) "warm: one hit's latency" warm_word warm

(* Every word of the line comes from the volatile image, dirty unflushed
   stores included, and lands at the given position. *)
let test_read_line_volatile_words () =
  let pmem = fast_pmem () in
  let dst = Array.make (2 * Pmem.line_words) (-1) in
  run1 pmem (fun ~tid:_ ->
      for i = 0 to Pmem.line_words - 1 do
        Sim.Sched.write (addr0 (64 + i)) (10 * (i + 1))
      done;
      Sim.Sched.flush (addr0 64);
      Sim.Sched.fence ();
      Sim.Sched.write (addr0 67) 99;
      Sim.Sched.write (addr0 64) 11;
      Pmem.read_line pmem (addr0 64) dst Pmem.line_words);
  Alcotest.(check (array int)) "the line at position 8"
    [| -1; -1; -1; -1; -1; -1; -1; -1; 11; 20; 30; 99; 50; 60; 70; 80 |] dst;
  check_int "the persistent image still holds the flushed word" 40
    (Pmem.peek_persistent pmem (addr0 67))

let test_read_line_rejects () =
  let pmem = fast_pmem ~n_pools:1 ~pool_words:1024 () in
  let dst = Array.make Pmem.line_words 0 in
  let raises name msg f =
    match f () with
    | exception Invalid_argument m -> Alcotest.(check string) name msg m
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  raises "unaligned" "Pmem.read_line: unaligned address" (fun () ->
      Pmem.read_line pmem (addr0 65) dst 0);
  raises "past the pool" "index out of bounds" (fun () ->
      Pmem.read_line pmem (addr0 1024) dst 0);
  raises "no room at the position" "Pmem.read_line: destination too short"
    (fun () -> Pmem.read_line pmem (addr0 64) dst 1)

(* ---- prefetch reads ------------------------------------------------------- *)

(* One line read of [a] that also fetches [b], as the only fiber, after
   word reads of [warm] in the same run (each one event): its latency, the
   events it took, and its counter deltas. *)
let prefetching_read ?(warm = []) pmem a b =
  let c = Pmem.counters pmem in
  let line = Array.make Pmem.line_words 0 in
  let lat = ref 0.0 and before = ref c in
  let _, events =
    run pmem
      [
        (fun ~tid:_ ->
          List.iter (fun w -> ignore (Sim.Sched.read w : int)) warm;
          before := Pmem.{ c with loads = c.loads };
          let t0 = Sim.Sched.now () in
          Pmem.read_line pmem ~prefetch:b a line 0;
          lat := Sim.Sched.now () -. t0);
      ]
  in
  let d f = f c - f !before in
  (!lat, events - List.length warm, d)

(* A prefetching read is one access and one event, costs the slower of its
   two lines, counts the prefetched line as a load (and as a load miss, a
   prefetch miss and, remote, a remote access when it is fetched), and
   installs both lines: a hit then a miss, a miss then a hit, and two
   misses on different NUMA nodes (tid 0 is on node 0, pool [p] lives on
   node [p]). *)
let test_prefetch_slower_line () =
  let lat = Pmem.Latency.default in
  let cases =
    [
      ("hit then miss", addr0 512, addr0 1024, true, false, lat.pmem_read_ns, 0);
      ("miss then hit", addr0 2048, addr0 512, false, true, lat.pmem_read_ns, 0);
      ( "two misses on two nodes",
        addr0 4096,
        Pmem.addr ~pool:1 ~word:8192,
        false,
        false,
        lat.pmem_read_ns *. lat.remote_multiplier,
        1 );
    ]
  in
  List.iter
    (fun (name, a, b, a_warm, b_warm, expected, remote) ->
      let pmem = optane_pmem () in
      let warm = (if a_warm then [ a ] else []) @ if b_warm then [ b ] else [] in
      let ns, events, d = prefetching_read ~warm pmem a b in
      Alcotest.(check (float 0.0)) (name ^ ": the slower line's latency") expected ns;
      check_int (name ^ ": one event") 1 events;
      check_int (name ^ ": one access") 1 (d (fun c -> c.Pmem.accesses));
      check_int (name ^ ": two loads") 2 (d (fun c -> c.Pmem.loads));
      check_int (name ^ ": one prefetch") 1 (d (fun c -> c.Pmem.prefetches));
      let misses = Bool.to_int (not a_warm) + Bool.to_int (not b_warm) in
      check_int (name ^ ": load misses") misses (d (fun c -> c.Pmem.load_misses));
      check_int (name ^ ": prefetch misses") (Bool.to_int (not b_warm))
        (d (fun c -> c.Pmem.prefetch_misses));
      check_int (name ^ ": remote accesses") remote (d (fun c -> c.Pmem.remote_accesses));
      (* both lines are cached now: reading each again hits *)
      let again = Pmem.counters pmem in
      let misses0 = again.Pmem.load_misses in
      run1 pmem (fun ~tid:_ -> List.iter (fun w -> ignore (Sim.Sched.read w : int)) [ a; b ]);
      check_int (name ^ ": both lines installed") misses0 again.Pmem.load_misses)
    cases

(* A prefetched miss on the node of the demand miss waits for the read
   channel the demand miss occupies, and then occupies it in turn: the
   access costs one service time more than a miss, and a miss that
   another fiber on that node (tid 4) issues 0.4 ns later waits for both
   service slots. *)
let test_prefetch_occupies_read_channel () =
  let lat = Pmem.Latency.default in
  let pmem = optane_pmem () in
  let line = Array.make Pmem.line_words 0 in
  let first = ref 0.0 and later = ref 0.0 in
  let timed cell f ~tid:_ =
    let t0 = Sim.Sched.now () in
    f ();
    cell := Sim.Sched.now () -. t0
  in
  (match
     Sim.Sched.run ~machine:(Pmem.machine pmem)
       [
         (0, timed first (fun () -> Pmem.read_line pmem ~prefetch:(addr0 1024) (addr0 512) line 0));
         (4, timed later (fun () -> ignore (Sim.Sched.read (addr0 2048) : int)));
       ]
   with
  | Sim.Sched.Completed _ -> ()
  | Sim.Sched.Crashed_at _ -> Alcotest.fail "unexpected simulated crash");
  Alcotest.(check (float 1e-9)) "queued behind the demand miss"
    (lat.pmem_read_ns +. lat.read_service_ns) !first;
  Alcotest.(check (float 1e-9)) "a later miss waits for both slots"
    (lat.pmem_read_ns +. (2.0 *. lat.read_service_ns) -. 0.4) !later

let test_prefetch_rejects () =
  let pmem = fast_pmem ~n_pools:1 ~pool_words:1024 () in
  let dst = Array.make Pmem.line_words 0 in
  let raises name msg f =
    match f () with
    | exception Invalid_argument m -> Alcotest.(check string) name msg m
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  let read ~prefetch () = Pmem.read_line pmem ~prefetch (addr0 64) dst 0 in
  raises "unaligned" "Pmem.read_line: unaligned prefetch" (read ~prefetch:(addr0 129));
  raises "past the pool" "index out of bounds" (read ~prefetch:(addr0 1024));
  raises "no such pool" "Pmem: bad pool id" (read ~prefetch:(Pmem.addr ~pool:1 ~word:0));
  raises "no room at the position" "Pmem.read_line: destination too short" (fun () ->
      Pmem.read_line pmem ~prefetch:(addr0 128) (addr0 64) dst 1);
  raises "arm: unaligned" "Pmem.arm_prefetch: unaligned address" (fun () ->
      Pmem.arm_prefetch pmem (addr0 3));
  (* outside a run the read never reaches the machine, and no prefetch
     stays armed for the next read *)
  raises "outside a run" "Sched: primitive issued outside a run" (read ~prefetch:(addr0 128));
  run1 pmem (fun ~tid:_ -> ignore (Sim.Sched.read (addr0 256) : int));
  check_int "no prefetch left armed" 0 (Pmem.counters pmem).Pmem.prefetches

(* ---- host footprint ------------------------------------------------------ *)

let reachable pmem = Obj.reachable_words (Obj.repr pmem)
let page_words = 4096

let test_footprint_fresh () =
  let image = 1 lsl 21 in
  let pmem = Pmem.create { Pmem.default_config with n_pools = 4; pool_words = image } in
  let w = reachable pmem in
  if w >= image / 100 then
    Alcotest.failf "fresh instance holds %d words, over 1%% of one image" w

let test_footprint_pages () =
  let pmem = Pmem.create { Pmem.default_config with n_pools = 4 } in
  let mc = Pmem.machine pmem in
  (* installs thread 0's timing cache and one page first *)
  mc.write ~tid:0 (addr0 0) 1;
  let before = reachable pmem in
  let k = 16 in
  for i = 1 to k do
    mc.write ~tid:0 (Pmem.addr ~pool:(i mod 4) ~word:(i * 3 * page_words)) 1
  done;
  let grown = reachable pmem - before in
  if grown < k * page_words || grown > k * page_words * 5 / 4 then
    Alcotest.failf "%d pages grew the instance by %d words" k grown

let test_footprint_slot_reuse () =
  let pmem = Pmem.create { Pmem.default_config with n_pools = 4 } in
  let mc = Pmem.machine pmem in
  let a = addr0 64 in
  mc.write ~tid:0 a 1;
  mc.flush ~tid:0 a;
  let before = reachable pmem in
  for i = 1 to 10_000 do
    mc.write ~tid:0 a i;
    mc.flush ~tid:0 a
  done;
  check_int "words after 10k write+flush cycles" before (reachable pmem)

(* A thread's timing cache is 16-bit tags: 2 bytes per line, plus the
   string's header and padding words. *)
let test_footprint_timing_cache () =
  let pmem = Pmem.create Pmem.default_config in
  let mc = Pmem.machine pmem in
  (* installs the tid-indexed table and thread 0's cache first *)
  ignore (mc.read ~tid:0 (addr0 0));
  let before = reachable pmem in
  ignore (mc.read ~tid:1 (addr0 0));
  let grown = reachable pmem - before in
  let lines = Pmem.default_config.Pmem.cache_lines in
  if grown > (2 * lines / 8) + 2 then
    Alcotest.failf "thread 1's %d-line timing cache holds %d words" lines grown

let () =
  Alcotest.run "pmem"
    [
      ( "addressing",
        [ case "roundtrip" test_addr_roundtrip; case "zero" test_addr_zero ] );
      ( "persistence",
        [
          case "unflushed write lost" test_unflushed_write_lost_on_crash;
          case "flushed write survives" test_flushed_write_survives_crash;
          case "flush covers whole line" test_flush_covers_whole_line;
          case "flush scoped to line" test_flush_does_not_cover_next_line;
          case "CAS persistence" test_cas_is_a_store_for_persistence;
          case "rewrite needs new flush" test_rewrite_after_flush_needs_new_flush;
          case "clean shutdown" test_clean_shutdown_persists_everything;
          case "crash restores volatile" test_crash_restores_volatile_from_persistent;
          case "random eviction" test_random_eviction_can_persist_dirty_lines;
          case "crash count" test_crash_count;
          case "poke write-through" test_poke_writes_through;
        ] );
      ( "numa",
        [
          case "multi-pool homes" test_multi_pool_home_nodes;
          case "striped homes" test_striped_home_nodes;
          case "thread round-robin" test_thread_node_round_robin;
        ] );
      ( "latency",
        [
          case "read miss vs hit" test_read_miss_slower_than_hit;
          case "dirty flush cost" test_dirty_flush_costs_write_latency;
          case "bandwidth queueing" test_write_bandwidth_queueing;
          case "remote penalty" test_remote_access_penalty;
          case "counters" test_counters;
          case "cache index is the line's low bits" test_cache_index_low_bits;
          case "cache_lines must be a power of two" test_cache_lines_validated;
          case "tag geometry guard" test_tag_geometry_guard;
          case "packed tags are exact" test_packed_tags_exact;
        ] );
      ( "representation",
        [
          case "differential multi-pool" test_differential_multi_pool;
          case "differential striped" test_differential_striped;
          case "out of range" test_out_of_range;
        ] );
      ( "line reads",
        [
          case "one access, one miss or hit" test_read_line_one_access;
          case "volatile words, dirty ones included" test_read_line_volatile_words;
          case "unaligned, out of range, short destination" test_read_line_rejects;
        ] );
      ( "prefetch reads",
        [
          case "one access, the slower latency" test_prefetch_slower_line;
          case "a second miss holds the channel" test_prefetch_occupies_read_channel;
          case "bad lines rejected, none armed" test_prefetch_rejects;
        ] );
      ( "footprint",
        [
          case "fresh instance" test_footprint_fresh;
          case "grows by touched pages" test_footprint_pages;
          case "shadow slots reused" test_footprint_slot_reuse;
          case "timing cache is 2 bytes per line" test_footprint_timing_cache;
        ] );
    ]
