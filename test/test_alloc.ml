(* Tests for the fine-grained recoverable block allocator: free-list
   behaviour, allocation logging, post-crash reclamation of unreachable
   blocks, and idempotent deallocation (paper Functions 3-6). *)

open Testsupport
module Mem = Memory.Mem
module Riv = Memory.Riv
module Block_alloc = Memory.Block_alloc

(* A synthetic bottom level for the log-recovery walk: "nodes" are root-area
   objects with key at field 5 and next pointer at field 6. *)
let key_field = 5
let next_field = 6

let ops mem =
  {
    Block_alloc.key0 = (fun n -> Mem.read_field mem n key_field);
    next0 = (fun n -> Mem.read_ptr mem n next_field);
    complete_tower = (fun ~tid:_ _ -> ());  (* synthetic nodes have no tower *)
  }

let make_synthetic_node mem ~key ~next =
  let n = Mem.root_alloc mem ~pool:0 ~words:8 in
  Mem.poke_field mem n Mem.hdr_kind Mem.kind_node;
  Mem.poke_field mem n key_field key;
  Mem.poke_ptr mem n next_field next;
  n

(* Fixture: pool 0 with a tiny synthetic list  head(min) -> b(20) -> tail *)
type fx = {
  pmem : Pmem.t;
  mem : Mem.t;
  ops : Block_alloc.node_ops;
  head : Riv.t;
  node20 : Riv.t;
}

let make_fx () =
  let pmem = fast_pmem () in
  let mem = make_mem ~block_words:16 ~blocks_per_chunk:8 ~n_arenas:2 pmem in
  let tail = make_synthetic_node mem ~key:max_int ~next:Riv.null in
  let node20 = make_synthetic_node mem ~key:20 ~next:tail in
  let head = make_synthetic_node mem ~key:min_int ~next:node20 in
  { pmem; mem; ops = ops mem; head; node20 }

let alloc fx ~tid ~key =
  Block_alloc.alloc_block fx.mem ~tid ~ops:fx.ops ~pred:fx.head ~key

let flen fx ~tid =
  Block_alloc.free_list_length fx.mem
    ~pool:(Mem.local_pool fx.mem ~tid)
    ~arena:(tid mod fx.mem.Mem.n_arenas)

(* ---- basic allocation ----------------------------------------------------- *)

let test_alloc_distinct () =
  let fx = make_fx () in
  let blocks = ref [] in
  run1 fx.pmem (fun ~tid ->
      for i = 1 to 20 do
        blocks := alloc fx ~tid ~key:(100 + i) :: !blocks
      done);
  let words = List.map Riv.to_word !blocks in
  check_int "20 distinct blocks" 20 (List.length (List.sort_uniq compare words))

let test_alloc_pops_head () =
  let fx = make_fx () in
  let before = flen fx ~tid:0 in
  run1 fx.pmem (fun ~tid -> ignore (alloc fx ~tid ~key:5));
  check_int "one block fewer" (before - 1) (flen fx ~tid:0)

let test_alloc_grows_with_new_chunks () =
  let fx = make_fx () in
  let chunks_before = Mem.chunks_allocated fx.mem in
  run1 fx.pmem (fun ~tid ->
      (* initial chunk holds 8 blocks/arena; allocate far more *)
      for i = 1 to 40 do
        ignore (alloc fx ~tid ~key:(200 + i))
      done);
  check_bool "new chunks carved" true (Mem.chunks_allocated fx.mem > chunks_before)

let test_concurrent_alloc_distinct () =
  let fx = make_fx () in
  let per_thread = 30 in
  let results = Array.make 4 [] in
  let body ~tid =
    for i = 1 to per_thread do
      results.(tid) <- alloc fx ~tid ~key:((tid * 1000) + i) :: results.(tid)
    done
  in
  ignore (run fx.pmem [ body; body; body; body ]);
  let all = Array.to_list results |> List.concat |> List.map Riv.to_word in
  check_int "no double allocation" (4 * per_thread)
    (List.length (List.sort_uniq compare all))

let test_allocated_block_not_in_free_list () =
  let fx = make_fx () in
  let b = ref Riv.null in
  run1 fx.pmem (fun ~tid -> b := alloc fx ~tid ~key:5);
  (* the pop clears the next pointer in the volatile image (a concurrent
     deallocation's guard sees it); no flush persists the clearing, since
     the node built in the block overwrites word 0 and persists that line *)
  check_bool "stale next cleared" true
    (Riv.is_null (Mem.peek_ptr fx.mem !b Mem.hdr_next))

(* ---- deallocation ----------------------------------------------------------- *)

let test_delete_returns_to_tail () =
  let fx = make_fx () in
  let before = flen fx ~tid:0 in
  run1 fx.pmem (fun ~tid ->
      let b = alloc fx ~tid ~key:5 in
      Block_alloc.delete_linked_object fx.mem ~tid b);
  check_int "free list restored" before (flen fx ~tid:0)

let test_delete_node_converts_and_zeroes () =
  let fx = make_fx () in
  let b = ref Riv.null in
  run1 fx.pmem (fun ~tid ->
      let blk = alloc fx ~tid ~key:5 in
      (* initialise as a fake node with junk fields *)
      Mem.write_field fx.mem blk Mem.hdr_kind Mem.kind_node;
      Mem.write_field fx.mem blk 7 999;
      Block_alloc.delete_linked_object fx.mem ~tid blk;
      b := blk);
  check_int "kind back to free" Mem.kind_free (Mem.peek_field fx.mem !b Mem.hdr_kind);
  check_int "payload zeroed" 0 (Mem.peek_field fx.mem !b 7)

let test_delete_idempotent () =
  let fx = make_fx () in
  let before = flen fx ~tid:0 in
  run1 fx.pmem (fun ~tid ->
      let b = alloc fx ~tid ~key:5 in
      Block_alloc.delete_linked_object fx.mem ~tid b;
      (* run the recovery path again: must not double-insert *)
      Block_alloc.delete_linked_object fx.mem ~tid b);
  check_int "no duplicate free-list entry" before (flen fx ~tid:0)

let test_alloc_after_delete_reuses () =
  let fx = make_fx () in
  run1 fx.pmem (fun ~tid ->
      let allocated = ref [] in
      (* drain most of the arena, free everything, allocate again *)
      for i = 1 to 6 do
        allocated := alloc fx ~tid ~key:i :: !allocated
      done;
      List.iter (Block_alloc.delete_linked_object fx.mem ~tid) !allocated;
      for i = 1 to 6 do
        ignore (alloc fx ~tid ~key:(50 + i))
      done);
  (* the arena started with 8 blocks: 6 alloc + 6 free + 6 alloc fits
     without a new chunk *)
  check_int "no extra chunk needed" (4 * 2) (Mem.chunks_allocated fx.mem)

(* ---- logging & crash recovery ---------------------------------------------- *)

let test_log_same_epoch_no_walk () =
  let fx = make_fx () in
  run1 fx.pmem (fun ~tid ->
      (* two allocations in the same epoch: the second must not reclaim the
         first (which is reachable=false but same-epoch) *)
      let b1 = alloc fx ~tid ~key:5 in
      let b2 = alloc fx ~tid ~key:6 in
      check_bool "distinct" false (Riv.equal b1 b2);
      check_int "kind of b1 untouched" Mem.kind_free
        (Mem.read_field fx.mem b1 Mem.hdr_kind))

let test_crash_unreachable_block_reclaimed () =
  let fx = make_fx () in
  let lost = ref Riv.null in
  (* era 1: allocate for key 15 (between head(..) and node20) but never link *)
  run1 fx.pmem (fun ~tid -> lost := alloc fx ~tid ~key:15);
  Pmem.crash fx.pmem;
  Mem.reconnect fx.mem;
  let before = flen fx ~tid:0 in
  (* era 2: next allocation by the same thread id checks the log, walks from
     head, finds key 15 unreachable, and reclaims the block *)
  run1 fx.pmem (fun ~tid -> ignore (alloc fx ~tid ~key:99));
  let after = flen fx ~tid:0 in
  check_int "lost block reclaimed (one freed, one allocated)" before after;
  check_bool "reclaimed block is the lost one"
    true
    ((* the reclaimed block sits at the tail of the free list *)
     let pool = Mem.local_pool fx.mem ~tid:0 in
     let tail = Mem.peek_ptr fx.mem (Mem.arena_tail_ptr ~pool ~arena:0) 0 in
     Riv.equal tail !lost)

let test_crash_reachable_block_kept () =
  let fx = make_fx () in
  let linked = ref Riv.null in
  run1 fx.pmem (fun ~tid ->
      let b = alloc fx ~tid ~key:15 in
      (* link it into the synthetic list as a real node *)
      Mem.write_field fx.mem b Mem.hdr_kind Mem.kind_node;
      Mem.write_field fx.mem b key_field 15;
      Mem.write_ptr fx.mem b next_field (Mem.read_ptr fx.mem fx.head next_field);
      Mem.persist_range fx.mem b ~first:0 ~words:8;
      Mem.write_ptr fx.mem fx.head next_field b;
      Mem.persist_field fx.mem fx.head next_field;
      linked := b);
  Pmem.crash fx.pmem;
  Mem.reconnect fx.mem;
  let before = flen fx ~tid:0 in
  run1 fx.pmem (fun ~tid -> ignore (alloc fx ~tid ~key:99));
  let after = flen fx ~tid:0 in
  check_int "reachable block not reclaimed" (before - 1) after;
  check_int "node untouched" Mem.kind_node
    (Mem.peek_field fx.mem !linked Mem.hdr_kind)

let test_log_survives_crash () =
  let fx = make_fx () in
  run1 fx.pmem (fun ~tid -> ignore (alloc fx ~tid ~key:15));
  Pmem.crash fx.pmem;
  (* the log entry was persisted before the pop *)
  let log = Block_alloc.log_obj ~tid:0 in
  check_int "log epoch persisted" 1 (Mem.peek_field fx.mem log Block_alloc.log_epoch);
  check_int "log key persisted" 15 (Mem.peek_field fx.mem log Block_alloc.log_key);
  check_int "log valid" Block_alloc.state_valid
    (Mem.peek_field fx.mem log Block_alloc.log_state)

let test_different_tids_have_independent_logs () =
  let fx = make_fx () in
  ignore
    (run fx.pmem
       [
         (fun ~tid -> ignore (alloc fx ~tid ~key:11));
         (fun ~tid -> ignore (alloc fx ~tid ~key:12));
       ]);
  let l0 = Block_alloc.log_obj ~tid:0 and l1 = Block_alloc.log_obj ~tid:1 in
  check_int "tid 0 log" 11 (Mem.peek_field fx.mem l0 Block_alloc.log_key);
  check_int "tid 1 log" 12 (Mem.peek_field fx.mem l1 Block_alloc.log_key)

let test_crash_during_chunk_provision () =
  (* exhaust the initial chunk so the next allocation must provision a new
     one, crash at a random point inside provisioning, and verify the next
     allocation after recovery repairs it — no block of any carved chunk
     may be lost (Section 4.3.3's "chunk being built" recovery) *)
  List.iter
    (fun crash_events ->
      let fx = make_fx () in
      let held = ref [] in
      run1 fx.pmem (fun ~tid ->
          for i = 1 to 7 do
            held := alloc fx ~tid ~key:(10 + i) :: !held
          done);
      (* this allocation must carve a new chunk; crash mid-provision *)
      (match
         Sim.Sched.run
           ~crash:(Sim.Sched.After_events crash_events)
           ~machine:(Pmem.machine fx.pmem)
           [ (0, fun ~tid -> ignore (alloc fx ~tid ~key:99)) ]
       with
      | Sim.Sched.Crashed_at _ -> ()
      | Sim.Sched.Completed _ -> ());
      Pmem.crash fx.pmem;
      Mem.reconnect fx.mem;
      (* next allocation by the same thread repairs the interrupted
         provision (and the interrupted pop, via the allocation log) *)
      let post = ref [] in
      run1 fx.pmem (fun ~tid ->
          for i = 1 to 3 do
            post := alloc fx ~tid ~key:(100 + i) :: !post
          done);
      let total = Mem.total_blocks fx.mem in
      let free =
        let acc = ref 0 in
        for pool = 0 to Mem.n_pools fx.mem - 1 do
          for arena = 0 to fx.mem.Mem.n_arenas - 1 do
            acc := !acc + Block_alloc.free_list_length fx.mem ~pool ~arena
          done
        done;
        !acc
      in
      (* blocks held before the crash were never linked as nodes: the crash
         wiped their owners, and the allocation log of tid 0 reclaims only
         the last one; the others are legitimately reachable ONLY via this
         accounting, so the test treats pre-crash holds as released: after
         recovery every block is either free or held by the post-crash
         allocations *)
      let held_now = List.length !post in
      check_bool
        (Printf.sprintf
           "crash@%d: free=%d + held=%d vs total=%d (no chunk lost)"
           crash_events free held_now total)
        true
        (free + held_now >= total - 8 && free + held_now <= total))
    [ 5; 15; 40; 80; 120; 200 ]

(* The eighth allocation provisions a chunk under the chunk-provision log;
   crash it after each of its events and keep every dirty line, so the log
   line persists with whatever prefix of its stores had run. The next
   allocations must recover the log and go on, and pool 0's root area must
   be intact: a reset that stores its state after its zeroed pool and
   chunk words can leave [carving] beside chunk 0, and recovery then
   carves pool 0's root area. *)
let test_chunk_log_prefixes () =
  let setup () =
    let fx = make_fx () in
    run1 fx.pmem (fun ~tid ->
        for i = 1 to 7 do
          ignore (alloc fx ~tid ~key:(10 + i))
        done);
    fx
  in
  let eighth fx ~tid = ignore (alloc fx ~tid ~key:99) in
  let events =
    let fx = setup () in
    snd (run fx.pmem [ eighth fx ])
  in
  for crash_at = 1 to events do
    let fx = setup () in
    ignore (run_crash fx.pmem ~events:crash_at [ eighth fx ]);
    Pmem.crash fx.pmem ~persist_line:(fun ~pool:_ ~line:_ -> true);
    Mem.reconnect fx.mem;
    let post = ref [] in
    (match
       run1 fx.pmem (fun ~tid ->
           for i = 1 to 3 do
             post := alloc fx ~tid ~key:(100 + i) :: !post
           done)
     with
    | () -> ()
    | exception e ->
        Alcotest.failf "crash at event %d: allocation raised %s" crash_at
          (Printexc.to_string e));
    check_int (Fmt.str "crash at event %d: distinct blocks" crash_at) 3
      (List.length (List.sort_uniq compare (List.map Riv.to_word !post)));
    check_int (Fmt.str "crash at event %d: pool 0's magic word" crash_at) Mem.magic
      (Pmem.peek_persistent fx.pmem (Pmem.addr ~pool:0 ~word:Mem.magic_word))
  done

(* ---- the allocation crash window ----------------------------------------- *)

(* Persistent-image walks (host side, after a crash). *)
let persistent_chain mem first ~next =
  let rec go p acc steps =
    if Riv.is_null p || steps > 1000 then List.rev acc
    else go (Mem.peek_ptr_persistent mem p next) (p :: acc) (steps + 1)
  in
  go first [] 0

(* Build a synthetic node in block [b] the way a skiplist node is built:
   word 0 overwritten (the node's epoch word), the kind, key 15 and next
   pointer, and a body word on the block's second line; both lines are
   persisted under one fence. *)
let build_node fx b =
  Mem.write_field fx.mem b Mem.hdr_next (Mem.epoch fx.mem);
  Mem.write_field fx.mem b Mem.hdr_kind Mem.kind_node;
  Mem.write_field fx.mem b key_field 15;
  Mem.write_ptr fx.mem b next_field fx.node20;
  Mem.write_field fx.mem b 9 777;
  Mem.persist_range fx.mem b ~first:0 ~words:(Mem.block_words fx.mem)

(* After a crash, run tid 0's next allocation, which checks the log; then
   the audit is clean and [b] is exactly one of: on its arena's free list,
   once, with a zero body in the persistent image; reachable from the
   head; or the block that next allocation popped. *)
let check_block_home fx b where =
  let fresh = ref Riv.null in
  run1 fx.pmem (fun ~tid -> fresh := alloc fx ~tid ~key:99);
  let reachable p =
    List.exists (Riv.equal p) (persistent_chain fx.mem fx.head ~next:next_field)
  in
  (match Block_alloc.audit fx.mem ~reachable with
  | [] -> ()
  | errs -> Alcotest.failf "%s: %s" where (String.concat "; " errs));
  let pool = Mem.local_pool fx.mem ~tid:0 in
  let listed =
    List.length
      (List.filter (Riv.equal b)
         (persistent_chain fx.mem
            (Mem.peek_ptr_persistent fx.mem (Mem.arena_head_ptr ~pool ~arena:0) 0)
            ~next:Mem.hdr_next))
  in
  let homes = List.filter Fun.id [ listed = 1; reachable b; Riv.equal b !fresh ] in
  check_bool (where ^ ": listed at most once") true (listed <= 1);
  check_int (where ^ ": listed, reachable or reallocated, exactly one") 1
    (List.length homes);
  if listed = 1 then
    for i = Pmem.line_words to Mem.block_words fx.mem - 1 do
      check_int (Fmt.str "%s: listed block's word %d" where i) 0
        (Mem.peek_field_persistent fx.mem b i)
    done

(* One allocation, the node built in it and its link after the head,
   crashed after every event with every subset of the dirty lines
   persisted. *)
let test_alloc_crash_window () =
  let target = ref Riv.null in
  let setup () =
    let fx = make_fx () in
    Pmem.clean_shutdown fx.pmem;
    let pool = Mem.local_pool fx.mem ~tid:0 in
    target := Mem.peek_ptr fx.mem (Mem.arena_head_ptr ~pool ~arena:0) 0;
    fx
  in
  let op fx ~tid =
    let b = alloc fx ~tid ~key:15 in
    build_node fx b;
    if Mem.cas_ptr fx.mem fx.head next_field ~expected:fx.node20 ~desired:b then
      Mem.persist_field fx.mem fx.head next_field
  in
  crash_grid ~setup ~pmem:(fun fx -> fx.pmem) ~mem:(fun fx -> fx.mem) ~op
    ~checks:[ (fun fx where -> check_block_home fx !target where) ]

(* The same for the deallocation of a node that was never linked (a lost
   link CAS), crashed after every event: a crash can persist the freed
   header before the zeroed body, and the re-run must still hand back a
   zero body. *)
let test_delete_crash_window () =
  let target = ref Riv.null in
  let setup () =
    let fx = make_fx () in
    run1 fx.pmem (fun ~tid ->
        target := alloc fx ~tid ~key:15;
        build_node fx !target);
    Pmem.clean_shutdown fx.pmem;
    fx
  in
  crash_grid ~setup ~pmem:(fun fx -> fx.pmem) ~mem:(fun fx -> fx.mem)
    ~op:(fun fx ~tid -> Block_alloc.delete_linked_object fx.mem ~tid !target)
    ~checks:[ (fun fx where -> check_block_home fx !target where) ]

(* Run [body] as the fiber of [tid] alone. *)
let run_as fx tid body =
  ignore (run fx.pmem (List.init (tid + 1) (fun i -> if i = tid then body else fun ~tid:_ -> ())))

(* Another thread on the provisioner's arena pops a fresh chunk's first
   block while the chunk-provision log still reads carved, and builds a
   node in it; crashed after every event with every subset of the dirty
   lines persisted. Tids 0, 4 and 8 share pool 0 and arena 0: tid 8
   drains the arena, tid 4 provisions the chunk and is cut off before it
   resets its log, tid 8 pops the old last block, and tid 0 pops the
   chunk's first. The pop leaves the block's carved next pointer in the
   persistent image until the node persists, so the provision's recovery
   must still see the chunk as linked. After the crash, the provisioner
   recovers its log, and then the free list holds no block twice; after
   tid 0's next allocation the audit is clean and the block is either on
   the free list or the block that allocation popped. (The provisioner
   recovers without allocating: a pop of the block by a thread other than
   the one whose log names it is a separate hazard, see ROADMAP.) *)
let test_chunk_provision_pop_window () =
  let block0 = ref Riv.null and held = ref [] in
  let setup () =
    let fx = make_fx () in
    let pool = Mem.local_pool fx.mem ~tid:0 in
    held := [];
    run_as fx 8 (fun ~tid ->
        for i = 1 to 7 do
          held := alloc fx ~tid ~key:(30 + i) :: !held
        done);
    run_as fx 4 (fun ~tid ->
        let chunk = Block_alloc.provision_chunk fx.mem ~tid ~pool ~arena:0 in
        block0 := Riv.make ~pool ~chunk ~offset:0);
    run_as fx 8 (fun ~tid -> held := alloc fx ~tid ~key:38 :: !held);
    check_bool "the chunk's first block heads the list" true
      (Riv.equal !block0 (Mem.peek_ptr fx.mem (Mem.arena_head_ptr ~pool ~arena:0) 0));
    (* tid 8's blocks stand for nodes of the structure *)
    List.iter (fun b -> Mem.poke_field fx.mem b Mem.hdr_kind Mem.kind_node) !held;
    Pmem.clean_shutdown fx.pmem;
    fx
  in
  let op fx ~tid = build_node fx (alloc fx ~tid ~key:15) in
  let check fx where =
    let pool = Mem.local_pool fx.mem ~tid:0 in
    let listed () =
      persistent_chain fx.mem
        (Mem.peek_ptr_persistent fx.mem (Mem.arena_head_ptr ~pool ~arena:0) 0)
        ~next:Mem.hdr_next
    in
    let fresh = ref Riv.null in
    run_as fx 4 (fun ~tid -> Block_alloc.recover_chunk_provision fx.mem ~tid);
    let chain = listed () in
    check_int (where ^ ": no block listed twice")
      (List.length chain)
      (List.length (List.sort_uniq compare (List.map Riv.to_word chain)));
    run1 fx.pmem (fun ~tid -> fresh := alloc fx ~tid ~key:99);
    let reachable p = List.exists (Riv.equal p) !held in
    (match Block_alloc.audit fx.mem ~reachable with
    | [] -> ()
    | errs -> Alcotest.failf "%s: %s" where (String.concat "; " errs));
    let b = !block0 in
    let homes =
      List.filter Fun.id
        [
          List.exists (Riv.equal b) (listed ());
          Riv.equal b !fresh;
        ]
    in
    check_int (where ^ ": listed or reallocated, exactly one") 1 (List.length homes)
  in
  crash_grid ~setup ~pmem:(fun fx -> fx.pmem) ~mem:(fun fx -> fx.mem) ~op
    ~checks:[ check ]

let () =
  Alcotest.run "block_alloc"
    [
      ( "alloc",
        [
          case "distinct blocks" test_alloc_distinct;
          case "pops head" test_alloc_pops_head;
          case "grows with chunks" test_alloc_grows_with_new_chunks;
          case "concurrent distinct" test_concurrent_alloc_distinct;
          case "stale next cleared" test_allocated_block_not_in_free_list;
        ] );
      ( "delete",
        [
          case "returns to tail" test_delete_returns_to_tail;
          case "converts node" test_delete_node_converts_and_zeroes;
          case "idempotent" test_delete_idempotent;
          case "reuse after delete" test_alloc_after_delete_reuses;
        ] );
      ( "logging",
        [
          case "same-epoch fast path" test_log_same_epoch_no_walk;
          case "crash: unreachable reclaimed" test_crash_unreachable_block_reclaimed;
          case "crash: reachable kept" test_crash_reachable_block_kept;
          case "log persisted" test_log_survives_crash;
          case "per-thread logs" test_different_tids_have_independent_logs;
          case "crash during chunk provision" test_crash_during_chunk_provision;
          case "chunk log torn at every crash point" test_chunk_log_prefixes;
          slow_case "crash grid: allocation and node persist" test_alloc_crash_window;
          slow_case "crash grid: node deallocation" test_delete_crash_window;
          slow_case "crash grid: pop from a chunk still logged as carved"
            test_chunk_provision_pop_window;
        ] );
    ]
