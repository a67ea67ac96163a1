(* Memory manager for PMEM-resident structures: pool layout, failure-free
   epochs, coarse-grained chunk allocation and RIV pointer resolution.

   Every pool is formatted with a static root area (chunk 0) followed by
   dynamically allocated chunks:

     word 0                magic
     word 1                bump pointer: next free word for chunk allocation
     word 2                epochID (meaningful in pool 0 only)
     words 16 ..           chunk registry: chunk id -> base word + 1
     words arena_heads ..  per-arena free-list head blocks (RIV)
     words arena_tails ..  per-arena free-list tail blocks (RIV)
     words logs ..         per-thread allocation logs (pool 0 only)
     words app_root ..     application roots (sentinel nodes, tree roots)
     words chunks_start .. chunk storage

   Every block has the same size, [block_words]; a chunk is carved into
   [chunk_words / block_words] of them.

   The chunk registry is persistent; its DRAM base-address cache (the only
   thing lost in a crash) is rebuilt lazily as pointers are dereferenced,
   which is what keeps reconnection O(pools) — practicality requirement 3. *)

let magic = 0x5550534B (* "UPSK" *)

let max_chunks = 2048
let max_arenas = 64
let max_threads = 256
let log_words = 16  (* two cache lines: allocation log + chunk-provision log *)
let app_root_words = 4096

let magic_word = 0
let bump_word = 1
let epoch_word = 2
let detect_word = 3  (* RIV of the detect announcement region, 0 = absent *)
let registry_start = 16
(* The head and tail areas are [2 * max_arenas] words each; only the first
   [max_arenas] of each are used, and the rest stay reserved so that the
   offsets of everything after them do not move. *)
let arena_heads = registry_start + max_chunks
let arena_tails = arena_heads + (2 * max_arenas)
let logs_start = arena_tails + (2 * max_arenas)
let app_root_start = logs_start + (max_threads * log_words)
let chunks_start =
  let raw = app_root_start + app_root_words in
  (raw + Pmem.line_words - 1) / Pmem.line_words * Pmem.line_words

type t = {
  pmem : Pmem.t;
  port : Sim.Sched.port;  (* [Pmem.port pmem]: every primitive goes through it *)
  chunk_words : int;
  block_words : int;
  n_arenas : int;
  mutable epoch : int;  (* DRAM copy of pool 0's epochID *)
  chunk_cache : int array array;  (* pool -> chunk -> base word, -1 unknown *)
  root_bump : int array;  (* pool -> next free app-root word (setup only) *)
}

(* Object header shared by free blocks and nodes (word 2 discriminates).
   The kind sits in the low [kind_bits] of its word; a node packs further
   fields above it, so readers compare [kind_of] the word, never the raw
   word. *)
let hdr_next = 0 (* free block: next block in the free list *)
let hdr_epoch = 1 (* free block: epoch it was created/freed in *)
let hdr_kind = 2
let kind_free = 1
let kind_node = 2
let kind_bits = 8
let kind_of w = w land ((1 lsl kind_bits) - 1)

let create ~pmem ~chunk_words ~block_words ~n_arenas () =
  if n_arenas > max_arenas then invalid_arg "Mem.create: too many arenas";
  if chunk_words mod block_words <> 0 then
    invalid_arg "Mem.create: chunk_words must be a multiple of block_words";
  if block_words < 8 then invalid_arg "Mem.create: block too small";
  let cfg = Pmem.config pmem in
  let n_pools = cfg.Pmem.n_pools in
  {
    pmem;
    port = Pmem.port pmem;
    chunk_words;
    block_words;
    n_arenas;
    epoch = 1;
    chunk_cache = Array.init n_pools (fun _ -> Array.make (max_chunks + 1) (-1));
    root_bump = Array.make n_pools app_root_start;
  }

let epoch t = t.epoch
let pmem t = t.pmem
let block_words t = t.block_words
let n_pools t = (Pmem.config t.pmem).Pmem.n_pools

(* The pool a thread allocates from: its NUMA node's pool when running
   multi-pool, pool 0 when the device is striped (single pool). *)
let local_pool t ~tid =
  match (Pmem.config t.pmem).Pmem.mode with
  | Pmem.Multi_pool -> Pmem.thread_node t.pmem tid
  | Pmem.Striped -> 0

(* ---- RIV resolution --------------------------------------------------- *)

(* Cold path of [resolve]: a DRAM cache miss rebuilds the entry from the
   persistent registry (deferred recovery of the address cache). Out of
   line so the per-access hot path below stays small and straight-line —
   [resolve] runs once per simulated field access. *)
let rebuild_chunk_base t ~pool cache chunk =
  let reg = Pmem.peek t.pmem (Pmem.addr ~pool ~word:(registry_start + chunk)) in
  let b = chunks_start + ((chunk - 1) * t.chunk_words) in
  if reg <> b + 1 then invalid_arg "Mem.resolve: unregistered chunk";
  cache.(chunk) <- b;
  b

(* Chunk 0 addresses the static root area with pool-absolute offsets. *)
let resolve t p =
  if Riv.is_null p then invalid_arg "Mem.resolve: null pointer";
  let pool = Riv.pool p and chunk = Riv.chunk p and off = Riv.offset p in
  if chunk = 0 then Pmem.addr ~pool ~word:off
  else begin
    let cache = t.chunk_cache.(pool) in
    let b = cache.(chunk) in
    let base = if b >= 0 then b else rebuild_chunk_base t ~pool cache chunk in
    Pmem.addr ~pool ~word:(base + off)
  end

let riv_of_root ~pool ~word = Riv.make ~pool ~chunk:0 ~offset:word

(* ---- primitives (simulated-time, fiber context only) ------------------ *)

(* Every primitive on this memory goes through its pool's port, which
   reaches the run in progress without a domain-local lookup; a line read
   ([Pmem.read_line]) is one read through it. *)
let[@inline] read t a = Sim.Sched.Port.read t.port a
let[@inline] read_line t a dst pos = Pmem.read_line t.pmem a dst pos
let[@inline] write t a v = Sim.Sched.Port.write t.port a v
let[@inline] cas t a ~expected ~desired = Sim.Sched.Port.cas t.port a ~expected ~desired
let[@inline] flush t a = Sim.Sched.Port.flush t.port a
let[@inline] fence t = Sim.Sched.Port.fence t.port
let[@inline] charge t ns = Sim.Sched.Port.charge t.port ns
let yield t = Sim.Sched.Port.yield t.port
let self t = Sim.Sched.Port.self t.port

(* ---- field accessors (simulated-time, fiber context only) ------------- *)

let read_field t obj i = read t (resolve t obj + i)
let write_field t obj i v = write t (resolve t obj + i) v
let cas_field t obj i ~expected ~desired = cas t (resolve t obj + i) ~expected ~desired
let flush_field t obj i = flush t (resolve t obj + i)

let read_ptr t obj i = Riv.of_word (read_field t obj i)
let write_ptr t obj i p = write_field t obj i (Riv.to_word p)

let cas_ptr t obj i ~expected ~desired =
  cas_field t obj i ~expected:(Riv.to_word expected) ~desired:(Riv.to_word desired)

(* Flush every cache line overlapping [words] fields of [obj], no fence. *)
let flush_range t obj ~first ~words =
  let base = resolve t obj + first in
  let lines = ((base + words - 1) / Pmem.line_words) - (base / Pmem.line_words) in
  for l = 0 to lines do
    flush t (base + (l * Pmem.line_words))
  done

(* [flush_range], then fence: the paper's Persist primitive over a
   contiguous object. *)
let persist_range t obj ~first ~words =
  flush_range t obj ~first ~words;
  fence t

let persist_field t obj i =
  flush_field t obj i;
  fence t

(* ---- setup-time accessors (no simulated cost) ------------------------- *)

let peek_field t obj i = Pmem.peek t.pmem (resolve t obj + i)
let poke_field t obj i v = Pmem.poke t.pmem (resolve t obj + i) v
let peek_ptr t obj i = Riv.of_word (peek_field t obj i)
let poke_ptr t obj i p = poke_field t obj i (Riv.to_word p)

(* ---- persistent-image accessors (heap audits) ------------------------- *)

(* [try_resolve] is total: audits follow pointers read out of a possibly
   torn persistent image, where a word may decode to a null or unregistered
   reference — that is a finding to report, not an exception to die on. *)
let try_resolve t p =
  match resolve t p with
  | a -> if Pmem.valid_addr t.pmem a then Some a else None
  | exception Invalid_argument _ -> None

let peek_field_persistent t obj i = Pmem.peek_persistent t.pmem (resolve t obj + i)
let peek_ptr_persistent t obj i = Riv.of_word (peek_field_persistent t obj i)

(* Peek a static root word of [pool] straight from the persistent image. *)
let peek_root_persistent t ~pool ~word =
  Pmem.peek_persistent t.pmem (Pmem.addr ~pool ~word)

(* Ids of the chunks of [pool] present in the persistent registry.
   Registry entries persist before any block of the chunk becomes
   reachable (allocate_chunk flushes the entry under a fence), so
   this enumeration covers every block a post-crash heap can reference.
   Chunk bases are deterministic (chunk [id] lives at
   [chunks_start + (id-1) * chunk_words]), so an entry holding anything
   but exactly that base + 1 is noise, not a chunk — the scan
   validates rather than trusts, since it reads a possibly-torn image. *)
let persistent_chunks t ~pool =
  let out = ref [] in
  for id = max_chunks downto 1 do
    let reg = peek_root_persistent t ~pool ~word:(registry_start + id) in
    let base = chunks_start + ((id - 1) * t.chunk_words) in
    if
      reg = base + 1
      && Pmem.valid_addr t.pmem (Pmem.addr ~pool ~word:(base + t.chunk_words - 1))
    then out := id :: !out
  done;
  !out

(* ---- static root allocation (setup only) ------------------------------ *)

(* Reserve a raw word region from the chunk area at setup time (pokes).
   Addressed via chunk 0 (pool-absolute offsets); used by subsystems that
   manage a fixed persistent region, e.g. the PMwCAS descriptor pool. *)
let grab_region_poked t ~pool ~words =
  let bump = Pmem.addr ~pool ~word:bump_word in
  let base = Pmem.peek t.pmem bump in
  let cfg = Pmem.config t.pmem in
  if base + words > cfg.Pmem.pool_words then
    failwith "Mem.grab_region_poked: pool exhausted";
  (* keep the bump pointer chunk-aligned so chunk-id arithmetic holds *)
  let next = base + words in
  let aligned = (next - chunks_start + t.chunk_words - 1) / t.chunk_words * t.chunk_words + chunks_start in
  Pmem.poke t.pmem bump aligned;
  riv_of_root ~pool ~word:base

(* Root pointer to the detect announcement region (pool 0): poked at setup
   by Detect.create, peeked (from the persistent image) on reattach so the
   table survives crashes without any log replay. *)
let set_detect_root t riv =
  Pmem.poke t.pmem (Pmem.addr ~pool:0 ~word:detect_word) (Riv.to_word riv)

let detect_root t =
  Riv.of_word
    (Pmem.peek_persistent t.pmem (Pmem.addr ~pool:0 ~word:detect_word))

let root_alloc t ~pool ~words =
  let w = t.root_bump.(pool) in
  if w + words > chunks_start then failwith "Mem.root_alloc: root area full";
  t.root_bump.(pool) <- w + words;
  riv_of_root ~pool ~word:w

(* ---- coarse-grained chunk allocation ----------------------------------- *)

let chunk_id_of_base t base = ((base - chunks_start) / t.chunk_words) + 1

(* Allocate a fresh chunk from [pool] by CASing the bump pointer, then
   register it. Runs in fiber context. [log], when
   given, is called with the chunk id after the bump advance is durable
   and before the registry entry is written — the caller persists its
   provision log there, so at no instant is a chunk registered without a
   durable log naming it (a crash right after the bump leaves the region
   reserved-but-unregistered, and the logged recovery re-registers it
   deterministically: bases are a pure function of the id). *)
let rec allocate_chunk ?log t ~pool =
  let bump_addr = Pmem.addr ~pool ~word:bump_word in
  let base = read t bump_addr in
  let cfg = Pmem.config t.pmem in
  if base + t.chunk_words > cfg.Pmem.pool_words then
    failwith "Mem.allocate_chunk: pool exhausted";
  if cas t bump_addr ~expected:base ~desired:(base + t.chunk_words) then begin
    flush t bump_addr;
    fence t;
    let id = chunk_id_of_base t base in
    if id > max_chunks then failwith "Mem.allocate_chunk: registry full";
    (match log with Some f -> f id | None -> ());
    let reg = Pmem.addr ~pool ~word:(registry_start + id) in
    write t reg (base + 1);
    flush t reg;
    fence t;
    t.chunk_cache.(pool).(id) <- base;
    (id, base)
  end
  else allocate_chunk ?log t ~pool

(* Recovery helper: make sure a chunk a provision log names is actually
   registered (the owning thread may have crashed between logging and the
   registry persist). Idempotent; fiber context. The id was uniquely
   reserved by the crashed thread's bump CAS, so no other allocation can
   hold it. *)
let ensure_chunk_registered t ~pool ~chunk =
  let base = chunks_start + ((chunk - 1) * t.chunk_words) in
  let reg = Pmem.addr ~pool ~word:(registry_start + chunk) in
  if read t reg <> base + 1 then begin
    write t reg (base + 1);
    flush t reg;
    fence t
  end;
  t.chunk_cache.(pool).(chunk) <- base

let blocks_per_chunk t = t.chunk_words / t.block_words

(* ---- pool formatting (setup) ------------------------------------------ *)

let arena_head_ptr ~pool ~arena = riv_of_root ~pool ~word:(arena_heads + arena)
let arena_tail_ptr ~pool ~arena = riv_of_root ~pool ~word:(arena_tails + arena)

(* Carve an initial chunk per arena with pokes so that every free list has
   a head block before the first simulated operation. The magic word
   validates the pool header, so it is poked last, once the pool's arenas
   are carved: [reconnect] refuses a pool without it. *)
let format t =
  let cfg = Pmem.config t.pmem in
  for pool = 0 to cfg.Pmem.n_pools - 1 do
    Pmem.poke t.pmem (Pmem.addr ~pool ~word:bump_word) chunks_start;
    Pmem.poke t.pmem (Pmem.addr ~pool ~word:epoch_word) 1;
    for arena = 0 to t.n_arenas - 1 do
      (* Initial chunk for this arena, poked directly. *)
      let base = Pmem.peek t.pmem (Pmem.addr ~pool ~word:bump_word) in
      Pmem.poke t.pmem (Pmem.addr ~pool ~word:bump_word) (base + t.chunk_words);
      let id = chunk_id_of_base t base in
      Pmem.poke t.pmem (Pmem.addr ~pool ~word:(registry_start + id)) (base + 1);
      t.chunk_cache.(pool).(id) <- base;
      let n = blocks_per_chunk t in
      let block i = Riv.make ~pool ~chunk:id ~offset:(i * t.block_words) in
      for i = 0 to n - 1 do
        let b = block i in
        let next = if i = n - 1 then Riv.null else block (i + 1) in
        poke_ptr t b hdr_next next;
        poke_field t b hdr_epoch 1;
        poke_field t b hdr_kind kind_free
      done;
      poke_ptr t (arena_head_ptr ~pool ~arena) 0 (block 0);
      poke_ptr t (arena_tail_ptr ~pool ~arena) 0 (block (n - 1))
    done;
    Pmem.poke t.pmem (Pmem.addr ~pool ~word:magic_word) magic
  done;
  t.epoch <- 1

(* ---- crash recovery ---------------------------------------------------- *)

(* Reconnect after a failure: advance the failure-free epoch and drop the
   DRAM address cache. Everything else (log checks, free-list repair,
   structure repair) is deferred into normal operation, so this is O(pools)
   regardless of structure size. A pool whose magic word is wrong was never
   completely formatted: it is refused with [Invalid_argument]. *)
let reconnect t =
  for pool = 0 to n_pools t - 1 do
    if Pmem.peek t.pmem (Pmem.addr ~pool ~word:magic_word) <> magic then
      invalid_arg (Printf.sprintf "Mem.reconnect: pool %d has no valid magic word" pool)
  done;
  let a = Pmem.addr ~pool:0 ~word:epoch_word in
  let e = Pmem.peek t.pmem a + 1 in
  Pmem.poke t.pmem a e;
  t.epoch <- e;
  Array.iter (fun cache -> Array.fill cache 0 (Array.length cache) (-1)) t.chunk_cache

(* Chunk and block accounting comes from the persistent registry — the one
   source of truth that survives crashes (a DRAM counter drifts when a
   crash lands between the registry persist and the counter update). *)
let chunks_allocated t =
  let n = ref 0 in
  for pool = 0 to n_pools t - 1 do
    n := !n + List.length (persistent_chunks t ~pool)
  done;
  !n

let total_blocks t = chunks_allocated t * blocks_per_chunk t
