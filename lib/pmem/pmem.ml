(* Simulated persistent memory: pools of 64-bit words behind a CPU-cache
   model with explicit flush/fence persistence, a NUMA topology, and crash
   injection.

   Each pool has two images:
     - the volatile image: what loads observe (stores land here immediately
       — the cache-coherent view shared by all simulated threads);
     - the persistent image: what survives a crash. A store only reaches it
       when the cache line holding it is flushed.
   The two differ only on dirty lines (written since their last flush), so
   only those store the persistent image separately:
     - the volatile image is paged. A page is [page_words] data words followed
       by one shadow entry per line. Every page starts as the instance's
       shared all-zero page and gets its own array on its first store;
     - a clean line's persistent content is its volatile content. A line's
       first store after a flush copies the line into a shadow slot in
       [slab] first, and records the slot in the page's shadow entry (slot
       + 1; 0 = clean). A dirty flush frees the slot; a crash copies the
       slot back over every dropped line (a caller may keep any subset of
       them instead, modelling incidental evictions).
   So host memory follows the touched pages plus the dirty lines, [create]
   costs O(pages), and [crash] and [clean_shutdown] visit only the dirty
   lines.

   Addresses pack a pool id and a word index into one int; cache lines are
   8 words (64 bytes). A small direct-mapped per-thread cache decides
   hit/miss for *timing only* — correctness always reads the volatile
   image. Its tags are 16 bits: the slot is a line's low bits, and the tag
   holds only the (pool, line index) bits the slot drops, so a thread's
   cache costs 2 bytes per line. *)

module Latency = Latency

type mode = Striped | Multi_pool

let pool_shift = 40
let line_words = 8
let line_shift = 3  (* log2 line_words *)
let words_mask = (1 lsl pool_shift) - 1

(* A line id packs the pool above [line_bits] bits of line index, so ids
   sort in (pool, line) order. *)
let line_bits = pool_shift - line_shift
let line_mask = (1 lsl line_bits) - 1
let page_shift = 12
let page_words = 1 lsl page_shift
let page_mask = page_words - 1
let lines_per_page = page_words / line_words

type config = {
  numa_nodes : int;
  pool_words : int;
  n_pools : int;
  mode : mode;
  stripe_words : int;
  latency : Latency.params;
  cache_lines : int;  (* per-thread timing-cache entries; a power of two *)
  seed : int;
}

let default_config =
  {
    numa_nodes = 4;
    pool_words = 1 lsl 21;
    n_pools = 4;
    mode = Multi_pool;
    stripe_words = 1 lsl 18;  (* 2 MiB stripes, as in the testbed *)
    latency = Latency.default;
    cache_lines = 4096;
    seed = 42;
  }

type pool = {
  id : int;
  home_node : int;
  pages : int array array;
      (* page index -> [page_words] data words, then [lines_per_page] shadow
         entries; the instance's [zero_page] until the page's first store *)
}

type counters = {
  mutable loads : int;
  mutable load_misses : int;
  mutable stores : int;
  mutable store_misses : int;
  mutable cas_ops : int;
  mutable cas_failures : int;
  mutable flushes : int;
  mutable dirty_flushes : int;
  mutable fences : int;
  mutable remote_accesses : int;
  mutable accesses : int;
}

let fresh_counters () =
  {
    loads = 0;
    load_misses = 0;
    stores = 0;
    store_misses = 0;
    cas_ops = 0;
    cas_failures = 0;
    flushes = 0;
    dirty_flushes = 0;
    fences = 0;
    remote_accesses = 0;
    accesses = 0;
  }

type t = {
  config : config;
  pools : pool array;
  read_free_at : float array;  (* per NUMA node: controller read channel *)
  write_free_at : float array;  (* per NUMA node: controller write channel *)
  mutable caches : Bytes.t array;
      (* tid -> direct-mapped tags, 16 bits per slot ([no_tag] = empty),
         grown on demand ([Bytes.empty] = absent) *)
  rng : Sim.Rng.t;
  jitter_on : bool;  (* precomputed: config.latency.jitter <> 0.0 *)
  jitter_lo : float;  (* 1 - jitter *)
  jitter_span : float;  (* 2 * jitter *)
  counters : counters;
  mutable crash_count : int;
  (* Hot-path timing state lives in one-cell float arrays (flat storage):
     storing to a mutable float field of this mixed record would box on
     every operation. [now_cell]/[lat_cell] are shared with the scheduler
     as [machine.clock]/[machine.latency]. *)
  now_cell : float array;
  lat_cell : float array;
  last_now : float array;
  slot_mask : int;  (* cache_lines - 1: a line's slot is its low bits *)
  tag_shift : int;  (* log2 (line_words * cache_lines): word -> in-pool tag *)
  tags_per_pool : int;  (* in-pool tags: a line's tag is pool * this + in-pool tag *)
  pool_words : int;  (* config.pool_words, the bound every access checks *)
  zero_page : int array;  (* every untouched page; never written *)
  mutable slab : int array;
      (* shadow slot s = words [s * line_words, (s + 1) * line_words): the
         persistent content of a dirty line *)
  mutable slot_line : int array;  (* shadow slot -> line id *)
  mutable n_dirty : int;  (* slots [0, n_dirty) are in use *)
  port : Sim.Sched.port;  (* how accesses to this memory reach the run *)
}

let initial_slots = 64

(* The empty tag: every real tag is below it ([create] checks). *)
let no_tag = 0xFFFF

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let create (config : config) =
  let n = config.cache_lines in
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg
      (Printf.sprintf "Pmem.create: cache_lines must be a positive power of two: %d" n);
  let tag_shift = line_shift + log2 n in
  let tags_per_pool = ((Int.max 1 config.pool_words - 1) lsr tag_shift) + 1 in
  if config.n_pools * tags_per_pool > no_tag then
    invalid_arg
      (Printf.sprintf
         "Pmem.create: %d pools of %d words over %d cache lines need %d tags, \
          over 16 bits"
         config.n_pools config.pool_words n (config.n_pools * tags_per_pool));
  let zero_page = Array.make (page_words + lines_per_page) 0 in
  (* one page past the last word, so a flush of the line just past the end
     of the pool finds a (clean) shadow entry, as it always has *)
  let n_pages = (config.pool_words lsr page_shift) + 1 in
  let make_pool id =
    {
      id;
      home_node = id mod config.numa_nodes;
      pages = Array.make n_pages zero_page;
    }
  in
  let j = config.latency.Latency.jitter in
  {
    config;
    pools = Array.init config.n_pools make_pool;
    read_free_at = Array.make config.numa_nodes 0.0;
    write_free_at = Array.make config.numa_nodes 0.0;
    caches = [||];
    rng = Sim.Rng.create config.seed;
    jitter_on = j <> 0.0;
    jitter_lo = 1.0 -. j;
    jitter_span = 2.0 *. j;
    counters = fresh_counters ();
    crash_count = 0;
    now_cell = Array.make 1 0.0;
    lat_cell = Array.make 1 0.0;
    last_now = Array.make 1 0.0;
    slot_mask = n - 1;
    tag_shift;
    tags_per_pool;
    pool_words = config.pool_words;
    zero_page;
    slab = Array.make (initial_slots * line_words) 0;
    slot_line = Array.make initial_slots 0;
    n_dirty = 0;
    port = Sim.Sched.Port.create ();
  }

let[@inline] addr ~pool ~word =
  if word < 0 then invalid_arg "Pmem.addr: negative word";
  (pool lsl pool_shift) lor word

let pool_of a = a lsr pool_shift
let word_of a = a land words_mask

let bad_pool () = invalid_arg "Pmem: bad pool id"

(* Inlined; [pool_of] is never negative, so the bound checked is the only
   one. *)
let[@inline] get_pool t a =
  let p = pool_of a in
  if p >= Array.length t.pools then bad_pool ();
  Array.unsafe_get t.pools p

(* NUMA node that physically holds [a]. *)
let home_node t a =
  let p = get_pool t a in
  match t.config.mode with
  | Multi_pool -> p.home_node
  | Striped -> word_of a / t.config.stripe_words mod t.config.numa_nodes

let thread_node t tid = tid mod t.config.numa_nodes

(* ---- timing model ---------------------------------------------------- *)

(* Store [base] — with multiplicative jitter when enabled — into the latency
   cell the scheduler reads. [jitter_on]/[jitter_lo]/[jitter_span] are fixed
   at [create] so the jitter-off case costs one boolean test and never draws
   from the RNG; writing a flat float cell instead of returning keeps the
   result unboxed. Inlined, so [base] is never boxed as an argument, and the
   draw is [Sim.Rng.float] spelled out over [Sim.Rng.next] (an int, so the
   cross-module call returns no boxed float). Multiplying by 2^-62 gives
   exactly the quotient by 2^62, without a division. *)
let[@inline] put_jittered t base =
  Array.unsafe_set t.lat_cell 0
    (if not t.jitter_on then base
     else
       let u = float_of_int (Sim.Rng.next t.rng) *. 0x1p-62 in
       base *. (t.jitter_lo +. (t.jitter_span *. u)))

(* Inlined, as is [queue_delay]: a float returned from a call is boxed. *)
let[@inline] numa_factor t ~tid a =
  if home_node t a = thread_node t tid then 1.0
  else begin
    t.counters.remote_accesses <- t.counters.remote_accesses + 1;
    t.config.latency.remote_multiplier
  end

external get_tag : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set_tag : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

let fill_empty tags = Bytes.fill tags 0 (Bytes.length tags) '\xff'

(* Cold path of [cache_access]: grow the tid-indexed table if needed and
   install a fresh, empty tag array for this thread. *)
let install_cache t tid =
  if tid >= Array.length t.caches then begin
    let n = Array.length t.caches in
    let grown = Array.make (Int.max (tid + 1) (Int.max 16 (2 * n))) Bytes.empty in
    Array.blit t.caches 0 grown 0 n;
    t.caches <- grown
  end;
  let tags = Bytes.create (2 * t.config.cache_lines) in
  fill_empty tags;
  t.caches.(tid) <- tags;
  tags

(* Per-thread direct-mapped cache, timing only. Returns true on hit and
   installs the line otherwise. Runs on every simulated access, so the tag
   array comes from a flat tid-indexed array rather than a hash table.
   [a] is in range: its pool and word were checked. Inlined; an absent
   array is recognised by identity, since [Bytes.length] would load the
   header word of an 8 KB array just to test it. *)
let[@inline] cache_access t ~tid a =
  let tags =
    if tid < Array.length t.caches then begin
      let tags = t.caches.(tid) in
      if tags != Bytes.empty then tags else install_cache t tid
    end
    else install_cache t tid
  in
  let w = word_of a in
  (* The slot is the line's low bits: two lines share a slot exactly when
     they agree modulo [cache_lines], the usual direct-mapped aliasing. The
     tag is the rest of the line id, renumbered densely: pool < n_pools and
     the in-pool part < tags_per_pool, so it is below [no_tag]. The byte
     offset [2 * slot] is below [Bytes.length tags] by construction, so the
     bounds check is elided. *)
  let o = ((w lsr line_shift) land t.slot_mask) lsl 1 in
  let tag = (pool_of a * t.tags_per_pool) + (w lsr t.tag_shift) in
  if get_tag tags o = tag then true
  else begin
    set_tag tags o tag;
    false
  end

(* Empty every line of every thread's timing cache: a restarted machine
   starts cold ([crash] and [clean_shutdown]). *)
let invalidate_all_caches t = Array.iter fill_empty t.caches

(* [node] is a NUMA node id, always < numa_nodes = Array.length free_at. *)
let[@inline] queue_delay free_at node ~now ~service =
  let free = Array.unsafe_get free_at node in
  let start = if free > now then free else now in
  Array.unsafe_set free_at node (start +. service);
  start -. now

(* Shared load/store timing, written into the latency cell: stores complete
   into the cache, and a store miss still fetches the line through the read
   channel — only the miss counter differs. The hit is inlined into every
   access; the miss is not. *)
let access_miss t ~tid ~store a =
  let lat = t.config.latency in
  let c = t.counters in
  if store then begin
    c.store_misses <- c.store_misses + 1;
    Obs.bump ~tid Obs.id_store_miss
  end
  else begin
    c.load_misses <- c.load_misses + 1;
    Obs.bump ~tid Obs.id_load_miss
  end;
  let now = Array.unsafe_get t.now_cell 0 in
  let node = home_node t a in
  let q = queue_delay t.read_free_at node ~now ~service:lat.read_service_ns in
  put_jittered t ((lat.pmem_read_ns *. numa_factor t ~tid a) +. q)

let[@inline] put_access_latency t ~tid ~store a =
  if cache_access t ~tid a then put_jittered t t.config.latency.cache_hit_ns
  else access_miss t ~tid ~store a

(* ---- functional operations ------------------------------------------- *)

(* The same error an out-of-range index into a full-size image raised. *)
let check_word t w = if w >= t.pool_words then invalid_arg "index out of bounds"

(* Volatile word [w] of [p], [w] already checked: two loads. *)
let volatile p w =
  Array.unsafe_get (Array.unsafe_get p.pages (w lsr page_shift)) (w land page_mask)

let load t p w =
  check_word t w;
  volatile p w

(* Index of the shadow entry of the line holding page offset [o]. *)
let shadow_entry o = page_words + (o lsr line_shift)

(* Page [pi] of [p], given its own array if it is still the zero page. *)
let writable_page t p pi =
  let page = Array.unsafe_get p.pages pi in
  if page != t.zero_page then page
  else begin
    let page = Array.make (page_words + lines_per_page) 0 in
    p.pages.(pi) <- page;
    page
  end

(* Index in [slab] of word [w]'s copy in shadow entry value [s]. *)
let slab_word s w = ((s - 1) * line_words) + (w land (line_words - 1))

(* Page and shadow-entry index of a line id. *)
let page_of_line t id =
  t.pools.(id lsr line_bits).pages.((id land line_mask) lsr (page_shift - line_shift))

let entry_of_line id = page_words + (id land (lines_per_page - 1))

(* A clean line's first store: copy the line, still holding its persistent
   content, into a fresh shadow slot. *)
let shadow t p page o w =
  if t.n_dirty = Array.length t.slot_line then begin
    t.slab <- Array.append t.slab (Array.make (Array.length t.slab) 0);
    t.slot_line <- Array.append t.slot_line (Array.make (Array.length t.slot_line) 0)
  end;
  let s = t.n_dirty in
  t.n_dirty <- s + 1;
  Array.blit page (o land lnot (line_words - 1)) t.slab (s * line_words) line_words;
  t.slot_line.(s) <- (p.id lsl line_bits) lor (w lsr line_shift);
  page.(shadow_entry o) <- s + 1

(* Store [v] into in-range word [w] of [p], shadowing its line first if it
   was clean. *)
let store t p w v =
  let page = writable_page t p (w lsr page_shift) in
  let o = w land page_mask in
  if Array.unsafe_get page (shadow_entry o) = 0 then shadow t p page o w;
  Array.unsafe_set page o v

(* A dirty line was flushed: free the shadow slot recorded in [page.(e)] by
   moving the last slot into it, so slots in use stay dense. *)
let release t page e =
  let s = page.(e) - 1 in
  page.(e) <- 0;
  let last = t.n_dirty - 1 in
  t.n_dirty <- last;
  if s <> last then begin
    Array.blit t.slab (last * line_words) t.slab (s * line_words) line_words;
    let id = t.slot_line.(last) in
    t.slot_line.(s) <- id;
    (page_of_line t id).(entry_of_line id) <- s + 1
  end

(* Each Sched.run restarts the virtual clock at zero; the bandwidth queues
   hold absolute times, so a clock regression marks a new run and the
   controller backlog is cleared. Called at the top of every operation
   (rather than from wrapper closures in [machine]) to keep the per-op call
   chain flat. "Now" comes from the clock cell the scheduler maintains.
   Inlined; the reset is not. *)
let reset_queues t =
  Array.fill t.read_free_at 0 (Array.length t.read_free_at) 0.0;
  Array.fill t.write_free_at 0 (Array.length t.write_free_at) 0.0

let[@inline] check_new_run t =
  let now = Array.unsafe_get t.now_cell 0 in
  if now < Array.unsafe_get t.last_now 0 then reset_queues t;
  Array.unsafe_set t.last_now 0 now

let read t ~tid a =
  check_new_run t;
  t.counters.loads <- t.counters.loads + 1;
  t.counters.accesses <- t.counters.accesses + 1;
  let p = get_pool t a in
  let w = word_of a in
  check_word t w;
  put_access_latency t ~tid ~store:false a;
  volatile p w

let write t ~tid a v =
  check_new_run t;
  t.counters.stores <- t.counters.stores + 1;
  t.counters.accesses <- t.counters.accesses + 1;
  let p = get_pool t a in
  let w = word_of a in
  check_word t w;
  store t p w v;
  put_access_latency t ~tid ~store:true a

let cas t ~tid a expected desired =
  check_new_run t;
  t.counters.cas_ops <- t.counters.cas_ops + 1;
  t.counters.accesses <- t.counters.accesses + 1;
  let p = get_pool t a in
  let w = word_of a in
  check_word t w;
  put_access_latency t ~tid ~store:true a;
  Array.unsafe_set t.lat_cell 0
    (Array.unsafe_get t.lat_cell 0 +. t.config.latency.cas_extra_ns);
  let ok =
    if volatile p w = expected then begin
      store t p w desired;
      true
    end
    else begin
      t.counters.cas_failures <- t.counters.cas_failures + 1;
      false
    end
  in
  Obs.bump ~tid Obs.id_pmem_cas;
  if not ok then Obs.bump ~tid Obs.id_pmem_cas_fail;
  if Obs.Trace.enabled () then
    Obs.Trace.emit
      ~ts:(Array.unsafe_get t.now_cell 0)
      ~tid
      ~kind:(if ok then Obs.id_pmem_cas else Obs.id_pmem_cas_fail)
      ~arg:a
      ~farg:(Array.unsafe_get t.lat_cell 0);
  ok

(* Write the line containing [a] back to the persistence domain. *)
let flush t ~tid a =
  check_new_run t;
  t.counters.flushes <- t.counters.flushes + 1;
  let p = get_pool t a in
  let w = word_of a in
  let lat = t.config.latency in
  (* the line just past the end of the pool flushes as a clean one *)
  if w lsr line_shift > t.pool_words lsr line_shift then
    invalid_arg "index out of bounds";
  let page = Array.unsafe_get p.pages (w lsr page_shift) in
  let e = shadow_entry (w land page_mask) in
  let dirty = Array.unsafe_get page e <> 0 in
  if not dirty then put_jittered t lat.clean_flush_ns
  else begin
    t.counters.dirty_flushes <- t.counters.dirty_flushes + 1;
    release t page e;
    let now = Array.unsafe_get t.now_cell 0 in
    let node = home_node t a in
    let q = queue_delay t.write_free_at node ~now ~service:lat.write_service_ns in
    put_jittered t ((lat.write_persist_ns *. numa_factor t ~tid a) +. q)
  end;
  Obs.bump ~tid Obs.id_flush;
  if dirty then Obs.bump ~tid Obs.id_dirty_flush;
  if Obs.Trace.enabled () then
    Obs.Trace.emit
      ~ts:(Array.unsafe_get t.now_cell 0)
      ~tid
      ~kind:(if dirty then Obs.id_dirty_flush else Obs.id_flush)
      ~arg:a
      ~farg:(Array.unsafe_get t.lat_cell 0)

let fence t ~tid =
  check_new_run t;
  t.counters.fences <- t.counters.fences + 1;
  put_jittered t t.config.latency.fence_ns;
  Obs.bump ~tid Obs.id_fence;
  if Obs.Trace.enabled () then
    Obs.Trace.emit
      ~ts:(Array.unsafe_get t.now_cell 0)
      ~tid ~kind:Obs.id_fence ~arg:0
      ~farg:(Array.unsafe_get t.lat_cell 0)

(* The ops already handle run-restart detection themselves, so the machine
   record's closures only supply [t]. Each has exactly the arity the
   scheduler calls it with: a partial application ([read t]) would reach the
   op through an extra currying hop on every call. The clock and latency
   cells are shared with the scheduler directly. *)
let machine t : Sim.Sched.machine =
  {
    read = (fun ~tid a -> read t ~tid a);
    write = (fun ~tid a v -> write t ~tid a v);
    cas = (fun ~tid a expected desired -> cas t ~tid a expected desired);
    flush = (fun ~tid a -> flush t ~tid a);
    fence = (fun ~tid -> fence t ~tid);
    clock = t.now_cell;
    latency = t.lat_cell;
  }

let port t = t.port

(* Read the aligned line at [a] into [dst.(pos) .. dst.(pos + line_words -
   1)] as one access: the line's first word is read through the port,
   which counts one load and one timing-cache access and charges its hit
   or miss, and the other words are copied from the volatile image at the
   same instant, before that read, with no fiber switch in between. Fiber
   context only. *)
let read_line t a dst pos =
  let p = get_pool t a in
  let w = word_of a in
  if w land (line_words - 1) <> 0 then invalid_arg "Pmem.read_line: unaligned address";
  check_word t (w + line_words - 1);
  if pos < 0 || pos > Array.length dst - line_words then
    invalid_arg "Pmem.read_line: destination too short";
  (* a line never crosses a page: pages are whole lines *)
  let page = Array.unsafe_get p.pages (w lsr page_shift) in
  let o = w land page_mask in
  for i = 1 to line_words - 1 do
    Array.unsafe_set dst (pos + i) (Array.unsafe_get page (o + i))
  done;
  Array.unsafe_set dst pos (Sim.Sched.Port.read t.port a)

(* ---- crash and recovery ---------------------------------------------- *)

(* Power failure: dirty lines are lost unless the (simulated) hardware
   happened to evict them first. The volatile image is then rebuilt from the
   persistent one, as a restarting process would see.

   A dirty line is exactly a line written since its last flush, so every
   subset of the dirty set is a fence-consistent persisted state: anything
   program order forced to persist first was already flushed and is no
   longer dirty. [persist_line] decides the subset per line, which is how
   fault-injection campaigns explore many distinct persisted states from
   one pre-crash execution; without it every dirty line is dropped.

   Only the dirty lines are visited, in ascending (pool, line) order — the
   order [persist_line] is consulted in. A kept line already holds its
   content in the volatile image; every other one gets its shadow copy
   back. *)
let crash ?(persist_line = fun ~pool:_ ~line:_ -> false) t =
  let ids = Array.sub t.slot_line 0 t.n_dirty in
  Array.sort Int.compare ids;
  Array.iter
    (fun id ->
      let page = page_of_line t id in
      let e = entry_of_line id in
      let line = id land line_mask in
      if not (persist_line ~pool:(id lsr line_bits) ~line) then
        Array.blit t.slab
          ((page.(e) - 1) * line_words)
          page
          ((line land (lines_per_page - 1)) * line_words)
          line_words;
      page.(e) <- 0)
    ids;
  t.n_dirty <- 0;
  invalidate_all_caches t;
  reset_queues t;
  t.crash_count <- t.crash_count + 1

(* Lines written since their last flush — the candidates a crash decides
   over (diagnostics / campaign reporting). *)
let dirty_line_count t = t.n_dirty

(* Clean shutdown: everything reaches the persistence domain (the kernel
   flushes caches when unmapping a DAX file). *)
let clean_shutdown t =
  for s = 0 to t.n_dirty - 1 do
    let id = t.slot_line.(s) in
    (page_of_line t id).(entry_of_line id) <- 0
  done;
  t.n_dirty <- 0;
  invalidate_all_caches t

(* ---- direct access (setup / verification, no timing) ----------------- *)

let peek t a = load t (get_pool t a) (word_of a)

let peek_persistent t a =
  let p = get_pool t a in
  let w = word_of a in
  check_word t w;
  let page = p.pages.(w lsr page_shift) in
  let o = w land page_mask in
  let s = page.(shadow_entry o) in
  if s = 0 then page.(o) else t.slab.(slab_word s w)

(* Whether [a] names a mapped word — audits use this to follow pointers
   decoded from a possibly-garbage persistent image without raising. *)
let valid_addr t a =
  let p = pool_of a in
  p >= 0
  && p < Array.length t.pools
  && word_of a < t.pool_words

(* Write-through poke: updates both images, used for initialisation. A
   zero poked into an untouched page is already there. *)
let poke t a v =
  let p = get_pool t a in
  let w = word_of a in
  check_word t w;
  let pi = w lsr page_shift in
  if v <> 0 || p.pages.(pi) != t.zero_page then begin
    let page = writable_page t p pi in
    let o = w land page_mask in
    page.(o) <- v;
    let s = page.(shadow_entry o) in
    if s <> 0 then t.slab.(slab_word s w) <- v
  end

let counters t = t.counters
let crash_count t = t.crash_count
let config t = t.config

let reset_counters t =
  let c = t.counters in
  c.loads <- 0;
  c.load_misses <- 0;
  c.stores <- 0;
  c.store_misses <- 0;
  c.cas_ops <- 0;
  c.cas_failures <- 0;
  c.flushes <- 0;
  c.dirty_flushes <- 0;
  c.fences <- 0;
  c.remote_accesses <- 0;
  c.accesses <- 0
