(** Simulated persistent memory: pools of words behind a cache model with
    explicit flush/fence persistence, NUMA topology, latency/bandwidth
    accounting and crash injection.

    Loads observe the volatile image; only flushed cache lines reach the
    persistent image, which is what survives {!crash}. *)

module Latency : sig
  type params = Latency.params = {
    cache_hit_ns : float;
    pmem_read_ns : float;
    read_service_ns : float;
    write_persist_ns : float;
    write_service_ns : float;
    fence_ns : float;
    cas_extra_ns : float;
    clean_flush_ns : float;
    remote_multiplier : float;
    jitter : float;
  }

  val default : params
  (** Optane-like timings from the paper's cited measurements. *)

  val uniform : params
  (** Flat 1 ns timings for functional tests. *)
end

type mode =
  | Striped  (** one logical pool, lines interleaved across NUMA nodes *)
  | Multi_pool  (** one pool per NUMA node; accesses have a definite home *)

type config = {
  numa_nodes : int;
  pool_words : int;
  n_pools : int;
  mode : mode;
  stripe_words : int;
  latency : Latency.params;
  cache_lines : int;
      (** per-thread timing-cache entries (direct-mapped, indexed by the
          line's low bits); a positive power of two. Each entry is a 16-bit
          tag, so a thread's timing cache costs [2 * cache_lines] bytes of
          host memory, installed on the thread's first access. *)
  seed : int;
}

val default_config : config

type pool

type counters = {
  mutable loads : int;
  mutable load_misses : int;
  mutable stores : int;
  mutable store_misses : int;
      (** stores (and CASes) that missed the timing cache — counted apart
          from [load_misses] *)
  mutable cas_ops : int;
  mutable cas_failures : int;
  mutable flushes : int;
  mutable dirty_flushes : int;
  mutable fences : int;
  mutable remote_accesses : int;
  mutable accesses : int;
}

type t

val create : config -> t
(** [Invalid_argument] unless [cache_lines] is a positive power of two, and
    when the timing cache's tags would not fit in 16 bits: [n_pools] times
    the pool's lines divided by [cache_lines] (rounded up) must be at most
    [0xFFFF], the one value left to mark an empty entry. The default
    geometry needs 256 tags.
    O(pages): every page of every pool starts as one shared all-zero page.
    Host memory then grows with the pages stored to (on their first store)
    plus one shadow line per dirty line, not with [pool_words]. *)

val line_words : int
(** Words per cache line (8 = 64 bytes). *)

(** {1 Addressing} *)

val addr : pool:int -> word:int -> Sim.Sched.addr
val pool_of : Sim.Sched.addr -> int
val word_of : Sim.Sched.addr -> int

val home_node : t -> Sim.Sched.addr -> int
(** NUMA node physically holding an address (mode-dependent). *)

val thread_node : t -> int -> int
(** NUMA node a thread id is pinned to (round-robin). *)

(** {1 Machine interface for the scheduler} *)

val machine : t -> Sim.Sched.machine

val port : t -> Sim.Sched.port
(** The port every simulated access to this memory is issued through (see
    [Sim.Sched.Port]): one per instance, so a run over it does no
    domain-local lookup per access. *)

val read_line : t -> Sim.Sched.addr -> int array -> int -> unit
(** [read_line t a dst pos] reads the aligned line at [a] into [dst.(pos)
    .. dst.(pos + line_words - 1)] with one simulated access, issued through
    {!port} from a fiber: one load, one timing-cache access, one hit or
    miss charged. Every word comes from the volatile image (dirty unflushed
    words included) at the access's atomicity point. The machine sees the
    access as a [read] of the line's first word. [Invalid_argument] if [a]
    is not line-aligned, the line leaves the pool, or [dst] has no room at
    [pos]. *)

(** {1 Crash model} *)

val crash : ?persist_line:(pool:int -> line:int -> bool) -> t -> unit
(** Power failure: decide which unflushed lines persist, drop the rest and
    rebuild the volatile image from the persistent one.

    [persist_line] is the one decision: it is asked once per dirty line, in
    ascending (pool, line) order, and decides whether that line reaches the
    persistent image; without it every dirty line is dropped (the strictest
    adversary). Any per-line answer yields a fence-consistent persisted
    state (a dirty line is precisely one written since its last flush), so
    adversarial campaigns can explore many distinct persisted states of one
    pre-crash execution deterministically.

    Visits only the dirty lines: O(d log d) for d dirty lines, whatever the
    pool size. *)

val dirty_line_count : t -> int
(** Number of lines currently written-but-unflushed — the set a crash
    decides over. O(1). *)

val clean_shutdown : t -> unit
(** Flush everything (unmapping a DAX file writes back all lines). O(dirty
    lines). *)

(** {1 Direct access — setup and verification only, no simulated timing} *)

val peek : t -> Sim.Sched.addr -> int

val peek_persistent : t -> Sim.Sched.addr -> int
(** The word as a crash would leave it: the shadow copy for a dirty line,
    the volatile word for a clean one. O(1). *)

val valid_addr : t -> Sim.Sched.addr -> bool
(** Whether the address names a mapped word (pool and offset in range) —
    lets audits follow pointers decoded from a torn persistent image
    without raising. *)

val poke : t -> Sim.Sched.addr -> int -> unit
(** Write-through store to both images. *)

(** {1 Introspection} *)

val counters : t -> counters
val reset_counters : t -> unit
val crash_count : t -> int
val config : t -> config
