(** UPSkipList: a recoverable, PMEM-resident lock-free skip list with
    multi-key nodes and recoverable concurrent node splits (paper Ch. 4).

    Operations must run inside a simulated thread (a fiber under
    {!Sim.Sched.run}); [tid] identifies the thread and must be stable
    across failure-free epochs (the allocation log is per-[tid]).

    Keys are integers in [(0, max_int)]; values are nonzero integers
    (0 is the tombstone sentinel). All operations are strictly
    linearizable across crashes: after {!Pmem.crash} plus
    {!Memory.Mem.reconnect}, every acknowledged operation's effect is
    preserved and in-flight operations either took effect before the crash
    or not at all. *)

type t

val create :
  mem:Memory.Mem.t -> cfg:Config.t -> max_threads:int -> seed:int -> t
(** [create ~mem ~cfg ~max_threads ~seed] allocates head/tail sentinels in
    [mem]'s root area (host-side setup, no simulated cost). The memory
    manager's block size must be at least {!required_block_words}[ cfg],
    and [max_threads] must fit the split lock's 16-bit reader count
    ([Invalid_argument] otherwise). *)

val required_block_words : Config.t -> int
(** Allocator block size needed to hold one full-height node of this
    configuration, rounded up to an odd number of cache lines. *)

(** {1 Operations (fiber context)} *)

val upsert : t -> tid:int -> int -> int -> int option
(** Insert or update; returns the previous value if the key was present
    (paper Function 13). Lock-free for fresh inserts; node splits are
    deadlock-free. *)

val search : t -> tid:int -> int -> int option
(** Wait-free lookup (Function 9), validated against the level-0
    successor of the node it ends in, which every split changes, in place
    of the paper's per-node split counter. *)

val remove : t -> tid:int -> int -> int option
(** Tombstoning removal (Section 4.6); returns the removed value. The
    node keeps the key's slot: nodes are never unlinked or freed. *)

val mem_key : t -> tid:int -> int -> bool

val range : t -> tid:int -> lo:int -> hi:int -> (int * int) list
(** All live pairs with [lo <= key <= hi], sorted, and strictly
    linearizable: the pairs all held at one instant inside the call (the
    paper's Ch. 7 follow-up). One collect along the bottom level records
    each visited node's lock word and level-0 next word; a validation pass
    re-reads them and rescans from the start if any changed.
    Obstruction-free: it completes whenever the visited nodes stay
    unwritten for one collect and validation. *)

(** {1 Host-side inspection (no simulated cost)} *)

val to_alist : t -> (int * int) list
(** Live pairs from the volatile image, sorted by key. *)

val node_count : t -> int
(** Allocator blocks linked into the bottom level (sentinels excluded). *)

val recover : t -> tid:int -> unit
(** Post-crash structure pass (fiber context, after
    {!Memory.Mem.reconnect}): recomputes the volatile top level from the
    head's tower. Every other repair is deferred to the traversals that
    meet a node from an older failure-free epoch. *)

val top_level : t -> int
(** The volatile top level: no head level above it is non-empty, and
    searches start there. *)

val check_invariants : t -> string list
(** Structural-invariant violations (empty = healthy): bottom-level
    ordering, internal-key bounds, level-sublist property, no key held
    twice in one node, every key of a node whose fingerprint line is
    confirmed in the current epoch carrying its fingerprint, every
    successor-key hint at most its successor's anchor, every tower line
    below a node's height holding the node's anchor, and no non-empty
    head level above {!top_level}. Nodes awaiting lazy post-crash repair
    can legitimately report violations until they are traversed. *)

val audit_persistent : t -> string list
(** Persistent-heap audit: what a power failure right now would leave
    behind, checked structurally over the {e persistent} image — bottom
    level reaches the tail with strictly increasing keys through node-kind
    blocks, non-null tower pointers target live nodes, every successor-key
    hint is at most its successor's anchor, every tower line below a
    node's height holds the node's anchor, and the allocator
    accounts for every block of every registered chunk (reachable, on a
    free list, or excused by an allocation/provision log — no leaks, no
    dangling references). Empty list = clean. Lazy-repair states (torn
    tower builds, log-covered blocks) are not violations. *)

val corrupt : t -> string -> bool
(** Test-only fault injection for harness self-validation: ["lose_key"]
    silently tombstones one committed value (a broken recovery the
    linearizability checker must catch); ["skip_fp_repair"] clears one
    live key's fingerprint and marks its node's line confirmed, the state
    a skipped miss-path repair leaves (lookups miss the key: the checker
    and {!check_invariants} must catch it); ["raise_hint"] lifts one
    level-0 hint above its successor's anchor (for the persistent-heap
    auditor); ["dangle"]
    bends a tower pointer at a free block (the auditor must catch it);
    ["stale_tower_anchor"] lowers one level-2 anchor copy by one, with the
    head's level-2 hint (both checkers must catch it, and a lookup routed
    by it misses). Returns
    [false] if the mutation is inapplicable (unknown name, empty list). *)

(** {1 Accessors} *)

val config : t -> Config.t
val mem : t -> Memory.Mem.t
val head : t -> Memory.Riv.t
val tail : t -> Memory.Riv.t
