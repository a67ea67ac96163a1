(** Persistent multi-word compare-and-swap (Wang et al.), the substrate
    BzTree builds on: descriptors, helping, dirty-bit reads and sequential
    descriptor-pool recovery.

    Values handled by {!mwcas} and {!read} must lie in [\[0, 2^60)]; the
    two bits above carry the descriptor-reference and dirty marks. *)

type t

val desc_words : int
(** Words per descriptor: a pool of [n] takes [n * desc_words] words plus
    one line. *)

val create_poked : mem:Memory.Mem.t -> pool:int -> n_descriptors:int -> t
(** Reserve and initialise the descriptor pool (setup-time pokes). *)

val mwcas : t -> (Sim.Sched.addr * int * int) array -> bool
(** [mwcas t [| (addr, expected, desired); ... |]] atomically swaps every
    word or none (1-4 entries). Fiber context. Raises [Invalid_argument]
    on bad entry counts or out-of-domain values. *)

val read : t -> Sim.Sched.addr -> int
(** Mark-aware read: helps any in-flight operation on the word to
    completion and clears the dirty bit (flushing on the writer's behalf).
    The only safe way to observe a PMwCAS-governed word. Fiber context. *)

val recover : t -> unit
(** Post-crash sequential scan of the whole descriptor pool, rolling
    interrupted operations forward or back. Cost is proportional to
    [n_descriptors] — the effect measured in the paper's Table 5.4.
    Fiber context (so the harness can time it). *)

(** {1 Mark bits} *)

val is_desc_ref : int -> bool
val is_dirty : int -> bool
val value_mask : int

(** {1 Introspection} *)

val allocations : t -> int
(** Descriptors allocated so far (host-side statistic). *)

val n_descriptors : t -> int
