(** Uniform key-value interface over the three evaluated structures plus
    fixture construction (simulated machine + memory manager + structure).

    Operation closures run in fiber context; [reconnect] is the host-side
    part of recovery (epoch / run-id bump), [recover] the structure's timed
    post-crash work. *)

type t = {
  name : string;
  upsert : tid:int -> int -> int -> int option;
  search : tid:int -> int -> int option;
  remove : tid:int -> int -> int option;
  range : tid:int -> lo:int -> hi:int -> (int * int) list;
  recover : tid:int -> unit;
  reconnect : unit -> unit;
  to_alist : unit -> (int * int) list;
  audit : unit -> string list;
      (** persistent-heap invariant violations, host-side peeks at the
          persistent image (empty = clean); structures without a persistent
          auditor return [] *)
  corrupt : string -> bool;
      (** test-only fault injection for harness self-validation (see
          {!Upskiplist.Skiplist.corrupt}); [false] = not applicable *)
  detect : Detect.t option;
      (** per-client announcement table for detectable ops ({!d_upsert}
          and friends); present iff built with [?detect_clients] *)
  pmem : Pmem.t;
  mem : Memory.Mem.t;
  pools : int;
}

type sys = {
  mode : Pmem.mode;
  latency : Pmem.Latency.params;
  numa_nodes : int;
  pool_words : int;  (** per pool; the striped pool gets [numa_nodes ×] this *)
  seed : int;
  max_threads : int;
}

val default_sys : sys
(** Multi-pool, Optane-like latency, 4 nodes, 2^21 words per pool. *)

val make_pmem : sys -> Pmem.t
(** The fixture's machine: 4096-line timing caches, and in striped mode
    512-word stripes (scaled down with the simulated dataset, see kv.ml). *)

val machine : t -> Sim.Sched.machine

val make_upskiplist :
  ?cfg:Upskiplist.Config.t -> ?n_arenas:int -> ?detect_clients:int -> sys -> t
val make_bztree :
  ?leaf_capacity:int ->
  ?fanout:int ->
  n_descriptors:int ->
  ?detect_clients:int ->
  sys ->
  t
val make_pmdk_list : ?max_height:int -> ?detect_clients:int -> sys -> t

(** {1 Spellings}

    The one table per vocabulary behind replay specs and the CLI — the
    only places a name is parsed; everything past them holds the typed
    value. Parsing is case-insensitive; an unknown name is an [Error]
    listing the canonical choices. [*_name] gives the canonical
    spelling. *)

type structure = Upskiplist | Bztree | Pmdk

val structure_of_string : string -> (structure, string) result
(** [upskiplist]/[ups], [bztree]/[bz], [pmdk]/[lock]. *)

val structure_name : structure -> string

val mode_of_string : string -> (Pmem.mode, string) result
(** [striped] ({!Pmem.Striped}), [numa]/[multi] ({!Pmem.Multi_pool}). *)

val mode_name : Pmem.mode -> string

(** A named latency model: the only latencies a replay spec or the CLI can
    select, so every one has a spelling. *)
type latency = Uniform | Optane

val latency_of_string : string -> (latency, string) result
(** [uniform], [optane]. *)

val latency_name : latency -> string

val latency_params : latency -> Pmem.Latency.params
(** [Uniform] is {!Pmem.Latency.uniform}, [Optane] {!Pmem.Latency.default}. *)

val default_descriptors : int
(** 16 384: BzTree's descriptor pool in {!make_named} and the fault
    campaigns' default spec. *)

val make_named :
  structure ->
  ?cfg:Upskiplist.Config.t ->
  ?n_descriptors:int ->
  ?detect_clients:int ->
  sys ->
  t
(** Build a fixture of [structure]: UPSkipList tuned by [?cfg] (default
    {!Upskiplist.Config.default}), BzTree with an [?n_descriptors]-entry
    descriptor pool (default {!default_descriptors}); each
    is ignored by the other structures. [?detect_clients] additionally
    formats a {!Detect} announcement table of that many client slots in
    the fixture's pool 0. *)

(** {1 Detectable operations}

    Announce → execute → resolve wrappers over the structure ops, built on
    the fixture's {!Detect} table (raise [Invalid_argument] without one).
    The announce costs the op one extra flush + fence; the resolve one
    flush, whose fence the caller may defer into a group commit with
    [~fence:false]. *)

val d_upsert :
  t -> tid:int -> client:int -> seq:int -> ?fence:bool -> int -> int -> int option

val d_remove :
  t -> tid:int -> client:int -> seq:int -> ?fence:bool -> int -> int option

val d_recover : t -> tid:int -> int
(** Recovery resolve pass ({!Detect.recover_resolve}) probing through the
    structure's own search; run after [recover], before replay decisions.
    Idempotent. Returns the slots decided. *)

val d_decide : t -> client:int -> seq:int -> Detect.decision
(** Host-side replay verdict for (client, seq). *)
