(** UPSkipList configuration. The paper's evaluation used 256 keys per node
    and 32 levels; tests default to smaller nodes (scans cost simulated
    events), and the keys-per-node choice is benchmarked as an ablation. *)

type t = {
  keys_per_node : int;
      (** node capacity (1..512); 1 degenerates to Herlihy's list *)
  max_height : int;  (** number of skip-list levels (2..40) *)
  branching_p : float;  (** geometric tower-height parameter, in (0,1) *)
  recovery_budget : int;
      (** max incomplete-tower repairs per traversal after a crash
          (Section 4.4.1); an interrupted split needs no repair, and a
          claim that repairs nothing is not counted *)
}

val default : t
(** 16 keys/node, 20 levels, p = 0.5, budget 1. *)

val validate : t -> unit
(** Raises [Invalid_argument] on out-of-range fields, and on any layout
    whose key/value slots would straddle a cache line without documented
    padding (structurally impossible for the shipped header/slot sizes). *)

(** {1 Node layout constants}

    The layout is line-oriented: one 64-byte hot header line (epoch, the
    packed kind/height/tid word, lock, anchor key, level-0 and
    level-1 next pointers and their successor-key hints), then the
    key-fingerprint lines, then [keys_per_node] two-word key/value slots
    rounded up to whole lines, then the level-2 and up tower (up to
    [max_height]) in lines of three next pointers, their three hints and
    a copy of the node's anchor key. *)

val line_words : int
(** Words per cache line (mirrors [Pmem.line_words]). *)

val header_words : int
(** Words in the node header (one line). *)

val slot_words : int
(** Words per key/value slot (key and value are adjacent). *)

val tower_levels_per_line : int
(** Upper-tower levels per line: three next pointers, their three
    successor-key hints, then the anchor copy and one spare word. *)

val fps_per_word : int
(** Seven-bit key fingerprints packed into one fingerprint word. *)

val fp_words : t -> int
(** Words of a node's fingerprint region: [ceil (keys_per_node / 8)]
    fingerprint words rounded up to whole lines (one line up to 64 keys). *)

val pair_words : t -> int
(** Words of a node's key/value slots, rounded up to whole lines. *)

val node_words : t -> int
(** Words a node occupies (full [max_height] tower array); the block
    allocator's block size is derived from this. *)
