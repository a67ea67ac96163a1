(* UPSkipList build-time parameters.

   The paper's best-performing configuration stores 256 key-value pairs per
   node with 32 levels; tests and simulated benchmarks default to smaller
   nodes so that key scans stay cheap in simulated events, and the
   keys-per-node sweep is itself an ablation (bench `ablations`). *)

type t = {
  keys_per_node : int;  (* capacity of a node's unsorted key array *)
  max_height : int;  (* number of skip-list levels *)
  branching_p : float;  (* geometric parameter for tower heights *)
  recovery_budget : int;
      (* incomplete-insert recoveries a single traversal may perform
         (Section 4.4.1: k, as low as 1, keeps post-crash throughput up) *)
  reclaim_empty_nodes : bool;
      (* the paper's follow-up for removals (Section 4.6): physically
         unlink all-tombstone nodes and reclaim them through epoch-based
         reclamation *)
  short_cutoff : int;
      (* height-truncated node blocks (verlib-style short/tall pools):
         nodes of height <= short_cutoff allocate from a block class that
         only reserves short_cutoff next-pointer words instead of
         max_height. 0 disables truncation (every node gets a full-height
         tall block — the pre-PR6 footprint) *)
  finger_cache : bool;
      (* per-fiber search fingers: traversals may resume from the
         predecessor towers remembered by the previous traversal on the
         same fiber, validated against the failure-free epoch. (The
         Foresight part of the layout is the successor-key hint beside
         every next pointer, which is always on; see Node.) Ignored
         (forced off) when reclaim_empty_nodes is set: physical removal
         can retire a remembered node, and the finger's epoch check only
         witnesses crashes, not reclamation. *)
}

let default =
  {
    keys_per_node = 16;
    max_height = 24;
    branching_p = 0.5;
    recovery_budget = 1;
    reclaim_empty_nodes = false;
    (* p = 0.5 gives P(height <= 4) ~ 94%: the short class covers almost
       every node while tall towers keep their full arrays *)
    short_cutoff = 4;
    finger_cache = true;
  }

(* The node layout is line-oriented: the hot header (epoch, the packed
   kind/height/splitCount word, lock, anchor key, level-0 and level-1 next
   pointers and their successor-key hints) fills exactly one 64-byte line,
   the key fingerprints fill whole lines of their own, key/value pairs are
   interleaved two words per slot so a slot's key and value always share a
   line, and the upper tower is laid out in lines of four next pointers
   followed by their four hints. These constants mirror Pmem.line_words = 8;
   Node.layout depends on them. *)
let line_words = 8
let header_words = 8
let slot_words = 2

(* Upper-tower levels per line: four pointers, then their four hints. *)
let tower_levels_per_line = 4

(* Seven-bit key fingerprints, eight to a word (56 of its 63 bits). *)
let fps_per_word = 8

let round_to_line w = (w + line_words - 1) / line_words * line_words

(* Words of the fingerprint region: ceil(K / 8) fingerprint words, rounded
   up to whole lines so the region never shares a line with the pairs. *)
let fp_words t = round_to_line ((t.keys_per_node + fps_per_word - 1) / fps_per_word)

let validate t =
  if t.keys_per_node < 1 then invalid_arg "Config: keys_per_node < 1";
  if t.max_height < 2 || t.max_height > 40 then invalid_arg "Config: max_height";
  if t.branching_p <= 0.0 || t.branching_p >= 1.0 then
    invalid_arg "Config: branching_p";
  if t.recovery_budget < 0 then invalid_arg "Config: recovery_budget";
  if t.short_cutoff < 0 || t.short_cutoff > t.max_height then
    invalid_arg "Config: short_cutoff outside [0, max_height]";
  (* Line-straddle guard: the pair region starts on a line boundary and
     slots are a power-of-two fraction of a line, so no slot's key/value
     pair may straddle two lines for any keys_per_node. If a layout edit
     breaks either property, every keys_per_node whose final slot crosses
     a line must document its padding — reject loudly instead. *)
  if header_words mod line_words <> 0 then
    invalid_arg "Config: pair region not line-aligned (undocumented padding)";
  if line_words mod slot_words <> 0 then
    invalid_arg "Config: key/value slot straddles a line (undocumented padding)"

(* Words of the pair region, rounded up to whole lines so the upper tower
   starts on a line boundary (a pointer and its hint must share a line). *)
let pair_words t = round_to_line (slot_words * t.keys_per_node)

(* Words of the upper tower of a class whose towers cap at [next_cap]
   levels: levels 0 and 1 live in the header, the rest in whole lines of
   [tower_levels_per_line] pointer/hint pairs. *)
let tower_words ~next_cap =
  let upper = max 0 (next_cap - 2) in
  line_words * ((upper + tower_levels_per_line - 1) / tower_levels_per_line)

(* Words a node occupies: the one-line header, the fingerprint lines, the
   pair lines and the upper-tower lines of the class ([next_cap]; levels 0
   and 1 live in the header, so the two hottest traversal levels are
   one-line hops). *)
let node_words_capped t ~next_cap =
  header_words + fp_words t + pair_words t + tower_words ~next_cap

(* Tall class: full-height towers; the block allocator is sized from this. *)
let node_words t = node_words_capped t ~next_cap:t.max_height

(* Short class (meaningful when short_cutoff > 0). *)
let short_node_words t = node_words_capped t ~next_cap:t.short_cutoff
