(* UPSkipList node layout and field access.

   A node occupies one allocator block. The layout is cache-line oriented:
   the first 8 words — one 64-byte line — hold everything a traversal hop
   reads or a recovery check inspects, so advancing along level 0 or 1
   touches exactly one line per node. Key/value pairs are interleaved two
   words per slot, so claiming a slot (key CAS + value CAS) dirties a single
   line and persists with one flush. A line of key fingerprints sits between
   the two, so a lookup reads the fingerprints and then only the slot whose
   fingerprint matches instead of scanning the pairs. Next pointers above
   level 1 live at the block's tail. Every node reserves the full tower,
   whatever its height, so the tower cap is [Config.max_height] for every
   node (the cap the persistent-heap audit checks).

     word 0                epochID (failure-free epoch of last consistency
                           confirmation; block: free-list next)
     word 1                successor-key hint, level 0
     word 2                packed meta: kind (bits 0-7: free block / node),
                           height (bits 8-15), splitCount (bits 16 and up)
     word 3                splitLock (packed reader-writer lock)
     word 4                successor-key hint, level 1
     word 5                anchor key — an immutable copy of slot 0's key
                           (the node's minimum; see below), read by hops
     word 6                next pointer, level 0 (RIV word)
     word 7                next pointer, level 1 — packing it here makes
                           the two hottest traversal levels one-line hops
     words 8 .. 8+F-1      fingerprint lines (F = Config.fp_words: ceil(K/8)
                           words rounded up to whole lines): slot i's 7-bit
                           fingerprint is bits 7(i mod 8) .. 7(i mod 8)+6 of
                           word 8 + i/8; 0 = no fingerprint
     words P .. P+2K-1     K interleaved slots (P = 8+F): key_i at P+2i
                           (0 = empty), value_i at P+2i+1 (0 = tombstone);
                           the region is rounded up to whole lines
     words T ..            levels 2 .. max_height-1 in lines of four: next
                           pointers of levels 2+4g .. 5+4g at T+8g .. T+8g+3
                           and their hints at T+8g+4 .. T+8g+7

   Height never changes after initialisation, and splitCount is written
   only under the split lock's write side, so the packed meta word needs no
   CAS. The kind stays in the low bits: the block allocator and the audit
   read it through [Mem.kind_of].

   Successor-key hints (Foresight): beside every next pointer sits a lower
   bound on the anchor key of the node it points to, in the same line. A
   traversal reads the pointer first and the hint second, and ends the
   level when the hint exceeds its key — without loading the successor.
   The bound holds because anchors are immutable (below) and because hints
   never rise once a pointer can be read: a writer lowers the hint by
   CAS-min to the new successor's anchor before the pointer CAS publishing
   it, so a reader that sees the new pointer sees the lowered hint. A failed
   link CAS or a snip leaves a hint stale-low, which is safe: the reader
   enters the node, reads its anchor, and stops there. Levels a node is not
   yet linked at are written plainly, hint before pointer, before any
   reader can reach them there. Since a hint shares its pointer's line and
   is stored first, every persisted line also keeps hint <= anchor, so
   recovery rebuilds nothing. The head's hints start at [tail_key], the
   tail's anchor, so a level that ends at the tail never loads it.

   Fingerprint rule: fingerprints are volatile, derived metadata — a
   pure function of the keys — and no flush orders them. A claim publishes
   its slot's fingerprint before it CASes the key in, and a fingerprint is
   cleared only under the split lock's write side together with its key,
   so within one failure-free epoch every key claimed in that epoch
   carries its fingerprint. A crash can still persist a key without its
   fingerprint line. So a fingerprint *hit* is always checked by a key
   read and needs nothing more, but a *miss* is an answer only on a node
   whose line is confirmed complete in the current epoch: the lock word's
   [fp_ok] bit (below). Node initialisation and every write unlock (which
   follows a rewrite of the line from the keys) set it; a miss on an
   unconfirmed node repairs the line from the keys and sets it then. A
   fingerprint over an empty key (a claim interrupted by a crash) is
   stale: it costs one key read, and splits recompute the line.

   Slot 0's key never changes after initialisation — an insert into an
   existing node claims a strictly greater key (equal keys take the
   update path), and a split moves only the upper half of the pairs out —
   so the anchor copy in the header cannot go stale.

   Key 0 and value 0 are reserved sentinels; the head sentinel's first key
   is [head_key] (−∞) and the tail's is [tail_key] (+∞). *)

module Mem = Memory.Mem
module Riv = Memory.Riv

let o_epoch = 0
let o_hint0 = 1  (* level-0 successor-key hint, in the header line *)
let o_meta = Memory.Mem.hdr_kind  (* kind | height | splitCount *)
let o_lock = 3
let o_hint1 = 4  (* level-1 successor-key hint, in the header line *)
let o_anchor = 5
let o_next0 = 6
let o_next1h = 7  (* level-1 next, in the header line *)
let o_fp = Config.header_words

(* Packed meta word: kind in the low [Mem.kind_bits], then 8 bits of
   height, then the split count. *)
let height_shift = Memory.Mem.kind_bits
let split_shift = height_shift + 8
let meta_height w = (w lsr height_shift) land 0xff
let meta_split_count w = w lsr split_shift

let make_meta ~height ~split_count =
  Memory.Mem.kind_node lor (height lsl height_shift) lor (split_count lsl split_shift)

let with_height w h = make_meta ~height:h ~split_count:(meta_split_count w)

let empty_key = 0
let tombstone = 0
let head_key = min_int
let tail_key = max_int

type layout = {
  k : int;
  fp_used : int;  (* fingerprint words actually holding slots: ceil(K/8) *)
  o_pairs : int;  (* first slot's key *)
  o_tower : int;  (* first upper-tower line (levels 2 ..) *)
}

let layout (cfg : Config.t) =
  let k = cfg.keys_per_node in
  let o_pairs = o_fp + Config.fp_words cfg in
  {
    k;
    fp_used = (k + Config.fps_per_word - 1) / Config.fps_per_word;
    o_pairs;
    o_tower = o_pairs + Config.pair_words cfg;
  }

let o_key ly i = ly.o_pairs + (Config.slot_words * i)
let o_value ly i = o_key ly i + 1

(* Upper level [l] >= 2 sits in tower line (l-2)/4, at position (l-2) mod 4
   among its pointers; its hint is four words further along the line. *)
let o_upper ly level =
  let u = level - 2 in
  let per = Config.tower_levels_per_line in
  ly.o_tower + (Config.line_words * (u / per)) + (u mod per)

let o_next ly level =
  if level = 0 then o_next0
  else if level = 1 then o_next1h
  else o_upper ly level

let o_hint ly level =
  if level = 0 then o_hint0
  else if level = 1 then o_hint1
  else o_upper ly level + Config.tower_levels_per_line

(* ---- fingerprints ------------------------------------------------------- *)

let fp_bits = 7
let fp_mask = (1 lsl fp_bits) - 1

(* A key's fingerprint, in 1..127 (0 means "none"), from a splitmix-style
   finalizer. A plain multiplicative hash gave runs of sequential keys —
   what inserts usually append — twice the collision rate of random
   keys; the finalizer keeps any key stride at the uniform 1/127. *)
let fingerprint key =
  let x = (key lxor (key lsr 31)) * 0x3fb5d329728ea185 in
  let x = (x lxor (x lsr 27)) * 0x1dadef4bc2dd44d in
  1 + (((x lxor (x lsr 33)) lsr 20) mod fp_mask)

(* Fingerprint word and position of slot [i]. *)
let fp_index i = i / Config.fps_per_word
let o_fp_slot i = o_fp + fp_index i
let fp_byte w i = (w lsr (fp_bits * (i mod Config.fps_per_word))) land fp_mask

let with_fp_byte w i f =
  let sh = fp_bits * (i mod Config.fps_per_word) in
  (w land lnot (fp_mask lsl sh)) lor (f lsl sh)

(* The fingerprint words of [keys] (one per [fps_per_word] slots, host
   side); empty keys get no fingerprint. *)
let fp_line ly keys =
  let words = Array.make ly.fp_used 0 in
  Array.iteri
    (fun i key ->
      if key <> empty_key then
        words.(fp_index i) <- with_fp_byte words.(fp_index i) i (fingerprint key))
    keys;
  words

(* ---- field accessors (simulated time) --------------------------------- *)

let epoch mem n = Mem.read_field mem n o_epoch
let split_count mem n = meta_split_count (Mem.read_field mem n o_meta)
let height mem n = meta_height (Mem.read_field mem n o_meta)

(* Under the split lock's write side (the only writer of the word). *)
let set_split_count mem n sc =
  let w = Mem.read_field mem n o_meta in
  Mem.write_field mem n o_meta (make_meta ~height:(meta_height w) ~split_count:sc)

let key mem ly n i = Mem.read_field mem n (o_key ly i)

(* The hop-time minimum key: the header anchor, not slot 0 — one line. *)
let key0 mem n = Mem.read_field mem n o_anchor
let value mem ly n i = Mem.read_field mem n (o_value ly i)
let fp_word mem n j = Mem.read_field mem n (o_fp + j)

(* Physical-removal marks live in the sign bit of next-pointer words
   (Herlihy-style marking, paper Section 4.6 follow-up): a marked pointer
   still references the same successor — it only announces that its owner
   is retired and may be snipped. Pointer reads always strip the mark. *)
let mark_bit = min_int
let is_marked w = w < 0
let unmark w = w land max_int

let next_raw mem ly n level = Mem.read_field mem n (o_next ly level)
let next mem ly n level = Riv.of_word (unmark (next_raw mem ly n level))

let hint mem ly n level = Mem.read_field mem n (o_hint ly level)

(* A level the node is not yet linked at (no reader can reach it there):
   hint first, then the pointer, so every image of the line keeps the
   hint a lower bound. *)
let set_next mem ly n level p ~bound =
  Mem.write_field mem n (o_hint ly level) bound;
  Mem.write_ptr mem n (o_next ly level) p

(* Structure-level CAS accounting: every node-field or lock CAS bumps the
   per-fiber attempt/failure counters, attributed via the scheduler's
   current tid (node CASes only ever run in fiber context). *)
let counted ok =
  let tid = Sim.Sched.self () in
  Obs.bump ~tid Obs.id_cas;
  if not ok then Obs.bump ~tid Obs.id_cas_fail;
  ok

let cas_next mem ly n level ~expected ~desired =
  counted (Mem.cas_ptr mem n (o_next ly level) ~expected ~desired)

(* CAS-min: lower [n]'s level hint to [bound] (never raise it). Runs
   before the pointer CAS that links a successor whose anchor is [bound]. *)
let rec lower_hint mem ly n level bound =
  let h = hint mem ly n level in
  if
    h > bound
    && not
         (counted
            (Mem.cas_field mem n (o_hint ly level) ~expected:h ~desired:bound))
  then lower_hint mem ly n level bound

let cas_key mem ly n i ~expected ~desired =
  counted (Mem.cas_field mem n (o_key ly i) ~expected ~desired)

let cas_value mem ly n i ~expected ~desired =
  counted (Mem.cas_field mem n (o_value ly i) ~expected ~desired)

let cas_epoch mem n ~expected ~desired =
  counted (Mem.cas_field mem n o_epoch ~expected ~desired)

let persist_next mem ly n level = Mem.persist_field mem n (o_next ly level)
let persist_value mem ly n i = Mem.persist_field mem n (o_value ly i)

(* Persist a freshly claimed slot: key and value share a line (slots are
   two words, the pair region is line-aligned), so this is one flush and
   one fence where the split path used to pay two of each. *)
let persist_slot mem ly n i =
  Mem.persist_range mem n ~first:(o_key ly i) ~words:Config.slot_words

(* Publish [f] as slot [i]'s fingerprint unless another fingerprint got
   there first (CAS on the shared word: eight slots' claims meet here).
   True when the slot carries [f] afterwards. *)
let rec publish_fp mem n i f =
  let j = fp_index i in
  let w = fp_word mem n j in
  let cur = fp_byte w i in
  if cur = f then true
  else if cur <> 0 then false
  else if
    counted
      (Mem.cas_field mem n (o_fp + j) ~expected:w ~desired:(with_fp_byte w i f))
  then true
  else publish_fp mem n i f

(* Under the write side of the split lock (no concurrent claims): rewrite
   the fingerprint words that differ from [words]. Returns whether any did,
   i.e. whether the caller has fingerprint lines to persist. *)
let write_fp_line mem ly n words =
  let changed = ref false in
  for j = 0 to ly.fp_used - 1 do
    if fp_word mem n j <> words.(j) then begin
      Mem.write_field mem n (o_fp + j) words.(j);
      changed := true
    end
  done;
  !changed

(* Persist the node's body: header, fingerprint and pair lines — what a
   split or its recovery rewrites. The tower lines are not included. *)
let persist_body mem ly n = Mem.persist_range mem n ~first:0 ~words:ly.o_tower

(* ---- split lock: epoch-stamped recoverable reader-writer lock ----------

   The lock word packs, from the low bits up:

     bits 0-38    reader count
     bit 39       fp_ok: the fingerprint line is complete (every non-empty
                  key carries its fingerprint), so a miss may be trusted
     bit 40       writer bit
     bit 41       intent bit (a writer waits for readers to drain)
     bits 42 ..   epoch stamp

   Reader counts stamped with an older failure-free epoch read as zero, so
   stale readers from before a crash vanish without any explicit drain — the
   thesis found exactly that drain step to be its one linearizability bug
   (Section 6.3: DrainReaders raced concurrent acquisitions); the stamp
   removes the race entirely. The intent and fp_ok bits likewise count only
   under a current stamp, so a crash voids a confirmation without any walk
   or flush. Acquisitions carry a current fp_ok bit over; a write unlock
   sets it, since every writer rewrites the line from the keys first. A
   *stale writer bit*, by contrast, is preserved and visible: it is the
   persistent evidence of an interrupted node split that
   CheckForNodeSplitRecovery keys off. *)

let fp_ok_bit = 1 lsl 39
let writer_bit = 1 lsl 40
let intent_bit = 1 lsl 41

module Lock = struct
  let readers_mask = fp_ok_bit - 1
  let stamp_shift = 42

  let word mem n = Mem.read_field mem n o_lock

  let lock_cas mem n ~expected ~desired =
    counted (Mem.cas_field mem n o_lock ~expected ~desired)

  let is_write_locked w = w land writer_bit <> 0
  let stamp w = w lsr stamp_shift

  let make_word ~epoch ~writer ~readers =
    (epoch lsl stamp_shift) lor (if writer then writer_bit else 0) lor readers

  (* Reader count as seen from epoch [epoch]: stale counts read as zero. *)
  let readers_at ~epoch w = if stamp w = epoch then w land readers_mask else 0

  (* A writer's declared intent, honoured only within its own epoch (an
     intent interrupted by a crash evaporates with its stamp). *)
  let intent_at ~epoch w = stamp w = epoch && w land intent_bit <> 0

  (* Whether the node's fingerprint line is confirmed complete in [epoch]. *)
  let fp_ok_at ~epoch w = stamp w = epoch && w land fp_ok_bit <> 0

  (* The fp_ok bit a new word stamped [epoch] carries over from [w]. *)
  let kept_fp_ok ~epoch w = if fp_ok_at ~epoch w then fp_ok_bit else 0

  (* Raw count regardless of stamp (tests/diagnostics). *)
  let readers w = w land readers_mask

  (* Acquire a read lock unless a writer holds the lock (a stale writer bit
     counts: the interrupted split must be recovered first) or a writer has
     declared intent — writer preference keeps splitters from starving
     under a stream of readers. Loops only on CAS interference. *)
  let rec read_lock mem n =
    let epoch = Mem.epoch mem in
    let w = word mem n in
    if is_write_locked w || intent_at ~epoch w then false
    else begin
      let r = readers_at ~epoch w in
      if
        lock_cas mem n ~expected:w
          ~desired:
            (make_word ~epoch ~writer:false ~readers:(r + 1)
            lor kept_fp_ok ~epoch w)
      then true
      else read_lock mem n
    end

  (* The holder acquired in the current epoch, so the stamp is current and
     a plain decrement preserves it (including any intent or fp_ok bit). *)
  let rec read_unlock mem n =
    let w = word mem n in
    if not (lock_cas mem n ~expected:w ~desired:(w - 1)) then
      read_unlock mem n

  (* Single-shot write-lock attempt: fails while any current-epoch reader or
     any writer (stale or not) holds the lock. *)
  let write_lock mem n =
    let epoch = Mem.epoch mem in
    let w = word mem n in
    (not (is_write_locked w))
    && readers_at ~epoch w = 0
    && lock_cas mem n ~expected:w
         ~desired:(make_word ~epoch ~writer:true ~readers:0 lor kept_fp_ok ~epoch w)

  (* Acquire the write lock with declared intent: new readers are refused
     while the intent is pending, so the present readers drain and the
     writer gets in — without this, 80 threads read-locking a full node
     starve its split forever. Bounded rounds keep it deadlock-free; a
     pending intent is cleared on abandonment (the winner's unlock clears
     it otherwise). Returns false if another writer got the lock or the
     rounds ran out. *)
  let acquire_write mem n ~backoff =
    let epoch = Mem.epoch mem in
    let clear_intent () =
      let rec clear () =
        let w = word mem n in
        if
          stamp w = epoch
          && w land intent_bit <> 0
          && not
               (lock_cas mem n ~expected:w
                  ~desired:(w land lnot intent_bit))
        then clear ()
      in
      clear ()
    in
    let rec round budget =
      if budget = 0 then begin
        clear_intent ();
        false
      end
      else begin
        let w = word mem n in
        if is_write_locked w then false (* another writer; it clears intent *)
        else if readers_at ~epoch w = 0 then begin
          if
            lock_cas mem n ~expected:w
              ~desired:
                (make_word ~epoch ~writer:true ~readers:0 lor kept_fp_ok ~epoch w)
          then true
          else round budget
        end
        else begin
          (* declare (or refresh) intent, then wait for readers to drain *)
          if not (intent_at ~epoch w) then
            ignore
              (lock_cas mem n ~expected:w
                 ~desired:
                   ((epoch lsl stamp_shift) lor intent_bit
                   lor kept_fp_ok ~epoch w
                   lor (readers_at ~epoch w)));
          backoff ();
          round (budget - 1)
        end
      end
    in
    round 64

  (* Release the write lock. Every writer rewrites the fingerprint line
     from the keys before it unlocks, so the unlock confirms the line;
     [~fp_ok:false] releases a lock taken for a change that never got as
     far as that rewrite. *)
  let write_unlock ?(fp_ok = true) mem n =
    Mem.write_field mem n o_lock
      (make_word ~epoch:(Mem.epoch mem) ~writer:false ~readers:0
      lor if fp_ok then fp_ok_bit else 0);
    Mem.persist_field mem n o_lock

  (* Set the fp_ok bit after a repair completed the fingerprint line (no
     flush: a crash voids the bit anyway). Gives up when a writer holds the
     lock. True when this call set it, false when it was set already or a
     writer holds the lock. *)
  let rec confirm_fp mem n =
    let epoch = Mem.epoch mem in
    let w = word mem n in
    if is_write_locked w || fp_ok_at ~epoch w then false
    else begin
      let base =
        if stamp w = epoch then w else make_word ~epoch ~writer:false ~readers:0
      in
      lock_cas mem n ~expected:w ~desired:(base lor fp_ok_bit) || confirm_fp mem n
    end

  (* Persist the acquisition so an interrupted split is detectable after a
     crash (CheckForNodeSplitRecovery keys off the persistent writer bit). *)
  let persist_acquisition mem n = Mem.persist_field mem n o_lock
end

(* ---- initialisation ---------------------------------------------------- *)

(* Initialise a freshly allocated (zeroed) block as a node holding [keys] and
   [values], with their fingerprints — complete, so the lock word starts
   confirmed (fp_ok) in the node's epoch. Next pointers are written separately,
   and the caller persists the node together with them before linking it
   (Function 4, lines 42-43). Runs in fiber context. [keys] must be
   non-empty: slot 0 anchors the header's immutable minimum key. *)
let init mem ly n ~node_epoch ~node_height ~keys ~values =
  Mem.write_field mem n o_epoch node_epoch;
  Mem.write_field mem n o_meta (make_meta ~height:node_height ~split_count:0);
  Mem.write_field mem n o_lock
    (Lock.make_word ~epoch:node_epoch ~writer:false ~readers:0 lor fp_ok_bit);
  (match keys with
  | k0 :: _ -> Mem.write_field mem n o_anchor k0
  | [] -> invalid_arg "Node.init: empty keys");
  Array.iteri
    (fun j w -> if w <> 0 then Mem.write_field mem n (o_fp + j) w)
    (fp_line ly (Array.of_list keys));
  List.iteri (fun i k -> Mem.write_field mem n (o_key ly i) k) keys;
  List.iteri (fun i v -> Mem.write_field mem n (o_value ly i) v) values

(* Sentinel setup at pool-format time (no simulated cost). *)
let init_sentinel_poked mem ly n ~first_key ~node_height =
  Mem.poke_field mem n o_epoch 1;
  Mem.poke_field mem n o_meta (make_meta ~height:node_height ~split_count:0);
  Mem.poke_field mem n o_lock 0;
  Mem.poke_field mem n o_anchor first_key;
  Mem.poke_field mem n (o_key ly 0) first_key;
  for level = 0 to node_height - 1 do
    Mem.poke_ptr mem n (o_next ly level) Riv.null
  done
