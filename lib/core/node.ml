(* UPSkipList node layout and field access.

   A node occupies one allocator block. The layout is cache-line oriented:
   the first 8 words — one 64-byte line — hold everything a traversal hop
   reads or a recovery check inspects, so a hop along level 0 or 1 reads
   each node's header line with one access ([line_addr]). Key/value pairs
   are interleaved two words per slot, so claiming a slot (key CAS + value
   CAS) dirties a single line and persists with one flush. A line of key fingerprints sits between
   the two, so a lookup reads the fingerprints — the whole line with one
   access ([read_fps]) — and then only the slot whose fingerprint matches
   instead of scanning the pairs. Next pointers above level 1 live at the
   block's tail, three levels to a line beside a copy of the anchor key, so
   a hop above level 1 reads each node's tower line with one access
   ([line_addr] again) and never the header: one access per line, at every
   level. Every node reserves the full tower, whatever its height, so the
   tower cap is [Config.max_height] for every node (the cap the
   persistent-heap audit checks).

     word 0                epochID (failure-free epoch of last consistency
                           confirmation; block: free-list next)
     word 1                successor-key hint, level 0
     word 2                packed meta: kind (bits 0-7: free block / node),
                           height (bits 8-15), the allocating thread's tid
                           (bits 16-23: whose allocation log may name the
                           node), splitCount (bits 24 and up)
     word 3                splitLock (packed reader-writer lock with an
                           unlock counter that range scans validate
                           against; see the split lock section below)
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
     words T ..            levels 2 .. max_height-1 in lines of three: next
                           pointers of levels 2+3g .. 4+3g at T+8g .. T+8g+2,
                           their hints at T+8g+3 .. T+8g+5, a copy of the
                           anchor key at T+8g+6 (written by [init] in every
                           line below the node's height), T+8g+7 spare

   Height and tid never change after initialisation, and splitCount is
   written only under the split lock's write side, so the packed meta word
   needs no CAS. The kind stays in the low bits: the block allocator and
   the audit read it through [Mem.kind_of].

   Tower anchors: a traversal above level 1 uses a node only for routing, by
   its anchor, so the hop reads the anchor copy in the tower line it reads
   the pointer and hint from, all three with one read of the line. The
   copies are written before the node is persisted and linked, and the
   anchor never changes, so they cannot go stale either. Recovery (Function
   10) runs only where a traversal reads a header line anyway, at levels 1
   and 0, on the epoch, lock and meta words of that copy (see [Skiplist]).

   Successor-key hints (Foresight): beside every next pointer sits a lower
   bound on the anchor key of the node it points to, in the same line. A
   traversal ends a level when the hint exceeds its key, without entering
   the successor. The hint and the pointer come from one read of the line,
   whose copy is one instant's view, at every level; the entered node is
   then checked by its own anchor, from one read of its line. The bound
   holds at every instant because anchors are immutable (below) and a
   writer lowers the hint by CAS-min to the new successor's anchor before
   the pointer CAS publishing it, so a hint never exceeds the anchor of the
   node its pointer names at that moment, and a stop on the hint
   linearizes at the hint read. So each successor the traversal records
   comes with a bound that held when it was read (see
   [Skiplist.traverse]), at every level. A failed link CAS leaves a
   hint stale-low, which is safe: the reader enters the node, reads its
   anchor, and stops there. Levels a node is not yet linked at are written
   plainly, hint before pointer, before any reader can reach them there. Since a hint shares its pointer's line and is stored
   first, every persisted line also keeps hint <= anchor, so recovery
   rebuilds nothing. The head's hints start at [tail_key], the tail's
   anchor, so a level that ends at the tail never loads it.

   Dead slots (the B-link tree's high key, Lehman and Yao 1981): a node's
   live slots are exactly those whose key is non-empty and below the
   anchor of its level-0 successor (the tail's anchor is +inf). A split
   links a new node holding the moved keys and leaves them in place: from
   the link CAS on they are dead, because the new node's anchor bounds the
   node. Anchors never change and no node is unlinked, so a node's bound
   only falls, and a dead key stays dead. Every reader of slots applies the
   rule with the successor's exact anchor, never a hint, since a failed
   link CAS can leave a hint stale-low. A claim may take a dead slot over
   ([take_fp], then [Skiplist.insert_into_existing]).

   Fingerprint rule: fingerprints are volatile, derived metadata — a
   pure function of the keys — and no flush orders them. A claim publishes
   its slot's fingerprint before it CASes the key in, and a fingerprint is
   cleared only under the split lock's write side, so within one
   failure-free epoch every key claimed in that epoch carries its
   fingerprint, and every slot a split kills loses it. A crash can still
   persist a key without its fingerprint line. So a fingerprint *hit* is
   always checked by a key read and needs nothing more, but a *miss* is an
   answer only on a node whose line is confirmed complete in the current
   epoch: the lock word's [fp_ok] bit (below). Node initialisation and
   every write unlock (which follows a rewrite of the line from the live
   keys) set it; a miss on an unconfirmed node rewrites the line under the
   write lock, whose unlock confirms it. On a confirmed node every live key
   carries its fingerprint and every dead slot's is 0. A fingerprint over
   an empty key (a claim interrupted by a crash) is stale: it costs one
   key read, and splits recompute the line.

   Slot 0's key never changes after initialisation — an insert into an
   existing node claims a strictly greater key (equal keys take the
   update path), and a split moves only a proper suffix of the sorted pairs
   out, so slot 0 is never dead — and the anchor copy in the header cannot
   go stale.

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
   height, 8 bits of the allocating tid ([Mem.max_threads] is 256), then
   the split count. *)
let height_shift = Memory.Mem.kind_bits
let tid_shift = height_shift + 8
let split_shift = tid_shift + 8
let meta_height w = (w lsr height_shift) land 0xff
let meta_tid w = (w lsr tid_shift) land 0xff
let meta_split_count w = w lsr split_shift

let make_meta ~height ~tid ~split_count =
  Memory.Mem.kind_node lor (height lsl height_shift) lor (tid lsl tid_shift)
  lor (split_count lsl split_shift)

let with_height w h =
  make_meta ~height:h ~tid:(meta_tid w) ~split_count:(meta_split_count w)

let empty_key = 0
let tombstone = 0
let head_key = min_int
let tail_key = max_int

type layout = {
  k : int;
  fp_used : int;  (* fingerprint words actually holding slots: ceil(K/8) *)
  fp_lines : int;  (* lines of the fingerprint region *)
  o_pairs : int;  (* first slot's key *)
  o_tower : int;  (* first upper-tower line (levels 2 ..) *)
}

let layout (cfg : Config.t) =
  let k = cfg.keys_per_node in
  let o_pairs = o_fp + Config.fp_words cfg in
  {
    k;
    fp_used = (k + Config.fps_per_word - 1) / Config.fps_per_word;
    fp_lines = Config.fp_words cfg / Config.line_words;
    o_pairs;
    o_tower = o_pairs + Config.pair_words cfg;
  }

let o_key ly i = ly.o_pairs + (Config.slot_words * i)
let o_value ly i = o_key ly i + 1

(* Upper level [l] >= 2 sits in tower line (l-2)/3, at position (l-2) mod 3
   among its pointers; its hint is three words further along the line, and
   the line's anchor copy three words after the hints. *)
let per_line = Config.tower_levels_per_line
let tower_line ly level = ly.o_tower + (Config.line_words * ((level - 2) / per_line))
let o_upper ly level = tower_line ly level + ((level - 2) mod per_line)
let o_tower_anchor ly level = tower_line ly level + (2 * per_line)

(* Tower lines a node of [height] uses: one per three levels above 1. *)
let tower_lines height = (Int.max 0 (height - 2) + per_line - 1) / per_line

let o_next ly level =
  if level = 0 then o_next0
  else if level = 1 then o_next1h
  else o_upper ly level

let o_hint ly level =
  if level = 0 then o_hint0
  else if level = 1 then o_hint1
  else o_upper ly level + per_line

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
let meta mem n = Mem.read_field mem n o_meta
let height mem n = meta_height (meta mem n)

(* Under the split lock's write side (the only writer of the word). *)
let set_split_count mem n sc =
  let w = meta mem n in
  Mem.write_field mem n o_meta
    (make_meta ~height:(meta_height w) ~tid:(meta_tid w) ~split_count:sc)

let key mem ly n i = Mem.read_field mem n (o_key ly i)

(* The hop-time minimum key: the header anchor, not slot 0 — one line. *)
let key0 mem n = Mem.read_field mem n o_anchor

let value mem ly n i = Mem.read_field mem n (o_value ly i)
let fp_word mem n j = Mem.read_field mem n (o_fp + j)

(* Read the node's fingerprint words into [words] (at least [fp_lines *
   line_words] long), one access per line: a lookup takes its candidates
   from this one read, as FPTree compares the whole line at once. *)
let read_fps mem ly n words =
  let base = Mem.resolve mem n + o_fp in
  for l = 0 to ly.fp_lines - 1 do
    let o = l * Config.line_words in
    Mem.read_line mem (base + o) words o
  done

let next mem ly n level = Riv.of_word (Mem.read_field mem n (o_next ly level))

let hint mem ly n level = Mem.read_field mem n (o_hint ly level)

(* ---- line copies ------------------------------------------------------- *)

(* The address of the line a hop at [level] reads with one access
   ([Mem.read_line]): the header line at levels 0 and 1, whose copy holds
   both levels' pointers and hints, the anchor, the epoch, the meta word
   and the lock word; above, [n]'s tower line of [level], whose copy holds
   the level's pointer and hint and the anchor copy, with the line's other
   two levels. Either copy is one instant's view. *)
let line_addr mem ly n level =
  if level <= 1 then Mem.resolve mem n else Mem.resolve mem n + tower_line ly level

(* The fields of level [level] in such a copy ([o_next1h] follows
   [o_next0] in the header). *)
let line_next words level =
  Riv.of_word
    (if level <= 1 then words.(o_next0 + level) else words.((level - 2) mod per_line))

let line_hint words level =
  if level = 0 then words.(o_hint0)
  else if level = 1 then words.(o_hint1)
  else words.(per_line + ((level - 2) mod per_line))

let line_anchor words level = if level <= 1 then words.(o_anchor) else words.(2 * per_line)

(* The recovery fields of a header-line copy. *)
let line_epoch words = words.(o_epoch)
let line_meta words = words.(o_meta)
let line_lock words = words.(o_lock)

(* A level the node is not yet linked at (no reader can reach it there):
   hint first, then the pointer, so every image of the line keeps the
   hint a lower bound. *)
let set_next mem ly n level p ~bound =
  Mem.write_field mem n (o_hint ly level) bound;
  Mem.write_ptr mem n (o_next ly level) p

(* Structure-level CAS accounting: every node-field or lock CAS bumps the
   per-fiber attempt/failure counters, attributed via the scheduler's
   current tid (node CASes only ever run in fiber context). *)
let counted mem ok =
  let tid = Mem.self mem in
  Obs.bump ~tid Obs.id_cas;
  if not ok then Obs.bump ~tid Obs.id_cas_fail;
  ok

let cas_next mem ly n level ~expected ~desired =
  counted mem (Mem.cas_ptr mem n (o_next ly level) ~expected ~desired)

(* CAS-min: lower [n]'s level hint to [bound] (never raise it). Runs
   before the pointer CAS that links a successor whose anchor is [bound]. *)
let rec lower_hint mem ly n level bound =
  let h = hint mem ly n level in
  if
    h > bound
    && not
         (counted mem
            (Mem.cas_field mem n (o_hint ly level) ~expected:h ~desired:bound))
  then lower_hint mem ly n level bound

let cas_key mem ly n i ~expected ~desired =
  counted mem (Mem.cas_field mem n (o_key ly i) ~expected ~desired)

let cas_value mem ly n i ~expected ~desired =
  counted mem (Mem.cas_field mem n (o_value ly i) ~expected ~desired)

let cas_epoch mem n ~expected ~desired =
  counted mem (Mem.cas_field mem n o_epoch ~expected ~desired)

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
    counted mem
      (Mem.cas_field mem n (o_fp + j) ~expected:w ~desired:(with_fp_byte w i f))
  then true
  else publish_fp mem n i f

(* Take slot [i]'s fingerprint byte from 0 to [f]. Returns 0 when this
   call took it, else the byte another claim set. A dead slot's byte is 0
   on a confirmed node, so the one claim that takes it owns the slot, and
   the byte it set is its key's fingerprint. *)
let rec take_fp mem n i f =
  let j = fp_index i in
  let w = fp_word mem n j in
  let cur = fp_byte w i in
  if cur <> 0 then cur
  else if
    counted mem (Mem.cas_field mem n (o_fp + j) ~expected:w ~desired:(with_fp_byte w i f))
  then 0
  else take_fp mem n i f

(* Under the write side of the split lock (no concurrent claims): rewrite
   the fingerprint words that differ from [words], compared against one
   read of the line. Returns whether any did, i.e. whether the caller has
   fingerprint lines to persist. *)
let write_fp_line mem ly n words =
  let cur = Array.make (ly.fp_lines * Config.line_words) 0 in
  read_fps mem ly n cur;
  let changed = ref false in
  for j = 0 to ly.fp_used - 1 do
    if cur.(j) <> words.(j) then begin
      Mem.write_field mem n (o_fp + j) words.(j);
      changed := true
    end
  done;
  !changed

(* Persist a node built by [init] before it is linked: the header, the
   pair lines holding its [keys] slots and the tower lines up to [height]
   (levels and anchor copies) — the lines [init] and the caller's level
   writes dirtied, each flushed once, then one fence. Not the fingerprint line: the block came off a
   free list with a zero fingerprint region in the persistent image, so a
   crash leaves the node unconfirmed, and the first miss there repairs
   the line from the keys. *)
let persist_fresh mem ly n ~keys ~height =
  Mem.flush_range mem n ~first:0 ~words:Config.header_words;
  Mem.flush_range mem n ~first:ly.o_pairs ~words:(keys * Config.slot_words);
  if height > 2 then
    Mem.flush_range mem n ~first:ly.o_tower
      ~words:(Config.line_words * tower_lines height);
  Mem.fence mem

(* Persist the fingerprint line a writer rewrote under the write lock:
   one flush, one fence. Fingerprints are volatile, but this is the only
   flush that puts a fingerprint line in the persistent image: after a
   crash a lookup of a present key hits it instead of repairing the line
   from all K keys (DESIGN "Why a split flushes a volatile line"). *)
let persist_fps mem ly n = Mem.persist_range mem n ~first:o_fp ~words:ly.fp_used

(* ---- split lock: epoch-stamped recoverable reader-writer lock ----------

   The lock word packs, from the low bits up:

     bits 0-15    reader count (at most one read lock per thread, so
                  [Skiplist.create] caps max_threads at [max_readers])
     bits 16-38   unlock counter: every release, read or write, advances
                  it (modulo 2^23), so a word seen with no holder changes
                  before any later slot write or split can complete
     bit 39       fp_ok: the fingerprint line is complete (every non-empty
                  key carries its fingerprint), so a miss may be trusted
     bit 40       writer bit
     bit 41       intent bit (a writer waits for readers to drain)
     bits 42 ..   epoch stamp

   Reader counts stamped with an older failure-free epoch read as zero, so
   stale readers from before a crash vanish without any explicit drain — the
   thesis found exactly that drain step to be its one linearizability bug
   (Section 6.3: DrainReaders raced concurrent acquisitions); the stamp
   removes the race entirely. The writer, intent and fp_ok bits likewise
   count only under a current stamp, so a crash frees a split's lock and
   voids a confirmation without any walk or flush: a split a crash
   interrupted needs no repair, because the keys it moved are dead in the
   node once its link is in (see the dead slots above), and none of them
   is erased. Acquisitions carry the unlock counter and a current fp_ok bit
   over; a write unlock sets fp_ok, since every writer rewrites the line
   from the live keys first. A range scan validates a node by re-reading
   this word (see [Skiplist.range]). *)

let max_readers = 0xffff
let unlock_unit = 1 lsl 16
let fp_ok_bit = 1 lsl 39
let unlocks_mask = fp_ok_bit - unlock_unit
let writer_bit = 1 lsl 40
let intent_bit = 1 lsl 41

(* The unlock counter of [w], and [w] with it advanced by one, wrapping
   inside its field and leaving every other field as it is. *)
let unlocks w = (w land unlocks_mask) / unlock_unit

let bump_unlocks w =
  (w land lnot unlocks_mask) lor ((w + unlock_unit) land unlocks_mask)

module Lock = struct
  let stamp_shift = 42

  let word mem n = Mem.read_field mem n o_lock

  let lock_cas mem n ~expected ~desired =
    counted mem (Mem.cas_field mem n o_lock ~expected ~desired)

  let stamp w = w lsr stamp_shift

  (* A writer holds the lock in [epoch]: a writer bit stamped with an older
     epoch is a writer a crash ended, and reads as free. *)
  let is_write_locked ~epoch w = stamp w = epoch && w land writer_bit <> 0

  let make_word ~epoch ~writer ~readers =
    (epoch lsl stamp_shift) lor (if writer then writer_bit else 0) lor readers

  (* Reader count as seen from epoch [epoch]: stale counts read as zero. *)
  let readers_at ~epoch w = if stamp w = epoch then w land max_readers else 0

  (* A writer's declared intent, honoured only within its own epoch (an
     intent interrupted by a crash evaporates with its stamp). *)
  let intent_at ~epoch w = stamp w = epoch && w land intent_bit <> 0

  (* Whether the node's fingerprint line is confirmed complete in [epoch]. *)
  let fp_ok_at ~epoch w = stamp w = epoch && w land fp_ok_bit <> 0

  (* What a new word stamped [epoch] carries over from [w]: the unlock
     counter and a current fp_ok bit. *)
  let carried ~epoch w =
    (w land unlocks_mask) lor if fp_ok_at ~epoch w then fp_ok_bit else 0

  (* Raw count regardless of stamp (tests/diagnostics). *)
  let readers w = w land max_readers

  (* Acquire a read lock unless a writer holds the lock or has declared
     intent — writer preference keeps splitters from starving under a
     stream of readers. Loops only on CAS interference. *)
  let rec read_lock mem n =
    let epoch = Mem.epoch mem in
    let w = word mem n in
    if is_write_locked ~epoch w || intent_at ~epoch w then false
    else begin
      let r = readers_at ~epoch w in
      if
        lock_cas mem n ~expected:w
          ~desired:
            (make_word ~epoch ~writer:false ~readers:(r + 1)
            lor carried ~epoch w)
      then true
      else read_lock mem n
    end

  (* The holder acquired in the current epoch, so the stamp is current:
     drop one reader and advance the counter, keeping every other bit. *)
  let rec read_unlock mem n =
    let w = word mem n in
    if not (lock_cas mem n ~expected:w ~desired:(bump_unlocks (w - 1))) then
      read_unlock mem n

  (* Single-shot write-lock attempt: fails while any current-epoch reader or
     writer holds the lock. Returns the word it
     installed, which the holder hands back to [write_unlock]. *)
  let write_lock mem n =
    let epoch = Mem.epoch mem in
    let w = word mem n in
    let held = make_word ~epoch ~writer:true ~readers:0 lor carried ~epoch w in
    if
      (not (is_write_locked ~epoch w))
      && readers_at ~epoch w = 0
      && lock_cas mem n ~expected:w ~desired:held
    then Some held
    else None

  (* Acquire the write lock with declared intent: new readers are refused
     while the intent is pending, so the present readers drain and the
     writer gets in — without this, 80 threads read-locking a full node
     starve its split forever. Bounded rounds keep it deadlock-free; a
     pending intent is cleared on abandonment (the winner's unlock clears
     it otherwise). Returns the installed word as [write_lock] does, or
     [None] if another writer got the lock or the rounds ran out. *)
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
        None
      end
      else begin
        let w = word mem n in
        if is_write_locked ~epoch w then None (* another writer; it clears intent *)
        else if readers_at ~epoch w = 0 then begin
          let held = make_word ~epoch ~writer:true ~readers:0 lor carried ~epoch w in
          if lock_cas mem n ~expected:w ~desired:held then Some held
          else round budget
        end
        else begin
          (* declare (or refresh) intent, then wait for readers to drain *)
          if not (intent_at ~epoch w) then
            ignore
              (lock_cas mem n ~expected:w
                 ~desired:
                   ((epoch lsl stamp_shift) lor intent_bit
                   lor carried ~epoch w
                   lor (readers_at ~epoch w)));
          backoff ();
          round (budget - 1)
        end
      end
    in
    round 64

  (* Release the write lock held as [held] (the word the acquisition
     installed; no other thread changes a write-locked word). Every writer
     rewrites the fingerprint line from the live keys before it unlocks, so
     the unlock confirms the line. No flush: a writer bit a crash keeps
     reads as free in the next epoch, and the split count beside it only
     serves readers of this one. *)
  let write_unlock mem n ~held =
    Mem.write_field mem n o_lock
      (make_word ~epoch:(Mem.epoch mem) ~writer:false ~readers:0
      lor (bump_unlocks held land unlocks_mask)
      lor fp_ok_bit)
end

(* ---- initialisation ---------------------------------------------------- *)

(* Initialise a freshly allocated (zeroed) block as a node holding [keys] and
   [values], with their fingerprints — complete, so the lock word starts
   confirmed (fp_ok) in the node's epoch — and the anchor copy in each tower
   line below [node_height]. [tid] is the allocating thread, whose
   allocation log names the block. Next pointers are written separately,
   and the caller persists the node together with them before linking it
   (Function 4, lines 42-43; see [persist_fresh]). Runs in fiber context.
   [keys] must be non-empty: slot 0 anchors the header's immutable minimum
   key. *)
let init mem ly n ~tid ~node_epoch ~node_height ~keys ~values =
  if Array.length keys = 0 then invalid_arg "Node.init: empty keys";
  Mem.write_field mem n o_epoch node_epoch;
  Mem.write_field mem n o_meta (make_meta ~height:node_height ~tid ~split_count:0);
  Mem.write_field mem n o_lock
    (Lock.make_word ~epoch:node_epoch ~writer:false ~readers:0 lor fp_ok_bit);
  Mem.write_field mem n o_anchor keys.(0);
  for g = 0 to tower_lines node_height - 1 do
    Mem.write_field mem n (o_tower_anchor ly (2 + (per_line * g))) keys.(0)
  done;
  Array.iteri
    (fun j w -> if w <> 0 then Mem.write_field mem n (o_fp + j) w)
    (fp_line ly keys);
  Array.iteri (fun i k -> Mem.write_field mem n (o_key ly i) k) keys;
  Array.iteri (fun i v -> Mem.write_field mem n (o_value ly i) v) values

(* Sentinel setup at pool-format time (no simulated cost). *)
let init_sentinel_poked mem ly n ~first_key ~node_height =
  Mem.poke_field mem n o_epoch 1;
  Mem.poke_field mem n o_meta (make_meta ~height:node_height ~tid:0 ~split_count:0);
  Mem.poke_field mem n o_lock 0;
  Mem.poke_field mem n o_anchor first_key;
  for g = 0 to tower_lines node_height - 1 do
    Mem.poke_field mem n (o_tower_anchor ly (2 + (per_line * g))) first_key
  done;
  Mem.poke_field mem n (o_key ly 0) first_key;
  for level = 0 to node_height - 1 do
    Mem.poke_ptr mem n (o_next ly level) Riv.null
  done
