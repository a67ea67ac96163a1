(* UPSkipList: a recoverable, PMEM-resident lock-free skip list with
   multi-key nodes and recoverable concurrent node splits (paper Chapter 4).

   Derived from Herlihy et al.'s lock-free skip list via the paper's
   extension to RECIPE: every node records the failure-free epoch in which
   its consistency was last confirmed. A traversal that meets a node from an
   older epoch knows no live thread is responsible for it, claims it by
   CASing the epoch forward, and repairs it in place: an incomplete tower,
   only when its allocator's log names the node. Stale lock state voids
   itself, and a split a crash interrupted needs no repair: the keys it
   moved are dead in the node it split (see Node, "Dead slots").
   Allocation uses the logged block allocator so interrupted inserts
   cannot leak memory; the log check is deferred to the owning thread's
   next allocation, which also completes the logged node's tower.

   Cache-conscious layout: every node takes one allocator block holding a
   full [max_height] tower array, as in the paper, and the hot header packs
   the hop-time fields (epoch, locks, anchor key, level-0 and level-1 next
   pointers and their hints) into one cache line, so a hop along the
   bottom two levels reads one line per node, with one access. Above
   level 1 each tower line carries a copy of the anchor, so a hop there
   reads one line, with one access, and never the header.

   Each node carries a line of 7-bit key fingerprints (see Node), so the
   in-node lookup reads the fingerprint line, with one access, and only
   the slot lines holding a slot whose fingerprint matches, instead of
   scanning the unsorted keys linearly. A slot line holds four key/value
   pairs and is read with one access too, so a found key's value comes
   with its key; splits, fingerprint repairs and range scans read a
   node's pairs a slot line at a time. One access per line, at every
   level and in every line a lookup touches.

   Every next pointer carries a successor-key hint in its own line (see
   Node): a traversal ends a level when the hint exceeds its key, without
   loading the overshoot node or the tail, and enters only the nodes it
   moves onto, claiming for recovery those it enters at levels 1 and 0.
   Searches start at the volatile
   [top] level, the highest level a link may have reached, instead of
   walking the empty head levels above it.

   Operations:
   - [search]/[mem_key]: wait-free traversal + fingerprinted key lookup,
     validated against the node's level-0 successor;
   - [upsert]: lock-free insert of new head-successor nodes, CAS slot claims
     inside existing nodes under a read lock (an empty slot, or a dead one
     a split left behind), deadlock-free node splits under a write lock
     that take the overflowing key along and leave the moved keys in place,
     dead by the new node's anchor;
   - [remove]: tombstoning update (Section 4.6); nodes are never
     unlinked, so a removed key keeps its slot and a later upsert of it
     updates that slot;
   - [range]: strictly linearizable scan, one collect validated by each
     node's lock word and level-0 next word. *)

module Mem = Memory.Mem
module Riv = Memory.Riv
module Block_alloc = Memory.Block_alloc

type t = {
  mem : Mem.t;
  cfg : Config.t;
  ly : Node.layout;
  head : Riv.t;
  tail : Riv.t;
  height_rngs : Sim.Rng.t array;
  mutable line_bufs : int array array;
      (* tid -> the thread's line buffer, installed on first use
         ([line_buf]; [||] before). Its first [slot_copy] words hold the
         fingerprint words of the node its lookup or claim last read
         ([Node.read_fps]), or the line its walk last copied: a header
         line at levels 1 and 0, a tower line above. The line after them
         holds the slot line last read ([Node.read_slot_line]). A recovery
         claim can run a nested traversal that overwrites the buffer, so a
         walk copies its line again after a claim *)
  ops : Block_alloc.node_ops;
  top : int Atomic.t;
      (* volatile: no level above [top] has a node linked. Raised (atomic
         max) before a link at a higher level, recomputed from the head's
         tower by [recover]; a stale value is only ever too high, and
         starting a search too high is merely slower *)
}

let mem t = t.mem
let config t = t.cfg
let head t = t.head
let tail t = t.tail

(* The block size the allocator must be configured with for a given
   config: a full-height node, rounded up to an odd number of cache lines.
   Consecutive blocks then sit at a line stride coprime to any
   power-of-two set count, so the header lines of a chunk's nodes spread
   over every set of a cache indexed by the low line-address bits (the
   simulated cache, like hardware) instead of aliasing onto a
   fraction of them. *)
let block_words_of w =
  let lines = (w + Config.line_words - 1) / Config.line_words in
  (lines lor 1) * Config.line_words

let required_block_words cfg = block_words_of (Config.node_words cfg)

(* Where a line buffer's slot line starts: after the fingerprint lines. *)
let slot_copy t = t.ly.Node.fp_lines * Config.line_words

(* Cold path of [line_buf]: install [tid]'s buffer, the fingerprint lines
   and one slot line. *)
let install_line_buf t tid =
  if tid >= Array.length t.line_bufs then begin
    let n = Array.length t.line_bufs in
    let grown = Array.make (Int.max (tid + 1) (Int.max 16 (2 * n))) [||] in
    Array.blit t.line_bufs 0 grown 0 n;
    t.line_bufs <- grown
  end;
  let buf = Array.make (slot_copy t + Config.line_words) 0 in
  t.line_bufs.(tid) <- buf;
  buf

let[@inline] line_buf t tid =
  if tid < Array.length t.line_bufs then begin
    let buf = t.line_bufs.(tid) in
    if buf != [||] then buf else install_line_buf t tid
  end
  else install_line_buf t tid

let top_level t = Atomic.get t.top

let rec raise_top t level =
  let cur = Atomic.get t.top in
  if level > cur && not (Atomic.compare_and_set t.top cur level) then
    raise_top t level

(* Structure-phase accounting: bump the per-fiber counter for [id] and, when
   tracing, drop an instant event at the current virtual time. *)
let obs_event ~tid id arg =
  Obs.bump ~tid id;
  if Obs.Trace.enabled () then
    Obs.Trace.emit ~ts:(Sim.Sched.now ()) ~tid ~kind:id ~arg ~farg:0.0

let random_height t ~tid =
  Sim.Rng.geometric t.height_rngs.(tid) ~p:t.cfg.Config.branching_p
    ~max_value:t.cfg.Config.max_height

(* Seeded randomised backoff after a failed lock attempt: breaks the
   symmetric livelock where every thread read-locks a full node, fails the
   write lock, and retries in lock-step (possible under deterministic
   simulated timing; real machines break it with timing noise). *)
let backoff_delay t ~tid = 20.0 +. float_of_int (Sim.Rng.int t.height_rngs.(tid) 300)
let backoff t ~tid = Mem.charge t.mem (backoff_delay t ~tid)

(* ---- traversal result -------------------------------------------------- *)

type find = {
  found : bool;
  key_index : int;
      (* the found key's slot in preds.(0), whose slot line the thread's
         line buffer then holds, copied when the key was matched *)
  preds : Riv.t array;
  succs : Riv.t array;
      (* each level's successor, from the copy of pred's line the level
         ended on (the tail above the [top] the traversal read) *)
  bounds : int array;
      (* lower bound on each succs.(l)'s anchor: the anchor itself when
         the walk entered the node, else the pred's hint — what a new node
         linked before succs.(l) stores as its own hint *)
}

(* Whether a slot of [i]'s slot line before [i] carries fingerprint [f]
   in the fingerprint word [w], from [s] on. A slot line lies within one
   fingerprint word (four slots to a line, eight to a word, both
   aligned), so this tells [find_slot] that it copied the line already. *)
let rec matched_before w f i s = s < i && (Node.fp_byte w s = f || matched_before w f i (s + 1))

(* Find [key] among a node's slots (Function 8) through its fingerprint
   line: walk the fingerprint words in [buf] ([Node.read_fps]) in slot
   order and, when a slot's fingerprint matches, copy its slot line into
   [buf]'s slot copy and compare the key there; a later candidate on the
   same line reuses the copy. A found slot's line is in the copy
   afterwards, value and all. Absence is reported after the last word; it
   is an answer only if the line was confirmed complete before the words
   were read (see [scan_keys]). *)
let find_slot t ~tid n key buf =
  let ly = t.ly in
  let f = Node.fingerprint key in
  let rec scan j =
    if j >= ly.Node.fp_used then -1
    else begin
      let w = buf.(j) in
      let last = Int.min ly.Node.k ((j + 1) * Config.fps_per_word) in
      let rec slot i =
        if i >= last then scan (j + 1)
        else if Node.fp_byte w i <> f then slot (i + 1)
        else begin
          Obs.bump ~tid Obs.id_fp_match;
          let pos = slot_copy t in
          if not (matched_before w f i (i - (i mod Node.slots_per_line))) then
            Node.read_slot_line t.mem ly n (i / Node.slots_per_line) buf pos;
          if Node.line_key buf pos i = key then i
          else begin
            Obs.bump ~tid Obs.id_fp_false_positive;
            slot (i + 1)
          end
        end
      in
      if w = 0 then scan (j + 1) else slot (j * Config.fps_per_word)
    end
  in
  scan 0

(* The anchor of [s], read from its header line: [tail_key] for the
   tail. *)
let anchor_of t s = if Riv.equal s t.tail then Node.tail_key else Node.key0 t.mem s

let fp_confirmed t n =
  Node.Lock.fp_ok_at ~epoch:(Mem.epoch t.mem) (Node.Lock.word t.mem n)

(* Under the write lock [held], rewrite [n]'s fingerprint line from
   [keys] with the dead ones dropped (no flush), unless a writer confirmed
   the line since the lock's word was read; the unlock confirms it. No
   claim runs on an unconfirmed node, and every writer's unlock confirms,
   so keys read while the node was unconfirmed are its keys under the
   lock: only the bound, which a split may have lowered, is read here. *)
let drop_dead keys bound =
  Array.iteri (fun i ki -> if ki >= bound then keys.(i) <- Node.empty_key) keys

let confirm_fps t ~tid n ~held keys =
  if not (Node.Lock.fp_ok_at ~epoch:(Mem.epoch t.mem) held) then begin
    drop_dead keys (anchor_of t (Node.next t.mem t.ly n 0));
    ignore (Node.write_fp_line t.mem t.ly n (Node.fp_line t.ly keys) : bool);
    obs_event ~tid Obs.id_fp_confirm 0
  end;
  Node.Lock.write_unlock t.mem n ~held

(* [n]'s K keys, read a slot line at a time into [buf]'s slot copy, which
   holds the last slot line afterwards. *)
let slot_keys t buf n =
  let ly = t.ly in
  let pos = slot_copy t in
  let keys = Array.make ly.Node.k Node.empty_key in
  for i = 0 to ly.Node.k - 1 do
    if i mod Node.slots_per_line = 0 then
      Node.read_slot_line t.mem ly n (i / Node.slots_per_line) buf pos;
    keys.(i) <- Node.line_key buf pos i
  done;
  keys

(* A lookup's repair of an unconfirmed node, under a single-shot write
   lock so that the lookup never waits. Returns the keys it read, the
   dead ones dropped if the lock was granted; when it is refused, the
   line stays as it is and the caller answers from the keys. *)
let repair_fps t ~tid buf n =
  let keys = slot_keys t buf n in
  (match Node.Lock.write_lock t.mem n with
  | None -> ()
  | Some held -> confirm_fps t ~tid n ~held keys);
  keys

(* A traversal's in-node lookup. A fingerprint hit is checked by its key
   read, so it answers on any node. A miss answers only on a node whose
   line was [confirmed] before the words are read, since a repair may
   complete the line in between (the caller takes the bit from a header
   copy made before this call: under a current stamp it is never cleared
   within an epoch). A miss on an unconfirmed node repairs the line and
   answers from the keys the repair read. Either way a found key's slot
   line is in the buffer's slot copy afterwards: the repair leaves its
   last line there, so a key found in an earlier one has its line copied
   again. *)
let scan_keys t ~tid n key ~confirmed =
  let buf = line_buf t tid in
  Node.read_fps t.mem t.ly n buf;
  match find_slot t ~tid n key buf with
  | -1 when not confirmed -> (
      match Array.find_index (( = ) key) (repair_fps t ~tid buf n) with
      | None -> -1
      | Some i ->
          let l = i / Node.slots_per_line in
          if l <> Node.slot_lines t.ly - 1 then
            Node.read_slot_line t.mem t.ly n l buf (slot_copy t);
          i)
  | i -> i

(* ---- recovery (Functions 10-12) ---------------------------------------- *)

(* Refresh a node's next pointers and their hints at [from_level ..] from
   fresh successor information and persist them (Functions 18/19). Only
   levels the node is not linked at yet, so plain stores. Levels 0 and 1
   live in the header line, away from the upper tower lines: one header
   flush covers both, and the tower lines persist as their own range. *)
let populate_levels t ~node ~succs ~bounds ~from_level ~to_level =
  for level = from_level to to_level do
    Node.set_next t.mem t.ly node level succs.(level) ~bound:bounds.(level)
  done;
  if from_level <= 1 then Node.persist_next t.mem t.ly node from_level;
  let lo = Int.max 2 from_level in
  if to_level >= lo then
    Mem.persist_range t.mem node
      ~first:(Node.o_next t.ly lo)
      ~words:(Node.o_hint t.ly to_level - Node.o_next t.ly lo + 1)

(* ---- line copies ------------------------------------------------------- *)

(* A hop reads each line it uses with one access, into its thread's line
   buffer ([line_buf]): a node's header line at levels 0 and 1, its tower
   line above. A tower copy's last word, a spare in every tower line,
   then records the address of the line it holds (0: none), so a walk
   that stays on one node and one line reads it once. A header line has
   no spare word (its last is the level-1 pointer): a header copy is made
   on every use and records nothing; a traversal clears the record when
   it starts, and its header copies come after its last tower copy. *)
let held = Config.line_words - 1

(* Copy the tower line at [a] unless the copy holds it already. *)
let copy_line t buf a =
  if buf.(held) <> a then begin
    Mem.read_line t.mem a buf 0;
    buf.(held) <- a
  end

let copy_header t buf n = Mem.read_line t.mem (Node.line_addr t.mem t.ly n 0) buf 0

(* Stand on [n]'s line of [level], or enter [n] there: either way the copy
   holds that line afterwards. *)
let copy_hop_line t buf n level =
  if level <= 1 then copy_header t buf n
  else copy_line t buf (Node.line_addr t.mem t.ly n level)

(* Forward declarations resolved below: traversal and tower building are
   mutually recursive with recovery.

   The hop rule, at every level. Anchors never change, and a writer
   lowers a hint (CAS-min) before it publishes a pointer, so at every
   instant, and in every persisted line, a hint is at most the anchor of
   the node its pointer currently names. A hop reads each line it uses
   once, with one access: the node's header line at levels 1 and 0, its
   tower line of the level above. Standing on a node's line gives the
   level's hint and pointer; entering the successor reads its line, whose
   anchor (or anchor copy) the hop routes by, whose epoch, lock and meta
   words the recovery claim at levels 1 and 0 inspects, and which gives
   the next hint and pointer when the walk moves on. A copy is one
   instant's view, so the rule above holds in it: a hint above [key] ends
   the level, linearized at the read, without entering the successor, and
   a hint at most [key] sends the walk into the node its pointer names,
   checked by its own anchor. One loop walks every level by this rule,
   and each level records its pred, successor and bound from the copy it
   ended on, so the bound held for the successor: level 0's ([relinked],
   [miss_raced_split], [insert_into_existing] and the split's link CAS
   compare against it) and the upper ones a writer populates a new node
   from ([make_linked_object], [link_higher_levels]). A successor that
   went stale since fails its link CAS, and the link re-traverses.

   Above level 1 the walk reuses a tower copy while it stays on one node
   and one line (levels 2-4, 5-7, ...). Level 1 copies the header of the
   node it starts on, and level 0 starts on the copy level 1 ended on
   unless an overshoot left another node's line in the buffer.
   A claim can run a nested traversal ([check_insert_recovery] ->
   [first_unlinked]), which overwrites the buffer: a claim that repairs
   nothing copies the line again ([check_for_recovery]), and one that
   repairs restarts the traversal.

   The lookup in pred0 takes the lock word's fp_ok bit from the header
   copy the walk ends with, and copies pred0's line once more only when a
   level-0 overshoot left the entered node's line in the buffer. fp_ok
   under a current stamp is never cleared within an epoch, so the copy
   serves as well as a fresh word read would. The scan reads pred0's
   fingerprint line and, for a match, the candidate's slot line, each with
   one access; a found search takes the value from that copy and then
   validates with one more read of the header line, whose level-0
   successor must still be succs.(0) ([search_impl]). The write paths'
   validation (read lock, [relinked]), their key and value reads before a
   CAS, and every CAS, flush and fence stay word accesses. *)
let rec traverse t ~tid ~recover key =
  let h = t.cfg.Config.max_height in
  let preds = Array.make h t.head in
  let succs = Array.make h t.tail in
  let bounds = Array.make h Node.tail_key in
  let recoveries = ref 0 in
  let rec attempt () =
    let restart = ref false in
    let pred = ref t.head in
    let buf = line_buf t tid in
    buf.(held) <- 0;
    (* Function 10, on the node whose header line the buffer holds: run
       only where a hop reads a header line anyway, at levels 1 and 0. A
       repair restarts the traversal. *)
    let claim n =
      recover
      && check_for_recovery t ~tid ~cur:n ~hdr:buf ~recoveries:!recoveries
      && begin
           incr recoveries;
           obs_event ~tid Obs.id_restart key;
           restart := true;
           true
         end
    in
    (* the node whose header line the buffer holds, if any *)
    let copied = ref Riv.null in
    (* levels above [top] are head -> tail: preds, succs and bounds
       already say so (and [top] only grows, so a restart overwrites every
       level an earlier attempt filled) *)
    let level = ref (Atomic.get t.top) in
    while (not !restart) && !level >= 0 do
      let l = !level in
      (* stand on pred's line of this level *)
      if l >= 2 then copy_hop_line t buf !pred l
      else if not (Riv.equal !copied !pred) then begin
        copy_header t buf !pred;
        copied := !pred
      end;
      (* a pred moved onto above level 1 was only routed by its anchor:
         claim it before its line is used. Level 0 starts on the node
         level 1 ended on, already claimed there. *)
      if l = 1 && not (Riv.equal !pred t.head) then ignore (claim !pred : bool);
      let cur = ref (Node.line_next buf l) and bound = ref (Node.line_hint buf l) in
      let walking = ref true in
      while !walking && not !restart do
        if !bound > key then begin
          (* the successor overshoots: end the level without entering it *)
          Obs.bump ~tid Obs.id_hint_stop;
          walking := false
        end
        else begin
          copy_hop_line t buf !cur l;
          if l <= 1 then copied := !cur;
          if l >= 2 || not (claim !cur) then begin
            let k0 = Node.line_anchor buf l in
            if k0 <= key then begin
              pred := !cur;
              cur := Node.line_next buf l;
              bound := Node.line_hint buf l
            end
            else begin
              (* a stale-low hint let the traversal enter an overshoot *)
              Obs.bump ~tid Obs.id_hint_stale;
              bound := k0;
              walking := false
            end
          end
        end
      done;
      if not !restart then begin
        preds.(l) <- !pred;
        succs.(l) <- !cur;
        bounds.(l) <- !bound;
        decr level
      end
    done;
    if !restart then attempt ()
    else begin
      let pred0 = preds.(0) in
      if Riv.equal pred0 t.head then { found = false; key_index = -1; preds; succs; bounds }
      else begin
        (* the lookup's fp_ok bit comes from a copy of pred0's header line:
           the one the walk holds, unless a level-0 overshoot left the
           entered node's line in the buffer *)
        if not (Riv.equal !copied pred0) then copy_header t buf pred0;
        let ki =
          scan_keys t ~tid pred0 key
            ~confirmed:(Node.Lock.fp_ok_at ~epoch:(Mem.epoch t.mem) (Node.line_lock buf))
        in
        { found = ki >= 0; key_index = ki; preds; succs; bounds }
      end
    end
  in
  attempt ()

(* Function 10: claim a node left behind by a previous failure-free epoch
   and repair what can be broken there, judged from [hdr], a copy of its
   header line (its epoch, lock and meta words). Returns true when a
   repair was performed (the caller restarts its traversal and counts it
   against [recovery_budget]); a claim that repairs nothing returns false
   and copies the header line into [hdr] again, since the claim may have
   run a traversal that overwrote it (the buffer is its thread's).

   One thing can be broken: a tower. The paper also repairs an
   interrupted split here (Function 11), erasing the keys it had moved;
   here those keys are dead once the split's link is in, and the lock
   word's stale writer bit reads as free, so an interrupted split leaves
   nothing to repair. A tower can be incomplete only if the node's insert
   was in flight at a crash, and then the allocation log of the node's
   allocator still names it from an older epoch (the owner completes the
   tower before it overwrites the entry, see
   [Block_alloc.log_change_attempt]): so the claim reads that one log line
   and traverses to check the tower only for a node it names, and at most
   [recovery_budget] tower repairs run per traversal — a node whose tower
   repair is over budget is left unclaimed for a later traversal.

   The epoch CAS is not flushed: no recovery step reads a node's epoch
   from the persistent image, and a bump a crash loses only means a second
   claim, whose repairs find nothing left to do. *)
and check_for_recovery t ~tid ~cur ~hdr ~recoveries =
  if Riv.equal cur t.tail then false
  else begin
    let node_epoch = Node.line_epoch hdr in
    if node_epoch = Mem.epoch t.mem then false
    else begin
      let meta = Node.line_meta hdr in
      let tower =
        Node.meta_height meta > 1
        && Block_alloc.names_in_flight t.mem ~tid:(Node.meta_tid meta) cur
      in
      if tower && recoveries >= t.cfg.Config.recovery_budget then false
      else begin
        let repaired = claim_node t ~tid cur ~node_epoch ~tower = Some true in
        if not repaired then copy_header t hdr cur;
        repaired
      end
    end
  end

(* The claim itself: CAS [cur]'s epoch forward from [node_epoch], then
   check the tower if [tower] says so. [None] when another thread claimed
   the node first, else whether anything was repaired. *)
and claim_node t ~tid cur ~node_epoch ~tower =
  if not (Node.cas_epoch t.mem cur ~expected:node_epoch ~desired:(Mem.epoch t.mem))
  then None
  else begin
    obs_event ~tid Obs.id_epoch_repair 0;
    Some (tower && check_insert_recovery t ~tid cur)
  end

(* The first level at which a fresh traversal does not land on [cur]
   ([h] when it lands on every level below [h]), and the traversal.
   Linked levels are contiguous from the bottom. *)
and first_unlinked t ~tid cur h =
  let f = traverse t ~tid ~recover:false (Node.key0 t.mem cur) in
  let start = ref 1 in
  while !start < h && Riv.equal f.preds.(!start) cur do
    incr start
  done;
  (!start, f)

(* Function 12 (recast): a node whose tower its inserter did not finish is
   built up to its recorded height, from the first level it is not linked
   at. Returns whether any level was missing. *)
and check_insert_recovery t ~tid cur =
  let h = Node.height t.mem cur in
  h > 1
  && begin
       let start, f = first_unlinked t ~tid cur h in
       start < h
       && begin
            obs_event ~tid Obs.id_tower_repair (Node.key0 t.mem cur);
            link_higher_levels t ~tid ~node:cur ~start ~node_height:h ~preds:f.preds;
            true
          end
     end

(* Function 17: build the tower from [start] to [node_height - 1], CASing
   each predecessor's next pointer from the node's recorded successor to the
   node, re-traversing when the neighbourhood changed. Levels are persisted
   bottom-up — the order matters for recovery (missing lower levels are not
   permitted). [top] is raised first, and each predecessor's hint is
   lowered to the node's anchor before its pointer CAS (see Node). *)
and link_higher_levels t ~tid ~node ~start ~node_height ~preds =
  let preds = ref preds in
  let key = Node.key0 t.mem node in
  if start < node_height then raise_top t (node_height - 1);
  for level = start to node_height - 1 do
    let rec attempt () =
      let pred = !preds.(level) in
      if Riv.equal pred node then () (* already linked here *)
      else begin
        let expected = Node.next t.mem t.ly node level in
        Node.lower_hint t.mem t.ly pred level key;
        if Node.cas_next t.mem t.ly pred level ~expected ~desired:node then
          Node.persist_next t.mem t.ly pred level
        else begin
          (* Neighbourhood changed: refresh from a fresh traversal. *)
          let f = traverse t ~tid ~recover:false key in
          preds := f.preds;
          if not (Riv.equal !preds.(level) node) then begin
            populate_levels t ~node ~succs:f.succs ~bounds:f.bounds
              ~from_level:level ~to_level:(node_height - 1);
            attempt ()
          end
        end
      end
    in
    attempt ()
  done

(* The owner's side of the tower rule ([Block_alloc.log_change_attempt],
   before it overwrites a log entry from an older epoch that names the
   reachable [n]): leave [n]'s tower complete. A node still from an older
   epoch is claimed, so no claimer builds the same tower at once. A node
   another thread claimed in this
   epoch has its tower built by that claimer, which read the same log
   entry: wait until every level is linked. *)
let complete_tower t ~tid n =
  let node_epoch = Node.epoch t.mem n in
  let claimed =
    node_epoch <> Mem.epoch t.mem
    && claim_node t ~tid n ~node_epoch ~tower:true <> None
  in
  let h = Node.height t.mem n in
  let rec wait () =
    if fst (first_unlinked t ~tid n h) < h then begin
      backoff t ~tid;
      wait ()
    end
  in
  if (not claimed) && h > 1 then wait ()

(* ---- construction ------------------------------------------------------ *)

let create ~mem ~cfg ~max_threads ~seed =
  Config.validate cfg;
  let ly = Node.layout cfg in
  if Mem.block_words mem < Config.node_words cfg then
    invalid_arg "Skiplist.create: allocator blocks smaller than a node";
  if max_threads > Node.max_readers then
    invalid_arg "Skiplist.create: max_threads exceeds the lock's reader field";
  let head = Mem.root_alloc mem ~pool:0 ~words:(Mem.block_words mem) in
  let tail = Mem.root_alloc mem ~pool:0 ~words:(Mem.block_words mem) in
  Node.init_sentinel_poked mem ly head ~first_key:Node.head_key
    ~node_height:cfg.Config.max_height;
  Node.init_sentinel_poked mem ly tail ~first_key:Node.tail_key
    ~node_height:cfg.Config.max_height;
  for level = 0 to cfg.Config.max_height - 1 do
    Mem.poke_field mem head (Node.o_hint ly level) Node.tail_key;
    Mem.poke_ptr mem head (Node.o_next ly level) tail
  done;
  let root_rng = Sim.Rng.create seed in
  (* recursive only through [complete_tower]'s closure *)
  let rec t =
    {
      mem;
      cfg;
      ly;
      head;
      tail;
      height_rngs = Array.init max_threads (fun _ -> Sim.Rng.split root_rng);
      line_bufs = [||];
      ops =
        {
          Block_alloc.key0 = (fun n -> Node.key0 mem n);
          next0 = (fun n -> Node.next mem ly n 0);
          complete_tower = (fun ~tid n -> complete_tower t ~tid n);
        };
      top = Atomic.make 0;
    }
  in
  t

(* ---- writes ------------------------------------------------------------ *)

(* Function 14: CAS the value slot until success; total-orders concurrent
   updates to one key. The linearization point is the persist. *)
let rec update_value t n i v =
  let old = Node.value t.mem t.ly n i in
  if Node.cas_value t.mem t.ly n i ~expected:old ~desired:v then begin
    Node.persist_value t.mem t.ly n i;
    old
  end
  else update_value t n i v

(* Value CAS for a slot this thread just claimed: the caller persists the
   whole slot (key + value, one line) afterwards, so no flush here. *)
let rec claim_value t n i v =
  let old = Node.value t.mem t.ly n i in
  if Node.cas_value t.mem t.ly n i ~expected:old ~desired:v then old
  else claim_value t n i v

(* Function 4 fused with the node's first populate (Functions 18/19):
   allocate, write the body and levels 0 .. node_height-1 from the
   traversal [f] (successors and hints), and persist it all at once, so
   the header line — which holds both — is flushed once (see
   [Node.persist_fresh]). The node is not reachable yet, so plain
   stores. *)
let make_linked_object t ~tid ~pred ~keys ~values ~node_height ~(f : find) =
  let block = Block_alloc.alloc_block t.mem ~tid ~ops:t.ops ~pred ~key:keys.(0) in
  Node.init t.mem t.ly block ~tid ~node_epoch:(Mem.epoch t.mem) ~node_height ~keys
    ~values;
  for level = 0 to node_height - 1 do
    Node.set_next t.mem t.ly block level f.succs.(level) ~bound:f.bounds.(level)
  done;
  Node.persist_fresh t.mem t.ly block ~keys:(Array.length keys) ~height:node_height;
  block

(* Function 15, generalised: insert a fresh single-key node right after
   [pred] (the head sentinel in the paper's CreateHeadSuccessor; an
   arbitrary predecessor in the single-key-per-node configuration, where it
   is exactly Herlihy's original insert). *)
let create_successor t ~tid ~pred ~key ~value ~(f : find) =
  let node_height = random_height t ~tid in
  let succ0 = f.succs.(0) in
  let node =
    make_linked_object t ~tid ~pred ~keys:[| key |] ~values:[| value |] ~node_height ~f
  in
  Node.lower_hint t.mem t.ly pred 0 key;
  if Node.cas_next t.mem t.ly pred 0 ~expected:succ0 ~desired:node then begin
    Node.persist_next t.mem t.ly pred 0;
    link_higher_levels t ~tid ~node ~start:1 ~node_height ~preds:f.preds;
    true
  end
  else begin
    Block_alloc.delete_linked_object t.mem ~tid node;
    false
  end

type slot_status = Retry | Need_split | Done of int

(* The key a claim that took the dead slot [i] of [n] (still holding
   [dead]) CASes in: it holds the read lock and stores it within a few
   accesses. *)
let rec claimed_key t ~tid n i dead =
  let ki = Node.key t.mem t.ly n i in
  if ki <> dead then ki
  else begin
    backoff t ~tid;
    claimed_key t ~tid n i dead
  end

(* Whether a node was linked after [pred0] at level 0 since a traversal read
   [succ0] there: the one split signal. A split's link CAS is what moves
   keys out of [pred0] (they are dead from then on), and it changes this
   successor before the split does anything else, so this catches each
   split that may have moved keys out of it. The successor never comes
   back once left: no node is unlinked, and each link puts in a node
   whose anchor lies between [pred0]'s and the old successor's, so the
   anchor of [pred0]'s successor only falls. The paper's per-node split
   counter is weaker: a split bumps it after the link, so one that
   completes between a traversal's successor read and its counter read
   leaves the counter matching, and an insert would then claim a slot the
   split just killed, in a node that no longer owns the key. *)
let relinked t ~pred0 ~succ0 =
  not (Riv.equal (Node.next t.mem t.ly pred0 0) succ0)

(* Function 16: claim a free slot in an existing node under a read lock
   (the lock only excludes concurrent splits, not other writers). Under the
   lock, an unchanged level-0 successor means [pred0] still owns [key]
   (see [relinked]), at the cost of one header-line read. It also fixes
   [pred0]'s bound, the anchor of [succ0]: a slot holding a key at or
   above it is dead (see Node), and free. The bound is read once, at the
   first dead-looking slot.

   A claim runs only on a confirmed [pred0], whose line holds every live
   key's fingerprint and a 0 for every dead slot; an unconfirmed one — its
   line may have lost fingerprints in a crash — is repaired first, and the
   upsert retries. Then one read of the fingerprint line serves two
   passes. The first looks for [key] itself (an update). The second walks,
   in slot order, the slots whose fingerprint is 0 or [key]'s. An empty
   slot is claimed by publishing [key]'s fingerprint and only then CASing
   the key in, with no flush between. The key CAS stays the claim and the
   point where two inserts of one key meet: both walk the same candidates
   in the same order, so the loser of a slot reads the winner's key and
   turns into an update. A dead slot is claimed by the one insert that
   takes its fingerprint byte from 0 ([Node.take_fp]), which then stores
   a tombstone value, CASes the dead key to [key] and CASes the value in:
   the slot's line persists as some prefix of those stores, so a crash
   never pairs [key] with the dead key's value. An insert that finds the
   byte taken with its own fingerprint waits for the taker's key, and
   turns into an update if it is [key]. A successful claim
   persists key and value with a single slot flush: the two words share a
   cache line by layout. The fingerprint is not persisted; a crash that
   keeps the slot line and drops it leaves the node unconfirmed, and the
   next miss or insert there repairs it. *)
let insert_into_existing t ~tid ~key ~value ~pred0 ~succ0 =
  if not (Node.Lock.read_lock t.mem pred0) then Retry
  else if relinked t ~pred0 ~succ0 then begin
    Node.Lock.read_unlock t.mem pred0;
    Retry
  end
  else if not (fp_confirmed t pred0) then begin
    (* an insert waits for the write lock, as a split does: a stream of
       updates under read locks could refuse a single shot for good *)
    Node.Lock.read_unlock t.mem pred0;
    (match Node.Lock.acquire_write t.mem pred0 ~backoff:(fun () -> backoff t ~tid) with
    | None -> ()
    | Some held -> confirm_fps t ~tid pred0 ~held (slot_keys t (line_buf t tid) pred0));
    Retry
  end
  else begin
    let ly = t.ly in
    let finish old =
      Node.Lock.read_unlock t.mem pred0;
      Done old
    in
    let words = line_buf t tid in
    Node.read_fps t.mem ly pred0 words;
    let f = Node.fingerprint key in
    let fp_at i = Node.fp_byte words.(Node.fp_index i) i in
    (* pred0's bound once read, 0 before *)
    let bound = ref 0 in
    let rec claim i =
      if i >= ly.Node.k then begin
        Node.Lock.read_unlock t.mem pred0;
        Need_split
      end
      else begin
        let b = fp_at i in
        if b <> 0 && b <> f then claim (i + 1)
        else begin
          let ki = Node.key t.mem ly pred0 i in
          if ki = key then finish (update_value t pred0 i value)
          else if ki = Node.empty_key then begin
            if not (Node.publish_fp t.mem pred0 i f) then claim (i + 1)
            else if Node.cas_key t.mem ly pred0 i ~expected:Node.empty_key ~desired:key
            then begin
              let old = claim_value t pred0 i value in
              Node.persist_slot t.mem ly pred0 i;
              finish old
            end
            else if Node.key t.mem ly pred0 i = key then
              (* lost the slot to an insert of the same key: update *)
              finish (update_value t pred0 i value)
            else claim (i + 1)
          end
          else begin
            if !bound = 0 then bound := anchor_of t succ0;
            if ki < !bound then (* a live key with [key]'s fingerprint *) claim (i + 1)
            else begin
              match Node.take_fp t.mem pred0 i f with
              | 0 ->
                  Mem.write_field t.mem pred0 (Node.o_value ly i) Node.tombstone;
                  (* the fingerprint byte makes this claim the slot's one
                     writer: the CAS cannot fail *)
                  ignore (Node.cas_key t.mem ly pred0 i ~expected:ki ~desired:key : bool);
                  let old = claim_value t pred0 i value in
                  Node.persist_slot t.mem ly pred0 i;
                  finish old
              | owner when owner = f ->
                  (* a claim that may be [key]'s took the slot: its key
                     decides, as the key CAS does for an empty slot *)
                  if claimed_key t ~tid pred0 i ki = key then
                    finish (update_value t pred0 i value)
                  else claim (i + 1)
              | _ -> claim (i + 1)
            end
          end
        end
      end
    in
    match find_slot t ~tid pred0 key words with
    | -1 -> claim 0
    | i -> finish (update_value t pred0 i value)
  end

(* Function 20: split a full node. The write lock excludes claims and
   updates while keys move; a non-empty suffix of the sorted pairs
   migrates to a new node linked immediately after. The suffix is the top
   K/8 pairs when [key], the key that overflowed the node, would rank
   among them and the successor's anchor lies farther above [key] than
   the node's own anchor lies below it (an ascending run then leaves nodes
   7/8 full, and the new node has room to fill); else the median and above
   (DESIGN "Split point"). The minimum key never moves, so the header
   anchor stays valid across any number of splits.

   The moved pairs stay where they are: the link CAS makes them dead in
   the node, since the new node's anchor is its bound from then on (see
   Node). The paper erases them after the link (Function 20) and again in
   recovery (Function 11); here nothing is erased, so the split persists
   no slot line and its unlock flushes nothing. It rewrites the
   fingerprint line with the moved slots cleared and flushes it before
   the unlock, which confirms it: a dead slot shows fingerprint 0, and a
   claim can take it over.

   When [key] ranks above the new anchor (every tail cut), it goes in with
   the split, appended to the new node's pairs: it becomes visible at the
   link CAS and durable when the link persists. Returns whether it went
   in; false when [key] belongs to the old half, another writer holds the
   lock, a slot turned out free or the node's successor changed, and the
   caller retries the upsert, which claims a free slot. *)
let split_node t ~tid ~key ~value ~(f : find) =
  let pred0 = f.preds.(0) in
  match Node.Lock.acquire_write t.mem pred0 ~backoff:(fun () -> backoff t ~tid) with
  | None -> false
  | Some held ->
    let ly = t.ly in
    let k = ly.Node.k in
    (* pred0's next0 changes only under its write lock: its successor and
       bound are fixed while this split holds it *)
    let succ0 = Node.next t.mem ly pred0 0 in
    let bound = anchor_of t succ0 in
    let buf = line_buf t tid in
    let keys = slot_keys t buf pred0 in
    drop_dead keys bound;
    (* every confirming rewrite of the line below takes the live keys *)
    if
      (not (Riv.equal succ0 f.succs.(0)))
      || Array.exists (fun ki -> ki = Node.empty_key || ki = key) keys
    then begin
      (* A split since the caller's traversal, or a slot freed up since
         its scan, or the caller found only free slots behind stale
         fingerprints (claims a crash interrupted), or [key] arrived: no
         split here, and the retry finds its node and slot. Rewrite the
         line from the live keys so every free slot shows a 0 fingerprint
         again — otherwise the insert would return here forever. *)
      if Node.write_fp_line t.mem ly pred0 (Node.fp_line ly keys) then
        Node.persist_fps t.mem ly pred0;
      Node.Lock.write_unlock t.mem pred0 ~held;
      false
    end
    else begin
      let order = Array.init k Fun.id in
      Array.sort (fun i j -> Int.compare keys.(i) keys.(j)) order;
      let m = Int.max 1 (k / 8) in
      let anchor = keys.(order.(0)) in
      let tail_cut = key > keys.(order.(k - m)) && bound - key > key - anchor in
      let cut = if tail_cut then k - m else k / 2 in
      (* the moved slots, in key order *)
      let moved = Array.sub order cut (k - cut) in
      let new_anchor = keys.(moved.(0)) in
      let into_new = key > new_anchor in
      let new_keys = Array.map (fun i -> keys.(i)) moved in
      (* each moved value from a copy of its slot line, into its rank
         among the moved ([order], free now, maps a moved slot to it).
         The key pass left the last slot line in the copy, and the slots
         are visited from the last down, so only an earlier line that
         holds a moved slot is read again, once. *)
      let new_values = Array.make (k - cut) Node.tombstone in
      Array.fill order 0 k (-1);
      for p = 0 to k - cut - 1 do
        order.(moved.(p)) <- p
      done;
      let pos = slot_copy t in
      let copied = ref (Node.slot_lines ly - 1) in
      for i = k - 1 downto 0 do
        if order.(i) >= 0 then begin
          let l = i / Node.slots_per_line in
          if l <> !copied then begin
            Node.read_slot_line t.mem ly pred0 l buf pos;
            copied := l
          end;
          new_values.(order.(i)) <- Node.line_value buf pos i
        end
      done;
      let new_keys, new_values =
        if into_new then
          (Array.append new_keys [| key |], Array.append new_values [| value |])
        else (new_keys, new_values)
      in
      let node_height = random_height t ~tid in
      let node =
        make_linked_object t ~tid ~pred:pred0 ~keys:new_keys ~values:new_values ~node_height
          ~f
      in
      Node.lower_hint t.mem ly pred0 0 new_anchor;
      if Node.cas_next t.mem ly pred0 0 ~expected:succ0 ~desired:node then begin
        Node.persist_next t.mem ly pred0 0;
        obs_event ~tid Obs.id_split new_anchor;
        if tail_cut then Obs.bump ~tid Obs.id_split_tail;
        (* the moved slots are dead now: their fingerprints go *)
        Array.iter (fun i -> keys.(i) <- Node.empty_key) moved;
        ignore (Node.write_fp_line t.mem ly pred0 (Node.fp_line ly keys) : bool);
        Node.persist_fps t.mem ly pred0;
        Node.Lock.write_unlock t.mem pred0 ~held;
        (* no node lies between pred0 and its old successor, so on every
           level the traversal's pred and succ bound the new anchor too *)
        link_higher_levels t ~tid ~node ~start:1 ~node_height ~preds:f.preds;
        into_new
      end
      else begin
        Block_alloc.delete_linked_object t.mem ~tid node;
        (* nothing moved, but the unlock confirms the line: rewrite it *)
        ignore (Node.write_fp_line t.mem ly pred0 (Node.fp_line ly keys) : bool);
        Node.Lock.write_unlock t.mem pred0 ~held;
        false
      end
    end

(* ---- public operations -------------------------------------------------- *)

let check_key key =
  if key <= 0 || key >= Node.tail_key then invalid_arg "Skiplist: key out of range"

let check_value v =
  if v = Node.tombstone then invalid_arg "Skiplist: value 0 is reserved"

(* The found path of an upsert and of a remove (Section 4.6: removal
   reuses the update path, with a tombstone for [value]). Under pred0's
   read lock, which holds splits off, an unchanged level-0 successor means
   no split moved keys out of pred0 since the traversal, so the slot [f]
   found the key in is still live and still holds it (see [relinked]).
   [Some old] is the slot's value before the update; [None] asks the
   caller to retry. *)
let update_found t ~tid (f : find) value =
  let pred0 = f.preds.(0) in
  if not (Node.Lock.read_lock t.mem pred0) then begin
    backoff t ~tid;
    None
  end
  else if relinked t ~pred0 ~succ0:f.succs.(0) then begin
    Node.Lock.read_unlock t.mem pred0;
    None
  end
  else begin
    let old = update_value t pred0 f.key_index value in
    Node.Lock.read_unlock t.mem pred0;
    Some old
  end

(* Function 13 (upsert). Returns the previous value if the key was present. *)
let rec upsert_impl t ~tid key value =
  let f = traverse t ~tid ~recover:true key in
  let pred0 = f.preds.(0) in
  if f.found then begin
    match update_found t ~tid f value with
    | None -> upsert_impl t ~tid key value
    | Some old as prev -> if old = Node.tombstone then None else prev
  end
  else if Riv.equal pred0 t.head then begin
    if
      create_successor t ~tid ~pred:t.head ~key ~value ~f
    then None
    else upsert_impl t ~tid key value
  end
  else begin
    match
      insert_into_existing t ~tid ~key ~value ~pred0 ~succ0:f.succs.(0)
    with
    | Retry ->
        backoff t ~tid;
        upsert_impl t ~tid key value
    | Need_split ->
        if t.cfg.Config.keys_per_node = 1 then begin
          (* single-key nodes never split: link a fresh node after pred0 *)
          if
            create_successor t ~tid ~pred:pred0 ~key ~value ~f
          then None
          else upsert_impl t ~tid key value
        end
        else if split_node t ~tid ~key ~value ~f then begin
          (* Backoff and tower heights draw from one stream: take the draw
             a retry's backoff takes, uncharged, so that later towers'
             heights do not depend on whether an insert split a node. *)
          ignore (backoff_delay t ~tid : float);
          None
        end
        else begin
          backoff t ~tid;
          upsert_impl t ~tid key value
        end
    | Done old -> if old = Node.tombstone then None else Some old
  end

(* A key-scan miss in a non-head node is only an answer if no split moved
   keys out of it since the traversal (see [relinked]). *)
let miss_raced_split t f =
  let pred0 = f.preds.(0) in
  (not (Riv.equal pred0 t.head)) && relinked t ~pred0 ~succ0:f.succs.(0)

(* Function 9. A found key's value comes from the copy of its slot line
   the lookup compared the key in, so key and value are one access and one
   instant's view. The value is an answer if no split moved keys out of
   pred0 between the traversal's copy of pred0's header line, which gave
   succs.(0), and that slot-line read. One read of the header line after
   the slot-line read checks that its level-0 successor is still succs.(0):
   a split kills the slots it moves at its link CAS, which changes that
   successor for good (see [relinked]), so an unchanged one means no split
   killed the slot before the slot-line read (after which a claim may take
   it over). A writer holding the node changes no live slot — a split
   leaves its moved slots in place, a repair rewrites only the fingerprint
   line — so the lock word needs no check. *)
let rec search_impl t ~tid key =
  let f = traverse t ~tid ~recover:true key in
  if not f.found then
    if miss_raced_split t f then search_impl t ~tid key else None
  else begin
    let hdr = line_buf t tid in
    let v = Node.line_value hdr (slot_copy t) f.key_index in
    copy_header t hdr f.preds.(0);
    if not (Riv.equal (Node.line_next hdr 0) f.succs.(0)) then search_impl t ~tid key
    else if v = Node.tombstone then None
    else Some v
  end

(* Section 4.6: removal tombstones the value, reusing the update path. *)
let rec remove_impl t ~tid key =
  let f = traverse t ~tid ~recover:true key in
  if not f.found then
    if miss_raced_split t f then remove_impl t ~tid key else None
  else
    match update_found t ~tid f Node.tombstone with
    | None -> remove_impl t ~tid key
    | Some old as prev -> if old = Node.tombstone then None else prev

let upsert t ~tid key value =
  check_key key;
  check_value value;
  upsert_impl t ~tid key value

let search t ~tid key =
  check_key key;
  search_impl t ~tid key

let remove t ~tid key =
  check_key key;
  remove_impl t ~tid key

let mem_key t ~tid key = search t ~tid key <> None

(* Strictly linearizable range scan (the paper's Ch. 7 follow-up; DESIGN
   "Range scans"). One collect along level 0 records each node's lock word
   and level-0 next pointer, from one copy of its header line (which
   also gives the anchor and the claim's words), beside its pairs, read a
   slot line at a time, once no writer and no current-epoch slot writer
   holds the node; a validation pass re-reads those words, and any change
   restarts the scan. A node's pairs are kept once the next node's header
   copy gives its anchor, the node's bound: a key at or above it is dead
   (see Node). A node from an older epoch is repaired first, as a
   traversal does. Obstruction-free. *)
let range_impl t ~tid ~lo ~hi =
  let k = t.cfg.Config.keys_per_node in
  let epoch = Mem.epoch t.mem in
  let rec scan recoveries =
    let f = traverse t ~tid ~recover:true lo in
    let restart () =
      backoff t ~tid;
      scan recoveries
    in
    let hdr = line_buf t tid in
    let pos = slot_copy t in
    (* [pending]: the previous node's pairs, awaiting its bound *)
    let rec collect n seen pairs pending =
      if Riv.equal n t.tail then validate seen (List.rev_append pending pairs)
      else begin
        copy_header t hdr n;
        let bound = Node.line_anchor hdr 0 in
        let kept =
          List.fold_left (fun acc ((ki, _) as p) -> if ki < bound then p :: acc else acc) pairs pending
        in
        if bound > hi then validate seen kept
        else if check_for_recovery t ~tid ~cur:n ~hdr ~recoveries then scan (recoveries + 1)
        else begin
          let w = Node.line_lock hdr in
          let next = Node.line_next hdr 0 in
          if Node.Lock.is_write_locked ~epoch w || Node.Lock.readers_at ~epoch w > 0 then begin
            backoff t ~tid;
            collect n seen pairs pending
          end
          else begin
            let mine = ref [] in
            for i = 0 to k - 1 do
              if i mod Node.slots_per_line = 0 then
                Node.read_slot_line t.mem t.ly n (i / Node.slots_per_line) hdr pos;
              let ki = Node.line_key hdr pos i in
              if ki >= lo && ki <= hi then begin
                let v = Node.line_value hdr pos i in
                if v <> Node.tombstone then mine := (ki, v) :: !mine
              end
            done;
            collect next ((n, w, next) :: seen) kept !mine
          end
        end
      end
    and validate seen pairs =
      if
        List.for_all
          (fun (n, w, next) ->
            Node.Lock.word t.mem n = w && Riv.equal (Node.next t.mem t.ly n 0) next)
          seen
      then List.sort (fun (a, _) (b, _) -> Int.compare a b) pairs
      else restart ()
    in
    (* preds.(0) is the head when lo precedes every key *)
    collect f.preds.(0) [] [] []
  in
  scan 0

let range t ~tid ~lo ~hi =
  check_key lo;
  check_key hi;
  range_impl t ~tid ~lo ~hi

(* Post-crash structure pass: recompute the volatile [top] from the head's
   tower. Everything else is repaired lazily by the traversals that meet
   stale nodes. *)
let recover t ~tid:_ =
  let rec highest level =
    if level > 0 && Riv.equal (Node.next t.mem t.ly t.head level) t.tail then
      highest (level - 1)
    else level
  in
  Atomic.set t.top (highest (t.cfg.Config.max_height - 1))

(* ---- host-side verification (peeks; no simulated cost) ----------------- *)

(* The bound of [n] through [peek]: its level-0 successor's anchor, below
   which [n]'s non-empty keys are live (see Node). *)
let peek_bound t ~peek n =
  let s = Riv.of_word (peek n Node.o_next0) in
  if Riv.equal s t.tail then Node.tail_key else peek s Node.o_anchor

(* Walk the bottom level of the volatile image collecting live key/value
   pairs. *)
let to_alist t =
  let read_field = Mem.peek_field t.mem in
  let k = t.cfg.Config.keys_per_node in
  let rec walk n acc =
    if Riv.is_null n || Riv.equal n t.tail then acc
    else begin
      let acc = ref acc in
      let bound = peek_bound t ~peek:read_field n in
      for i = 0 to k - 1 do
        let ki = read_field n (Node.o_key t.ly i) in
        if ki <> Node.empty_key && ki <> Node.head_key && ki < bound then begin
          let v = read_field n (Node.o_value t.ly i) in
          if v <> Node.tombstone then acc := (ki, v) :: !acc
        end
      done;
      walk (Riv.of_word (read_field n Node.o_next0)) !acc
    end
  in
  let first = Riv.of_word (Mem.peek_field t.mem t.head Node.o_next0) in
  List.sort (fun (a, _) (b, _) -> Int.compare a b) (walk first [])

(* Number of allocator blocks linked into the bottom level (sentinels are
   root-area objects and excluded); used by block-conservation tests. *)
let node_count t =
  let rec walk n acc =
    if Riv.is_null n || Riv.equal n t.tail then acc
    else walk (Riv.of_word (Mem.peek_field t.mem n Node.o_next0)) (acc + 1)
  in
  walk (Riv.of_word (Mem.peek_field t.mem t.head Node.o_next0)) 0

(* The first level of each tower line below [n]'s height whose anchor copy
   differs from the header anchor, read through [peek]. *)
let stale_tower_anchors t ~peek n =
  let h = Int.min (Node.meta_height (peek n Node.o_meta)) t.cfg.Config.max_height in
  List.filter
    (fun level -> peek n (Node.o_tower_anchor t.ly level) <> peek n Node.o_anchor)
    (List.init (Node.tower_lines h) (fun g -> 2 + (Node.per_line * g)))

(* The dead rule over the bottom level, through [peek] (the volatile or
   the persistent image): every key a node holds, live or dead, is live in
   exactly one node, and, with [fps], on a node confirmed in the current
   epoch (not under a live writer, who rewrites the line before its
   unlock) every dead slot's fingerprint is 0 and every live key carries
   its fingerprint. The persistent image is checked without [fps]: a
   fingerprint line is volatile, and a confirmation persisted with a
   header line does not cover it (a new node persists its confirmed lock
   word but not its line, see [Node.persist_fresh]; a repair rewrites a
   line without a flush). Reports each violation through [err]. Live keys
   lie in [anchor, bound), and the bounds are the
   next nodes' anchors, so the nodes' ranges are disjoint: a live key is
   live in no other node once no slot of its node repeats it, and a dead
   key must be live in the node whose range holds it, a few nodes on. *)
let check_dead_rule t ~peek ~fps ~err =
  let err fmt = Fmt.kstr err fmt in
  let k = t.cfg.Config.keys_per_node in
  let epoch = Mem.epoch t.mem in
  let next n = Riv.of_word (peek n Node.o_next0) in
  let holds n key =
    let rec slot i = i < k && (peek n (Node.o_key t.ly i) = key || slot (i + 1)) in
    slot 0
  in
  (* the node whose range holds [key], from [n] on *)
  let rec owner n key =
    let s = next n in
    if Riv.is_null s || Riv.equal s t.tail || peek s Node.o_anchor > key then n
    else owner s key
  in
  (* a node's live keys, sorted, with [tail_key] for the other slots *)
  let live = Array.make k Node.tail_key in
  let max_steps = Mem.total_blocks t.mem in
  let rec walk n steps =
    if not (Riv.is_null n || Riv.equal n t.tail || steps > max_steps) then begin
      let k0 = peek n Node.o_anchor and bound = peek_bound t ~peek n in
      let lockw = peek n Node.o_lock in
      let confirmed =
        fps && Node.Lock.fp_ok_at ~epoch lockw && not (Node.Lock.is_write_locked ~epoch lockw)
      in
      Array.fill live 0 k Node.tail_key;
      for i = 0 to k - 1 do
        let ki = peek n (Node.o_key t.ly i) in
        let fp = Node.fp_byte (peek n (Node.o_fp_slot i)) i in
        if ki = Node.empty_key then ()
        else if ki >= bound then begin
          if not (holds (owner n ki) ki) then
            err "dead key %d in slot %d of node %d is live nowhere" ki i k0;
          if confirmed && fp <> 0 then
            err "dead key %d in slot %d of node %d's confirmed line has fingerprint %d" ki i k0
              fp
        end
        else begin
          if i > 0 && ki <= k0 then err "key %d in slot %d at or below node %d's anchor" ki i k0;
          live.(i) <- ki;
          if confirmed && fp <> Node.fingerprint ki then
            err "key %d in slot %d of a confirmed node lacks its fingerprint" ki i
        end
      done;
      Array.sort Int.compare live;
      for i = 1 to k - 1 do
        if live.(i) = live.(i - 1) && live.(i) <> Node.tail_key then
          err "key %d live in two slots of node %d" live.(i) k0
      done;
      walk (next n) (steps + 1)
    end
  in
  walk (next t.head) 0

(* Structural invariant check over the volatile image (tests):
   - bottom-level first keys strictly increase;
   - every tower line below a node's height holds the header anchor;
   - every level's list is a subsequence of the level below;
   - the dead rule ([check_dead_rule]), which also checks that a node's
     live keys lie above its first;
   - on every level, each hint is at most its successor's anchor, and no
     head level above [top] is non-empty.
   Nodes from older epochs (awaiting lazy recovery) are exempt from the
   tower-completeness check. Returns the list of violations found. *)
let check_invariants t =
  let errs = ref [] in
  let err fmt = Fmt.kstr (fun s -> errs := s :: !errs) fmt in
  let pk obj i = Mem.peek_field t.mem obj i in
  let nxt n level = Riv.of_word (pk n (Node.o_next t.ly level)) in
  (* bottom level ordering *)
  let rec walk0 n =
    if Riv.equal n t.tail then ()
    else begin
      let k0 = pk n (Node.o_key t.ly 0) in
      if pk n Node.o_anchor <> k0 then
        err "node anchor %d disagrees with slot-0 key %d" (pk n Node.o_anchor) k0;
      List.iter
        (fun level ->
          err "node %d: tower anchor at level %d reads %d" k0 level
            (pk n (Node.o_tower_anchor t.ly level)))
        (stale_tower_anchors t ~peek:pk n);
      let succ = nxt n 0 in
      let succ_k0 = pk succ (Node.o_key t.ly 0) in
      if k0 >= succ_k0 then err "bottom level not sorted at key %d" k0;
      walk0 succ
    end
  in
  walk0 (nxt t.head 0);
  check_dead_rule t ~peek:pk ~fps:true ~err:(fun s -> errs := s :: !errs);
  (* upper levels are sublists of level below *)
  for level = 1 to t.cfg.Config.max_height - 1 do
    let rec level_keys n acc lv =
      if Riv.equal n t.tail then List.rev acc
      else level_keys (nxt n lv) (pk n Node.o_anchor :: acc) lv
    in
    let upper = level_keys (nxt t.head level) [] level in
    let lower = level_keys (nxt t.head 0) [] 0 in
    let lower_set = List.sort_uniq Int.compare lower in
    List.iter
      (fun key ->
        if not (List.mem key lower_set) then
          err "level %d contains key %d missing from bottom" level key)
      upper;
    let rec sorted = function
      | a :: b :: rest -> if a >= b then false else sorted (b :: rest)
      | _ -> true
    in
    if not (sorted upper) then err "level %d not sorted" level
  done;
  (* hints: lower bounds on the successor's anchor, level by level *)
  let anchor n = if Riv.equal n t.tail then Node.tail_key else pk n Node.o_anchor in
  for level = 0 to t.cfg.Config.max_height - 1 do
    let rec hints n =
      if not (Riv.equal n t.tail) then begin
        let succ = nxt n level in
        let hint = pk n (Node.o_hint t.ly level) in
        if hint > anchor succ then
          err "level %d: hint %d of key %d's node above its successor's anchor %d"
            level hint (pk n Node.o_anchor) (anchor succ);
        hints succ
      end
    in
    hints t.head;
    if level > Atomic.get t.top && not (Riv.equal (nxt t.head level) t.tail) then
      err "head level %d non-empty above top %d" level (Atomic.get t.top)
  done;
  List.rev !errs

(* ---- persistent-heap audit (host side, persistent-image peeks) ----------

   What a power failure right now would leave behind, checked structurally:
   - the bottom level reaches the tail with strictly increasing first keys,
     every hop landing on a node-kind block (no dangling/cyclic chain), and
     each node's header anchor agreeing with its slot-0 key;
   - every tower line below a reachable node's height holds its header
     anchor (upper-level hops route by these copies);
   - every non-null tower pointer of a reachable node (and of the head)
     targets the tail or a node on the bottom level — torn tower builds
     legitimately leave null slots below the recorded height, and lazy
     repair may leave a level skipping nodes, but a pointer into a free or
     unregistered block is always corruption;
   - every hint of the head and of a reachable node whose pointer targets
     the tail or a bottom-level node is at most that target's anchor, so a
     traversal after the crash never ends a level before a node it needs;
   - tower discipline: no node records a height above [max_height], and
     none carries a non-null next word above its recorded height — a stray
     word there would be read as a tower pointer if the height ever grew;
   - the dead rule ([check_dead_rule]): every key a node holds is live in
     exactly one node. Fingerprint lines are not checked: they are
     volatile (see Node), and a crash that drops one leaves its node
     unconfirmed, so the first miss there repairs it;
   - the allocator accounts for every block (Block_alloc.audit):
     reachable, free-listed, or excused by a thread's allocation/provision
     log. *)
let audit_persistent t =
  let errs = ref [] in
  let err fmt = Fmt.kstr (fun s -> errs := s :: !errs) fmt in
  let ppk obj i = Mem.peek_field_persistent t.mem obj i in
  let nxt n level = Riv.of_word (ppk n (Node.o_next t.ly level)) in
  let resolvable p = Mem.try_resolve t.mem p <> None in
  (* pass 1: bottom-level walk, collecting the reachable-node set *)
  let on_bottom = Hashtbl.create 256 in
  let bound = Mem.total_blocks t.mem + 16 in
  let rec walk n prev_k0 steps =
    if Riv.is_null n then
      err "bottom level: chain ends in null before the tail (after key %d)" prev_k0
    else if Riv.equal n t.tail then ()
    else if steps > bound then err "bottom level: cycle or runaway chain"
    else if not (resolvable n) then
      err "bottom level: next pointer %a dangles (unregistered chunk)" Riv.pp n
    else begin
      let kind = Mem.kind_of (ppk n Node.o_meta) in
      if kind <> Mem.kind_node then
        err "bottom level: block %a linked in has kind %d (not a node)" Riv.pp n
          kind
      else begin
        Hashtbl.replace on_bottom (Riv.to_word n) ();
        let k0 = ppk n (Node.o_key t.ly 0) in
        if ppk n Node.o_anchor <> k0 then
          err "node %a: header anchor %d disagrees with slot-0 key %d" Riv.pp n
            (ppk n Node.o_anchor) k0;
        if k0 <= prev_k0 then
          err "bottom level: first keys not strictly increasing (%d after %d)" k0
            prev_k0;
        walk (nxt n 0) k0 (steps + 1)
      end
    end
  in
  walk (nxt t.head 0) Node.head_key 0;
  if !errs = [] then
    check_dead_rule t ~peek:ppk ~fps:false ~err:(fun s -> errs := s :: !errs);
  (* pass 2: tower pointers of the head and of every reachable node,
     checked up to the block's [max_height] tower array, not just up to
     the node's own height word — a height above the array, or a stray
     word between the height and the array's end, is the corruption
     being hunted. *)
  let anchor p =
    if Riv.equal p t.tail then Node.tail_key else ppk p Node.o_anchor
  in
  let cap = t.cfg.Config.max_height in
  let check_towers n label =
    let h = Node.meta_height (ppk n Node.o_meta) in
    if h < 1 || h > cap then err "%s: height %d out of range (cap %d)" label h cap
    else begin
      for level = 0 to h - 1 do
        let p = nxt n level in
        let target = Riv.equal p t.tail || Hashtbl.mem on_bottom (Riv.to_word p) in
        if level > 0 && not (Riv.is_null p || Riv.equal p t.tail) then
          if not (resolvable p) then
            err "%s: level-%d pointer %a dangles" label level Riv.pp p
          else if not target then
            err "%s: level-%d pointer %a targets a block not on the bottom level"
              label level Riv.pp p;
        if target && ppk n (Node.o_hint t.ly level) > anchor p then
          err "%s: level-%d hint %d above its successor's anchor %d" label level
            (ppk n (Node.o_hint t.ly level)) (anchor p)
      done;
      for level = Int.max 1 h to cap - 1 do
        if ppk n (Node.o_next t.ly level) <> 0 then
          err "%s: non-null next word at level %d above height %d" label level h
      done;
      List.iter
        (fun level ->
          err "%s: tower anchor at level %d reads %d, header anchor %d" label level
            (ppk n (Node.o_tower_anchor t.ly level)) (ppk n Node.o_anchor))
        (stale_tower_anchors t ~peek:ppk n)
    end
  in
  check_towers t.head "head sentinel";
  Hashtbl.iter
    (fun w () ->
      let n = Riv.of_word w in
      check_towers n
        (Fmt.str "node %a (key %d)" Riv.pp n (ppk n (Node.o_key t.ly 0))))
    on_bottom;
  (* pass 3: allocator accounting against the reachable set *)
  let alloc_errs =
    Block_alloc.audit t.mem ~reachable:(fun b -> Hashtbl.mem on_bottom (Riv.to_word b))
  in
  List.rev_append (List.rev !errs) alloc_errs

(* ---- test-only fault injection (harness self-validation) ----------------

   Deliberate post-recovery corruptions, poked write-through into both
   images, used to prove the fault-injection campaigns can actually detect
   a broken recovery: [lose_key] silently drops one committed update (the
   strict-linearizability checker must flag the lost update),
   [skip_fp_repair] clears the fingerprint of one live key and confirms its
   node's line — the state a skipped repair leaves (lookups miss the key
   and a re-insert claims a second slot: the checker must flag it),
   [raise_hint] lifts one level-0
   hint above its successor's anchor (the auditor must flag it; a lookup
   of that anchor would end the level early and miss it), [dangle] bends a
   tower pointer at a free block (the auditor must flag it),
   [stale_tower_anchor] lowers the level-2 anchor copy of the first node
   on level 2 by one, and the head's level-2 hint to match (a stale-low hint is legal): a lookup of the key just below the
   anchor then routes into that node and misses, and only the anchor-copy
   checks of both checkers see why. Returns false when the structure is in
   no state to apply the mutation (e.g. empty). *)
let corrupt t what =
  let first = Riv.of_word (Mem.peek_field t.mem t.head Node.o_next0) in
  (* apply [f] to the first live slot with a value on the bottom level,
     outside a write-locked node *)
  let first_live f =
    let k = t.cfg.Config.keys_per_node in
    let rec hunt n =
      if Riv.is_null n || Riv.equal n t.tail then false
      else if
        Node.Lock.is_write_locked ~epoch:(Mem.epoch t.mem) (Mem.peek_field t.mem n Node.o_lock)
      then hunt (Riv.of_word (Mem.peek_field t.mem n Node.o_next0))
      else begin
        let bound = peek_bound t ~peek:(Mem.peek_field t.mem) n in
        let rec slot i =
          if i >= k then
            hunt (Riv.of_word (Mem.peek_field t.mem n Node.o_next0))
          else if
            Mem.peek_field t.mem n (Node.o_key t.ly i) <> Node.empty_key
            && Mem.peek_field t.mem n (Node.o_key t.ly i) < bound
            && Mem.peek_field t.mem n (Node.o_value t.ly i) <> Node.tombstone
          then begin
            f n i;
            true
          end
          else slot (i + 1)
        in
        slot 0
      end
    in
    hunt first
  in
  match what with
  | "lose_key" ->
      first_live (fun n i -> Mem.poke_field t.mem n (Node.o_value t.ly i) Node.tombstone)
  | "skip_fp_repair" ->
      first_live (fun n i ->
          let o = Node.o_fp_slot i in
          Mem.poke_field t.mem n o (Node.with_fp_byte (Mem.peek_field t.mem n o) i 0);
          let epoch = Mem.epoch t.mem in
          let w = Mem.peek_field t.mem n Node.o_lock in
          let w =
            if Node.Lock.stamp w = epoch then w
            else Node.Lock.make_word ~epoch ~writer:false ~readers:0
          in
          Mem.poke_field t.mem n Node.o_lock (w lor Node.fp_ok_bit))
  | "raise_hint" ->
      (* the first bottom-level successor of height 1 (reachable only
         through its level-0 predecessor), else the first node *)
      let nxt0 n = Riv.of_word (Mem.peek_field t.mem n Node.o_next0) in
      let rec pick pred =
        let s = nxt0 pred in
        if Riv.is_null s || Riv.equal s t.tail then None
        else if Node.meta_height (Mem.peek_field t.mem s Node.o_meta) = 1 then
          Some (pred, s)
        else pick s
      in
      let victim =
        match pick t.head with
        | Some _ as v -> v
        | None ->
            if Riv.is_null first || Riv.equal first t.tail then None
            else Some (t.head, first)
      in
      (match victim with
      | None -> false
      | Some (pred, s) ->
          Mem.poke_field t.mem pred Node.o_hint0
            (Mem.peek_field t.mem s Node.o_anchor + 1);
          true)
  | "stale_tower_anchor" ->
      (* the first level-2 link into a node: pred -> n *)
      let nxt2 n = Riv.of_word (Mem.peek_field t.mem n (Node.o_next t.ly 2)) in
      let n = nxt2 t.head in
      if Riv.is_null n || Riv.equal n t.tail then false
      else begin
        let stale = Mem.peek_field t.mem n Node.o_anchor - 1 in
        Mem.poke_field t.mem n (Node.o_tower_anchor t.ly 2) stale;
        Mem.poke_field t.mem t.head (Node.o_hint t.ly 2) stale;
        true
      end
  | "dangle" ->
      (* bend the first reachable node's level-1 next at a free-list block *)
      if Riv.is_null first || Riv.equal first t.tail then false
      else begin
        let victim =
          Mem.peek_ptr t.mem (Mem.arena_head_ptr ~pool:0 ~arena:0) 0
        in
        if Riv.is_null victim then false
        else begin
          Mem.poke_ptr t.mem first (Node.o_next t.ly 1) victim;
          let meta = Mem.peek_field t.mem first Node.o_meta in
          if Node.meta_height meta < 2 then
            Mem.poke_field t.mem first Node.o_meta (Node.with_height meta 2);
          true
        end
      end
  | _ -> false
