(* UPSkipList: a recoverable, PMEM-resident lock-free skip list with
   multi-key nodes and recoverable concurrent node splits (paper Chapter 4).

   Derived from Herlihy et al.'s lock-free skip list via the paper's
   extension to RECIPE: every node records the failure-free epoch in which
   its consistency was last confirmed. A traversal that meets a node from an
   older epoch knows no live thread is responsible for it, claims it by
   CASing the epoch forward, and repairs it in place: an interrupted node
   split always, an incomplete tower only when its allocator's log names
   the node (stale lock state voids itself). Allocation uses the logged
   block allocator so interrupted inserts cannot leak memory; the log check
   is deferred to the owning thread's next allocation, which also completes
   the logged node's tower.

   Cache-conscious layout: every node takes one allocator block holding a
   full [max_height] tower array, as in the paper, and the hot header packs
   the hop-time fields (epoch, locks, anchor key, level-0 and level-1 next
   pointers and their hints) into one cache line, so a hop along the
   bottom two levels reads one line per node, with one access. Above
   level 1 each tower line carries a copy of the anchor, so a hop there
   reads one line, with one access, and never the header: one access per
   line, at every level.

   Each node carries a line of 7-bit key fingerprints (see Node), so the
   in-node lookup reads the fingerprint line, with one access, and only
   the slots whose fingerprint matches, instead of scanning the unsorted
   keys linearly.

   Every next pointer carries a successor-key hint in its own line (see
   Node): a traversal ends a level when the hint exceeds its key, without
   loading the overshoot node or the tail, and enters only the nodes it
   moves onto, claiming for recovery those it enters at levels 1 and 0.
   Searches start at the volatile
   [top] level, the highest level a link may have reached, instead of
   walking the empty head levels above it.

   Operations:
   - [search]/[mem_key]: wait-free traversal + fingerprinted key lookup,
     validated against the node's split counter and split lock;
   - [upsert]: lock-free insert of new head-successor nodes, CAS slot claims
     inside existing nodes under a read lock, deadlock-free node splits
     under a write lock that take the overflowing key along;
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
  fp_bufs : int array array;
      (* tid -> the fingerprint words of the node its lookup or claim
         last read ([Node.read_fps]), or the line its walk last copied: a
         header line at levels 1 and 0, a tower line above. A recovery
         claim can run a nested traversal that overwrites it, so a walk
         copies its line again after a claim *)
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
  split_count : int;
      (* of preds.(0), from a copy of its header line made before its keys
         were scanned; [unsettled] when a writer held the node then *)
  preds : Riv.t array;
  succs : Riv.t array;
      (* each level's successor, from the copy of pred's line the level
         ended on (the tail above the [top] the traversal read) *)
  bounds : int array;
      (* lower bound on each succs.(l)'s anchor: the anchor itself when
         the walk entered the node, else the pred's hint — what a new node
         linked before succs.(l) stores as its own hint *)
}

(* The split count of a traversal that copied pred0's header while a
   writer held it: a split bumps the count before it erases the slots it
   moved, so the copy's count may already be the one the finished split
   leaves, with the keys scanned before their erasure. No node's count is
   negative, so every validation against this one fails and retries. *)
let unsettled = -1

(* Find [key] among a node's slots (Function 8) through its fingerprint
   line: walk the fingerprint [words] ([Node.read_fps]) in slot order and
   read a slot's key only when its fingerprint matches. Absence is
   reported after the last word; it is an answer only if the line was
   confirmed complete before the words were read (see [scan_keys]). *)
let find_slot t ~tid n key words =
  let ly = t.ly in
  let f = Node.fingerprint key in
  let rec scan j =
    if j >= ly.Node.fp_used then -1
    else begin
      let w = words.(j) in
      let last = Int.min ly.Node.k ((j + 1) * Config.fps_per_word) in
      let rec slot i =
        if i >= last then scan (j + 1)
        else if Node.fp_byte w i <> f then slot (i + 1)
        else begin
          Obs.bump ~tid Obs.id_fp_match;
          if Node.key t.mem ly n i = key then i
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

(* Complete an unconfirmed node's fingerprint line from its keys (no
   flush) and confirm it. Returns the keys it read. Claims that race the
   repair publish their own fingerprints first, so the line is complete
   once every key read here has its fingerprint; a byte already set is
   that key's own fingerprint or a stale one over an empty key. *)
let repair_fps t ~tid n =
  let keys = Array.init t.ly.Node.k (fun i -> Node.key t.mem t.ly n i) in
  Array.iteri
    (fun i ki ->
      if ki <> Node.empty_key then
        ignore (Node.publish_fp t.mem n i (Node.fingerprint ki) : bool))
    keys;
  if Node.Lock.confirm_fp t.mem n then obs_event ~tid Obs.id_fp_confirm 0;
  keys

let fp_confirmed t n =
  Node.Lock.fp_ok_at ~epoch:(Mem.epoch t.mem) (Node.Lock.word t.mem n)

(* A traversal's in-node lookup. A fingerprint hit is checked by its key
   read, so it answers on any node. A miss answers only on a node whose
   line was [confirmed] before the words are read, since a repair may
   complete the line in between (the caller takes the bit from a header
   copy made before this call: under a current stamp it is never cleared
   within an epoch). A miss on an unconfirmed node repairs the line and
   answers from the keys the repair read. *)
let scan_keys t ~tid n key ~confirmed =
  let words = t.fp_bufs.(tid) in
  Node.read_fps t.mem t.ly n words;
  match find_slot t ~tid n key words with
  | -1 when not confirmed ->
      Option.value ~default:(-1) (Array.find_index (( = ) key) (repair_fps t ~tid n))
  | i -> i

(* ---- recovery (Functions 10-12) ---------------------------------------- *)

(* Complete or clean up an interrupted node split (Function 11): a node left
   write-locked by a previous epoch either transferred its upper keys to a
   linked successor (erase the duplicates here) or failed before linking
   (nothing to erase; the orphan node is reclaimed by the allocation log). *)
let check_split_recovery t ~tid n =
  let held = Node.Lock.word t.mem n in
  if Node.Lock.is_write_locked held then begin
    obs_event ~tid Obs.id_split_repair 0;
    let succ = Node.next t.mem t.ly n 0 in
    let k = t.cfg.Config.keys_per_node in
    for i = 0 to k - 1 do
      let ki = Node.key t.mem t.ly n i in
      if ki = Node.empty_key then
        Mem.write_field t.mem n (Node.o_value t.ly i) Node.tombstone
      else if not (Riv.equal succ t.tail) then begin
        let rec dup j =
          if j >= k then ()
          else if Node.key t.mem t.ly succ j = ki then begin
            Mem.write_field t.mem n (Node.o_key t.ly i) Node.empty_key;
            Mem.write_field t.mem n (Node.o_value t.ly i) Node.tombstone
          end
          else dup (j + 1)
        in
        dup 0
      end
    done;
    (* recompute the fingerprint line from the surviving keys: erased slots
       lose theirs, and a claim the crash interrupted leaves none stale *)
    ignore
      (Node.write_fp_line t.mem t.ly n
         (Node.fp_line t.ly (Array.init k (fun i -> Node.key t.mem t.ly n i)))
        : bool);
    Node.persist_body t.mem t.ly n;
    Node.Lock.write_unlock t.mem n ~held
  end

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

(* A hop reads each line it uses with one access, into its thread's
   [fp_bufs] buffer: a node's header line at levels 0 and 1, its tower
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

   The lookup in pred0 takes its split count and the lock word's fp_ok
   bit from the header copy the walk ends with, and copies pred0's line
   once more only when a level-0 overshoot left the entered node's line
   in the buffer. An older split count only adds retries, and fp_ok under
   a current stamp is never cleared within an epoch, so the copy serves
   as well as fresh word reads would; a copy that shows a writer yields
   [unsettled]. A found search then validates with one more read of the
   header line, after its value read ([search_impl]). The write paths'
   validation (read lock, split count, [relinked]) and every CAS, flush
   and fence stay word accesses. *)
let rec traverse t ~tid ~recover key =
  let h = t.cfg.Config.max_height in
  let preds = Array.make h t.head in
  let succs = Array.make h t.tail in
  let bounds = Array.make h Node.tail_key in
  let recoveries = ref 0 in
  let rec attempt () =
    let restart = ref false in
    let pred = ref t.head in
    let buf = t.fp_bufs.(tid) in
    buf.(held) <- 0;
    (* Function 10, on the node whose header line the buffer holds: run
       only where a hop reads a header line anyway, at levels 1 and 0. A
       repair restarts the traversal. *)
    let claim n =
      recover
      && check_for_recovery t ~tid ~cur:n ~hdr:t.fp_bufs.(tid) ~recoveries:!recoveries
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
      if Riv.equal pred0 t.head then
        { found = false; key_index = -1; split_count = 0; preds; succs; bounds }
      else begin
        (* the lookup's split count and fp_ok bit come from a copy of
           pred0's header line: the one the walk holds, unless a level-0
           overshoot left the entered node's line in the buffer *)
        if not (Riv.equal !copied pred0) then copy_header t buf pred0;
        let lockw = Node.line_lock buf in
        let sc =
          if Node.Lock.is_write_locked lockw then unsettled
          else Node.meta_split_count (Node.line_meta buf)
        in
        let ki =
          scan_keys t ~tid pred0 key
            ~confirmed:(Node.Lock.fp_ok_at ~epoch:(Mem.epoch t.mem) lockw)
        in
        { found = ki >= 0; key_index = ki; split_count = sc; preds; succs; bounds }
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

   Two things can be broken. An interrupted split leaves the writer bit
   set under an older stamp (stale readers vanish via the stamp, and a
   writer bit under the current stamp is a live writer's); it is always
   repaired, because its contents make traversal results unreliable
   (Section 4.4.1). A tower can be incomplete only if the node's insert
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
      let split = Node.Lock.interrupted ~epoch:(Mem.epoch t.mem) (Node.line_lock hdr) in
      let meta = Node.line_meta hdr in
      let tower =
        Node.meta_height meta > 1
        && Block_alloc.names_in_flight t.mem ~tid:(Node.meta_tid meta) cur
      in
      if tower && (not split) && recoveries >= t.cfg.Config.recovery_budget then false
      else begin
        let repaired = claim_node t ~tid cur ~node_epoch ~split ~tower = Some true in
        if not repaired then copy_header t hdr cur;
        repaired
      end
    end
  end

(* The claim itself: CAS [cur]'s epoch forward from [node_epoch], then
   repair the interrupted split and check the tower, as [split] and [tower]
   say. [None] when another thread claimed the node first, else whether
   anything was repaired. *)
and claim_node t ~tid cur ~node_epoch ~split ~tower =
  if not (Node.cas_epoch t.mem cur ~expected:node_epoch ~desired:(Mem.epoch t.mem))
  then None
  else begin
    obs_event ~tid Obs.id_epoch_repair 0;
    if split then check_split_recovery t ~tid cur;
    let towered = tower && check_insert_recovery t ~tid cur in
    Some (split || towered)
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
   epoch is claimed, with the split repair a claim includes, so no claimer
   builds the same tower at once. A node another thread claimed in this
   epoch has its tower built by that claimer, which read the same log
   entry: wait until every level is linked. *)
let complete_tower t ~tid n =
  let node_epoch = Node.epoch t.mem n in
  let claimed =
    node_epoch <> Mem.epoch t.mem
    && claim_node t ~tid n ~node_epoch
         ~split:(Node.Lock.interrupted ~epoch:(Mem.epoch t.mem) (Node.Lock.word t.mem n))
         ~tower:true
       <> None
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
      fp_bufs =
        Array.init max_threads (fun _ ->
            Array.make (ly.Node.fp_lines * Config.line_words) 0);
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

(* Whether a node was linked after [pred0] at level 0 since a traversal read
   [succ0] there. Every split links its new node before it bumps the split
   counter and erases the moved slots, so this catches each split that may
   have moved keys out of [pred0]. The counter cannot: a split that
   completes between the traversal's successor read and its counter read
   leaves the counter matching, and an insert would then claim a slot the
   split just emptied, in a node that no longer owns the key. *)
let relinked t ~pred0 ~succ0 =
  not (Riv.equal (Node.next t.mem t.ly pred0 0) succ0)

(* Function 16: claim an empty slot in an existing node under a read lock
   (the lock only excludes concurrent splits, not other writers). Under the
   lock, an unchanged level-0 successor means [pred0] still owns [key]
   (see [relinked]); it replaces the paper's split-counter check, which
   misses the split that completed mid-traversal, at the same cost of one
   header-line read.

   An unconfirmed [pred0] — its line may have lost fingerprints in a crash
   — is repaired first; the read lock keeps it confirmed from then on
   (only a writer rewrites or clears the line). Then one read of the
   fingerprint line serves two passes. The first looks for [key] itself
   (an update). The second walks, in slot order, the slots whose
   fingerprint is 0 or [key]'s: such a slot is claimed by publishing
   [key]'s fingerprint and only then CASing the key in, with no flush
   between. The key CAS stays the claim and the point where two inserts of
   one key meet: both walk the same candidates in the same order, so the
   loser of a slot reads the winner's key and turns into an update. A
   successful claim persists key and value with a single slot flush: the
   two words share a cache line by layout. The fingerprint is not
   persisted; a crash that keeps the slot line and drops it leaves the
   node unconfirmed, and the next miss or insert there repairs it. *)
let insert_into_existing t ~tid ~key ~value ~pred0 ~succ0 =
  if not (Node.Lock.read_lock t.mem pred0) then Retry
  else if relinked t ~pred0 ~succ0 then begin
    Node.Lock.read_unlock t.mem pred0;
    Retry
  end
  else begin
    let ly = t.ly in
    let finish old =
      Node.Lock.read_unlock t.mem pred0;
      Done old
    in
    if not (fp_confirmed t pred0) then ignore (repair_fps t ~tid pred0 : int array);
    let words = t.fp_bufs.(tid) in
    Node.read_fps t.mem ly pred0 words;
    let f = Node.fingerprint key in
    let fp_at i = Node.fp_byte words.(Node.fp_index i) i in
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
          else if ki <> Node.empty_key || not (Node.publish_fp t.mem pred0 i f)
          then claim (i + 1)
          else begin
            if Node.cas_key t.mem ly pred0 i ~expected:Node.empty_key ~desired:key
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
        end
      end
    in
    match find_slot t ~tid pred0 key words with
    | -1 -> claim 0
    | i -> finish (update_value t pred0 i value)
  end

(* Function 20: split a full node. The write lock (persisted before the new
   node becomes reachable, so an interrupted split is detectable) excludes
   updates while keys move; a non-empty suffix of the sorted pairs migrates
   to a new node linked immediately after. The suffix is the top K/8 pairs
   when [key], the key that overflowed the node, would rank among them and
   the successor's anchor lies farther above [key] than the node's own
   anchor lies below it (an ascending run then leaves nodes 7/8 full, and
   the new node has room to fill); else the median and above (DESIGN
   "Split point"). The minimum key never moves, so the header anchor stays
   valid across any number of splits.

   When [key] ranks above the new anchor (every tail cut), it goes in with
   the split, appended to the new node's pairs: it becomes visible at the
   link CAS and durable when the link persists. Returns whether it went
   in; false when [key] belongs to the old half, another writer holds the
   lock, a slot turned out free or the link CAS failed, and the caller
   retries the upsert, which claims a free slot. *)
let split_node t ~tid ~key ~value ~(f : find) =
  let pred0 = f.preds.(0) in
  match Node.Lock.acquire_write t.mem pred0 ~backoff:(fun () -> backoff t ~tid) with
  | None -> false
  | Some held ->
    (* The writer bit is not persisted on its own: the lock word shares
       pred0's header line with the level-0 pointer and is stored before
       the link CAS, so every persisted image of that line holding the
       link also holds the bit, and the split stays detectable. *)
    let ly = t.ly in
    let k = ly.Node.k in
    let keys = Array.init k (fun i -> Node.key t.mem ly pred0 i) in
    if Array.exists (fun ki -> ki = Node.empty_key || ki = key) keys then begin
      (* A slot freed up since the caller's scan, or the caller found only
         free slots behind stale fingerprints (claims a crash interrupted),
         or [key] arrived: no split needed, and the retry finds its slot.
         Rewrite the line from the keys so every free slot shows a 0
         fingerprint again — otherwise the insert would return here
         forever. *)
      if Node.write_fp_line t.mem ly pred0 (Node.fp_line ly keys) then
        Mem.persist_range t.mem pred0 ~first:Node.o_fp ~words:ly.Node.fp_used;
      Node.Lock.write_unlock t.mem pred0 ~held;
      false
    end
    else begin
      let order = Array.init k Fun.id in
      Array.sort (fun i j -> Int.compare keys.(i) keys.(j)) order;
      let m = Int.max 1 (k / 8) in
      let anchor = keys.(order.(0)) in
      let tail_cut = key > keys.(order.(k - m)) && f.bounds.(0) - key > key - anchor in
      let cut = if tail_cut then k - m else k / 2 in
      (* the moved slots, in key order *)
      let moved = Array.sub order cut (k - cut) in
      let new_anchor = keys.(moved.(0)) in
      let into_new = key > new_anchor in
      let new_keys = Array.map (fun i -> keys.(i)) moved in
      let new_values = Array.map (fun i -> Node.value t.mem ly pred0 i) moved in
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
      if Node.cas_next t.mem ly pred0 0 ~expected:f.succs.(0) ~desired:node then begin
        Node.persist_next t.mem ly pred0 0;
        obs_event ~tid Obs.id_split new_anchor;
        if tail_cut then Obs.bump ~tid Obs.id_split_tail;
        (* the split count only serves readers of this epoch: the write
           unlock persists it, in the same header line *)
        Node.set_split_count t.mem pred0 (Node.split_count t.mem pred0 + 1);
        Array.iter
          (fun i ->
            Mem.write_field t.mem pred0 (Node.o_key ly i) Node.empty_key;
            Mem.write_field t.mem pred0 (Node.o_value ly i) Node.tombstone;
            keys.(i) <- Node.empty_key)
          moved;
        (* the moved slots' fingerprints go with their keys *)
        ignore (Node.write_fp_line t.mem ly pred0 (Node.fp_line ly keys) : bool);
        Node.persist_split t.mem ly pred0 moved;
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

(* Function 13 (upsert). Returns the previous value if the key was present. *)
let rec upsert_impl t ~tid key value =
  let f = traverse t ~tid ~recover:true key in
  let pred0 = f.preds.(0) in
  if f.found then begin
    if not (Node.Lock.read_lock t.mem pred0) then begin
      backoff t ~tid;
      upsert_impl t ~tid key value
    end
    else if Node.split_count t.mem pred0 <> f.split_count then begin
      Node.Lock.read_unlock t.mem pred0;
      upsert_impl t ~tid key value
    end
    else begin
      let old = update_value t pred0 f.key_index value in
      Node.Lock.read_unlock t.mem pred0;
      if old = Node.tombstone then None else Some old
    end
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

(* Function 9. A found key's value is an answer if no split moved keys
   out of pred0 between the traversal's header copy and the value read.
   One read of the header line after the value read checks that at one
   instant: not write-locked, and the split count the copy held. A split
   bumps the count under the writer bit, before it erases the slots it
   moved, and unlocks after, so a split that erased the slot before the
   value read either still holds the lock or has changed the count; the
   copy's own writer bit covers the split it caught mid-way
   ([unsettled]). *)
let rec search_impl t ~tid key =
  let f = traverse t ~tid ~recover:true key in
  if not f.found then
    if miss_raced_split t f then search_impl t ~tid key else None
  else begin
    let n = f.preds.(0) in
    let v = Node.value t.mem t.ly n f.key_index in
    let hdr = t.fp_bufs.(tid) in
    copy_header t hdr n;
    if Node.Lock.is_write_locked (Node.line_lock hdr) then begin
      backoff t ~tid;
      search_impl t ~tid key
    end
    else if Node.meta_split_count (Node.line_meta hdr) <> f.split_count then
      search_impl t ~tid key
    else if v = Node.tombstone then None
    else Some v
  end

(* Section 4.6: removal tombstones the value, reusing the update path. *)
let rec remove_impl t ~tid key =
  let f = traverse t ~tid ~recover:true key in
  if not f.found then
    if miss_raced_split t f then remove_impl t ~tid key else None
  else begin
    let pred0 = f.preds.(0) in
    if not (Node.Lock.read_lock t.mem pred0) then begin
      backoff t ~tid;
      remove_impl t ~tid key
    end
    else if Node.split_count t.mem pred0 <> f.split_count then begin
      Node.Lock.read_unlock t.mem pred0;
      remove_impl t ~tid key
    end
    else begin
      let old = update_value t pred0 f.key_index Node.tombstone in
      Node.Lock.read_unlock t.mem pred0;
      if old = Node.tombstone then None else Some old
    end
  end

(* Apply [f]. It guards nothing: each public operation calls its body
   through this one closure call only because perf's [host_peak_mb]
   samples the heap where allocation pacing, not live data, sets the peak,
   and calling the bodies directly raises [svc-a-detect]'s reading from
   12.6 to 15.9 MB with every simulated number unchanged. Delete it once
   the peak is sampled after a full major collection (ROADMAP, the
   benchmark item's step 5). *)
let[@inline never] apply f = f ()

let upsert t ~tid key value =
  check_key key;
  check_value value;
  apply (fun () -> upsert_impl t ~tid key value)

let search t ~tid key =
  check_key key;
  apply (fun () -> search_impl t ~tid key)

let remove t ~tid key =
  check_key key;
  apply (fun () -> remove_impl t ~tid key)

let mem_key t ~tid key = search t ~tid key <> None

(* Strictly linearizable range scan (the paper's Ch. 7 follow-up; DESIGN
   "Range scans"). One collect along level 0 records each node's lock word
   and level-0 next pointer, from one copy of its header line (which
   also gives the anchor and the claim's words), beside its pairs, once no
   writer and no current-epoch slot writer holds the node; a validation
   pass re-reads those words, and any change restarts the scan. A node
   from an older epoch is repaired first, as a traversal does.
   Obstruction-free. *)
let range_impl t ~tid ~lo ~hi =
  let k = t.cfg.Config.keys_per_node in
  let epoch = Mem.epoch t.mem in
  let rec scan recoveries =
    let f = traverse t ~tid ~recover:true lo in
    let restart () =
      backoff t ~tid;
      scan recoveries
    in
    let hdr = t.fp_bufs.(tid) in
    let rec collect n seen pairs =
      if Riv.equal n t.tail then validate seen pairs
      else begin
        copy_header t hdr n;
        if Node.line_anchor hdr 0 > hi then validate seen pairs
        else if check_for_recovery t ~tid ~cur:n ~hdr ~recoveries then scan (recoveries + 1)
        else begin
          let w = Node.line_lock hdr in
          let next = Node.line_next hdr 0 in
          if Node.Lock.is_write_locked w || Node.Lock.readers_at ~epoch w > 0 then begin
            backoff t ~tid;
            collect n seen pairs
          end
          else begin
            let pairs = ref pairs in
            for i = 0 to k - 1 do
              let ki = Node.key t.mem t.ly n i in
              if ki >= lo && ki <= hi then begin
                let v = Node.value t.mem t.ly n i in
                if v <> Node.tombstone then pairs := (ki, v) :: !pairs
              end
            done;
            collect next ((n, w, next) :: seen) !pairs
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
    collect f.preds.(0) [] []
  in
  scan 0

let range t ~tid ~lo ~hi =
  check_key lo;
  check_key hi;
  apply (fun () -> range_impl t ~tid ~lo ~hi)

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

(* Walk the persistent bottom level collecting live key/value pairs. *)
let to_alist t =
  let read_field = Mem.peek_field t.mem in
  let k = t.cfg.Config.keys_per_node in
  let rec walk n acc =
    if Riv.is_null n || Riv.equal n t.tail then acc
    else begin
      let acc = ref acc in
      for i = 0 to k - 1 do
        let ki = read_field n (Node.o_key t.ly i) in
        if ki <> Node.empty_key && ki <> Node.head_key then begin
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

(* Structural invariant check over the volatile image (tests):
   - bottom-level first keys strictly increase;
   - every tower line below a node's height holds the header anchor;
   - every level's list is a subsequence of the level below;
   - internal keys lie in (keys[0], next.keys[0]);
   - no key is held by two slots of one node (a node under the write
     lock — an interrupted split awaiting repair — is exempt: split
     recovery erases its duplicates), and on a node whose
     fingerprint line is confirmed in the current epoch every key carries
     its fingerprint (an unconfirmed node's line is repaired by the first
     miss there);
   - on every level, each hint is at most its successor's anchor, and no
     head level above [top] is non-empty.
   Nodes from older epochs (awaiting lazy recovery) are exempt from the
   tower-completeness check. Returns the list of violations found. *)
let check_invariants t =
  let errs = ref [] in
  let err fmt = Fmt.kstr (fun s -> errs := s :: !errs) fmt in
  let pk obj i = Mem.peek_field t.mem obj i in
  let nxt n level = Riv.of_word (pk n (Node.o_next t.ly level)) in
  let k = t.cfg.Config.keys_per_node in
  (* bottom level ordering + internal key bounds *)
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
      for i = 1 to k - 1 do
        let ki = pk n (Node.o_key t.ly i) in
        if ki <> Node.empty_key then begin
          if ki <= k0 then err "internal key %d <= first key %d" ki k0;
          if ki >= succ_k0 then err "internal key %d >= next first key %d" ki succ_k0
        end
      done;
      let lockw = pk n Node.o_lock in
      if not (Node.Lock.is_write_locked lockw) then begin
        let confirmed = Node.Lock.fp_ok_at ~epoch:(Mem.epoch t.mem) lockw in
        let held = Hashtbl.create k in
        for i = 0 to k - 1 do
          let ki = pk n (Node.o_key t.ly i) in
          if ki <> Node.empty_key then begin
            if Hashtbl.mem held ki then err "key %d held twice in one node" ki;
            Hashtbl.replace held ki ();
            if
              confirmed
              && Node.fp_byte (pk n (Node.o_fp_slot i)) i <> Node.fingerprint ki
            then err "key %d in slot %d of a confirmed node lacks its fingerprint" ki i
          end
        done
      end;
      walk0 succ
    end
  in
  walk0 (nxt t.head 0);
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
   - the allocator accounts for every block (Block_alloc.audit):
     reachable, free-listed, or excused by a thread's allocation/provision
     log.

   Fingerprint lines are not checked: they are volatile (see Node), and a
   crash that drops one leaves its node unconfirmed, so the first miss
   there repairs it. *)
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
  (* apply [f] to the first live slot on the bottom level outside a
     write-locked node *)
  let first_live f =
    let k = t.cfg.Config.keys_per_node in
    let rec hunt n =
      if Riv.is_null n || Riv.equal n t.tail then false
      else if Node.Lock.is_write_locked (Mem.peek_field t.mem n Node.o_lock) then
        hunt (Riv.of_word (Mem.peek_field t.mem n Node.o_next0))
      else begin
        let rec slot i =
          if i >= k then
            hunt (Riv.of_word (Mem.peek_field t.mem n Node.o_next0))
          else if
            Mem.peek_field t.mem n (Node.o_key t.ly i) <> Node.empty_key
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
