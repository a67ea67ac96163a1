(* UPSkipList: a recoverable, PMEM-resident lock-free skip list with
   multi-key nodes and recoverable concurrent node splits (paper Chapter 4).

   Derived from Herlihy et al.'s lock-free skip list via the paper's
   extension to RECIPE: every node records the failure-free epoch in which
   its consistency was last confirmed. A traversal that meets a node from an
   older epoch knows no live thread is responsible for it, claims it by
   CASing the epoch forward, and repairs it in place (incomplete tower
   builds, interrupted node splits, stale lock state). Allocation uses the
   logged block allocator so interrupted inserts cannot leak memory; the log
   check is deferred to the owning thread's next allocation.

   Cache-conscious layout: every node takes one allocator block holding a
   full [max_height] tower array, as in the paper, and the hot header packs
   the hop-time fields (epoch, locks, anchor key, level-0 and level-1 next
   pointers and their hints) into one cache line, so advancing along the
   bottom two levels costs one simulated line per node.

   Each node carries a line of 7-bit key fingerprints (see Node), so the
   in-node lookup reads the fingerprint words and only the slots whose
   fingerprint matches, instead of scanning the unsorted keys linearly.

   Every next pointer carries a successor-key hint in its own line (see
   Node): a traversal ends a level when the hint exceeds its key, without
   loading the overshoot node or the tail, and enters — and claims for
   recovery — only the nodes it moves onto. Searches start at the volatile
   [top] level, the highest level a link may have reached, instead of
   walking the empty head levels above it.

   Operations:
   - [search]/[mem_key]: wait-free traversal + fingerprinted key lookup,
     validated against the node's split counter and split lock;
   - [upsert]: lock-free insert of new head-successor nodes, CAS slot claims
     inside existing nodes under a read lock, deadlock-free node splits
     under a write lock;
   - [remove]: tombstoning update (Section 4.6);
   - [range]: bottom-level scan with per-node split validation. *)

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
  ops : Block_alloc.node_ops;
  reclaim : Reclaim.t option;  (* present iff cfg.reclaim_empty_nodes *)
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

let create ~mem ~cfg ~max_threads ~seed =
  Config.validate cfg;
  let ly = Node.layout cfg in
  if Mem.block_words mem < Config.node_words cfg then
    invalid_arg "Skiplist.create: allocator blocks smaller than a node";
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
  let reclaim =
    if cfg.Config.reclaim_empty_nodes then
      Some
        (Reclaim.create ~max_threads
           ~free:(fun ~tid node -> Block_alloc.delete_linked_object mem ~tid node)
           ())
    else None
  in
  {
    mem;
    cfg;
    ly;
    head;
    tail;
    height_rngs = Array.init max_threads (fun _ -> Sim.Rng.split root_rng);
    ops =
      {
        Block_alloc.key0 = (fun n -> Node.key0 mem n);
        next0 = (fun n -> Node.next mem ly n 0);
      };
    reclaim;
    top = Atomic.make 0;
  }

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
let backoff t ~tid =
  Sim.Sched.charge (20.0 +. float_of_int (Sim.Rng.int t.height_rngs.(tid) 300))

(* ---- traversal result -------------------------------------------------- *)

type find = {
  found : bool;
  key_index : int;
  split_count : int;  (* of preds.(0), read before its keys were scanned *)
  preds : Riv.t array;
  succs : Riv.t array;
  bounds : int array;
      (* lower bound on each succs.(l)'s anchor: the anchor itself when
         the traversal entered the node, else the pred's hint — what a
         new node linked before succs.(l) stores as its own hint *)
}

(* Find [key] among a node's slots (Function 8) through its fingerprint
   line: walk the fingerprint words in slot order ([word j] supplies word
   [j]) and read a slot's key only when its fingerprint matches. Absence
   is reported after the last word; it is an answer only if the line was
   confirmed complete before the words were read (see [scan_keys]). *)
let find_slot t ~tid n key ~word =
  let ly = t.ly in
  let f = Node.fingerprint key in
  let rec scan j =
    if j >= ly.Node.fp_used then -1
    else begin
      let w = word j in
      let last = min ly.Node.k ((j + 1) * Config.fps_per_word) in
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
   line is confirmed — checked before the words are read, since a repair
   may complete the line in between. A miss on an unconfirmed node
   repairs the line and answers from the keys the repair read. *)
let scan_keys t ~tid n key =
  let confirmed = fp_confirmed t n in
  match find_slot t ~tid n key ~word:(fun j -> Node.fp_word t.mem n j) with
  | -1 when not confirmed ->
      Option.value ~default:(-1) (Array.find_index (( = ) key) (repair_fps t ~tid n))
  | i -> i

(* ---- recovery (Functions 10-12) ---------------------------------------- *)

(* Complete or clean up an interrupted node split (Function 11): a node left
   write-locked by a previous epoch either transferred its upper keys to a
   linked successor (erase the duplicates here) or failed before linking
   (nothing to erase; the orphan node is reclaimed by the allocation log). *)
(* Is every slot of [n] logically absent (empty or tombstoned)? *)
let all_tombstone t n =
  let k = t.cfg.Config.keys_per_node in
  let rec go i =
    i >= k || (Node.value t.mem t.ly n i = Node.tombstone && go (i + 1))
  in
  go 0

(* Re-mark every level of a retired node (idempotent; used to resume an
   interrupted retirement after a crash). *)
let mark_all_levels t n =
  let h = Node.height t.mem n in
  for level = h - 1 downto 0 do
    let rec mark () =
      let w = Node.next_raw t.mem t.ly n level in
      if not (Node.is_marked w) then begin
        if
          Mem.cas_field t.mem n
            (Node.o_next t.ly level)
            ~expected:w
            ~desired:(w lor Node.mark_bit)
        then Node.persist_next t.mem t.ly n level
        else mark ()
      end
    in
    mark ()
  done

let check_split_recovery t ~tid n =
  if Node.Lock.is_write_locked (Node.Lock.word t.mem n) then begin
    obs_event ~tid Obs.id_split_repair 0;
    if t.cfg.Config.reclaim_empty_nodes && all_tombstone t n then
      (* an interrupted *retirement*, not a split: resume it — re-mark all
         levels and leave the node write-locked; traversals snip it and the
         retirement entry in the owner's allocation log reclaims the block
         once it is unreachable *)
      mark_all_levels t n
    else begin
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
    Node.Lock.write_unlock t.mem n
    end
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
  let lo = max 2 from_level in
  if to_level >= lo then
    Mem.persist_range t.mem node
      ~first:(Node.o_next t.ly lo)
      ~words:(Node.o_hint t.ly to_level - Node.o_next t.ly lo + 1)

(* Forward declarations resolved below: traversal and tower building are
   mutually recursive with recovery. *)
let rec traverse t ~tid ~recover key =
  let h = t.cfg.Config.max_height in
  let preds = Array.make h t.head in
  let succs = Array.make h t.tail in
  let bounds = Array.make h Node.tail_key in
  let recoveries = ref 0 in
  let rec attempt () =
    let restart = ref false in
    let pred = ref t.head in
    (* levels above [top] are head -> tail: preds/succs/bounds already say
       so (and [top] only grows, so a restart overwrites every level an
       earlier attempt filled) *)
    let level = ref (Atomic.get t.top) in
    while (not !restart) && !level >= 0 do
      (* pointer first, hint second: a writer lowers the hint before it
         publishes the pointer, so the hint read here bounds [cur] *)
      let cur = ref (Node.next t.mem t.ly !pred !level) in
      let bound = ref (Node.hint t.mem t.ly !pred !level) in
      let walking = ref true in
      while !walking && not !restart do
        if !bound > key then begin
          (* [cur] overshoots: end the level without loading it *)
          Obs.bump ~tid Obs.id_hint_stop;
          walking := false
        end
        else if
          recover
          && check_for_recovery t ~tid ~cur:!cur ~recoveries:!recoveries
        then begin
          incr recoveries;
          obs_event ~tid Obs.id_restart key;
          restart := true
        end
        else if
            t.reclaim <> None
            && (not (Riv.equal !cur t.tail))
            && Node.is_marked (Node.next_raw t.mem t.ly !cur !level)
          then begin
          (* [cur] is retired: snip it out of this level and persist the
             snip immediately (Section 4.4's recoverable snipping); the
             pred's hint stays a lower bound. A pred retired since the
             traversal moved onto it can never be CASed (its word carries
             the mark), so restart from the head, which snips it. *)
          let succ = Node.next t.mem t.ly !cur !level in
          if Node.cas_next t.mem t.ly !pred !level ~expected:!cur ~desired:succ
          then begin
            Node.persist_next t.mem t.ly !pred !level;
            obs_event ~tid Obs.id_help !level
          end;
          let w = Node.next_raw t.mem t.ly !pred !level in
          if Node.is_marked w then restart := true
          else begin
            cur := Riv.of_word w;
            bound := Node.hint t.mem t.ly !pred !level
          end
        end
        else begin
          let k0 = Node.key0 t.mem !cur in
          if k0 <= key then begin
            pred := !cur;
            cur := Node.next t.mem t.ly !pred !level;
            bound := Node.hint t.mem t.ly !pred !level
          end
          else begin
            (* a stale-low hint let the traversal enter an overshoot *)
            Obs.bump ~tid Obs.id_hint_stale;
            bound := k0;
            walking := false
          end
        end
      done;
      if not !restart then begin
        preds.(!level) <- !pred;
        succs.(!level) <- !cur;
        bounds.(!level) <- !bound;
        decr level
      end
    done;
    if !restart then attempt ()
    else begin
      let pred0 = preds.(0) in
      if Riv.equal pred0 t.head then
        { found = false; key_index = -1; split_count = 0; preds; succs; bounds }
      else begin
        let sc = Node.split_count t.mem pred0 in
        let ki = scan_keys t ~tid pred0 key in
        { found = ki >= 0; key_index = ki; split_count = sc; preds; succs; bounds }
      end
    end
  in
  attempt ()

(* Function 10: claim a node left behind by a previous failure-free epoch
   and repair it. Returns true when a repair was performed (the caller
   restarts its traversal). At most [recovery_budget] incomplete-insert
   repairs per traversal; interrupted splits are always repaired because
   their contents make traversal results unreliable (Section 4.4.1). *)
and check_for_recovery t ~tid ~cur ~recoveries =
  let current_epoch = Mem.epoch t.mem in
  let node_epoch = Node.epoch t.mem cur in
  if node_epoch = current_epoch then false
  else begin
    let lockw = Node.Lock.word t.mem cur in
    (* stale readers vanish via the lock's epoch stamp; only an interrupted
       split (persistent writer bit) forces immediate recovery *)
    let recovery_needed = Node.Lock.is_write_locked lockw in
    if recoveries < t.cfg.Config.recovery_budget || recovery_needed then begin
      if not (Node.cas_epoch t.mem cur ~expected:node_epoch ~desired:current_epoch)
      then false (* another thread claimed this node *)
      else begin
        Mem.persist_field t.mem cur Node.o_epoch;
        obs_event ~tid Obs.id_epoch_repair 0;
        if Riv.equal cur t.tail then false
        else begin
          check_split_recovery t ~tid cur;
          check_insert_recovery t ~tid cur;
          true
        end
      end
    end
    else false
  end

(* Function 12 (recast): a claimed node whose tower was not finished by its
   crashed inserter is built up to its recorded height. Linked levels are
   contiguous from the bottom, so the first level at which a fresh traversal
   does not land on the node is where building resumes. *)
and check_insert_recovery t ~tid cur =
  let h = Node.height t.mem cur in
  if h > 1 then begin
    let k0 = Node.key0 t.mem cur in
    if k0 <> Node.tail_key && k0 <> Node.head_key then begin
      let f = traverse t ~tid ~recover:false k0 in
      let start = ref 1 in
      while !start < h && Riv.equal f.preds.(!start) cur do
        incr start
      done;
      if !start < h then begin
        obs_event ~tid Obs.id_tower_repair k0;
        link_higher_levels t ~tid ~node:cur ~start:!start ~node_height:h
          ~preds:f.preds
      end
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
   the header line — which holds both — is flushed once. The node is not
   reachable yet, so plain stores. *)
let make_linked_object t ~tid ~pred ~keys ~values ~node_height ~(f : find) =
  let key = List.hd keys in
  let block = Block_alloc.alloc_block t.mem ~tid ~ops:t.ops ~pred ~key in
  Node.init t.mem t.ly block ~node_epoch:(Mem.epoch t.mem) ~node_height ~keys
    ~values;
  for level = 0 to node_height - 1 do
    Node.set_next t.mem t.ly block level f.succs.(level) ~bound:f.bounds.(level)
  done;
  let words =
    if node_height > 2 then Node.o_hint t.ly (node_height - 1) + 1
    else t.ly.Node.o_tower
  in
  Mem.persist_range t.mem block ~first:0 ~words;
  block

(* Function 15, generalised: insert a fresh single-key node right after
   [pred] (the head sentinel in the paper's CreateHeadSuccessor; an
   arbitrary predecessor in the single-key-per-node configuration, where it
   is exactly Herlihy's original insert). *)
let create_successor t ~tid ~pred ~key ~value ~(f : find) =
  let node_height = random_height t ~tid in
  let succ0 = f.succs.(0) in
  let node =
    make_linked_object t ~tid ~pred ~keys:[ key ] ~values:[ value ] ~node_height
      ~f
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
   (only a writer rewrites or clears the line). Then one read of each
   fingerprint word serves two passes. The first looks for [key] itself
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
    let words = Array.init ly.Node.fp_used (fun j -> Node.fp_word t.mem pred0 j) in
    let f = Node.fingerprint key in
    let rec claim i =
      if i >= ly.Node.k then begin
        Node.Lock.read_unlock t.mem pred0;
        Need_split
      end
      else begin
        let b = Node.fp_byte words.(Node.fp_index i) i in
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
    match find_slot t ~tid pred0 key ~word:(fun j -> words.(j)) with
    | -1 -> claim 0
    | i -> finish (update_value t pred0 i value)
  end

(* Function 20: split a full node. The write lock (persisted before the new
   node becomes reachable, so an interrupted split is detectable) excludes
   updates while keys move; the median and above migrate to a new node
   linked immediately after. The minimum key never moves, so the header
   anchor stays valid across any number of splits. *)
let split_node t ~tid ~(f : find) =
  let pred0 = f.preds.(0) in
  if
    not
      (Node.Lock.acquire_write t.mem pred0 ~backoff:(fun () -> backoff t ~tid))
  then ()
  else begin
    (* The writer bit is not persisted on its own: the lock word shares
       pred0's header line with the level-0 pointer and is stored before
       the link CAS, so every persisted image of that line holding the
       link also holds the bit, and the split stays detectable. *)
    let k = t.cfg.Config.keys_per_node in
    let pairs =
      Array.init k (fun i ->
          (Node.key t.mem t.ly pred0 i, Node.value t.mem t.ly pred0 i))
    in
    let keys = Array.map fst pairs in
    if Array.exists (fun (ki, _) -> ki = Node.empty_key) pairs then begin
      (* A slot freed up since the caller's scan, or the caller found only
         free slots behind stale fingerprints (claims a crash interrupted):
         no split needed. Rewrite the line from the keys so every free slot
         shows a 0 fingerprint again — otherwise the insert would return
         here forever. *)
      if Node.write_fp_line t.mem t.ly pred0 (Node.fp_line t.ly keys) then
        Mem.persist_range t.mem pred0 ~first:Node.o_fp ~words:t.ly.Node.fp_used;
      Node.Lock.write_unlock t.mem pred0
    end
    else begin
      Array.sort compare pairs;
      let half = k / 2 in
      let moved = Array.sub pairs half (k - half) in
      let new_keys = Array.to_list (Array.map fst moved) in
      let new_values = Array.to_list (Array.map snd moved) in
      let node_height = random_height t ~tid in
      let node =
        make_linked_object t ~tid ~pred:pred0 ~keys:new_keys ~values:new_values
          ~node_height ~f
      in
      Node.lower_hint t.mem t.ly pred0 0 (List.hd new_keys);
      if
        Node.cas_next t.mem t.ly pred0 0 ~expected:f.succs.(0) ~desired:node
      then begin
        Node.persist_next t.mem t.ly pred0 0;
        obs_event ~tid Obs.id_split (List.hd new_keys);
        (* the split count only serves readers of this epoch: it persists
           with the erase below, in the same header line *)
        Node.set_split_count t.mem pred0 (Node.split_count t.mem pred0 + 1);
        let moved_key ki = List.mem ki new_keys in
        let kept =
          Array.init k (fun i ->
              let ki = Node.key t.mem t.ly pred0 i in
              if moved_key ki then begin
                Mem.write_field t.mem pred0 (Node.o_key t.ly i) Node.empty_key;
                Mem.write_field t.mem pred0 (Node.o_value t.ly i) Node.tombstone;
                Node.empty_key
              end
              else ki)
        in
        (* the moved slots' fingerprints go with their keys *)
        ignore (Node.write_fp_line t.mem t.ly pred0 (Node.fp_line t.ly kept) : bool);
        Node.persist_body t.mem t.ly pred0;
        Node.Lock.write_unlock t.mem pred0;
        let f = traverse t ~tid ~recover:false (List.hd new_keys) in
        link_higher_levels t ~tid ~node ~start:1 ~node_height ~preds:f.preds
      end
      else begin
        Block_alloc.delete_linked_object t.mem ~tid node;
        (* nothing moved, but the unlock confirms the line: rewrite it *)
        ignore (Node.write_fp_line t.mem t.ly pred0 (Node.fp_line t.ly keys) : bool);
        Node.Lock.write_unlock t.mem pred0
      end
    end
  end

(* ---- physical removal (paper Section 4.6 follow-up) --------------------- *)

(* Retire an all-tombstone node: take its write lock permanently (a retired
   node accepts no readers, so tombstoned slots cannot be resurrected), log
   the retirement in the per-thread allocation log (post-crash reclamation
   once unreachable), mark every next pointer, help traversals snip it out,
   and hand the block to epoch-based reclamation. Opportunistic: any
   failure to acquire the lock simply leaves the node tombstoned. *)
let try_retire_node t ~tid node =
  if Riv.equal node t.head || Riv.equal node t.tail then ()
  else if
    not (Node.Lock.acquire_write t.mem node ~backoff:(fun () -> backoff t ~tid))
  then ()
  else if not (all_tombstone t node) then
    Node.Lock.write_unlock ~fp_ok:false t.mem node
  else begin
    Node.Lock.persist_acquisition t.mem node;
    Block_alloc.log_change_attempt t.mem ~tid ~ops:t.ops ~block:node
      ~pred:t.head ~key:(Node.key0 t.mem node);
    mark_all_levels t node;
    let key = Node.key0 t.mem node in
    let rec until_unreachable budget =
      if budget = 0 then false
      else begin
        let f = traverse t ~tid ~recover:false key in
        let refs p = Riv.equal p node in
        if Array.exists refs f.preds || Array.exists refs f.succs then begin
          backoff t ~tid;
          until_unreachable (budget - 1)
        end
        else true
      end
    in
    if until_unreachable 32 then
      match t.reclaim with
      | Some r -> Reclaim.retire r ~tid node
      | None -> ()
    (* else: left marked; traversals keep snipping, and after a crash the
       allocation-log walk reclaims it once unreachable *)
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
        else begin
          split_node t ~tid ~f;
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

(* Function 9. *)
let rec search_impl t ~tid key =
  let f = traverse t ~tid ~recover:true key in
  if not f.found then
    if miss_raced_split t f then search_impl t ~tid key else None
  else begin
    let n = f.preds.(0) in
    if Node.Lock.is_write_locked (Node.Lock.word t.mem n) then begin
      (* a retired node stays write-locked with all values tombstoned:
         report absence rather than spinning behind its permanent lock *)
      if t.cfg.Config.reclaim_empty_nodes && all_tombstone t n then None
      else begin
        backoff t ~tid;
        search_impl t ~tid key
      end
    end
    else begin
      let v = Node.value t.mem t.ly n f.key_index in
      if Node.split_count t.mem n <> f.split_count then search_impl t ~tid key
      else if v = Node.tombstone then None
      else Some v
    end
  end

(* Section 4.6: removal tombstones the value, reusing the update path; with
   [reclaim_empty_nodes] a node whose last live value was removed is then
   physically retired. *)
let rec remove_impl t ~tid key =
  let f = traverse t ~tid ~recover:true key in
  if not f.found then
    if miss_raced_split t f then remove_impl t ~tid key else None
  else begin
    let pred0 = f.preds.(0) in
    if not (Node.Lock.read_lock t.mem pred0) then begin
      if t.cfg.Config.reclaim_empty_nodes && all_tombstone t pred0 then None
      else begin
        backoff t ~tid;
        remove_impl t ~tid key
      end
    end
    else if Node.split_count t.mem pred0 <> f.split_count then begin
      Node.Lock.read_unlock t.mem pred0;
      remove_impl t ~tid key
    end
    else begin
      let old = update_value t pred0 f.key_index Node.tombstone in
      Node.Lock.read_unlock t.mem pred0;
      if
        t.cfg.Config.reclaim_empty_nodes
        && old <> Node.tombstone
        && all_tombstone t pred0
      then try_retire_node t ~tid pred0;
      if old = Node.tombstone then None else Some old
    end
  end

(* Run [f] under an epoch-based-reclamation guard so no node this
   operation references is freed mid-flight. *)
let with_guard t ~tid f =
  match t.reclaim with
  | None -> f ()
  | Some r ->
      Reclaim.enter r ~tid;
      let result = try f () with e -> Reclaim.exit r ~tid; raise e in
      Reclaim.exit r ~tid;
      result

let upsert t ~tid key value =
  check_key key;
  check_value value;
  with_guard t ~tid (fun () -> upsert_impl t ~tid key value)

let search t ~tid key =
  check_key key;
  with_guard t ~tid (fun () -> search_impl t ~tid key)

let remove t ~tid key =
  check_key key;
  with_guard t ~tid (fun () -> remove_impl t ~tid key)

let mem_key t ~tid key = search t ~tid key <> None

(* Linearizable-per-node range scan: collects live pairs in [lo, hi] from
   the bottom level, revalidating each node's split counter around its key
   scan. *)
let range_impl t ~tid ~lo ~hi =
  let f = traverse t ~tid ~recover:true lo in
  let k = t.cfg.Config.keys_per_node in
  let acc = ref [] in
  let rec visit n =
    if Riv.equal n t.tail then ()
    else if Node.key0 t.mem n > hi then ()
    else begin
      if Node.Lock.is_write_locked (Node.Lock.word t.mem n) then begin
        if t.cfg.Config.reclaim_empty_nodes && all_tombstone t n then
          (* retired: contributes nothing; move on *)
          visit (Node.next t.mem t.ly n 0)
        else begin
          backoff t ~tid;
          visit n
        end
      end
      else begin
        let sc = Node.split_count t.mem n in
        let collected = ref [] in
        for i = 0 to k - 1 do
          let ki = Node.key t.mem t.ly n i in
          if ki >= lo && ki <= hi && ki <> Node.empty_key then begin
            let v = Node.value t.mem t.ly n i in
            if v <> Node.tombstone then collected := (ki, v) :: !collected
          end
        done;
        let next = Node.next t.mem t.ly n 0 in
        if
          Node.split_count t.mem n <> sc
          || Node.Lock.is_write_locked (Node.Lock.word t.mem n)
        then visit n (* node changed under the scan: retry it *)
        else begin
          acc := !collected @ !acc;
          visit next
        end
      end
    end
  in
  visit f.preds.(0);
  (* preds.(0) may be the head when lo precedes every key *)
  List.sort (fun (a, _) (b, _) -> compare a b) !acc

let range t ~tid ~lo ~hi =
  check_key lo;
  check_key hi;
  with_guard t ~tid (fun () -> range_impl t ~tid ~lo ~hi)

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

(* The head's keys are sentinels; guard [visit] against scanning it. *)

(* ---- host-side verification (peeks; no simulated cost) ----------------- *)

(* Walk the persistent bottom level collecting live key/value pairs. *)
let to_alist_internal t ~peek =
  let read_field obj i =
    if peek then Mem.peek_field t.mem obj i else Mem.read_field t.mem obj i
  in
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
      walk (Riv.of_word (Node.unmark (read_field n Node.o_next0))) !acc
    end
  in
  let first =
    Riv.of_word (Node.unmark (Mem.peek_field t.mem t.head Node.o_next0))
  in
  List.sort (fun (a, _) (b, _) -> compare a b) (walk first [])

let to_alist t = to_alist_internal t ~peek:true

(* Number of allocator blocks linked into the bottom level (sentinels are
   root-area objects and excluded); used by block-conservation tests. *)
let node_count t =
  let rec walk n acc =
    if Riv.is_null n || Riv.equal n t.tail then acc
    else
      walk
        (Riv.of_word (Node.unmark (Mem.peek_field t.mem n Node.o_next0)))
        (acc + 1)
  in
  walk
    (Riv.of_word (Node.unmark (Mem.peek_field t.mem t.head Node.o_next0)))
    0

(* Structural invariant check over the volatile image (tests):
   - bottom-level first keys strictly increase;
   - every level's list is a subsequence of the level below;
   - internal keys lie in (keys[0], next.keys[0]);
   - no key is held by two slots of one node (nodes under the write lock —
     an interrupted split awaiting repair, or a retired node — are exempt:
     split recovery erases their duplicates), and on a node whose
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
  let nxt n level = Riv.of_word (Node.unmark (pk n (Node.o_next t.ly level))) in
  let k = t.cfg.Config.keys_per_node in
  (* bottom level ordering + internal key bounds *)
  let rec walk0 n =
    if Riv.equal n t.tail then ()
    else begin
      let k0 = pk n (Node.o_key t.ly 0) in
      if pk n Node.o_anchor <> k0 then
        err "node anchor %d disagrees with slot-0 key %d" (pk n Node.o_anchor) k0;
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
    let lower_set = List.sort_uniq compare lower in
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
   there repairs it.

   Sound only with [reclaim_empty_nodes] off: retire lists are DRAM-only
   and their nodes would read as leaks. *)
let audit_persistent t =
  if t.cfg.Config.reclaim_empty_nodes then
    [ "audit_persistent: not applicable with reclaim_empty_nodes" ]
  else begin
    let errs = ref [] in
    let err fmt = Fmt.kstr (fun s -> errs := s :: !errs) fmt in
    let ppk obj i = Mem.peek_field_persistent t.mem obj i in
    let nxt n level = Riv.of_word (Node.unmark (ppk n (Node.o_next t.ly level))) in
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
        for level = max 1 h to cap - 1 do
          if ppk n (Node.o_next t.ly level) <> 0 then
            err "%s: non-null next word at level %d above height %d" label level h
        done
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
  end

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
   tower pointer at a free block (the auditor must flag it). Returns false
   when the structure is in no state to apply the mutation (e.g. empty). *)
let corrupt t what =
  let first =
    Riv.of_word (Node.unmark (Mem.peek_field t.mem t.head Node.o_next0))
  in
  (* apply [f] to the first live slot on the bottom level outside a
     write-locked node *)
  let first_live f =
    let k = t.cfg.Config.keys_per_node in
    let rec hunt n =
      if Riv.is_null n || Riv.equal n t.tail then false
      else if Node.Lock.is_write_locked (Mem.peek_field t.mem n Node.o_lock) then
        hunt (Riv.of_word (Node.unmark (Mem.peek_field t.mem n Node.o_next0)))
      else begin
        let rec slot i =
          if i >= k then
            hunt (Riv.of_word (Node.unmark (Mem.peek_field t.mem n Node.o_next0)))
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
      let nxt0 n = Riv.of_word (Node.unmark (Mem.peek_field t.mem n Node.o_next0)) in
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

(* ---- linearizable snapshot range (paper Ch. 7 follow-up) ----------------- *)

(* A strictly linearizable range query via double collect: gather the pairs
   in [lo, hi] together with every visited node's split counter, re-read,
   and retry until two consecutive collects agree — at which point the
   whole result coexisted at one instant (obstruction-free, as lock-free
   snapshots are). Value updates between collects are caught by comparing
   the collected pairs themselves. *)
let range_snapshot_impl t ~tid ~lo ~hi =
  let k = t.cfg.Config.keys_per_node in
  (* one collect: (visited nodes with split counts, pairs); None = a split
     or retirement was in progress, retry *)
  let collect () =
    let f = traverse t ~tid ~recover:true lo in
    let nodes = ref [] in
    let pairs = ref [] in
    let rec visit n =
      if Riv.equal n t.tail then Some ()
      else if Node.key0 t.mem n > hi then Some ()
      else begin
        let w = Node.Lock.word t.mem n in
        if Node.Lock.is_write_locked w then
          if t.cfg.Config.reclaim_empty_nodes && all_tombstone t n then
            (* retired node: contributes nothing *)
            visit (Node.next t.mem t.ly n 0)
          else None (* mid-split: unusable collect *)
        else begin
          let sc = Node.split_count t.mem n in
          nodes := (n, sc) :: !nodes;
          for i = 0 to k - 1 do
            let ki = Node.key t.mem t.ly n i in
            if ki >= lo && ki <= hi && ki <> Node.empty_key then begin
              let v = Node.value t.mem t.ly n i in
              if v <> Node.tombstone then pairs := (ki, v) :: !pairs
            end
          done;
          visit (Node.next t.mem t.ly n 0)
        end
      end
    in
    match visit f.preds.(0) with
    | None -> None
    | Some () ->
        Some
          ( !nodes,
            List.sort (fun (a, _) (b, _) -> compare a b) !pairs )
  in
  let rec attempt prev =
    match collect () with
    | None ->
        backoff t ~tid;
        attempt None
    | Some (nodes, pairs) -> begin
        (* the collect is a snapshot if no visited node split meanwhile and
           the previous collect saw the same contents *)
        let stable =
          List.for_all
            (fun (n, sc) ->
              Node.split_count t.mem n = sc
              && not (Node.Lock.is_write_locked (Node.Lock.word t.mem n)))
            nodes
        in
        match prev with
        | Some prev_pairs when stable && prev_pairs = pairs -> pairs
        | _ ->
            if not stable then begin
              backoff t ~tid;
              attempt None
            end
            else attempt (Some pairs)
      end
  in
  attempt None

let range_snapshot t ~tid ~lo ~hi =
  check_key lo;
  check_key hi;
  with_guard t ~tid (fun () -> range_snapshot_impl t ~tid ~lo ~hi)

(* ---- reclamation introspection (fiber context for [quiesced_drain]) ----- *)

(* (retired-but-pending, freed, total retirements) when reclamation is on. *)
let reclaim_stats t =
  Option.map
    (fun r -> (Reclaim.pending r, Reclaim.freed r, Reclaim.retirements r))
    t.reclaim

(* Free every retired node; only sound with no operation in flight. *)
let quiesced_drain t ~tid =
  match t.reclaim with None -> () | Some r -> Reclaim.drain r ~tid
