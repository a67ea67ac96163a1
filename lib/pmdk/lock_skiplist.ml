(* The paper's baseline: a lock-based lazy skip list (Herlihy et al.)
   made recoverable with libpmemobj-style transactions, storing one key per
   node and referencing nodes with two-word *fat pointers* — exactly the
   "what most developers would build first" configuration the paper
   measures (Figs 5.1-5.6 and the fat-pointer comparison of Fig 5.3).

   All structural writes (allocation bump, predecessor next-pointers) run
   inside an undo-log transaction; value updates are transactional
   single-word writes under a per-node run-id lock. A crash rolls active
   transactions back, so recovery is O(threads), and run-id locks release
   themselves — matching the paper's fast PMDK recovery (Table 5.4). *)

module Mem = Memory.Mem
module Riv = Memory.Riv

(* Node layout (word offsets from the node's base address). Next pointers
   are fat: two words per level. *)
let n_key = 0
let n_value = 1
let n_height = 2
let n_lock = 3
let n_next l = 4 + (2 * l)

let head_key = min_int
let tail_key = max_int

type t = {
  mem : Mem.t;
  tx : Tx.t;
  max_height : int;
  node_words : int;
  head : Sim.Sched.addr;
  tail : Sim.Sched.addr;
  alloc_base : int;  (* per-tid allocator lines (pool 0) *)
  height_rngs : Sim.Rng.t array;
}

let node_words ~max_height = 4 + (2 * max_height)

(* per-tid allocator slot: [pool+1, chunk_base, offset, end] *)
let a_pool = 0
let a_base = 1
let a_off = 2
let a_end = 3

let alloc_slot t tid i =
  Pmem.addr ~pool:0 ~word:(t.alloc_base + (tid * Pmem.line_words) + i)

(* ---- fat pointer access ------------------------------------------------- *)

(* Dereference the fat pointer at [addr]: two loads (the cache-efficiency
   cost the RIV scheme avoids). Returns 0 for null. *)
let read_fat t addr =
  let pool_plus1 = Mem.read t.mem addr in
  let off = Mem.read t.mem (addr + 1) in
  if pool_plus1 = 0 then 0 else Pmem.addr ~pool:(pool_plus1 - 1) ~word:off

let fat_of_addr a = (Pmem.pool_of a + 1, Pmem.word_of a)

(* Transactional store of a fat pointer (two logged words). *)
let tx_write_fat t ~tid addr target =
  let p, o = fat_of_addr target in
  Tx.write t.tx ~tid addr p;
  Tx.write t.tx ~tid (addr + 1) o

let poke_fat pmem addr target =
  let p, o = fat_of_addr target in
  Pmem.poke pmem addr p;
  Pmem.poke pmem (addr + 1) o

(* ---- creation ------------------------------------------------------------ *)

let create ~mem ~tx ~max_height ~max_threads ~seed =
  let words = node_words ~max_height in
  let head_r = Mem.root_alloc mem ~pool:0 ~words in
  let tail_r = Mem.root_alloc mem ~pool:0 ~words in
  let alloc_region =
    Mem.grab_region_poked mem ~pool:0 ~words:(max_threads * Pmem.line_words)
  in
  let head = Mem.resolve mem head_r in
  let tail = Mem.resolve mem tail_r in
  let pmem = Mem.pmem mem in
  Pmem.poke pmem (head + n_key) head_key;
  Pmem.poke pmem (head + n_height) max_height;
  Pmem.poke pmem (tail + n_key) tail_key;
  Pmem.poke pmem (tail + n_height) max_height;
  for l = 0 to max_height - 1 do
    poke_fat pmem (head + n_next l) tail
  done;
  let root_rng = Sim.Rng.create seed in
  {
    mem;
    tx;
    max_height;
    node_words = words;
    head;
    tail;
    alloc_base = Riv.offset alloc_region;
    height_rngs = Array.init max_threads (fun _ -> Sim.Rng.split root_rng);
  }

(* ---- node allocation ------------------------------------------------------ *)

(* Bump-allocate a node from the thread's chunk; the offset advance is a
   transactional write so an aborted insert reclaims the space. *)
let alloc_node t ~tid =
  let off = Mem.read t.mem (alloc_slot t tid a_off) in
  let end_ = Mem.read t.mem (alloc_slot t tid a_end) in
  if off + t.node_words > end_ then begin
    (* Single-pool allocation: with two-word fat pointers the pool word must
       never change under a concurrent lock-free reader (a torn read would
       yield a garbage reference) — the same one-pool restriction the paper
       notes for NV-Heaps, and how its PMDK baseline ran (striped device). *)
    let pool = 0 in
    let _id, base = Mem.allocate_chunk t.mem ~pool in
    Mem.write t.mem (alloc_slot t tid a_pool) (pool + 1);
    Mem.write t.mem (alloc_slot t tid a_base) base;
    Mem.write t.mem (alloc_slot t tid a_off) 0;
    Mem.write t.mem (alloc_slot t tid a_end) t.mem.Mem.chunk_words;
    Mem.flush t.mem (alloc_slot t tid a_pool);
    Mem.fence t.mem
  end;
  let pool = Mem.read t.mem (alloc_slot t tid a_pool) - 1 in
  let base = Mem.read t.mem (alloc_slot t tid a_base) in
  let off = Mem.read t.mem (alloc_slot t tid a_off) in
  Tx.write t.tx ~tid (alloc_slot t tid a_off) (off + t.node_words);
  Pmem.addr ~pool ~word:(base + off)

let persist_node t node =
  let lines = (t.node_words + Pmem.line_words - 1) / Pmem.line_words in
  for l = 0 to lines - 1 do
    Mem.flush t.mem (node + (l * Pmem.line_words))
  done;
  Mem.fence t.mem

(* ---- traversal ------------------------------------------------------------ *)

(* Optimistic find: populates [preds]/[succs]; true when succs.(0) holds the
   key. *)
let find t key preds succs =
  let pred = ref t.head in
  for level = t.max_height - 1 downto 0 do
    let cur = ref (read_fat t (!pred + n_next level)) in
    let rec walk () =
      let k = Mem.read t.mem (!cur + n_key) in
      if k < key then begin
        pred := !cur;
        cur := read_fat t (!cur + n_next level);
        walk ()
      end
    in
    walk ();
    preds.(level) <- !pred;
    succs.(level) <- !cur
  done;
  Mem.read t.mem (succs.(0) + n_key) = key

(* ---- operations ------------------------------------------------------------ *)

let search t ~tid:_ key =
  let preds = Array.make t.max_height 0 and succs = Array.make t.max_height 0 in
  if not (find t key preds succs) then None
  else begin
    let v = Mem.read t.mem (succs.(0) + n_value) in
    if v = 0 then None else Some v
  end

(* Update the value of an existing node: per-node lock + transactional
   write (snapshot, store, commit — libpmemobj write amplification). *)
let update_value t ~tid node value =
  Tx.Lock.acquire t.tx (node + n_lock);
  let old = Mem.read t.mem (node + n_value) in
  Tx.begin_ t.tx ~tid;
  Tx.write t.tx ~tid (node + n_value) value;
  Tx.commit t.tx ~tid;
  Tx.Lock.release t.tx (node + n_lock);
  old

let rec upsert t ~tid key value =
  if key <= head_key + 1 || key >= tail_key then invalid_arg "Lock_skiplist: key";
  if value = 0 then invalid_arg "Lock_skiplist: value 0 reserved";
  let preds = Array.make t.max_height 0 and succs = Array.make t.max_height 0 in
  if find t key preds succs then begin
    let old = update_value t ~tid succs.(0) value in
    if old = 0 then None else Some old
  end
  else begin
    let height =
      Sim.Rng.geometric t.height_rngs.(tid) ~p:0.5 ~max_value:t.max_height
    in
    (* lock distinct predecessors bottom-up, then validate *)
    let locked = ref [] in
    let ok = ref true in
    (try
       for level = 0 to height - 1 do
         let pred = preds.(level) in
         if not (List.mem pred !locked) then begin
           Tx.Lock.acquire t.tx (pred + n_lock);
           locked := pred :: !locked
         end;
         if read_fat t (pred + n_next level) <> succs.(level) then begin
           ok := false;
           raise Exit
         end
       done
     with Exit -> ());
    if not !ok then begin
      List.iter (fun p -> Tx.Lock.release t.tx (p + n_lock)) !locked;
      Mem.yield t.mem;
      upsert t ~tid key value
    end
    else begin
      Tx.begin_ t.tx ~tid;
      let node = alloc_node t ~tid in
      (* the node is unreachable until commit: plain stores + persist *)
      Mem.write t.mem (node + n_key) key;
      Mem.write t.mem (node + n_value) value;
      Mem.write t.mem (node + n_height) height;
      Mem.write t.mem (node + n_lock) 0;
      for level = 0 to height - 1 do
        let p, o = fat_of_addr succs.(level) in
        Mem.write t.mem (node + n_next level) p;
        Mem.write t.mem (node + n_next level + 1) o
      done;
      persist_node t node;
      (* transactional link-in at every level *)
      for level = 0 to height - 1 do
        tx_write_fat t ~tid (preds.(level) + n_next level) node
      done;
      Tx.commit t.tx ~tid;
      List.iter (fun p -> Tx.Lock.release t.tx (p + n_lock)) !locked;
      None
    end
  end

(* Removal by tombstoning, as in the UPSkipList comparison runs. *)
let remove t ~tid key =
  let preds = Array.make t.max_height 0 and succs = Array.make t.max_height 0 in
  if not (find t key preds succs) then None
  else begin
    let node = succs.(0) in
    Tx.Lock.acquire t.tx (node + n_lock);
    let old = Mem.read t.mem (node + n_value) in
    if old = 0 then begin
      Tx.Lock.release t.tx (node + n_lock);
      None
    end
    else begin
      Tx.begin_ t.tx ~tid;
      Tx.write t.tx ~tid (node + n_value) 0;
      Tx.commit t.tx ~tid;
      Tx.Lock.release t.tx (node + n_lock);
      Some old
    end
  end

(* Range query: locate the first candidate with a regular find, then walk
   the bottom level collecting live pairs (each value read is atomic). *)
let range t ~tid:_ ~lo ~hi =
  let preds = Array.make t.max_height 0 and succs = Array.make t.max_height 0 in
  ignore (find t lo preds succs);
  let rec walk n acc =
    if n = 0 || n = t.tail then acc
    else begin
      let k = Mem.read t.mem (n + n_key) in
      if k > hi then acc
      else begin
        let v = Mem.read t.mem (n + n_value) in
        let acc = if v = 0 || k < lo then acc else (k, v) :: acc in
        walk (read_fat t (n + n_next 0)) acc
      end
    end
  in
  List.rev (walk succs.(0) [])

(* Post-crash recovery: roll back interrupted transactions. *)
let recover t = Tx.recover t.tx

(* Host-side inspection for tests. *)
let to_alist t =
  let pmem = Mem.pmem t.mem in
  let deref addr =
    let p = Pmem.peek pmem addr in
    let o = Pmem.peek pmem (addr + 1) in
    if p = 0 then 0 else Pmem.addr ~pool:(p - 1) ~word:o
  in
  let rec walk n acc =
    if n = 0 || n = t.tail then List.rev acc
    else begin
      let k = Pmem.peek pmem (n + n_key) in
      let v = Pmem.peek pmem (n + n_value) in
      let acc = if v = 0 then acc else (k, v) :: acc in
      walk (deref (n + n_next 0)) acc
    end
  in
  walk (deref (t.head + n_next 0)) []
