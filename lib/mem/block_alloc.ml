(* Fine-grained recoverable block allocator (paper Functions 3-6).

   Memory within chunks is divided into fixed-size blocks linked into
   per-arena lock-free free lists (one set of arenas per pool/NUMA node).
   Allocation pops from the head; deallocation appends at the tail. Before a
   block is popped, the allocating thread persists a single-cache-line log
   (LogChangeAttempt) naming the block, the insertion point and the key, so
   that after a crash the *next* allocation by a thread with the same id can
   decide whether the interrupted insertion became reachable, and reclaim
   the block if it did not — deferring recovery out of restart time.

   The free list is never empty: the last block is not popped; instead a new
   chunk is carved and appended. *)

type node_ops = {
  key0 : Riv.t -> int;  (* first key of a linked node (head = min key) *)
  next0 : Riv.t -> Riv.t;  (* bottom-level successor of a linked node *)
  complete_tower : tid:int -> Riv.t -> unit;
      (* link a reachable node at every level below its height it is not
         linked at yet (idempotent) *)
}

(* Log entry layout: two cache lines per thread. The first records the
   pending block allocation (Function 3); the second records an in-flight
   chunk provision, so a crash while carving or linking a fresh chunk can
   be repaired instead of leaking the whole chunk ("if a failure occurs
   during the provisioning of a new chunk, the thread will see when it
   attempts its next operation that the chunk being built was
   unsuccessfully linked in", Section 4.3.3). *)
let log_epoch = 0
let log_block = 1
let log_pred = 2
let log_key = 3
let log_state = 4
let state_valid = 1

(* chunk-provision sub-log, second cache line *)
let clog_epoch = 8
let clog_state = 9
let clog_pool = 10
let clog_chunk = 11
let cstate_none = 0
let cstate_carving = 1
let cstate_carved = 2

let log_obj ~tid = Mem.riv_of_root ~pool:0 ~word:(Mem.logs_start + (tid * Mem.log_words))

(* Allocator-phase accounting: per-fiber counter bump plus a trace instant
   at the current virtual time when tracing is on. *)
let obs_event ~tid id arg =
  Obs.bump ~tid id;
  if Obs.Trace.enabled () then
    Obs.Trace.emit ~ts:(Sim.Sched.now ()) ~tid ~kind:id ~arg ~farg:0.0

(* ---- Function 6: LinkInTail ------------------------------------------- *)

(* Append the chain [first..last] (already internally linked, last.next =
   null) to arena [arena] of [pool]. Helps past a stale tail pointer from
   a previous epoch, which is what keeps deallocation deadlock-free across
   crashes. *)
let link_in_tail t ~pool ~arena ~first ~last =
  let tail_slot = Mem.arena_tail_ptr ~pool ~arena in
  let rec attach () =
    let current_tail = Mem.read_ptr t tail_slot 0 in
    if Mem.cas_ptr t current_tail Mem.hdr_next ~expected:Riv.null ~desired:first
    then current_tail
    else begin
      if Mem.read_field t current_tail Mem.hdr_epoch <> Mem.epoch t then begin
        (* The tail pointer was left behind by a failure; help advance it. *)
        let next_tail = Mem.read_ptr t current_tail Mem.hdr_next in
        if
          (not (Riv.is_null next_tail))
          && Mem.cas_ptr t tail_slot 0 ~expected:current_tail ~desired:next_tail
        then begin
          Mem.persist_field t tail_slot 0;
          obs_event ~tid:(Mem.self t) Obs.id_help 0
        end
      end;
      Mem.yield t;
      attach ()
    end
  in
  let current_tail = attach () in
  Mem.persist_field t current_tail Mem.hdr_next;
  ignore (Mem.cas_ptr t tail_slot 0 ~expected:current_tail ~desired:last);
  Mem.persist_field t tail_slot 0

(* ---- Function 5: DeleteLinkedObject ----------------------------------- *)

(* Zero every word of [obj] past its three header words, for the caller
   to persist with the header. A free block's body must read as zero in
   the persistent image (a node built in it does not persist its
   fingerprint line), and a popped block a crash caught half initialised,
   or a deallocation a crash interrupted after its header persisted, may
   leave node lines there. *)
let zero_body t obj =
  for i = Mem.block_words t - 1 downto 3 do
    Mem.write_field t obj i 0
  done

(* Return [obj] to the free list, idempotently: safe to re-run if a
   previous attempt (or recovery of one) was interrupted at any step. *)
let delete_linked_object t ~tid obj =
  let pool = Mem.local_pool t ~tid in
  let arena = tid mod t.Mem.n_arenas in
  let kind = Mem.kind_of (Mem.read_field t obj Mem.hdr_kind) in
  if kind = Mem.kind_node then begin
    (* De-initialise the node so it can rejoin the free list. *)
    zero_body t obj;
    Mem.write_ptr t obj Mem.hdr_next Riv.null;
    Mem.write_field t obj Mem.hdr_epoch (Mem.epoch t);
    Mem.write_field t obj Mem.hdr_kind Mem.kind_free;
    Mem.persist_range t obj ~first:0 ~words:(Mem.block_words t);
    obs_event ~tid Obs.id_free 0;
    link_in_tail t ~pool ~arena ~first:obj ~last:obj
  end
  else begin
    let tail = Mem.read_ptr t (Mem.arena_tail_ptr ~pool ~arena) 0 in
    if Riv.equal obj tail then () (* already linked as the tail *)
    else begin
      (* A free block off the tail is on this arena's list — never popped,
         or appended behind a tail pointer a crash left lagging — or on no
         list: popped before the crash with a stale next pointer (a pop
         clears it only in the volatile image; the node's own persist
         overwrites it), or with a null one (a deallocation interrupted
         after its header persisted). Disambiguate by scanning the list. *)
      let next = Mem.read_ptr t obj Mem.hdr_next in
      let rec in_list cur =
        (not (Riv.is_null cur))
        && (Riv.equal cur obj || in_list (Mem.read_ptr t cur Mem.hdr_next))
      in
      if
        (not
           (in_list (Mem.read_ptr t (Mem.arena_head_ptr ~pool ~arena) 0)))
        && (* the CAS fails if another thread re-allocated the block in the
              meantime (a fresh pop clears the next pointer immediately) *)
        Mem.cas_ptr t obj Mem.hdr_next ~expected:next ~desired:Riv.null
      then begin
        zero_body t obj;
        Mem.write_field t obj Mem.hdr_epoch (Mem.epoch t);
        Mem.persist_range t obj ~first:0 ~words:(Mem.block_words t);
        obs_event ~tid Obs.id_free 0;
        link_in_tail t ~pool ~arena ~first:obj ~last:obj
      end
    end
  end

(* ---- Function 3: LogChangeAttempt ------------------------------------- *)

(* Persist this thread's intent to allocate [block] and link it after
   [pred] with first key [key]. If the previous log entry is from an older
   failure-free epoch, first verify that the old allocation became reachable
   and reclaim it if it did not. If it did, its insert may have stopped
   part-way up the tower: complete the tower before the entry is
   overwritten, so that every incomplete tower stays named by an older
   epoch's log entry across any number of crashes (the rule a claim relies
   on to skip the tower check of every other node; see
   [names_in_flight]). *)
let log_change_attempt t ~tid ~ops ~block ~pred ~key =
  let log = log_obj ~tid in
  let l_state = Mem.read_field t log log_state in
  let l_epoch = Mem.read_field t log log_epoch in
  if l_state = state_valid && l_epoch <> Mem.epoch t then begin
    let l_block = Mem.read_ptr t log log_block in
    let l_pred = Mem.read_ptr t log log_pred in
    let l_key = Mem.read_field t log log_key in
    (* Walk the bottom level from the recorded predecessor to the expected
       location of the key. *)
    let rec reachable cur =
      if Riv.is_null cur then false
      else begin
        let k0 = ops.key0 cur in
        if k0 > l_key then false
        else if k0 = l_key then Riv.equal cur l_block
        else reachable (ops.next0 cur)
      end
    in
    if reachable l_pred then ops.complete_tower ~tid l_block
    else delete_linked_object t ~tid l_block
  end;
  Mem.write_field t log log_epoch (Mem.epoch t);
  Mem.write_ptr t log log_block block;
  Mem.write_ptr t log log_pred pred;
  Mem.write_field t log log_key key;
  Mem.write_field t log log_state state_valid;
  (* The entry occupies a single cache line: one flush suffices. *)
  Mem.persist_field t log log_epoch

(* Does the allocation log of [tid] name [block] from an older failure-free
   epoch, i.e. was the block's insert in flight at a crash? Only such a node
   can have an incomplete tower ([log_change_attempt] completes the tower
   before it overwrites the entry). One log line, read in fiber context. *)
let names_in_flight t ~tid block =
  let log = log_obj ~tid in
  Mem.read_field t log log_state = state_valid
  && Riv.equal (Mem.read_ptr t log log_block) block
  && Mem.read_field t log log_epoch <> Mem.epoch t

(* ---- chunk-provision logging and recovery ------------------------------ *)

(* The state word is what makes the line's other words count, and a crash
   may persist any prefix of the line's stores: so a reset stores
   [cstate_none] first, and a new entry stores its state after its epoch,
   pool and chunk. *)
let set_chunk_log t ~tid ~state ~pool ~chunk =
  let log = log_obj ~tid in
  if state = cstate_none then Mem.write_field t log clog_state state;
  Mem.write_field t log clog_epoch (Mem.epoch t);
  Mem.write_field t log clog_pool pool;
  Mem.write_field t log clog_chunk chunk;
  if state <> cstate_none then Mem.write_field t log clog_state state;
  Mem.persist_field t log clog_epoch

(* Carve the blocks of an already-allocated chunk into a chain (idempotent
   re-run of the carving loop). *)
let carve_blocks t ~pool ~chunk =
  let bw = Mem.block_words t in
  let n = Mem.blocks_per_chunk t in
  let block i = Riv.make ~pool ~chunk ~offset:(i * bw) in
  for i = 0 to n - 1 do
    let b = block i in
    let next = if i = n - 1 then Riv.null else block (i + 1) in
    Mem.write_ptr t b Mem.hdr_next next;
    Mem.write_field t b Mem.hdr_epoch (Mem.epoch t);
    Mem.write_field t b Mem.hdr_kind Mem.kind_free;
    Mem.flush_field t b Mem.hdr_next
  done;
  Mem.fence t;
  (block 0, block (n - 1))

(* Was the chunk's chain ever appended to the arena? An unlinked carved
   chunk has every block kind free with its carved next pointer, and none
   on the free list. Block0 alone cannot tell: a pop moves the head past
   it but clears its next pointer only in the volatile image, so until the
   node built there persists, a popped block0 looks carved and unlisted.
   Pops take the chain's blocks in order from the head, each pop's window
   closes when its node persists, and the chain's last block is the
   arena's tail: so while the log still reads carved, a linked chunk
   keeps blocks on the list. *)
let chunk_linked t ~pool ~arena ~chunk =
  let block0 = Riv.make ~pool ~chunk ~offset:0 in
  if Mem.kind_of (Mem.read_field t block0 Mem.hdr_kind) <> Mem.kind_free then true
  else if Riv.is_null (Mem.read_ptr t block0 Mem.hdr_next) then true
  else begin
    let rec any_listed cur =
      (not (Riv.is_null cur))
      && ((Riv.pool cur = pool && Riv.chunk cur = chunk)
         || any_listed (Mem.read_ptr t cur Mem.hdr_next))
    in
    any_listed (Mem.read_ptr t (Mem.arena_head_ptr ~pool ~arena) 0)
  end

(* Resume a chunk provision interrupted by a crash in a previous epoch. *)
let recover_chunk_provision t ~tid =
  let log = log_obj ~tid in
  let state = Mem.read_field t log clog_state in
  if state <> cstate_none && Mem.read_field t log clog_epoch <> Mem.epoch t
  then begin
    let pool = Mem.read_field t log clog_pool in
    let chunk = Mem.read_field t log clog_chunk in
    let arena = tid mod t.Mem.n_arenas in
    if state = cstate_carving then begin
      (* The log is written before the registry publish, so the crash may
         have landed between them: re-register first (chunk bases are a pure
         function of the id, so this is deterministic), then re-carve from
         scratch — blocks may be half written and are certainly
         unreachable — and link the chain in. *)
      Mem.ensure_chunk_registered t ~pool ~chunk;
      let first, last = carve_blocks t ~pool ~chunk in
      link_in_tail t ~pool ~arena ~first ~last
    end
    else if not (chunk_linked t ~pool ~arena ~chunk) then begin
      (* fully carved but never published *)
      let n = Mem.blocks_per_chunk t in
      let first = Riv.make ~pool ~chunk ~offset:0 in
      let last = Riv.make ~pool ~chunk ~offset:((n - 1) * Mem.block_words t) in
      link_in_tail t ~pool ~arena ~first ~last
    end
  end;
  if state <> cstate_none then
    set_chunk_log t ~tid ~state:cstate_none ~pool:0 ~chunk:0

(* Allocate a chunk, carve it and append its chain to [arena], under the
   chunk-provision log, and return its id. The log is left [cstate_carved]:
   the caller resets it once the chain is linked. *)
let provision_chunk t ~tid ~pool ~arena =
  let id, _base =
    Mem.allocate_chunk t ~pool
      ~log:(fun id -> set_chunk_log t ~tid ~state:cstate_carving ~pool ~chunk:id)
  in
  let first, last = carve_blocks t ~pool ~chunk:id in
  set_chunk_log t ~tid ~state:cstate_carved ~pool ~chunk:id;
  link_in_tail t ~pool ~arena ~first ~last;
  id

(* ---- Function 4: MakeLinkedObject (allocation half) -------------------- *)

(* Pop a raw block from the caller's arena, logging the attempt first.
   The caller initialises it as a node and persists it. *)
let alloc_block t ~tid ~ops ~pred ~key =
  let pool = Mem.local_pool t ~tid in
  let arena = tid mod t.Mem.n_arenas in
  let head_slot = Mem.arena_head_ptr ~pool ~arena in
  recover_chunk_provision t ~tid;
  let rec loop () =
    let new_block = Mem.read_ptr t head_slot 0 in
    let next_block = Mem.read_ptr t new_block Mem.hdr_next in
    if Riv.is_null next_block then begin
      (* Free list nearly empty: provision a fresh chunk under the
         chunk-provision log so a crash cannot leak it. The log is written
         by [allocate_chunk] between the durable bump advance and the
         registry publish, so there is no instant where a chunk exists
         without a durable log naming it. *)
      let id = provision_chunk t ~tid ~pool ~arena in
      set_chunk_log t ~tid ~state:cstate_none ~pool:0 ~chunk:0;
      obs_event ~tid Obs.id_chunk id;
      loop ()
    end
    else begin
      log_change_attempt t ~tid ~ops ~block:new_block ~pred ~key;
      (* A crash after this point cannot leak the block: the log will be
         checked on this thread's next allocation. *)
      if Mem.cas_ptr t head_slot 0 ~expected:new_block ~desired:next_block then begin
        Mem.persist_field t head_slot 0;
        (* Clear the stale free-list pointer in the volatile image, so a
           concurrent [delete_linked_object] guard sees the pop. No flush
           of its own: the caller's node initialisation overwrites word 0
           and persists the line, and a crash before that leaves a stale
           pointer, which [delete_linked_object] disambiguates. *)
        Mem.write_ptr t new_block Mem.hdr_next Riv.null;
        obs_event ~tid Obs.id_alloc 0;
        new_block
      end
      else loop ()
    end
  in
  loop ()

(* Number of blocks currently in an arena's free list (test/debug helper;
   uses direct peeks, no simulated cost). *)
let free_list_length t ~pool ~arena =
  let rec count cur acc =
    if Riv.is_null cur then acc
    else count (Mem.peek_ptr t cur Mem.hdr_next) (acc + 1)
  in
  count (Mem.peek_ptr t (Mem.arena_head_ptr ~pool ~arena) 0) 0

(* ---- persistent-heap audit (host side, peeks only) ---------------------- *)

(* Account for every block of every registered chunk in the *persistent*
   image: each must be on a free list, reachable from the structure
   ([reachable], supplied by the structure's own persistent walk), or named
   by a thread's allocation / chunk-provision log — the paper's "a crash
   cannot leak the block" claim, checked literally. Also flags the
   converse corruption (a freed block still reachable) and dangling or
   cyclic free lists. Log entries excuse their block regardless of epoch (a
   stale entry over-approximates, which can hide a leak but never
   fabricates one).

   Requires physical reclamation to be off: retired-but-unfreed nodes live
   only in DRAM retire lists and would read as leaks. *)
let audit t ~reachable =
  let errs = ref [] in
  let err fmt = Fmt.kstr (fun s -> errs := s :: !errs) fmt in
  let pools = Mem.n_pools t in
  let per_pool_chunks =
    Array.init pools (fun pool -> Mem.persistent_chunks t ~pool)
  in
  let registered = Hashtbl.create 64 in
  Array.iteri
    (fun pool chunks ->
      List.iter (fun id -> Hashtbl.replace registered (pool, id) ()) chunks)
    per_pool_chunks;
  let bw = Mem.block_words t in
  (* A reference is a valid block boundary iff it names a registered chunk
     at a block-aligned in-range offset. *)
  let valid_block p =
    (not (Riv.is_null p))
    && Riv.chunk p <> 0
    && Hashtbl.mem registered (Riv.pool p, Riv.chunk p)
    && Riv.offset p mod bw = 0
    && Riv.offset p < t.Mem.chunk_words
  in
  let pk obj i = Mem.peek_field_persistent t obj i in
  (* Thread logs: a valid allocation log excuses its block; a non-idle
     chunk-provision log excuses the whole chunk (its blocks may be torn
     mid-carve). *)
  let excused_blocks = Hashtbl.create 32 in
  let excused_chunks = Hashtbl.create 8 in
  let log_word tid off =
    Mem.peek_root_persistent t ~pool:0
      ~word:(Mem.logs_start + (tid * Mem.log_words) + off)
  in
  for tid = 0 to Mem.max_threads - 1 do
    if log_word tid log_state = state_valid then begin
      let b = Riv.of_word (log_word tid log_block) in
      if not (Riv.is_null b) then Hashtbl.replace excused_blocks (Riv.to_word b) ()
    end;
    if log_word tid clog_state <> cstate_none then
      Hashtbl.replace excused_chunks (log_word tid clog_pool, log_word tid clog_chunk) ()
  done;
  (* Free-list membership: walk every arena chain in the persistent
     image. Chains share tails across epochs, so a previously
     visited element ends the walk (and doubles as cycle protection
     alongside the step bound). *)
  let on_freelist = Hashtbl.create 256 in
  let bound = Mem.total_blocks t + 16 in
  for pool = 0 to pools - 1 do
    for arena = 0 to t.Mem.n_arenas - 1 do
      let head =
        Riv.of_word
          (Mem.peek_root_persistent t ~pool ~word:(Mem.arena_heads + arena))
      in
      let rec walk p steps =
        if Riv.is_null p then ()
        else if steps > bound then
          err "free list pool %d arena %d: cycle or runaway chain" pool arena
        else if not (valid_block p) then
          err "free list pool %d arena %d: dangling element %a" pool arena Riv.pp p
        else if not (Hashtbl.mem on_freelist (Riv.to_word p)) then begin
          Hashtbl.replace on_freelist (Riv.to_word p) ();
          walk (Riv.of_word (pk p Mem.hdr_next)) (steps + 1)
        end
      in
      walk head 0
    done
  done;
  (* Every block of every registered (and unexcused) chunk must be
     accounted for. *)
  for pool = 0 to pools - 1 do
    List.iter
      (fun id ->
        if not (Hashtbl.mem excused_chunks (pool, id)) then begin
          for i = 0 to Mem.blocks_per_chunk t - 1 do
            let b = Riv.make ~pool ~chunk:id ~offset:(i * bw) in
            let w = Riv.to_word b in
            let kind = Mem.kind_of (pk b Mem.hdr_kind) in
            let listed = Hashtbl.mem on_freelist w in
            let logged = Hashtbl.mem excused_blocks w in
            if kind = Mem.kind_free && reachable b then
              err "block %a: freed (kind free) but still reachable from the structure"
                Riv.pp b
            else begin
              let ok =
                if kind = Mem.kind_free then listed || logged
                else if kind = Mem.kind_node then reachable b || listed || logged
                else logged
              in
              if not ok then
                err
                  "leaked block %a (pool %d chunk %d): kind %d, unreachable, \
                   off-freelist, unlogged"
                  Riv.pp b pool id kind
            end
          done
        end)
      per_pool_chunks.(pool)
  done;
  List.rev !errs
