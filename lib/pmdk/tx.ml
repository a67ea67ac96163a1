(* libpmemobj-style undo-log transactions and run-id locks.

   Each thread owns a persistent transaction slot. Before a word is
   modified inside a transaction its old value is appended to the slot's
   undo log and persisted; at commit every modified line is flushed, then
   the slot is marked idle. A crash with an active slot rolls the entries
   back in reverse order at recovery — the libpmemobj model, including its
   write amplification (snapshot + data = every transactional store costs
   two persisted writes), which is what the paper measures against.

   Locks follow libpmemobj's PMEMmutex trick: the lock word embeds the
   run id of the pool connection, so locks from a previous run are free by
   definition and no O(n) lock re-initialisation is needed at recovery. *)

module Mem = Memory.Mem
module Riv = Memory.Riv

let max_entries = 192

(* Per-thread slot layout. *)
let s_state = 0
let s_count = 1
let s_entry i = 2 + (2 * i) (* addr, old value *)
let slot_words = 2 + (2 * max_entries) + 6

let state_idle = 0
let state_active = 1

type t = {
  mem : Mem.t;
  base : int;  (* first word of the region (pool 0) *)
  run_id_word : Sim.Sched.addr;
  dirty : (int, int list ref) Hashtbl.t;  (* tid -> modified addrs (DRAM) *)
  mutable run_id : int;  (* DRAM copy *)
}

let slot_word t tid = t.base + Pmem.line_words + (tid * slot_words)
let slot_addr t tid i = Pmem.addr ~pool:0 ~word:(slot_word t tid + i)

(* One lane per possible tid, so recovery scans a fixed number of slots
   however the fixture is sized. *)
let lanes = Mem.max_threads

let create_poked ~mem =
  let words = Pmem.line_words + (lanes * slot_words) in
  let region = Mem.grab_region_poked mem ~pool:0 ~words in
  let base = Riv.offset region in
  let run_id_word = Pmem.addr ~pool:0 ~word:base in
  Pmem.poke (Mem.pmem mem) run_id_word 1;
  {
    mem;
    base;
    run_id_word;
    dirty = Hashtbl.create 64;
    run_id = 1;
  }

let run_id t = t.run_id

(* ---- transactions ------------------------------------------------------ *)

let dirty_list t tid =
  match Hashtbl.find_opt t.dirty tid with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.add t.dirty tid l;
      l

let begin_ t ~tid =
  Mem.write t.mem (slot_addr t tid s_state) state_active;
  Mem.write t.mem (slot_addr t tid s_count) 0;
  Mem.flush t.mem (slot_addr t tid s_state);
  Mem.fence t.mem;
  (dirty_list t tid) := []

(* Snapshot [addr] into the undo log (persisted before the caller's
   store reaches the word — libpmemobj's TX_ADD). *)
let add t ~tid addr =
  let count = Mem.read t.mem (slot_addr t tid s_count) in
  if count >= max_entries then failwith "Tx.add: undo log full";
  let old = Mem.read t.mem addr in
  Mem.write t.mem (slot_addr t tid (s_entry count)) addr;
  Mem.write t.mem (slot_addr t tid (s_entry count + 1)) old;
  Mem.write t.mem (slot_addr t tid s_count) (count + 1);
  Mem.flush t.mem (slot_addr t tid (s_entry count));
  Mem.flush t.mem (slot_addr t tid s_count);
  Mem.fence t.mem

(* Transactional store. *)
let write t ~tid addr v =
  add t ~tid addr;
  Mem.write t.mem addr v;
  let l = dirty_list t tid in
  l := addr :: !l

let commit t ~tid =
  (* flush all modified lines, then retire the log *)
  let l = dirty_list t tid in
  List.iter (Mem.flush t.mem) !l;
  Mem.fence t.mem;
  l := [];
  Mem.write t.mem (slot_addr t tid s_state) state_idle;
  Mem.flush t.mem (slot_addr t tid s_state);
  Mem.fence t.mem

let abort t ~tid =
  let count = Mem.read t.mem (slot_addr t tid s_count) in
  for i = count - 1 downto 0 do
    let addr = Mem.read t.mem (slot_addr t tid (s_entry i)) in
    let old = Mem.read t.mem (slot_addr t tid (s_entry i + 1)) in
    Mem.write t.mem addr old;
    Mem.flush t.mem addr
  done;
  Mem.fence t.mem;
  (dirty_list t tid) := [];
  Mem.write t.mem (slot_addr t tid s_state) state_idle;
  Mem.flush t.mem (slot_addr t tid s_state);
  Mem.fence t.mem

(* ---- recovery ----------------------------------------------------------- *)

(* Roll back every transaction left active by the crash. Runs in fiber
   context so recovery can be timed; cost is O(lanes + log entries), not
   structure size. *)
let recover t =
  for tid = 0 to lanes - 1 do
    if Mem.read t.mem (slot_addr t tid s_state) = state_active then begin
      let count = Mem.read t.mem (slot_addr t tid s_count) in
      for i = min (count - 1) (max_entries - 1) downto 0 do
        let addr = Mem.read t.mem (slot_addr t tid (s_entry i)) in
        let old = Mem.read t.mem (slot_addr t tid (s_entry i + 1)) in
        Mem.write t.mem addr old;
        Mem.flush t.mem addr
      done;
      Mem.write t.mem (slot_addr t tid s_state) state_idle;
      Mem.flush t.mem (slot_addr t tid s_state);
      Mem.fence t.mem
    end
  done

(* Host-side reconnect: bump the run id (frees all run-id locks at once). *)
let reconnect t =
  let id = Pmem.peek (Mem.pmem t.mem) t.run_id_word + 1 in
  Pmem.poke (Mem.pmem t.mem) t.run_id_word id;
  t.run_id <- id;
  Hashtbl.reset t.dirty

(* ---- run-id spin locks --------------------------------------------------- *)

module Lock = struct
  (* Lock word encodes (run_id lsl 1) | held. A word stamped with an older
     run id is free: crashes release every lock in O(1). *)
  let rec acquire t addr =
    let w = Mem.read t.mem addr in
    let held = w land 1 = 1 && w lsr 1 = t.run_id in
    if held then begin
      Mem.yield t.mem;
      acquire t addr
    end
    else if
      Mem.cas t.mem addr ~expected:w ~desired:((t.run_id lsl 1) lor 1)
    then ()
    else acquire t addr

  let try_acquire t addr =
    let w = Mem.read t.mem addr in
    let held = w land 1 = 1 && w lsr 1 = t.run_id in
    (not held)
    && Mem.cas t.mem addr ~expected:w ~desired:((t.run_id lsl 1) lor 1)

  let release t addr = Mem.write t.mem addr (t.run_id lsl 1)
end
