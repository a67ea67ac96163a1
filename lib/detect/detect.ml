(* Detectable exactly-once operations: a fixed per-client announcement
   table in its own persistent region (Ben-David et al.'s detectable
   execution, adapted to the simulated-PMEM machine model).

   One cache line per client holds the client's current operation
   descriptor: a monotone per-client sequence number, the op code / key /
   value, a status word, the op's result, and the failure-free epoch the
   announce happened in. Before a client's structure op starts, the slot is
   overwritten and persisted with ONE flush + ONE fence (the whole slot is
   a single cache line). One line is not one atomic store: a power failure
   between two of the announce's stores can persist the line with any
   prefix of them (the crash model keeps a dirty line as it stands, as
   hardware may evict it mid-sequence). So the announce first clears the
   status to [empty], then writes the descriptor, and sets [announced]
   last: every prefix reads either as the previous descriptor, as an empty
   slot, or as the complete new one, and an empty slot decides its op as
   not applied. After the structure op returns, the result and the
   [applied] status are written back and flushed; the fence for
   that write-back may be the caller's own trailing fence (group commit),
   so resolution adds one flush and no mandatory fence to the op.

   Status-word state machine (per slot):

     empty ──announce──▶ announced ──resolve──▶ applied
                             │
                     recovery resolve pass
                     (probe the structure)
                        │           │
                        ▼           ▼
               recovered_applied  recovered_absent

   and the next announce on the slot returns it to [announced] from any
   state, through [empty] while its stores are in flight. Only
   [announced] slots from an EARLIER epoch are touched by the recovery
   resolve pass: a slot announced in the current epoch belongs to
   a live operation, so the pass is safe to re-run at any point of
   recovery — re-running it after a crash-during-recovery re-probes and
   rewrites the same slots (idempotent), and once a slot has left
   [announced] the pass never reconsiders it.

   The probe relies on the harness convention that written values are
   unique and nonzero: an announced upsert took effect iff the structure
   holds exactly the announced value under the announced key; an announced
   remove took effect iff the key is absent. [decide] then turns the slot
   into a replay verdict for a given (client, seq):

     slot.seq > seq                 the op was resolved and later overwritten
                                    by a newer announce — applied, result
                                    no longer known
     slot.seq = seq, applied        applied, result known
     slot.seq = seq, recovered_applied
                                    applied (result lost with the crash)
     slot.seq = seq, recovered_absent | announced | empty
                                    not applied — safe to replay
     slot.seq < seq                 never announced — safe to replay

   The [seq > seq'] arm is sound because a client announces seq n+1 only
   after seq n was resolved (the announce overwrites the slot, and the
   protocol aligns announce order with execution order per client). *)

module Mem = Memory.Mem
module Riv = Memory.Riv

let slot_words = Pmem.line_words (* one cache line per client *)

(* slot field indices *)
let s_seq = 0
let s_op = 1
let s_key = 2
let s_value = 3
let s_status = 4
let s_result = 5
let s_epoch = 6
(* word 7 reserved *)

(* status word values *)
let st_empty = 0
let st_announced = 1
let st_applied = 2
let st_rec_applied = 3
let st_rec_absent = 4

(* header line (slot -1): region magic + client count *)
let h_magic = 0
let h_clients = 1
let header_magic = 0x44455443 (* "DETC" *)

type op = Op_upsert | Op_remove

let op_code = function Op_upsert -> 1 | Op_remove -> 2

type t = { mem : Mem.t; base : Riv.t; clients : int }

type decision = Not_applied | Applied_unknown | Applied of int option

type slot = {
  d_seq : int;
  d_op : int;
  d_key : int;
  d_value : int;
  d_status : int;
  d_result : int;
  d_epoch : int;
}

let clients t = t.clients

let slot_riv t client =
  if client < 0 || client >= t.clients then
    invalid_arg "Detect: client out of range";
  Riv.add t.base (slot_words * (1 + client))

let create ~mem ~clients =
  if clients <= 0 then invalid_arg "Detect.create: clients must be positive";
  let words = slot_words * (1 + clients) in
  let base = Mem.grab_region_poked mem ~pool:0 ~words in
  assert (Riv.offset base mod Pmem.line_words = 0);
  let t = { mem; base; clients } in
  Mem.poke_field mem base h_magic header_magic;
  Mem.poke_field mem base h_clients clients;
  for c = 0 to clients - 1 do
    let s = slot_riv t c in
    for i = 0 to slot_words - 1 do
      Mem.poke_field mem s i 0
    done
  done;
  Mem.set_detect_root mem base;
  t

(* Reattach to a table formatted by an earlier run of the pool: the root
   word and the header are read from the persistent image, so this works
   immediately after a power failure with no log replay. *)
let attach ~mem =
  let base = Mem.detect_root mem in
  if Riv.is_null base then None
  else if Mem.peek_field mem base h_magic <> header_magic then None
  else
    let clients = Mem.peek_field mem base h_clients in
    if clients <= 0 then None else Some { mem; base; clients }

(* ---- fiber-context protocol steps -------------------------------------- *)

(* Persist the descriptor before the structure op: eight stores into one
   cache line, one flush, one fence. After the fence the announce is
   durable; a crash at any later point of the op leaves a slot the resolve
   pass can decide. A crash between the stores may persist any prefix of
   them, so the status is cleared first and set last: the new seq beside
   the previous op's [applied] status would make [decide] suppress an op
   that never ran, and [announced] beside a half-written descriptor would
   make the resolve pass probe for it. *)
let announce t ~tid ~client ~seq ~op ~key ~value =
  let s = slot_riv t client in
  Mem.write_field t.mem s s_status st_empty;
  Mem.write_field t.mem s s_seq seq;
  Mem.write_field t.mem s s_op (op_code op);
  Mem.write_field t.mem s s_key key;
  Mem.write_field t.mem s s_value value;
  Mem.write_field t.mem s s_result 0;
  Mem.write_field t.mem s s_epoch (Mem.epoch t.mem);
  Mem.write_field t.mem s s_status st_announced;
  Mem.flush_field t.mem s s_seq;
  Mem.fence t.mem;
  Obs.bump ~tid Obs.id_detect_announce

(* Record the op's outcome before ack: result, then status, one flush (a
   crash between them leaves the slot [announced], which the resolve pass
   decides by probing). The simulator persists a flushed line immediately
   (the fence orders and prices), so with [fence:false] the caller can
   fold the fence into its own trailing one (the service layer's group
   commit) without widening the announced-but-unresolved window. *)
let resolve t ~tid ~client ~prev ?(fence = true) () =
  let s = slot_riv t client in
  Mem.write_field t.mem s s_result (match prev with None -> 0 | Some v -> v);
  Mem.write_field t.mem s s_status st_applied;
  Mem.flush_field t.mem s s_status;
  if fence then Mem.fence t.mem;
  Obs.bump ~tid Obs.id_detect_resolve

(* Recovery resolve pass: walk every slot; decide announced-but-unresolved
   descriptors from an earlier epoch by probing the recovered structure.
   [probe ~tid key] is the structure's point lookup. Idempotent: re-running
   the pass (including after a crash that interrupted it) re-derives the
   same verdicts, and slots that already left [announced] are skipped.
   Returns the number of slots decided on this pass. *)
let recover_resolve t ~tid ~probe =
  let decided = ref 0 in
  let epoch_now = Mem.epoch t.mem in
  for c = 0 to t.clients - 1 do
    let s = slot_riv t c in
    let status = Mem.read_field t.mem s s_status in
    if status = st_announced && Mem.read_field t.mem s s_epoch < epoch_now
    then begin
      let op = Mem.read_field t.mem s s_op in
      let key = Mem.read_field t.mem s s_key in
      let value = Mem.read_field t.mem s s_value in
      let applied =
        if op = op_code Op_upsert then probe ~tid key = Some value
        else probe ~tid key = None
      in
      Mem.write_field t.mem s s_status
        (if applied then st_rec_applied else st_rec_absent);
      Mem.flush_field t.mem s s_status;
      incr decided;
      Obs.bump ~tid Obs.id_detect_recover
    end
  done;
  if !decided > 0 then Mem.fence t.mem;
  !decided

(* ---- host-side verdicts and inspection --------------------------------- *)

let peek_slot t ~client =
  let s = slot_riv t client in
  {
    d_seq = Mem.peek_field t.mem s s_seq;
    d_op = Mem.peek_field t.mem s s_op;
    d_key = Mem.peek_field t.mem s s_key;
    d_value = Mem.peek_field t.mem s s_value;
    d_status = Mem.peek_field t.mem s s_status;
    d_result = Mem.peek_field t.mem s s_result;
    d_epoch = Mem.peek_field t.mem s s_epoch;
  }

let decide t ~client ~seq =
  let s = peek_slot t ~client in
  if s.d_seq > seq then Applied_unknown
  else if s.d_seq < seq then Not_applied
  else if s.d_status = st_applied then
    Applied (if s.d_result = 0 then None else Some s.d_result)
  else if s.d_status = st_rec_applied then Applied_unknown
  else (* announced / recovered_absent / empty *) Not_applied

(* Persistent-image well-formedness check, reported alongside the heap
   audits: header intact, every slot's status in range, announced or
   resolved slots carrying a plausible descriptor. *)
let audit t =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let pk i = Mem.peek_field_persistent t.mem t.base i in
  if pk h_magic <> header_magic then err "detect: header magic mismatch";
  if pk h_clients <> t.clients then
    err "detect: header clients %d <> %d" (pk h_clients) t.clients;
  for c = 0 to t.clients - 1 do
    let s = slot_riv t c in
    let f i = Mem.peek_field_persistent t.mem s i in
    let status = f s_status in
    if status < st_empty || status > st_rec_absent then
      err "detect: client %d: status %d out of range" c status;
    if status <> st_empty then begin
      if f s_seq <= 0 then err "detect: client %d: non-positive seq" c;
      let op = f s_op in
      if op <> op_code Op_upsert && op <> op_code Op_remove then
        err "detect: client %d: bad op code %d" c op;
      if f s_key <= 0 then err "detect: client %d: non-positive key" c;
      if f s_epoch <= 0 then err "detect: client %d: non-positive epoch" c
    end
  done;
  List.rev !errs
