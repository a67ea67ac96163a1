(* Persistent multi-word compare-and-swap (Wang et al.), the substrate
   BzTree builds on.

   A descriptor records up to [max_entries] (address, expected, new) triples
   plus a status word. Phase 1 installs a marked reference to the descriptor
   in every target address with single-word CAS (helping any conflicting
   operation first); phase 2 decides and persists the status; phase 3
   replaces the marked references with the final values. Readers that meet a
   marked reference help the operation to completion, and values are written
   with a dirty bit that readers flush-and-clear before use — the paper's
   protocol for ordering dependent persists.

   Descriptors live in a fixed-size persistent pool. Recovery scans the
   whole pool sequentially, rolling interrupted operations forward or back,
   which is why BzTree's recovery time grows with the descriptor count
   (Table 5.4). The pool-allocation counter is a genuine contention point at
   high thread counts — the bottleneck behind BzTree's throughput falloff in
   update-heavy workloads (Fig 5.1).

   Marking uses high bits that real pointers/values never carry:
   bit 61 = descriptor reference, bit 60 = dirty. *)

module Mem = Memory.Mem
module Riv = Memory.Riv

let desc_mark = 1 lsl 61
let dirty_bit = 1 lsl 60
let value_mask = dirty_bit - 1

let is_desc_ref v = v land desc_mark <> 0
let is_dirty v = v land dirty_bit <> 0

let max_entries = 4

(* Descriptor layout: 16 words (two cache lines). *)
let desc_words = 16
let d_status = 0
let d_count = 1
let d_entry i = 2 + (3 * i) (* addr, expected, new *)

let status_undecided = 0
let status_succeeded = 1
let status_failed = 2

type t = {
  mem : Mem.t;
  pool : int;  (* pmem pool holding the descriptor area *)
  base : int;  (* first word of the descriptor area *)
  n_descriptors : int;
  counter_word : int;  (* shared allocation counter *)
  mutable allocations : int;  (* host-side statistics *)
}

(* Reserve the descriptor area at setup time (pokes, no simulated cost). *)
let create_poked ~mem ~pool ~n_descriptors =
  let words = (n_descriptors * desc_words) + Pmem.line_words in
  let region = Mem.grab_region_poked mem ~pool ~words in
  let base = Memory.Riv.offset region in
  (* counter occupies the first line; descriptors follow *)
  Pmem.poke (Mem.pmem mem) (Pmem.addr ~pool ~word:base) 0;
  {
    mem;
    pool;
    base = base + Pmem.line_words;
    n_descriptors;
    counter_word = base;
    allocations = 0;
  }

let desc_addr t i = Pmem.addr ~pool:t.pool ~word:(t.base + (i * desc_words))

let desc_ref _t i = desc_mark lor i
let desc_of_ref r = r land lnot desc_mark

(* ---- helping / completion --------------------------------------------- *)

(* Complete a descriptor's operation from any phase; idempotent, run by the
   owner and by any reader that encounters the marked reference. *)
let rec complete t di =
  let da = desc_addr t di in
  let count = Mem.read t.mem (da + d_count) in
  let dref = desc_ref t di in
  let decide desired =
    ignore (Mem.cas t.mem (da + d_status) ~expected:status_undecided ~desired)
  in
  (* Phase 1: install marked references, stopping early once the status is
     decided (a helper may have finished phase 2 already). *)
  let rec install i =
    if i < count && Mem.read t.mem (da + d_status) = status_undecided then begin
      let addr = Mem.read t.mem (da + d_entry i) in
      let expected = Mem.read t.mem (da + d_entry i + 1) in
      let rec try_install () =
        let cur = Mem.read t.mem addr in
        if cur = dref then `Installed
        else if is_desc_ref cur then begin
          (* conflicting operation: help it first, then retry *)
          ignore (complete t (desc_of_ref cur));
          try_install ()
        end
        else if cur land value_mask <> expected land value_mask then `Mismatch
        else if Mem.cas t.mem addr ~expected:cur ~desired:dref then begin
          Mem.flush t.mem addr;
          `Installed
        end
        else try_install ()
      in
      match try_install () with
      | `Installed -> install (i + 1)
      | `Mismatch -> decide status_failed
    end
  in
  install 0;
  (* Phase 2: decide (no-op when a helper already did). *)
  decide status_succeeded;
  Mem.flush t.mem (da + d_status);
  Mem.fence t.mem;
  let final = Mem.read t.mem (da + d_status) in
  (* Phase 3: replace marked references with final values (dirty). *)
  for i = 0 to count - 1 do
    let addr = Mem.read t.mem (da + d_entry i) in
    let expected = Mem.read t.mem (da + d_entry i + 1) in
    let nv = Mem.read t.mem (da + d_entry i + 2) in
    let v = if final = status_succeeded then nv else expected in
    if Mem.cas t.mem addr ~expected:dref ~desired:(v lor dirty_bit) then
      Mem.flush t.mem addr
  done;
  Mem.fence t.mem;
  final = status_succeeded

(* ---- public operations ------------------------------------------------- *)

(* Mark-aware, dirty-clearing read: the only safe way to observe a word
   governed by PMwCAS. *)
let rec read t addr =
  let v = Mem.read t.mem addr in
  if is_desc_ref v then begin
    ignore (complete t (desc_of_ref v));
    read t addr
  end
  else if is_dirty v then begin
    (* Flush on behalf of the writer, then clear the dirty bit. *)
    Mem.flush t.mem addr;
    ignore (Mem.cas t.mem addr ~expected:v ~desired:(v land value_mask));
    v land value_mask
  end
  else v

(* Allocate a descriptor slot from the shared pool. The CAS on the shared
   counter is the contention point. *)
let rec alloc_descriptor t =
  let ca = Pmem.addr ~pool:t.pool ~word:t.counter_word in
  let c = Mem.read t.mem ca in
  if Mem.cas t.mem ca ~expected:c ~desired:(c + 1) then begin
    t.allocations <- t.allocations + 1;
    c mod t.n_descriptors
  end
  else alloc_descriptor t

(* Atomically change every (addr, expected, desired) or none. Expected
   values must be clean (mark-free); the caller obtains them via [read]. *)
let mwcas t entries =
  let n = Array.length entries in
  if n = 0 || n > max_entries then invalid_arg "Pmwcas.mwcas: entry count";
  Array.iter
    (fun (_, expected, desired) ->
      (* values must leave the mark bits free, as in the real library *)
      if expected < 0 || expected >= dirty_bit || desired < 0 || desired >= dirty_bit
      then invalid_arg "Pmwcas.mwcas: value outside [0, 2^60)")
    entries;
  (* Sort by address: total install order prevents mutual livelock. *)
  let entries = Array.copy entries in
  Array.sort (fun (a, _, _) (b, _, _) -> compare a b) entries;
  let di = alloc_descriptor t in
  let da = desc_addr t di in
  Mem.write t.mem (da + d_status) status_undecided;
  Mem.write t.mem (da + d_count) n;
  Array.iteri
    (fun i (addr, expected, desired) ->
      Mem.write t.mem (da + d_entry i) addr;
      Mem.write t.mem (da + d_entry i + 1) expected;
      Mem.write t.mem (da + d_entry i + 2) desired)
    entries;
  (* Persist the descriptor before any reference to it can be installed. *)
  Mem.flush t.mem da;
  Mem.flush t.mem (da + Pmem.line_words);
  Mem.fence t.mem;
  complete t di

(* ---- recovery ----------------------------------------------------------- *)

(* Sequential post-crash scan of the descriptor pool (the paper's measured
   recovery cost): undecided operations roll back, decided ones roll
   forward. Runs in fiber context so the harness can time it. *)
let recover t =
  for di = 0 to t.n_descriptors - 1 do
    let da = desc_addr t di in
    let status = Mem.read t.mem (da + d_status) in
    let count = Mem.read t.mem (da + d_count) in
    if count > 0 && count <= max_entries then begin
      let dref = desc_ref t di in
      for i = 0 to count - 1 do
        let addr = Mem.read t.mem (da + d_entry i) in
        let expected = Mem.read t.mem (da + d_entry i + 1) in
        let nv = Mem.read t.mem (da + d_entry i + 2) in
        let cur = Mem.read t.mem addr in
        if cur = dref then begin
          let v = if status = status_succeeded then nv else expected in
          if Mem.cas t.mem addr ~expected:dref ~desired:v then begin
            Mem.flush t.mem addr;
            Mem.fence t.mem
          end
        end
      done;
      if status = status_undecided then begin
        Mem.write t.mem (da + d_status) status_failed;
        Mem.flush t.mem (da + d_status);
        Mem.fence t.mem
      end
    end
  done

let allocations t = t.allocations
let n_descriptors t = t.n_descriptors
