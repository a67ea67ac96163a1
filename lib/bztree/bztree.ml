(* BzTree (Arulraj et al.): a latch-free B+tree for persistent memory whose
   multi-word updates all go through PMwCAS, reimplemented as the paper's
   baseline.

   Mechanisms kept from the original because they drive the measured
   behaviour:

   - Leaf nodes hold a binary-searchable *sorted area* plus an unsorted
     overflow region appended to by inserts; lookups binary-search the
     sorted keys and linearly scan only the overflow — why BzTree wins
     read-only workloads against UPSkipList's fully unsorted nodes.
   - Every mutation is a PMwCAS: slot reservation (1 word), record
     publication (1 word), in-place update (value + status check, 2 words),
     node freeze (1 word), root swap (1 word). Descriptor allocation and
     helping make updates expensive under contention — why BzTree falls off
     in update-heavy workloads at high thread counts.
   - Structural changes freeze the leaf, rebuild it into two sorted leaves
     and path-copy to the root, publishing with a single PMwCAS on the root
     pointer. Frozen leaves remain readable (copy-on-write), and any writer
     that meets one completes the split — including after a crash.
   - Recovery is PMwCAS-pool recovery: a sequential scan of every
     descriptor, hence recovery time grows with the descriptor pool size
     (Table 5.4).

   Simplifications (documented in DESIGN.md): fixed leaf/internal
   capacities; node memory is bump-allocated and not reclaimed (the paper's
   own evaluation disables reclamation-heavy paths by omitting removes). *)

module Mem = Memory.Mem
module Riv = Memory.Riv

let visible_bit = 1 lsl 50
let count_mask = visible_bit - 1

(* Leaf layout: status(count) | sorted_count | frozen | metas[c] | values[c].
   The frozen flag has its own word so that every record-level PMwCAS can
   include an unchanged-frozen check without colliding with the
   ever-changing record count. *)
let l_status = 0
let l_sorted = 1
let l_frozen = 2
let l_meta i = 3 + i

(* Internal layout: count | seps[fanout-1] | children[fanout] *)
let i_count = 0
let i_sep j = 1 + j

type t = {
  mem : Mem.t;
  pmw : Pmwcas.t;
  leaf_capacity : int;
  fanout : int;
  root_word : Sim.Sched.addr;  (* address of the root pointer *)
  bumps : (int * int) array;  (* per-tid (chunk riv base, remaining words) *)
  mutable splits : int;
}

let l_value t i = 3 + t.leaf_capacity + i
let leaf_words t = 3 + (2 * t.leaf_capacity)
let internal_words t = 2 * t.fanout
let i_child t j = t.fanout + j (* children start after count + seps *)

(* ---- node allocation: per-thread bump over chunks ---------------------- *)

(* Nodes are immutable once published (except leaf slots governed by
   PMwCAS), so a simple bump allocator suffices; chunks come from the
   coarse-grained allocator. *)
let alloc_node t ~tid ~words =
  let base, remaining = t.bumps.(tid) in
  if remaining >= words then begin
    t.bumps.(tid) <- (base + words, remaining - words);
    Riv.of_word base
  end
  else begin
    let pool = Mem.local_pool t.mem ~tid in
    let id, _ = Mem.allocate_chunk t.mem ~pool in
    let chunk_words = t.mem.Mem.chunk_words in
    let r = Riv.make ~pool ~chunk:id ~offset:0 in
    t.bumps.(tid) <- (Riv.to_word r + words, chunk_words - words);
    (* fresh chunks are zeroed, which is what empty slots require *)
    r
  end

let node_addr t n = Mem.resolve t.mem n

(* ---- creation ----------------------------------------------------------- *)

let create ~mem ~pmw ~leaf_capacity ~fanout ~max_threads =
  if leaf_capacity < 4 then invalid_arg "Bztree: leaf_capacity";
  if fanout < 4 then invalid_arg "Bztree: fanout";
  let root_slot = Mem.root_alloc mem ~pool:0 ~words:Pmem.line_words in
  let root_word = Mem.resolve mem root_slot in
  let t =
    {
      mem;
      pmw;
      leaf_capacity;
      fanout;
      root_word;
      bumps = Array.make max_threads (0, 0);
      splits = 0;
    }
  in
  (* initial root: an empty leaf, poked at setup *)
  let pmem = Mem.pmem mem in
  let bump = Pmem.addr ~pool:0 ~word:Mem.bump_word in
  let base = Pmem.peek pmem bump in
  Pmem.poke pmem bump (base + mem.Mem.chunk_words);
  let id = Mem.chunk_id_of_base mem base in
  Pmem.poke pmem (Pmem.addr ~pool:0 ~word:(Mem.registry_start + id)) (base + 1);
  let leaf = Riv.make ~pool:0 ~chunk:id ~offset:0 in
  Pmem.poke pmem root_word (Riv.to_word leaf);
  t

(* A node is a leaf iff its first word is a leaf status (we tag internals
   by storing count with a high marker bit). *)
let internal_tag = 1 lsl 55
let is_internal status_or_count = status_or_count land internal_tag <> 0

(* ---- descent ------------------------------------------------------------ *)

(* Returns the leaf covering [key], the path of internal nodes with the
   child index taken at each step (root first), and the root-pointer word
   value the descent started from (the expected value for a root swap). *)
let descend_with_root t key =
  let root_value = Pmwcas.read t.pmw t.root_word in
  let root = Riv.of_word root_value in
  let rec go n path =
    let a = node_addr t n in
    let w0 = Mem.read t.mem a in
    if is_internal w0 then begin
      let count = w0 land lnot internal_tag in
      (* binary search for the first separator > key *)
      let lo = ref 0 and hi = ref (count - 1) in
      (* seps.(j) separates child j and j+1: child j covers keys < seps.(j) *)
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        let sep = Mem.read t.mem (a + i_sep mid) in
        if key < sep then hi := mid else lo := mid + 1
      done;
      let child = Riv.of_word (Mem.read t.mem (a + i_child t !lo)) in
      go child ((n, !lo) :: path)
    end
    else (n, List.rev path, root_value)
  in
  go root []

let descend t key =
  let leaf, path, _ = descend_with_root t key in
  (leaf, path)

(* ---- leaf search -------------------------------------------------------- *)

(* Find the live slot for [key]: binary search of the sorted area, then a
   backwards scan of the overflow region (later entries supersede earlier
   duplicates). Returns the slot index or -1. *)
let leaf_find t leaf key =
  let a = node_addr t leaf in
  let status = Pmwcas.read t.pmw (a + l_status) in
  let count = status land count_mask in
  let sorted = Mem.read t.mem (a + l_sorted) in
  let meta i = Pmwcas.read t.pmw (a + l_meta i) in
  let found = ref (-1) in
  (* overflow, newest first *)
  let i = ref (count - 1) in
  while !found < 0 && !i >= sorted do
    let m = meta !i in
    if m land visible_bit <> 0 && m land count_mask = key then found := !i;
    decr i
  done;
  if !found >= 0 then (!found, status)
  else begin
    let lo = ref 0 and hi = ref (sorted - 1) in
    while !lo <= !hi && !found < 0 do
      let mid = (!lo + !hi) / 2 in
      let m = meta mid in
      let k = m land count_mask in
      if k = key then begin
        if m land visible_bit <> 0 then found := mid else hi := -1 (* absent *)
      end
      else if k < key then lo := mid + 1
      else hi := mid - 1
    done;
    (!found, status)
  end

(* ---- structural modification: leaf split + path copy ------------------- *)

let live_pairs t leaf =
  let a = node_addr t leaf in
  let status = Pmwcas.read t.pmw (a + l_status) in
  let count = status land count_mask in
  let tbl = Hashtbl.create 64 in
  (* oldest to newest, so the newest value for a key wins *)
  for i = 0 to count - 1 do
    let m = Pmwcas.read t.pmw (a + l_meta i) in
    if m land visible_bit <> 0 then
      Hashtbl.replace tbl (m land count_mask) (Pmwcas.read t.pmw (a + l_value t i))
  done;
  let pairs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  List.sort (fun (a, _) (b, _) -> compare a b) pairs

(* Build a fully sorted leaf from [pairs]. *)
let build_leaf t ~tid pairs =
  let n = List.length pairs in
  let leaf = alloc_node t ~tid ~words:(leaf_words t) in
  let a = node_addr t leaf in
  List.iteri
    (fun i (k, v) ->
      Mem.write t.mem (a + l_meta i) (visible_bit lor k);
      Mem.write t.mem (a + l_value t i) v)
    pairs;
  Mem.write t.mem (a + l_sorted) n;
  Mem.write t.mem (a + l_status) n;
  Mem.persist_range t.mem leaf ~first:0 ~words:(leaf_words t);
  leaf

let build_internal t ~tid ~seps ~children =
  let n = List.length children in
  if n > t.fanout then failwith "Bztree: fanout exceeded";
  let node = alloc_node t ~tid ~words:(internal_words t) in
  let a = node_addr t node in
  Mem.write t.mem (a + i_count) (internal_tag lor n);
  List.iteri (fun j s -> Mem.write t.mem (a + i_sep j) s) seps;
  List.iteri (fun j c -> Mem.write t.mem (a + i_child t j) (Riv.to_word c)) children;
  Mem.persist_range t.mem node ~first:0 ~words:(internal_words t);
  node

(* Read an internal node's separators and children (host-typed lists). *)
let internal_contents t n =
  let a = node_addr t n in
  let count = Mem.read t.mem (a + i_count) land lnot internal_tag in
  let seps = List.init (count - 1) (fun j -> Mem.read t.mem (a + i_sep j)) in
  let children =
    List.init count (fun j -> Riv.of_word (Mem.read t.mem (a + i_child t j)))
  in
  (seps, children)

(* Replace [child_index]'s entry of internal [n] by two children separated
   by [sep]; splits the internal node when fanout would overflow. Returns
   (children to insert at the next level up, separators). *)
let rec replace_and_split t ~tid path ~left ~sep ~right =
  match path with
  | [] ->
      (* splitting the root: new root above *)
      build_internal t ~tid ~seps:[ sep ] ~children:[ left; right ]
  | (n, idx) :: rest ->
      let seps, children = internal_contents t n in
      (* child [idx] becomes (left | sep | right): children gain one entry,
         separators gain [sep] at position [idx] *)
      let arr_c = Array.of_list children in
      let arr_s = Array.of_list seps in
      let n_children = Array.length arr_c in
      let new_children =
        Array.concat
          [
            Array.sub arr_c 0 idx;
            [| left; right |];
            Array.sub arr_c (idx + 1) (n_children - idx - 1);
          ]
      in
      let new_seps =
        Array.concat
          [
            Array.sub arr_s 0 idx;
            [| sep |];
            Array.sub arr_s idx (Array.length arr_s - idx);
          ]
      in
      if Array.length new_children <= t.fanout then begin
        let n' =
          build_internal t ~tid ~seps:(Array.to_list new_seps)
            ~children:(Array.to_list new_children)
        in
        propagate t ~tid rest ~replacement:n'
      end
      else begin
        (* split this internal node in half and recurse upwards *)
        let arr_c = new_children in
        let arr_s = new_seps in
        let half = Array.length arr_c / 2 in
        let left_node =
          build_internal t ~tid
            ~seps:(Array.to_list (Array.sub arr_s 0 (half - 1)))
            ~children:(Array.to_list (Array.sub arr_c 0 half))
        in
        let right_node =
          build_internal t ~tid
            ~seps:
              (Array.to_list
                 (Array.sub arr_s half (Array.length arr_s - half)))
            ~children:
              (Array.to_list (Array.sub arr_c half (Array.length arr_c - half)))
        in
        let mid_sep = arr_s.(half - 1) in
        replace_and_split t ~tid rest ~left:left_node ~sep:mid_sep
          ~right:right_node
      end

(* Path-copy: replace node at the head of [path] with [replacement] all the
   way to the root; returns the new root. *)
and propagate t ~tid path ~replacement =
  match path with
  | [] -> replacement
  | (n, idx) :: rest ->
      let seps, children = internal_contents t n in
      let children = List.mapi (fun i c -> if i = idx then replacement else c) children in
      let n' = build_internal t ~tid ~seps ~children in
      propagate t ~tid rest ~replacement:n'

(* Split a full (or frozen) leaf: freeze it, rebuild into two sorted
   leaves, publish a path-copied root with one PMwCAS. Any thread may run
   this, including post-crash threads that find a frozen leaf.

   The replacement tree is built from a *fresh* descent performed after the
   freeze: building from the caller's (possibly stale) path could win the
   root swap with a tree that resurrects already-replaced leaves, silently
   dropping their newer records. The swap's expected value is the exact
   root the fresh descent used, so any interleaved structural change makes
   the swap fail and the whole attempt retries. *)
let split_leaf t ~tid leaf ~key =
  let a = node_addr t leaf in
  if Pmwcas.read t.pmw (a + l_frozen) = 0 then
    ignore (Pmwcas.mwcas t.pmw [| (a + l_frozen, 0, 1) |]);
  (* re-read: frozen by us or someone else *)
  if Pmwcas.read t.pmw (a + l_frozen) <> 0 then begin
    let rec attempt budget =
      if budget = 0 then ()
      else begin
        let leaf', path, old_root = descend_with_root t key in
        if not (Riv.equal leaf' leaf) then ()
          (* already replaced by a competing splitter *)
        else begin
          let pairs = live_pairs t leaf in
          let new_root =
            match pairs with
            | [] | [ _ ] ->
                (* degenerate: rebuild as a single unfrozen leaf *)
                let leaf' = build_leaf t ~tid pairs in
                propagate t ~tid (List.rev path) ~replacement:leaf'
            | _ ->
                let arr = Array.of_list pairs in
                let half = Array.length arr / 2 in
                let l =
                  build_leaf t ~tid (Array.to_list (Array.sub arr 0 half))
                in
                let r =
                  build_leaf t ~tid
                    (Array.to_list
                       (Array.sub arr half (Array.length arr - half)))
                in
                let sep = fst arr.(half) in
                replace_and_split t ~tid (List.rev path) ~left:l ~sep ~right:r
          in
          if
            Pmwcas.mwcas t.pmw
              [| (t.root_word, old_root, Riv.to_word new_root) |]
          then t.splits <- t.splits + 1
          else begin
            Mem.yield t.mem;
            attempt (budget - 1)
          end
        end
      end
    in
    attempt 16
  end

(* ---- public operations --------------------------------------------------- *)

let check_key key =
  if key <= 0 || key >= visible_bit then invalid_arg "Bztree: key out of range"

let search t ~tid:_ key =
  check_key key;
  let leaf, _path = descend t key in
  let slot, status = leaf_find t leaf key in
  if slot < 0 then None
  else begin
    let a = node_addr t leaf in
    ignore status;
    let v = Pmwcas.read t.pmw (a + l_value t slot) in
    if v = 0 then None else Some v
  end

let rec upsert t ~tid key value =
  check_key key;
  if value = 0 then invalid_arg "Bztree: value 0 reserved";
  let leaf, path = descend t key in
  let a = node_addr t leaf in
  let status = Pmwcas.read t.pmw (a + l_status) in
  ignore path;
  if Pmwcas.read t.pmw (a + l_frozen) <> 0 then begin
    split_leaf t ~tid leaf ~key;
    upsert t ~tid key value
  end
  else begin
    let slot, _ = leaf_find t leaf key in
    if slot >= 0 then begin
      (* in-place update: value swap + status check in one PMwCAS *)
      let old = Pmwcas.read t.pmw (a + l_value t slot) in
      if
        Pmwcas.mwcas t.pmw
          [| (a + l_value t slot, old, value); (a + l_frozen, 0, 0) |]
      then if old = 0 then None else Some old
      else upsert t ~tid key value
    end
    else begin
      let count = status land count_mask in
      if count >= t.leaf_capacity then begin
        split_leaf t ~tid leaf ~key;
        upsert t ~tid key value
      end
      else begin
        (* reserve the next slot *)
        if
          not
            (Pmwcas.mwcas t.pmw
               [| (a + l_status, status, status + 1); (a + l_frozen, 0, 0) |])
        then upsert t ~tid key value
        else begin
          let slot = count in
          Mem.write t.mem (a + l_value t slot) value;
          Mem.flush t.mem (a + l_value t slot);
          Mem.fence t.mem;
          (* publish: flip the meta word visible *)
          let meta_old = Mem.read t.mem (a + l_meta slot) in
          if
            Pmwcas.mwcas t.pmw
              [|
                (a + l_meta slot, meta_old, visible_bit lor key);
                (a + l_frozen, 0, 0);
              |]
          then None
          else upsert t ~tid key value
        end
      end
    end
  end

let remove t ~tid:_ key =
  check_key key;
  let rec go () =
    let leaf, _path = descend t key in
    let a = node_addr t leaf in
    if Pmwcas.read t.pmw (a + l_frozen) <> 0 then begin
      Mem.yield t.mem;
      go ()
    end
    else begin
      let slot, _ = leaf_find t leaf key in
      if slot < 0 then None
      else begin
        let m = Pmwcas.read t.pmw (a + l_meta slot) in
        if
          Pmwcas.mwcas t.pmw
            [| (a + l_meta slot, m, m land lnot visible_bit);
               (a + l_frozen, 0, 0);
            |]
        then begin
          let v = Pmwcas.read t.pmw (a + l_value t slot) in
          if v = 0 then None else Some v
        end
        else go ()
      end
    end
  in
  go ()

(* Range query: recurse from the (atomically read) root into subtrees that
   intersect [lo, hi]; the copy-on-write structure makes the tree shape
   consistent from a single root read, and per-leaf reads follow the same
   visibility rules as point lookups. *)
let range t ~tid:_ ~lo ~hi =
  check_key lo;
  check_key hi;
  let acc = Hashtbl.create 64 in
  let rec collect n window_lo window_hi =
    if window_lo > hi || window_hi < lo then ()
    else begin
      let a = node_addr t n in
      let w0 = Mem.read t.mem a in
      if is_internal w0 then begin
        let count = w0 land lnot internal_tag in
        for j = 0 to count - 1 do
          let child_lo =
            if j = 0 then window_lo else Mem.read t.mem (a + i_sep (j - 1))
          in
          let child_hi =
            if j = count - 1 then window_hi
            else Mem.read t.mem (a + i_sep j) - 1
          in
          if child_lo <= hi && child_hi >= lo then
            collect
              (Riv.of_word (Mem.read t.mem (a + i_child t j)))
              child_lo child_hi
        done
      end
      else begin
        let status = Pmwcas.read t.pmw (a + l_status) in
        let count = status land count_mask in
        (* oldest to newest so the newest duplicate wins, as in leaf_find *)
        for i = 0 to count - 1 do
          let m = Pmwcas.read t.pmw (a + l_meta i) in
          let key = m land count_mask in
          if m land visible_bit <> 0 && key >= lo && key <= hi then begin
            let v = Pmwcas.read t.pmw (a + l_value t i) in
            if v = 0 then Hashtbl.remove acc key else Hashtbl.replace acc key v
          end
        done
      end
    end
  in
  let root = Riv.of_word (Pmwcas.read t.pmw t.root_word) in
  collect root min_int max_int;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Post-crash recovery: roll the descriptor pool forward/back. The scan is
   sequential and proportional to the pool size. *)
let recover t = Pmwcas.recover t.pmw

let splits t = t.splits

(* Host-side: collect all live pairs (for tests). *)
let to_alist t =
  let pmem = Mem.pmem t.mem in
  let peek a = Pmem.peek pmem a in
  let clean v = v land Pmwcas.value_mask in
  let rec collect n acc =
    let a = node_addr t n in
    let w0 = clean (peek (a + 0)) in
    if is_internal w0 then begin
      let count = w0 land lnot internal_tag in
      let rec kids j acc =
        if j >= count then acc
        else kids (j + 1) (collect (Riv.of_word (clean (peek (a + i_child t j)))) acc)
      in
      kids 0 acc
    end
    else begin
      let count = w0 land count_mask in
      let tbl = Hashtbl.create 16 in
      for i = 0 to count - 1 do
        let m = clean (peek (a + l_meta i)) in
        if m land visible_bit <> 0 then
          Hashtbl.replace tbl (m land count_mask) (clean (peek (a + l_value t i)))
      done;
      Hashtbl.fold (fun k v acc -> if v = 0 then acc else (k, v) :: acc) tbl acc
    end
  in
  let root = Riv.of_word (clean (peek t.root_word)) in
  List.sort (fun (a, _) (b, _) -> compare a b) (collect root [])
