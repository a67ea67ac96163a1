(* Epoch-based reclamation for physically removed nodes (the memory
   reclamation method the paper names for its removal follow-up,
   Sections 2.5.2 / 4.6).

   A thread announces the global reclamation epoch on operation entry and
   withdraws on exit; a retired node is returned to the block allocator
   only once every in-flight operation entered after the retirement —
   i.e. no traversal can still hold a reference.

   The bookkeeping lives in DRAM (host side, no simulated cost), as real
   EBR metadata would: it guides *when* to free, and freeing itself goes
   through the recoverable block allocator. Retired-but-unreclaimed nodes
   at a crash are handled by the retirement entry in the per-thread
   allocation log (see Skiplist.try_retire_node); the residual window — a
   second retirement overwriting the log before the first was reclaimed —
   can leak across a crash, the price the paper's future-work sketch also
   accepts short of persistent reference counting. *)

module Riv = Memory.Riv

let quiescent = max_int

type t = {
  free : tid:int -> Riv.t -> unit;  (* fiber context *)
  mutable global_epoch : int;
  announced : int array;  (* per-tid epoch, [quiescent] when idle *)
  retired : (Riv.t * int) list ref array;  (* per-tid: node, retire epoch *)
  mutable retirements : int;
  mutable freed : int;
  collect_every : int;
}

let create ?(collect_every = 8) ~max_threads ~free () =
  {
    free;
    global_epoch = 1;
    announced = Array.make max_threads quiescent;
    retired = Array.init max_threads (fun _ -> ref []);
    retirements = 0;
    freed = 0;
    collect_every;
  }

let enter t ~tid = t.announced.(tid) <- t.global_epoch
let exit t ~tid = t.announced.(tid) <- quiescent

(* Oldest epoch any in-flight operation may still observe. *)
let min_active t = Array.fold_left Int.min quiescent t.announced

(* Free this thread's retired nodes that no in-flight operation can still
   reference. Fiber context (freeing performs simulated writes). *)
let collect t ~tid =
  let horizon = min_active t in
  let keep, free =
    List.partition (fun (_, e) -> e >= horizon) !(t.retired.(tid))
  in
  t.retired.(tid) := keep;
  List.iter
    (fun (node, _) ->
      t.freed <- t.freed + 1;
      t.free ~tid node)
    free

let retire t ~tid node =
  t.retired.(tid) := (node, t.global_epoch) :: !(t.retired.(tid));
  t.retirements <- t.retirements + 1;
  if t.retirements mod t.collect_every = 0 then begin
    t.global_epoch <- t.global_epoch + 1;
    collect t ~tid
  end

(* Reclaim everything retired by any thread; only sound when no operation
   is in flight (tests, quiesced benchmarks). Fiber context. *)
let drain t ~tid =
  t.global_epoch <- t.global_epoch + 1;
  Array.iter
    (fun l ->
      let all = !l in
      l := [];
      List.iter
        (fun (node, _) ->
          t.freed <- t.freed + 1;
          t.free ~tid node)
        all)
    t.retired

let pending t =
  Array.fold_left (fun acc l -> acc + List.length !l) 0 t.retired

let freed t = t.freed
let retirements t = t.retirements
