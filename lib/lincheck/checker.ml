(* Strict-linearizability checker for unique-value upsert/read histories.

   Because every upsert returns the previous value and written values are
   unique per key, the effective writes on one key form a single chain:
   each op's observed previous value names its predecessor. The checker

   1. decides which writes took effect (completed, or observed by another
      operation — a pending write whose value was never seen simply did
      not happen, which strict linearizability allows);
   2. rebuilds the per-key chain from the "previous value" links and flags
      broken links, forks (two writes observing the same predecessor) and
      unreachable effective writes;
   3. checks the chain against real time (an op that responded before
      another was invoked must precede it) and against crashes (an op
      invoked in era e that took effect must linearize before the crash
      ending era e, so eras are monotone along the chain);
   4. validates every read: the observed value's write cannot begin after
      the read responds, and its successor in the chain cannot have
      completed (or be pinned by an earlier era) before the read began;
   5. checks that no operation carrying an op id was recorded twice.

   This is the same violation surface the analyzer of Cepeda et al. covers
   for conditional-swap logs: lost persisted updates, resurrected in-flight
   operations, stale and out-of-thin-air reads. *)

type violation = { key : int; message : string }

let pp_violation fmt v = Fmt.pf fmt "key %d: %s" v.key v.message

type write = {
  ev : History.event;
  value : int;
  prev : int option;
  effective : bool;
}

let check_chains (h : History.t) : violation list =
  let violations = ref [] in
  let report key fmt =
    Fmt.kstr (fun message -> violations := { key; message } :: !violations) fmt
  in
  (* group events per key *)
  let by_key = Hashtbl.create 1024 in
  List.iter
    (fun (e : History.event) ->
      let l =
        match Hashtbl.find_opt by_key e.History.key with
        | Some l -> l
        | None ->
            let l = ref [] in
            Hashtbl.add by_key e.History.key l;
            l
      in
      l := e :: !l)
    (History.events h);
  let check_key key events =
    (* observed values: all read outputs and upsert prevs *)
    let observed = Hashtbl.create 64 in
    List.iter
      (fun (e : History.event) ->
        match e.kind with
        | History.Read { out = Some v } -> Hashtbl.replace observed v ()
        | History.Upsert { prev = Some v; _ } -> Hashtbl.replace observed v ()
        | _ -> ())
      events;
    let writes =
      List.filter_map
        (fun (e : History.event) ->
          match e.kind with
          | History.Upsert { value; prev } ->
              let effective = e.completed || Hashtbl.mem observed value in
              Some { ev = e; value; prev; effective }
          | History.Read _ -> None)
        events
    in
    let effective = List.filter (fun w -> w.effective) writes in
    (* value uniqueness *)
    let seen = Hashtbl.create 64 in
    List.iter
      (fun w ->
        if Hashtbl.mem seen w.value then
          report key "value %d written twice (history not analyzable)" w.value
        else Hashtbl.add seen w.value ())
      writes;
    (* chain: prev value -> completed write. A pending-but-effective write
       (interrupted by a crash yet observed later) has an unknowable prev;
       the chain search below places such writes wherever the chain would
       otherwise break, backtracking over the (tiny) set of candidates. *)
    let by_prev = Hashtbl.create 64 in
    let fork = ref false in
    List.iter
      (fun w ->
        if w.effective && w.ev.completed then begin
          if Hashtbl.mem by_prev w.prev then begin
            fork := true;
            report key "two upserts observed the same previous value %a"
              Fmt.(option ~none:(any "<absent>") int)
              w.prev
          end
          else Hashtbl.add by_prev w.prev w
        end)
      effective;
    if not !fork then begin
      let pending_effective =
        List.filter (fun w -> not w.ev.completed) effective
      in
      let n_effective = List.length effective in
      (* Depth-first chain construction: extend with the completed write
         whose prev matches, otherwise try each unplaced pending write. *)
      let rec build cur placed acc =
        if placed = n_effective then Some (List.rev acc)
        else begin
          match Hashtbl.find_opt by_prev cur with
          | Some w when not (List.memq w acc) ->
              build (Some w.value) (placed + 1) (w :: acc)
          | _ ->
              let rec try_pending = function
                | [] -> None
                | p :: rest ->
                    if List.memq p acc then try_pending rest
                    else begin
                      match build (Some p.value) (placed + 1) (p :: acc) with
                      | Some chain -> Some chain
                      | None -> try_pending rest
                    end
              in
              try_pending pending_effective
        end
      in
      let order =
        match build None 0 [] with
        | Some chain -> Array.of_list chain
        | None ->
            report key
              "effective upserts cannot be arranged into a single chain from \
               the initial state (lost or duplicated update)";
            [||]
      in
      let chained = Array.length order in
      let pos = Hashtbl.create 64 in
      Array.iteri (fun i w -> Hashtbl.replace pos w.value i) order;
      (* real-time order along the chain *)
      for i = 0 to chained - 1 do
        for j = i + 1 to chained - 1 do
          if order.(j).ev.res < order.(i).ev.inv then
            report key
              "chain order contradicts real time: write of %d (responded %.0f) \
               precedes write of %d (invoked %.0f) in the chain"
              order.(j).value order.(j).ev.res order.(i).value order.(i).ev.inv
        done
      done;
      (* strict linearizability across crashes: eras monotone on the chain *)
      for i = 0 to chained - 2 do
        if order.(i + 1).ev.era < order.(i).ev.era then
          report key
            "write of %d (era %d) linearized after write of %d (era %d): an \
             interrupted operation took effect after the crash"
            order.(i).value order.(i).ev.era
            order.(i + 1).value
            order.(i + 1).ev.era
      done;
      (* read validation *)
      let writer v = List.find_opt (fun w -> w.value = v) writes in
      List.iter
        (fun (e : History.event) ->
          match e.kind with
          | History.Read { out } -> begin
              match out with
              | Some v -> begin
                  match writer v with
                  | None ->
                      report key "read observed value %d that was never written" v
                  | Some w ->
                      if e.res < w.ev.inv then
                        report key
                          "read of %d responded (%.0f) before its write was \
                           invoked (%.0f)"
                          v e.res w.ev.inv;
                      if w.ev.era > e.era then
                        report key
                          "read in era %d observed value %d written only in \
                           era %d"
                          e.era v w.ev.era;
                      (match Hashtbl.find_opt pos v with
                      | Some i when i + 1 < chained ->
                          let w' = order.(i + 1) in
                          if w'.ev.res < e.inv then
                            report key
                              "stale read: %d was overwritten by %d before \
                               the read began"
                              v w'.value
                          else if (not w'.ev.completed) && w'.ev.era < e.era
                          then
                            report key
                              "stale read across crash: %d was overwritten \
                               by in-flight effective write %d in era %d, \
                               read in era %d"
                              v w'.value w'.ev.era e.era
                      | _ -> ())
                end
              | None ->
                  if chained > 0 then begin
                    let w1 = order.(0) in
                    if w1.ev.res < e.inv then
                      report key
                        "read found key absent although the first write \
                         completed before it began"
                    else if (not w1.ev.completed) && w1.ev.era < e.era then
                      report key
                        "read in era %d found key absent although an \
                         effective write existed in era %d"
                        e.era w1.ev.era
                  end
            end
          | History.Upsert _ -> ())
        events
    end
  in
  Hashtbl.iter (fun key events -> check_key key !events) by_key;
  List.rev !violations

(* Operation-identity discipline over the events that carry an [opid]
   (detectable crash-replay histories; a history without op ids passes
   trivially). The chain check above already catches a replayed op taking
   effect twice — the duplicated write breaks the unique-value chain — and
   this pass asserts the identity rules directly:

   - an identified operation appears at most once as a completed event
     (an acked op appears exactly once in some linearization; the harness
     records one completed event per ack, so a duplicate means either a
     double ack or a replay that was not suppressed);
   - an identified operation is never both completed and left pending
     (a pending event stands for "outcome unknown at the crash" — once the
     op is acked, recording both double-counts it). *)
let check_opids (h : History.t) : violation list =
  let found = ref [] in
  let report key fmt =
    Fmt.kstr (fun message -> found := { key; message } :: !found) fmt
  in
  let completed = Hashtbl.create 256 in
  let pending = Hashtbl.create 64 in
  List.iter
    (fun (e : History.event) ->
      match e.History.opid with
      | None -> ()
      | Some id ->
          if e.History.completed then begin
            if Hashtbl.mem completed id then
              report e.History.key
                "operation (client %d, seq %d) completed twice: replay was \
                 not suppressed"
                (fst id) (snd id)
            else Hashtbl.add completed id ();
            if Hashtbl.mem pending id then
              report e.History.key
                "operation (client %d, seq %d) recorded both pending and \
                 completed"
                (fst id) (snd id)
          end
          else begin
            if Hashtbl.mem completed id then
              report e.History.key
                "operation (client %d, seq %d) recorded both pending and \
                 completed"
                (fst id) (snd id);
            if Hashtbl.mem pending id then
              report e.History.key
                "operation (client %d, seq %d) left pending twice" (fst id)
                (snd id)
            else Hashtbl.add pending id ()
          end)
    (History.events h);
  List.rev !found

let check h = check_chains h @ check_opids h
