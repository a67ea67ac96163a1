(* Bounded domain pool for independent simulation jobs.

   The evaluation is a grid of self-contained runs — trials, thread-count
   points, crash-grid cells, shard sweeps — each fully deterministic given
   its own seeds and owning all of its mutable state (Pmem instance, memory
   manager, structure, RNGs). [run] fans such jobs out across
   [Domain.spawn] workers and collects the results *in job order*, so a
   caller that does all of its printing after collection produces output
   byte-identical to a sequential run ([jobs:1] executes the plain
   [List.map] the code always had).

   Work distribution is a shared atomic cursor over the job array: workers
   claim the next unclaimed index, so long jobs never serialize behind
   short ones and the schedule needs no sizing hints. Nothing about the
   claim order can leak into results — jobs are independent by contract.

   Determinism guarantees, in addition to ordered collection:
   - Observability counters (Obs) are domain-local; the pool snapshots a
     worker's rows around every job and merges the per-job deltas into the
     calling domain in job index order, so [Obs.totals] after a parallel
     run equals the sequential value exactly.
   - When the calling domain is recording a trace ([Obs.Trace.enabled]),
     the jobs run one after another on the caller, so its ring receives
     exactly the events of a sequential run.
   - A job that raises re-raises in the caller at collection time: deltas
     of later jobs are discarded and the first (by job index) exception
     propagates with its backtrace, mirroring where a sequential run would
     have stopped.

   Nested pools run sequentially: a job that itself calls [run] executes
   its sub-jobs inline (a per-domain flag marks worker context), so fanning
   out at two levels cannot multiply domains. *)

type 'a outcome = Done of 'a | Raised of exn * Printexc.raw_backtrace

(* Marks worker domains so a nested [run] degrades to the sequential path. *)
let in_worker_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let default_jobs () = Domain.recommended_domain_count ()

let run_seq thunks = List.map (fun f -> f ()) thunks

let run ?jobs thunks =
  let n = List.length thunks in
  let jobs =
    match jobs with Some j -> Int.max 1 (Int.min j n) | None -> Int.min (default_jobs ()) n
  in
  if
    jobs <= 1 || n <= 1
    || Domain.DLS.get in_worker_key
    || Obs.Trace.enabled ()
  then run_seq thunks
  else begin
    let thunks = Array.of_list thunks in
    (* slot per job: (outcome, obs rows before/after) *)
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      Domain.DLS.set in_worker_key true;
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else begin
          let before = Obs.snapshot () in
          let outcome =
            try Done (thunks.(i) ())
            with e -> Raised (e, Printexc.get_raw_backtrace ())
          in
          results.(i) <- Some (outcome, before, Obs.snapshot ())
        end
      done
    in
    let domains = Array.init jobs (fun _ -> Domain.spawn worker) in
    Array.iter Domain.join domains;
    (* Collect in job order. Obs deltas merge up to and including the first
       failing job (a sequential run would have accumulated exactly those
       bumps before the exception escaped); later jobs are discarded. *)
    let collected =
      Array.map
        (function
          | Some cell -> cell
          | None ->
              (* every index below [next]'s final value was claimed and
                 completed before its worker joined *)
              assert false)
        results
    in
    let out = ref [] in
    Array.iter
      (fun (outcome, before, after) ->
        Obs.add_delta ~before ~after;
        match outcome with
        | Done v -> out := v :: !out
        | Raised (e, bt) -> Printexc.raise_with_backtrace e bt)
      collected;
    List.rev !out
  end

let map ?jobs f xs = run ?jobs (List.map (fun x () -> f x) xs)

(* ------------------------------------------------------------------ *)
(* Phased execution of communicating stations.

   [run] above handles independent jobs; [run_phased] generalizes the same
   domain/Obs/trace discipline to long-lived stations that exchange
   messages. Execution alternates compute phases (every station steps once
   for the current round, stations 1.. distributed over pinned worker
   domains, station 0 on the caller) with exchange phases (the caller runs
   [exchange] while every station is at rest — this is where mailboxes
   move, in whatever fixed order the caller implements). A Mutex+Condition
   barrier separates the phases, so step code never observes a concurrent
   exchange and vice versa; the station->domain assignment is fixed for the
   whole run (station i>=1 lives on worker (i-1) mod w).

   With [domains:0] the identical schedule runs inline on the caller:
   steps in station order, then the exchange — the sequential fallback a
   deterministic caller can byte-compare against.

   Worker-domain Obs counter deltas are merged into the caller in worker
   order after the run, so counter totals match the sequential schedule
   exactly. As in [run], while the caller records a trace the sequential
   schedule runs, so its ring is exactly the sequential run's. *)

type phased_slot = {
  mutable p_exn : (exn * Printexc.raw_backtrace) option;
  mutable p_obs : (int array array * int array array) option;
}

let run_phased ?(domains = 0) ~stations ~step ~exchange ~finalize () =
  if stations <= 0 then invalid_arg "Pool.run_phased: stations must be > 0";
  let seq () =
    let continue = ref true and r = ref 0 in
    while !continue do
      for i = 0 to stations - 1 do
        step ~station:i ~round:!r
      done;
      continue := exchange ~round:!r;
      incr r
    done;
    for i = 0 to stations - 1 do
      finalize ~station:i
    done
  in
  let w = Int.min domains (stations - 1) in
  if w <= 0 || Domain.DLS.get in_worker_key || Obs.Trace.enabled () then seq ()
  else begin
    let m = Mutex.create () in
    let cv = Condition.create () in
    (* barrier state, all under [m]: the round currently released to the
       workers, how many workers have completed it, and the stop signal *)
    let round = ref (-1) in
    let done_count = ref 0 in
    let stopping = ref false in
    let slots = Array.init w (fun _ -> { p_exn = None; p_obs = None }) in
    let stations_of j =
      let rec go i acc = if i < 1 then acc else go (i - 1) (i :: acc) in
      List.filter (fun i -> (i - 1) mod w = j) (go (stations - 1) [])
    in
    let worker j () =
      Domain.DLS.set in_worker_key true;
      let before = Obs.snapshot () in
      let slot = slots.(j) in
      let mine = stations_of j in
      let last = ref (-1) in
      let running = ref true in
      while !running do
        Mutex.lock m;
        while !round = !last && not !stopping do
          Condition.wait cv m
        done;
        let stop_now = !stopping and r = !round in
        Mutex.unlock m;
        if stop_now then begin
          (if slot.p_exn = None then
             try List.iter (fun i -> finalize ~station:i) mine
             with e -> slot.p_exn <- Some (e, Printexc.get_raw_backtrace ()));
          running := false
        end
        else begin
          last := r;
          (if slot.p_exn = None then
             try List.iter (fun i -> step ~station:i ~round:r) mine
             with e -> slot.p_exn <- Some (e, Printexc.get_raw_backtrace ()));
          Mutex.lock m;
          incr done_count;
          Condition.broadcast cv;
          Mutex.unlock m
        end
      done;
      slot.p_obs <- Some (before, Obs.snapshot ())
    in
    let doms = Array.init w (fun j -> Domain.spawn (worker j)) in
    let caller_exn = ref None in
    let note_exn e = caller_exn := Some (e, Printexc.get_raw_backtrace ()) in
    (let continue = ref true and r = ref 0 in
     while !continue do
       Mutex.lock m;
       done_count := 0;
       round := !r;
       Condition.broadcast cv;
       Mutex.unlock m;
       (if !caller_exn = None then
          try step ~station:0 ~round:!r with e -> note_exn e);
       Mutex.lock m;
       while !done_count < w do
         Condition.wait cv m
       done;
       Mutex.unlock m;
       let failed =
         !caller_exn <> None || Array.exists (fun s -> s.p_exn <> None) slots
       in
       if failed then continue := false
       else continue := (try exchange ~round:!r with e -> note_exn e; false);
       incr r
     done);
    Mutex.lock m;
    stopping := true;
    Condition.broadcast cv;
    Mutex.unlock m;
    (if !caller_exn = None && Array.for_all (fun s -> s.p_exn = None) slots
     then try finalize ~station:0 with e -> note_exn e);
    Array.iter Domain.join doms;
    (* merge worker-domain observability into the caller, in worker order *)
    Array.iter
      (fun s ->
        match s.p_obs with
        | Some (before, after) -> Obs.add_delta ~before ~after
        | None -> ())
      slots;
    (* first worker exception (by worker index), else the caller's *)
    let first =
      Array.fold_left
        (fun acc s -> if acc = None then s.p_exn else acc)
        None slots
    in
    match (first, !caller_exn) with
    | Some (e, bt), _ | None, Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None, None -> ()
  end
