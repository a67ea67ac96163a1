(* Crash trials and adversarial fault-injection campaigns: the one engine
   behind the Chapter 6 strict-linearizability campaigns, the Table 5.4
   recovery times, the crash sweeps and the exactly-once campaigns.

   A trial is described exhaustively by a {!spec} — structure and its
   tuning, machine model, workload shape, crash point, multi-crash depth,
   persisted-state adversary, seeds, optional self-validation mutant — and
   is fully deterministic given the spec. The spec is the only description
   of the fixture ({!kv_of_spec} builds it), so every failure is replayable
   from its one-line printed form ({!spec_to_string} / `upskip_cli
   crash-replay`).

   A single-crash trial (rounds = 1, depth = 0, evict = 0: every dirty
   line lost) preloads the structure, plays an upsert-heavy workload over a
   small keyspace, crashes at [crash_at], reconnects and recovers, then
   re-touches and reads back every key under the strict-linearizability
   checker. Hostility beyond that:
   - multi-crash: the recovery fiber itself runs under a crash point,
     recursively up to [depth], so recovery must be idempotent under
     repeated power failures; [rounds] > 1 additionally re-crashes the
     post-recovery workload, exercising crash-during-lazy-recovery for
     structures (like UPSkipList) that defer repair into normal operation;
   - deterministic crash-point sweeps: a campaign runs a {!grid} of crash
     points (stride plus seeded jitter) instead of one random draw;
   - dirty-line subset adversary: each power failure draws, per dirty
     line, whether that line persisted (probability [evict], via
     [Pmem.crash ~persist_line]), so several [draw_seed]s explore distinct
     persisted states of the same pre-crash execution;
   - persistent-heap audit: after every recovery the structure's
     persistent image is walked for structural invariants and allocator
     leaks ([Kv.audit]), reported alongside the strict-linearizability
     verdict;
   - failure shrinking: a failing spec is greedily reduced (threads,
     keyspace, ops, depth, crash-point bisection) to a minimal spec that
     still fails. *)

module History = Lincheck.History

(* Where round 0 crashes: an event count, or a fraction of the spec's own
   crash-free run ([trial_events]), resolved by one dry run when the trial
   starts. *)
type point = Event of int | Fraction of float

type spec = {
  structure : Kv.structure;
  latency : Kv.latency;
  mode : Pmem.mode;
  threads : int;
  keyspace : int;
  ops_per_thread : int;
  read_fraction : float;
  rounds : int;  (* workload rounds, each under its own crash point *)
  crash_at : point;  (* primitive-event crash point of round 0 *)
  depth : int;  (* crashes injected into the recovery fiber itself *)
  evict : float;  (* chance a dirty line persists at a power failure *)
  draw_seed : int;  (* persisted-state draws + recovery/round crash points *)
  seed : int;  (* workload streams *)
  mutant : string;  (* none, or a Kv.corrupt mutation applied post-recovery;
                       "skip_resolve" is special-cased: recovery omits the
                       descriptor resolve pass (detect trials only) *)
  detect : bool;  (* route upserts through per-client operation descriptors
                     and replay/suppress them exactly-once after crashes *)
  cfg : Upskiplist.Config.t;  (* UPSkipList tuning; default off upskiplist *)
  descriptors : int;  (* BzTree's PMwCAS descriptor pool; default off bztree *)
}

let default_spec =
  {
    structure = Kv.Upskiplist;
    latency = Kv.Uniform;
    mode = Pmem.Multi_pool;
    threads = 4;
    keyspace = 120;
    ops_per_thread = 100;
    read_fraction = 0.2;
    rounds = 1;
    crash_at = Event 10_000;
    depth = 0;
    evict = 0.0;
    draw_seed = 1;
    seed = 42;
    mutant = "none";
    detect = false;
    cfg = Upskiplist.Config.default;
    descriptors = Kv.default_descriptors;
  }

type result = {
  history : History.t;
  violations : Lincheck.Checker.violation list;
  audit_errors : string list;
  audits : int;  (* audit passes performed (one per completed recovery) *)
  recovery_ns : float;  (* modeled recovery: pool reopen + structure work,
                           summed over completed recoveries *)
  crashes : int;  (* power failures injected (workload + recovery) *)
  crash_events : int;  (* events before the first crash; 0 = never crashed *)
  completed_events : int;  (* round 0's events when its workload completed
                              before its crash point; 0 = it crashed *)
  repairs : int;  (* lazy-recovery repairs (epoch claims, interrupted
                     splits, tower rebuilds) performed during the trial *)
  replays : int;  (* interrupted detectable ops re-executed (Not_applied) *)
  suppressions : int;  (* interrupted detectable ops NOT re-executed because
                          the descriptor proved they took effect *)
  raised : string option;  (* an exception the structure raised after a
                              power failure; the trial stopped there *)
  kv : Kv.t;
}

let failed r = r.violations <> [] || r.audit_errors <> [] || r.raised <> None

(* Modeled cost of reconnecting pools after restart (mmap of DAX-backed
   files; constant with respect to structure size). Calibrated so the
   paper's reconnect-dominated recovery times are in range: ~45 ms for the
   first pool plus ~12 ms per additional pool. *)
let pool_open_ns ~pools = 45.0e6 +. (12.0e6 *. float_of_int (max 0 (pools - 1)))

(* ---- operation recording (globally monotone timestamps across crashes) -- *)

type pending_op = {
  p_key : int;
  p_value : int;
  p_inv : float;
  p_seq : int;  (* descriptor sequence number; -1 in non-detect trials *)
  p_era : int;  (* era the op was invoked in *)
}

type recorder = {
  mutable events : History.event list;
  mutable base : float;
  mutable era : int;
  mutable next_value : int;
  pending : pending_op option array;  (* tid -> op in flight *)
  seqs : int array;  (* tid -> next descriptor sequence number *)
}

let fresh_recorder ~max_threads =
  {
    events = [];
    base = 0.0;
    era = 0;
    next_value = 1;
    pending = Array.make max_threads None;
    seqs = Array.make max_threads 1;
  }

let alloc_value r =
  let v = r.next_value in
  r.next_value <- v + 1;
  v

(* Wrap one recorded upsert; safe against mid-operation crashes. In detect
   mode the op goes through its client's persistent descriptor (client =
   tid) and the history event carries the (client, seq) identity. *)
let recorded_upsert ?(detect = false) r (kv : Kv.t) ~tid key =
  let value = alloc_value r in
  let seq =
    if detect then begin
      let s = r.seqs.(tid) in
      r.seqs.(tid) <- s + 1;
      s
    end
    else -1
  in
  let inv = r.base +. Sim.Sched.now () in
  r.pending.(tid) <- Some { p_key = key; p_value = value; p_inv = inv; p_seq = seq; p_era = r.era };
  let prev =
    if detect then Kv.d_upsert kv ~tid ~client:tid ~seq key value
    else kv.Kv.upsert ~tid key value
  in
  let res = r.base +. Sim.Sched.now () in
  r.pending.(tid) <- None;
  let ev = History.completed_upsert ~tid ~key ~value ~prev ~inv ~res ~era:r.era in
  let ev = if detect then History.with_opid (tid, seq) ev else ev in
  r.events <- ev :: r.events

let recorded_read r (kv : Kv.t) ~tid key =
  let inv = r.base +. Sim.Sched.now () in
  let out = kv.Kv.search ~tid key in
  let res = r.base +. Sim.Sched.now () in
  r.events <- History.completed_read ~tid ~key ~out ~inv ~res ~era:r.era :: r.events

(* Sweep interrupted operations into pending events after a crash
   (non-detect trials: the outcome is genuinely unknown). *)
let sweep_pending r =
  Array.iteri
    (fun tid slot ->
      match slot with
      | None -> ()
      | Some p ->
          r.events <-
            History.pending_upsert ~tid ~key:p.p_key ~value:p.p_value ~inv:p.p_inv
              ~era:p.p_era
            :: r.events;
          r.pending.(tid) <- None)
    r.pending

(* ---- one adversarial trial ---------------------------------------------- *)

(* Recovery crash points are drawn below this many primitive events, sized
   to land inside the descriptor/log scans of the structures with real
   recovery fibers. *)
let recovery_crash_window = 256

let repair_total () = Obs.total Obs.id_epoch_repair + Obs.total Obs.id_tower_repair

(* ---- building the fixture a spec names ----------------------------------- *)

(* Words per pool: 2^20, doubled until pool 0 (the whole device when
   striped) holds BzTree's descriptor region twice over, so Table 5.4's
   500K descriptors fit. Pool size changes no simulated number. *)
let pool_words s =
  let need =
    match s.structure with
    | Kv.Bztree -> 2 * s.descriptors * Pmwcas.desc_words
    | Kv.Upskiplist | Kv.Pmdk -> 0
  in
  let pool0 w =
    match s.mode with
    | Pmem.Striped -> w * Kv.default_sys.numa_nodes
    | Pmem.Multi_pool -> w
  in
  let rec grow w = if pool0 w >= need then w else grow (2 * w) in
  grow (1 lsl 20)

let event_at ~events fraction = int_of_float (fraction *. float_of_int events)

(* [Kv.default_sys], the figures' machine, under the spec's latency and
   mode: four NUMA nodes and room for 200 threads. *)
let kv_of_spec s =
  Kv.make_named s.structure ~cfg:s.cfg ~n_descriptors:s.descriptors
    ?detect_clients:(if s.detect then Some s.threads else None)
    {
      Kv.default_sys with
      latency = Kv.latency_params s.latency;
      mode = s.mode;
      pool_words = pool_words s;
      max_threads = max Kv.default_sys.max_threads s.threads;
    }

let rec run_trial (spec : spec) =
  (* before this trial builds anything: a fraction's dry run is a trial *)
  let crash0 = crash_event spec in
  let repairs_before = repair_total () in
  let kv = kv_of_spec spec in
  let threads = spec.threads in
  let detect = spec.detect in
  let r = fresh_recorder ~max_threads:threads in
  let rng = Sim.Rng.create spec.draw_seed in
  let machine = Kv.machine kv in
  let advance_base outcome =
    let time =
      match outcome with
      | Sim.Sched.Completed { time; _ } -> time
      | Sim.Sched.Crashed_at { time; _ } -> time
    in
    r.base <- r.base +. time +. 1_000.0
  in
  let crashes = ref 0 in
  let recovery_ns = ref 0.0 in
  let audit_errors = ref [] in
  let audits = ref 0 in
  let first_crash_events = ref 0 in
  let completed_events = ref 0 in
  let power_fail () =
    (* evict = 0 draws nothing: every dirty line is lost *)
    Pmem.crash
      ~persist_line:(fun ~pool:_ ~line:_ ->
        spec.evict > 0.0 && Sim.Rng.float rng < spec.evict)
      kv.Kv.pmem;
    incr crashes;
    kv.Kv.reconnect ();
    r.era <- r.era + 1
  in
  (* Recovery under its own crash points: while depth remains, the recovery
     fiber runs under a randomized crash point; a crashed recovery powers
     the machine down again (fresh persisted-state draw) and recovery
     restarts from scratch — it must be idempotent. *)
  let rec recover ~depth =
    let crash =
      if depth > 0 then
        Sim.Sched.After_events (1 + Sim.Rng.int rng recovery_crash_window)
      else Sim.Sched.No_crash
    in
    let recover_body ~tid =
      kv.Kv.recover ~tid;
      (* resolve announced-but-unresolved descriptors (idempotent: a crash
         inside this pass restarts it from scratch on the next recovery) *)
      if detect && spec.mutant <> "skip_resolve" then
        ignore (Kv.d_recover kv ~tid : int)
    in
    match Sim.Sched.run ~machine ~crash [ (0, recover_body) ] with
    | Sim.Sched.Completed { time; _ } as o ->
        advance_base o;
        recovery_ns := !recovery_ns +. pool_open_ns ~pools:kv.Kv.pools +. time
    | Sim.Sched.Crashed_at _ as o ->
        advance_base o;
        power_fail ();
        recover ~depth:(depth - 1)
  in
  let after_recovery () =
    (* "skip_resolve" is a harness mutant (the recovery fiber omits the
       descriptor resolve pass), not a structure corruption *)
    if spec.mutant <> "none" && spec.mutant <> "skip_resolve" then
      ignore (kv.Kv.corrupt spec.mutant : bool);
    incr audits;
    audit_errors := !audit_errors @ kv.Kv.audit ()
  in
  let replays = ref 0 and suppressions = ref 0 in
  (* Detect-mode crash resolution: decide every interrupted op from its
     persistent descriptor, then re-execute exactly those that provably did
     not take effect. Replays are fresh post-crash invocations carrying the
     original (client, seq) identity, so a double apply — e.g. under the
     skip_resolve mutant — breaks the unique-value chain and/or the
     exactly-once identity discipline. *)
  let resolve_and_replay () =
    let to_replay = ref [] in
    Array.iteri
      (fun tid slot ->
        match slot with
        | None -> ()
        | Some p -> (
            r.pending.(tid) <- None;
            match Kv.d_decide kv ~client:tid ~seq:p.p_seq with
            | Detect.Applied prev ->
                (* took effect before the crash: ack from the descriptor's
                   saved result, no re-execution (duplicate suppressed) *)
                incr suppressions;
                r.events <-
                  History.with_opid (tid, p.p_seq)
                    (History.completed_upsert ~tid ~key:p.p_key ~value:p.p_value
                       ~prev ~inv:p.p_inv ~res:r.base ~era:p.p_era)
                  :: r.events
            | Detect.Applied_unknown ->
                (* applied, but the overwritten value is unrecoverable: no
                   ack; recorded as an effective pending op *)
                incr suppressions;
                r.events <-
                  History.with_opid (tid, p.p_seq)
                    (History.pending_upsert ~tid ~key:p.p_key ~value:p.p_value
                       ~inv:p.p_inv ~era:p.p_era)
                  :: r.events
            | Detect.Not_applied -> to_replay := (tid, p) :: !to_replay))
      r.pending;
    match !to_replay with
    | [] -> ()
    | ops ->
        let replay_body p ~tid =
          incr replays;
          let inv = r.base +. Sim.Sched.now () in
          r.pending.(tid) <- Some { p with p_inv = inv; p_era = r.era };
          let prev = Kv.d_upsert kv ~tid ~client:tid ~seq:p.p_seq p.p_key p.p_value in
          let res = r.base +. Sim.Sched.now () in
          r.pending.(tid) <- None;
          r.events <-
            History.with_opid (tid, p.p_seq)
              (History.completed_upsert ~tid ~key:p.p_key ~value:p.p_value ~prev
                 ~inv ~res ~era:r.era)
            :: r.events
        in
        advance_base
          (Sim.Sched.run ~machine
             (List.map (fun (tid, p) -> (tid, replay_body p)) ops))
  in
  (* phase 1 (era 0): preload every key, recorded *)
  let preload_body ~tid =
    let i = ref (tid + 1) in
    while !i <= spec.keyspace do
      recorded_upsert ~detect r kv ~tid !i;
      i := !i + threads
    done
  in
  advance_base
    (Sim.Sched.run ~machine (List.init threads (fun tid -> (tid, preload_body))));
  (* Phases 2 and 3 run a structure after its recoveries, so an exception
     there (a corruption mutant that leaves a dangling pointer, say) is the
     structure failing the trial, not the harness: it becomes the trial's
     [raised] verdict. Before the first power failure nothing has been
     recovered, and an exception still propagates. *)
  let raised =
    try
      (* phase 2: workload rounds, each crashed at its own point. Round 0
         crashes at [crash_at]; later rounds draw a point below it, so repeated
         failures land progressively inside the post-recovery (lazy-repair)
         work of earlier ones. *)
      for round = 0 to spec.rounds - 1 do
        let streams =
          Array.init threads (fun tid ->
              let trng = Sim.Rng.create (spec.seed + 1000 + (10_000 * round) + tid) in
              (* Detect trials keep upsert keys disjoint per client (the preload
                 striping: tid owns {tid+1, tid+1+threads, ...}), so a probe of
                 the bottom level during descriptor resolution cannot be masked
                 by another client's concurrent write to the same key. Reads
                 still range over the whole keyspace. The non-detect draw
                 sequence is unchanged. *)
              let owned = max 1 (((spec.keyspace - tid - 1) / threads) + 1) in
              Array.init spec.ops_per_thread (fun _ ->
                  let key = 1 + Sim.Rng.int trng spec.keyspace in
                  if Sim.Rng.float trng < spec.read_fraction then `Read key
                  else if detect then
                    `Upsert (tid + 1 + (threads * Sim.Rng.int trng owned))
                  else `Upsert key))
        in
        let body ~tid =
          Array.iter
            (function
              | `Read key -> recorded_read r kv ~tid key
              | `Upsert key -> recorded_upsert ~detect r kv ~tid key)
            streams.(tid)
        in
        let crash_at =
          if round = 0 then crash0 else 1 + Sim.Rng.int rng (max 1 crash0)
        in
        let outcome =
          Sim.Sched.run ~machine
            ~crash:(Sim.Sched.After_events crash_at)
            (List.init threads (fun tid -> (tid, body)))
        in
        advance_base outcome;
        match outcome with
        | Sim.Sched.Completed { events; _ } ->
            if round = 0 then completed_events := events
        | Sim.Sched.Crashed_at { events; _ } ->
            if !crashes = 0 then first_crash_events := events;
            if not detect then sweep_pending r;
            power_fail ();
            recover ~depth:spec.depth;
            after_recovery ();
            if detect then resolve_and_replay ()
      done;
      (* phase 3: re-touch every key (update + read) — the full read-back the
         checker analyzes against everything recorded before the crashes *)
      let retouch_body ~tid =
        let i = ref (tid + 1) in
        while !i <= spec.keyspace do
          recorded_upsert ~detect r kv ~tid !i;
          recorded_read r kv ~tid !i;
          i := !i + threads
        done
      in
      advance_base
        (Sim.Sched.run ~machine (List.init threads (fun tid -> (tid, retouch_body))));
      None
    with
    | (Out_of_memory | Sys.Break) as e -> raise e
    | e when !crashes > 0 -> Some (Printexc.to_string e)
  in
  let history = History.create ~eras:(r.era + 1) (List.rev r.events) in
  let violations =
    (* a history cut short by an exception is not checked: its interrupted
       operations are missing, so any verdict on it would be spurious *)
    if raised <> None then [] else Lincheck.Checker.check history
  in
  {
    history;
    violations;
    audit_errors = !audit_errors;
    audits = !audits;
    recovery_ns = !recovery_ns;
    crashes = !crashes;
    crash_events = !first_crash_events;
    completed_events = !completed_events;
    repairs = repair_total () - repairs_before;
    replays = !replays;
    suppressions = !suppressions;
    raised;
    kv;
  }

(* The length of [spec]'s round-0 workload, in events, from one
   crash-free run of it. A deterministic trial equals its dry run up to
   its crash, so the event a fraction of this names lies in the same
   phase of the workload whatever the workload's cost. *)
and trial_events spec = (run_trial { spec with crash_at = Event max_int }).completed_events

(* Round 0's crash point, in events: a fraction costs one dry run. *)
and crash_event spec =
  match spec.crash_at with
  | Event e -> e
  | Fraction f -> event_at ~events:(trial_events spec) f

(* ---- replay specs (one line, self-contained) ----------------------------- *)

(* One entry per spec key (a {!Keys} table): the only place the key
   vocabulary is spelled. [spec_to_string] prints the entries in table
   order, [spec_of_string] dispatches each token on its key's name,
   [validate] re-parses each key's printed value, and the CLI lists the
   names. A key's parser holds its bounds. A key with [tunes = Some st] is
   fixture tuning of structure [st]: it prints only where it differs from
   [default_spec], so a default fixture's line names none of its keys. *)
open Keys

let ( let* ) = Result.bind

(* Names the trial engine understands: [Kv.corrupt] mutations plus the
   harness-level [skip_resolve]. *)
let mutants =
  [
    "none";
    "skip_resolve";
    "lose_key";
    "skip_fp_repair";
    "raise_hint";
    "dangle";
    "stale_tower_anchor";
  ]

(* Twice Table 5.4's largest pool, which bounds a replay line's memory and
   its recovery scan. *)
let max_descriptors = 1_000_000

let keys =
  let ups = Kv.Upskiplist in
  [
    spelling_key "structure" Kv.structure_of_string Kv.structure_name
      (fun s -> s.structure)
      (fun s structure -> { s with structure });
    spelling_key "latency" Kv.latency_of_string Kv.latency_name
      (fun s -> s.latency)
      (fun s latency -> { s with latency });
    spelling_key "mode" Kv.mode_of_string Kv.mode_name
      (fun s -> s.mode)
      (fun s mode -> { s with mode });
    (* the memory manager keeps one allocation log per thread *)
    int_key "threads" ~min:1 ~max:Memory.Mem.max_threads
      (fun s -> s.threads)
      (fun s threads -> { s with threads });
    int_key "keyspace" ~min:1
      (fun s -> s.keyspace)
      (fun s keyspace -> { s with keyspace });
    int_key "ops" ~min:1
      (fun s -> s.ops_per_thread)
      (fun s ops_per_thread -> { s with ops_per_thread });
    float_key "read"
      (fun s -> s.read_fraction)
      (fun s read_fraction -> { s with read_fraction });
    int_key "rounds" ~min:1 (fun s -> s.rounds) (fun s rounds -> { s with rounds });
    key "crash_at"
      (fun s ->
        match s.crash_at with
        | Event e -> string_of_int e
        | Fraction f -> Json.num_to_string f)
      (fun v s ->
        match (int_of_string_opt v, float_of_string_opt v) with
        | Some e, _ when e >= 0 -> Ok { s with crash_at = Event e }
        | None, Some f when f > 0.0 && f < 1.0 -> Ok { s with crash_at = Fraction f }
        | _ ->
            Error
              (Printf.sprintf
                 "crash_at: want an event count >= 0 or a fraction strictly between 0 and 1: %s"
                 v));
    int_key "depth" ~min:0 (fun s -> s.depth) (fun s depth -> { s with depth });
    float_key "evict" ~unit_interval:true
      (fun s -> s.evict)
      (fun s evict -> { s with evict });
    int_key "draw" (fun s -> s.draw_seed) (fun s draw_seed -> { s with draw_seed });
    int_key "seed" (fun s -> s.seed) (fun s seed -> { s with seed });
    key "mutant"
      (fun s -> s.mutant)
      (fun v s ->
        if List.mem v mutants then Ok { s with mutant = v }
        else
          Error
            (Printf.sprintf "unknown mutant: %s (want %s)" v
               (String.concat " | " mutants)));
    switch_key "detect" (fun s -> s.detect) (fun s detect -> { s with detect });
    (* UPSkipList's config; Upskiplist.Config.validate holds its bounds *)
    int_key "keys" ~tunes:ups
      (fun s -> s.cfg.keys_per_node)
      (fun s keys_per_node -> { s with cfg = { s.cfg with keys_per_node } });
    int_key "height" ~tunes:ups
      (fun s -> s.cfg.max_height)
      (fun s max_height -> { s with cfg = { s.cfg with max_height } });
    float_key "p" ~tunes:ups
      (fun s -> s.cfg.branching_p)
      (fun s branching_p -> { s with cfg = { s.cfg with branching_p } });
    int_key "budget" ~tunes:ups
      (fun s -> s.cfg.recovery_budget)
      (fun s recovery_budget -> { s with cfg = { s.cfg with recovery_budget } });
    int_key "descriptors" ~tunes:Kv.Bztree ~min:1 ~max:max_descriptors
      (fun s -> s.descriptors)
      (fun s descriptors -> { s with descriptors });
  ]

let spec_keys = List.map (fun k -> (k.name, k.tunes)) keys
let spec_to_string = to_string ~default:default_spec keys

(* The checks that span keys: UPSkipList's config as a whole, and no tuning
   of a structure the spec does not build (a fixture that cannot exist). *)
let check_fixture s =
  let* () =
    match Upskiplist.Config.validate s.cfg with
    | () -> Ok ()
    | exception Invalid_argument e -> Error e
  in
  let stray k =
    match k.tunes with
    | Some st when st <> s.structure && k.show s <> k.show default_spec ->
        Some
          (Printf.sprintf "%s=%s tunes %s only" k.name (k.show s)
             (Kv.structure_name st))
    | Some _ | None -> None
  in
  match List.find_map stray keys with Some e -> Error e | None -> Ok s

let validate s = Result.bind (reparse keys s) check_fixture
let spec_of_string line = Result.bind (of_string ~default:default_spec keys line) check_fixture

let run_spec = run_trial

let pp_failure ppf (spec, r) =
  Fmt.pf ppf "failing trial: %s@." (spec_to_string spec);
  List.iter (Fmt.pf ppf "  %a@." Lincheck.Checker.pp_violation) r.violations;
  List.iter (Fmt.pf ppf "  audit: %s@.") r.audit_errors;
  Option.iter (Fmt.pf ppf "  raised: %s@.") r.raised

(* ---- deterministic crash-point sweeps ------------------------------------ *)

type grid = { origin : int; stride : int; points : int; jitter : int }

(* Grid points: origin + i*stride, each displaced by a seeded jitter so
   short sweeps do not always sample the same phase of the workload. Same
   seed -> same points. *)
let grid_points ~seed g =
  let rng = Sim.Rng.create (seed + 7771) in
  List.init g.points (fun i ->
      g.origin + (i * g.stride)
      + (if g.jitter > 0 then Sim.Rng.int rng g.jitter else 0))


(* Each point of [grid_points]'s grid, its stride and jitter taken as
   fractions of the run and each point resolved from its own fraction, so
   the last point lies where its fraction says, not where an integer
   stride lands it. The jitter draws are [grid_points]'s. *)
let dry_run_grid ?events spec ~first ~stride ~jitter ~points =
  let events = match events with Some e -> e | None -> trial_events spec in
  let at = event_at ~events in
  let rng = Sim.Rng.create (spec.seed + 7771) in
  List.init points (fun i ->
      at (first +. (float_of_int i *. stride))
      + if at jitter > 0 then Sim.Rng.int rng (at jitter) else 0)

type campaign = {
  base : spec;  (* crash_at / draw_seed are overridden per trial *)
  points : int list;  (* the grid's crash points *)
  draws : int;  (* persisted-state draws per grid point *)
}

type summary = {
  trials : int;
  crashed_trials : int;
  crash_points : int list;  (* distinct points the grid produced *)
  draws_per_point : int;
  total_crashes : int;  (* power failures incl. crash-during-recovery *)
  audit_passes : int;
  audit_failures : int;  (* trials with a non-empty audit report *)
  violation_trials : int;
  repairs : int;  (* lazy-recovery repairs summed over all trials *)
  replays : int;  (* detectable ops re-executed after crashes *)
  suppressions : int;  (* detectable replays suppressed as duplicates *)
  recovery_ns : float list;  (* one total per crashed trial *)
  missed : (int * int) list;  (* (crash point, events) of each trial whose
                                 round-0 workload ended before its point *)
  failures : (spec * result) list;  (* newest last *)
}

let run_campaign ?(jobs = 1) (c : campaign) =
  let points = c.points in
  (* Every trial is a self-contained job on a fresh fixture; the spec list
     fixes the order, so pooled execution aggregates the exact sequence the
     nested loop always produced. *)
  let specs =
    List.concat
      (List.mapi
         (fun i point ->
           List.init c.draws (fun j ->
               { c.base with
                 crash_at = Event point;
                 draw_seed = c.base.draw_seed + (97 * i) + (1009 * j);
               }))
         points)
  in
  let results =
    Sim.Pool.map ~jobs (fun spec -> (spec, run_trial spec)) specs
  in
  let trials = ref 0
  and crashed = ref 0
  and total_crashes = ref 0
  and audit_passes = ref 0
  and audit_failures = ref 0
  and violation_trials = ref 0
  and repairs = ref 0
  and replays = ref 0
  and suppressions = ref 0 in
  let recovery_ns = ref [] in
  let missed = ref [] in
  let failures = ref [] in
  List.iter
    (fun (spec, res) ->
      incr trials;
      if res.completed_events > 0 then
        missed := (crash_event spec, res.completed_events) :: !missed;
      if res.crashes > 0 then begin
        incr crashed;
        recovery_ns := res.recovery_ns :: !recovery_ns
      end;
      total_crashes := !total_crashes + res.crashes;
      audit_passes := !audit_passes + res.audits;
      repairs := !repairs + res.repairs;
      replays := !replays + res.replays;
      suppressions := !suppressions + res.suppressions;
      if res.audit_errors <> [] then incr audit_failures;
      if res.violations <> [] then incr violation_trials;
      if failed res then failures := (spec, res) :: !failures)
    results;
  {
    trials = !trials;
    crashed_trials = !crashed;
    crash_points = points;
    draws_per_point = c.draws;
    total_crashes = !total_crashes;
    audit_passes = !audit_passes;
    audit_failures = !audit_failures;
    violation_trials = !violation_trials;
    repairs = !repairs;
    replays = !replays;
    suppressions = !suppressions;
    recovery_ns = List.rev !recovery_ns;
    missed = List.rev !missed;
    failures = List.rev !failures;
  }

let missed_message (point, events) =
  Printf.sprintf "no crash: crash point %d lies past the workload's %d events"
    point events

let print_summary ~name (s : summary) =
  Report.campaign_summary ~name ~trials:s.trials ~crashed:s.crashed_trials
    ~crash_points:(List.length (List.sort_uniq compare s.crash_points))
    ~draws:s.draws_per_point ~total_crashes:s.total_crashes
    ~audit_passes:s.audit_passes ~audit_failures:s.audit_failures
    ~violation_trials:s.violation_trials ~repairs:s.repairs
    ~recovery_ns:s.recovery_ns;
  if s.replays > 0 || s.suppressions > 0 then
    Fmt.pr "  exactly-once: %d op(s) replayed, %d duplicate(s) suppressed@."
      s.replays s.suppressions;
  List.iter (fun m -> Fmt.pr "  %s@." (missed_message m)) s.missed

(* ---- failure shrinking --------------------------------------------------- *)

(* Greedy minimisation of a failing spec: repeatedly adopt the first
   candidate reduction (fewer threads, smaller keyspace, fewer ops, lower
   depth/rounds, bisected crash point) that still fails, until none does or
   the re-execution budget runs out. The result replays from its printed
   spec alone. *)
let shrink ?(budget = 80) (spec0 : spec) =
  let spec0 = { spec0 with crash_at = Event (crash_event spec0) } in
  let runs = ref 0 in
  let fails s =
    if !runs >= budget then false
    else begin
      incr runs;
      failed (run_spec s)
    end
  in
  let candidates s =
    let at = crash_event s in
    List.concat
      [
        (if s.threads > 1 then [ { s with threads = max 1 (s.threads / 2) } ] else []);
        (if s.keyspace > 2 then [ { s with keyspace = max 2 (s.keyspace / 2) } ] else []);
        (if s.ops_per_thread > 1 then
           [ { s with ops_per_thread = max 1 (s.ops_per_thread / 2) } ]
         else []);
        (if s.rounds > 1 then [ { s with rounds = 1 } ] else []);
        (if s.depth > 0 then [ { s with depth = s.depth / 2 } ] else []);
        (if at > 8 then [ { s with crash_at = Event (at / 2) } ] else []);
        (if at > 8 then [ { s with crash_at = Event (at * 3 / 4) } ] else []);
        (if at > 1 then [ { s with crash_at = Event (at - 1) } ] else []);
      ]
  in
  let rec minimise s =
    if !runs >= budget then s
    else
      match List.find_opt fails (candidates s) with
      | Some smaller -> minimise smaller
      | None -> s
  in
  minimise spec0
