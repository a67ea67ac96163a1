(* Shared fixtures for the test suites: fast (uniform-latency) simulated
   machines, fiber-running helpers, and structure builders. *)

module Mem = Memory.Mem
module Riv = Memory.Riv
module Ref_sched = Ref_sched

let fast_pmem ?(mode = Pmem.Multi_pool) ?(n_pools = 4) ?(pool_words = 1 lsl 20)
    ?(latency = Pmem.Latency.uniform) ?(seed = 42) () =
  Pmem.create
    {
      Pmem.numa_nodes = 4;
      pool_words;
      n_pools;
      mode;
      stripe_words = 1 lsl 12;
      latency;
      cache_lines = 512;
      seed;
    }

(* Run fibers to completion; fail the test on an unexpected crash. *)
let run pmem bodies =
  match
    Sim.Sched.run ~machine:(Pmem.machine pmem)
      (List.mapi (fun tid body -> (tid, body)) bodies)
  with
  | Sim.Sched.Completed { time; events; _ } -> (time, events)
  | Sim.Sched.Crashed_at _ -> Alcotest.fail "unexpected simulated crash"

let run1 pmem body = ignore (run pmem [ body ])

(* A scheduler and the primitives its fibers issue, as one record, so that
   one workload runs on [Sim.Sched] through its domain-local wrappers
   ([sched_prims]) or through the memory's port ([port_prims]), and on the
   reference scheduler ([ref_prims]). A line read has a body only on the
   port; elsewhere it is a peek of the line's other words at the instant,
   then a read of its first word — the one access [Pmem.read_line] makes,
   with the prefetched line armed for that read ([Pmem.arm_prefetch]). *)
type prims = {
  run :
    ?crash:Sim.Sched.crash_point ->
    machine:Sim.Sched.machine ->
    (int * (tid:int -> unit)) list ->
    Sim.Sched.outcome;
  read : Sim.Sched.addr -> int;
  write : Sim.Sched.addr -> int -> unit;
  cas : Sim.Sched.addr -> expected:int -> desired:int -> bool;
  flush : Sim.Sched.addr -> unit;
  fence : unit -> unit;
  charge : float -> unit;
  yield : unit -> unit;
  now : unit -> float;
  self : unit -> int;
  read_line : ?prefetch:Sim.Sched.addr -> Sim.Sched.addr -> int array -> unit;
}

let peek_then_read pmem read ?prefetch a dst =
  for i = 1 to Pmem.line_words - 1 do
    dst.(i) <- Pmem.peek pmem (a + i)
  done;
  Option.iter (Pmem.arm_prefetch pmem) prefetch;
  dst.(0) <- read a

let sched_prims pmem =
  {
    run = Sim.Sched.run;
    read = Sim.Sched.read;
    write = Sim.Sched.write;
    cas = Sim.Sched.cas;
    flush = Sim.Sched.flush;
    fence = Sim.Sched.fence;
    charge = Sim.Sched.charge;
    yield = Sim.Sched.yield;
    now = Sim.Sched.now;
    self = Sim.Sched.self;
    read_line = peek_then_read pmem Sim.Sched.read;
  }

let port_prims pmem =
  let p = Pmem.port pmem in
  let module P = Sim.Sched.Port in
  {
    (sched_prims pmem) with
    read = P.read p;
    write = P.write p;
    cas = P.cas p;
    flush = P.flush p;
    fence = (fun () -> P.fence p);
    charge = P.charge p;
    yield = (fun () -> P.yield p);
    self = (fun () -> P.self p);
    read_line = (fun ?prefetch a dst -> Pmem.read_line pmem ?prefetch a dst 0);
  }

let ref_prims pmem =
  {
    run = Ref_sched.run;
    read = Ref_sched.read;
    write = Ref_sched.write;
    cas = Ref_sched.cas;
    flush = Ref_sched.flush;
    fence = Ref_sched.fence;
    charge = Ref_sched.charge;
    yield = Ref_sched.yield;
    now = Ref_sched.now;
    self = Ref_sched.self;
    read_line = peek_then_read pmem Ref_sched.read;
  }

(* Run fibers expecting a crash after [events] primitives. *)
let run_crash pmem ~events bodies =
  match
    Sim.Sched.run
      ~crash:(Sim.Sched.After_events events)
      ~machine:(Pmem.machine pmem)
      (List.mapi (fun tid body -> (tid, body)) bodies)
  with
  | Sim.Sched.Crashed_at { time; events } -> (time, events)
  | Sim.Sched.Completed _ -> Alcotest.fail "expected a simulated crash"

(* A crash point that keeps its place in a workload whatever its length:
   [dry_run ()] runs the workload once, crash-free, on a fresh fixture and
   returns its event count, and the point is the event [fraction] of the
   way through it. A point pinned as an event count moves out of the run
   when the workload gets shorter. *)
let crash_point ~dry_run fraction = Harness.Fault.event_at ~events:(dry_run ()) fraction

let make_mem ?(block_words = 64) ?(blocks_per_chunk = 32) ?(n_arenas = 4) pmem =
  let mem =
    Mem.create ~pmem ~chunk_words:(blocks_per_chunk * block_words)
      ~block_words ~n_arenas ()
  in
  Mem.format mem;
  mem

type skiplist_fixture = {
  pmem : Pmem.t;
  mem : Mem.t;
  sl : Upskiplist.Skiplist.t;
}

let make_skiplist ?(cfg = Upskiplist.Config.default) ?mode ?latency
    ?(max_threads = 16) ?(seed = 42) () =
  let pmem = fast_pmem ?mode ?latency ~seed () in
  let block_words = Upskiplist.Skiplist.required_block_words cfg in
  let mem = make_mem ~block_words pmem in
  let sl = Upskiplist.Skiplist.create ~mem ~cfg ~max_threads ~seed in
  { pmem; mem; sl }

(* Crash the machine and reconnect the memory manager (epoch bump). *)
let crash_and_reconnect fx =
  Pmem.crash fx.pmem;
  Mem.reconnect fx.mem

let check_no_invariant_errors sl =
  match Upskiplist.Skiplist.check_invariants sl with
  | [] -> ()
  | errs -> Alcotest.fail (String.concat "; " errs)

(* Crash [op] after every one of its events and, at each point, persist
   every subset of the dirty lines. [setup] builds the starting state, and
   [pmem] and [mem] name its machine and memory manager. Each of [checks]
   inspects its own reproduction of every surviving state, after the crash
   and the reconnect; [where] names the state. *)
let crash_grid ~setup ~pmem ~mem ~op ~checks =
  let run_until x crash_at =
    ignore
      (Sim.Sched.run ~machine:(Pmem.machine (pmem x))
         ~crash:(Sim.Sched.After_events crash_at)
         [ (0, op x) ])
  in
  let events =
    let x = setup () in
    snd (run (pmem x) [ op x ])
  in
  let states = ref 0 in
  for crash_at = 1 to events do
    let dirty =
      let x = setup () in
      run_until x crash_at;
      Pmem.dirty_line_count (pmem x)
    in
    for mask = 0 to (1 lsl dirty) - 1 do
      incr states;
      List.iter
        (fun check ->
          let x = setup () in
          run_until x crash_at;
          let idx = ref 0 in
          Pmem.crash (pmem x) ~persist_line:(fun ~pool:_ ~line:_ ->
              let keep = mask land (1 lsl !idx) <> 0 in
              incr idx;
              keep);
          Mem.reconnect (mem x);
          check x (Fmt.str "crash at event %d, persisted lines %#x" crash_at mask))
        checks
    done
  done;
  Alcotest.(check bool) "explored more states than crash points" true (!states > events)

(* Alcotest helpers *)
let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

let qcase ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen prop)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let check_pairs msg expected actual =
  Alcotest.(check (list (pair int int))) msg expected actual

(* Single-crash campaign: [trials] trials of the fixture [base] names (its
   workload shape, evict and seeds replaced), one per crash point spread
   over [from, 1.5 * from) of the way through the workload's crash-free
   run (a dry run, so [from] at most 0.6 keeps the grid inside it), each
   dirty line persisting with probability [evict] (default 0) at the
   crash. Audit errors count as
   failures; a trial whose workload ends before its crash point fails the
   campaign, naming the point and the run's length. *)
let crash_campaign ~base ?(evict = 0.0) ~threads ~keyspace ~ops_per_thread ~from ~seed
    ~trials () =
  let base = { base with Harness.Fault.threads; keyspace; ops_per_thread; evict; draw_seed = seed; seed } in
  let crash_events = crash_point from ~dry_run:(fun () -> Harness.Fault.trial_events base) in
  let step = max 1 (crash_events / (2 * trials)) in
  let s =
    Harness.Fault.run_campaign
      {
        Harness.Fault.base;
        points =
          Harness.Fault.grid_points ~seed
            { origin = crash_events; stride = step; points = trials; jitter = step };
        draws = 1;
      }
  in
  check_int
    (String.concat "; "
       ("every trial crashed"
       :: List.map Harness.Fault.missed_message s.Harness.Fault.missed))
    trials s.Harness.Fault.crashed_trials;
  s

(* Print each failing trial's report, prefixed with the campaign's name. *)
let print_failures name (s : Harness.Fault.summary) =
  List.iter (Fmt.epr "%s %a" name Harness.Fault.pp_failure) s.Harness.Fault.failures
