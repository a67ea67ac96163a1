(* Shared fixtures for the test suites: fast (uniform-latency) simulated
   machines, fiber-running helpers, and structure builders. *)

module Mem = Memory.Mem
module Riv = Memory.Riv

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
let crash_point ~dry_run fraction = int_of_float (fraction *. float_of_int (dry_run ()))

(* A [dry_run] for a Fault trial: [spec]'s round-0 workload, run to
   completion. *)
let trial_events spec () =
  (Harness.Fault.run_trial { spec with Harness.Fault.crash_at = max_int })
    .Harness.Fault.completed_events

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
   over [crash_events, 1.5 * crash_events), each dirty line persisting with
   probability [evict] (default 0) at the crash. Audit errors count as
   failures; a trial whose workload ends before its crash point fails the
   campaign, naming the point and the run's length. *)
let crash_campaign ~base ?(evict = 0.0) ~threads ~keyspace ~ops_per_thread
    ~crash_events ~seed ~trials () =
  let step = max 1 (crash_events / (2 * trials)) in
  let s =
    Harness.Fault.run_campaign
      {
        Harness.Fault.base =
          {
            base with
            threads;
            keyspace;
            ops_per_thread;
            evict;
            draw_seed = seed;
            seed;
          };
        grid = { origin = crash_events; stride = step; points = trials; jitter = step };
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
