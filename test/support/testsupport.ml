(* Shared fixtures for the test suites: fast (uniform-latency) simulated
   machines, fiber-running helpers, and structure builders. *)

module Mem = Memory.Mem
module Riv = Memory.Riv

let fast_pmem ?(mode = Pmem.Multi_pool) ?(n_pools = 4) ?(pool_words = 1 lsl 20)
    ?(eviction_probability = 0.0) ?(latency = Pmem.Latency.uniform) ?(seed = 42)
    () =
  Pmem.create
    {
      Pmem.numa_nodes = 4;
      pool_words;
      n_pools;
      mode;
      stripe_words = 1 lsl 12;
      latency;
      eviction_probability;
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

(* Alcotest helpers *)
let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

let qcase ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen prop)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let check_pairs msg expected actual =
  Alcotest.(check (list (pair int int))) msg expected actual

(* Single-crash campaign: [trials] trials of Fault's default trial shape on
   [make]'s fixture, one per crash point spread over [crash_events,
   1.5 * crash_events). Audit errors count as failures; a trial whose
   workload ends before its crash point fails the campaign, naming the
   point and the run's length. *)
let crash_campaign ~make ~threads ~keyspace ~ops_per_thread
    ~crash_events ~seed ~trials () =
  let step = max 1 (crash_events / (2 * trials)) in
  let s =
    Harness.Fault.run_campaign ~make
      {
        Harness.Fault.base =
          {
            Harness.Fault.default_spec with
            threads;
            keyspace;
            ops_per_thread;
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

(* Print each failing trial's replay spec, violations and audit errors. *)
let print_failures name (s : Harness.Fault.summary) =
  List.iter
    (fun ((spec : Harness.Fault.spec), (r : Harness.Fault.result)) ->
      Fmt.epr "%s failing trial: %s@." name (Harness.Fault.spec_to_string spec);
      List.iter
        (fun v -> Fmt.epr "  %a@." Lincheck.Checker.pp_violation v)
        r.Harness.Fault.violations;
      List.iter (fun e -> Fmt.epr "  audit: %s@." e) r.Harness.Fault.audit_errors)
    s.Harness.Fault.failures
