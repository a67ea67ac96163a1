(* The scheduler's fast-path resume (Sched.run ~fast_path, on by default)
   must be a pure wall-clock optimisation: with it on or off, a run must
   produce bit-identical virtual times, event counts, outcomes, PMEM
   counters and memory images. These tests drive a mixed
   read/write/CAS/flush/fence/charge workload — with latency jitter ON, so
   the shared RNG draw order is exercised too — down both paths and compare
   everything observable. *)

open Testsupport

let n_pools = 4
let pool_words = 1 lsl 16
let threads = 8
let ops_per_thread = 300

(* Jittered latencies (Latency.default) on purpose: the fast path must
   consume RNG draws in exactly the same order as the slow path. *)
let mk_pmem seed =
  Pmem.create
    {
      Pmem.numa_nodes = 4;
      pool_words;
      n_pools;
      mode = Pmem.Multi_pool;
      stripe_words = 1 lsl 12;
      latency = Pmem.Latency.default;
      cache_lines = 256;
      seed;
    }

(* One fiber: a per-tid RNG picks addresses and an op mix that exercises
   every effect the scheduler handles, including some that resolve without
   parking (Now, Self). *)
let body ~seed ~tid =
  let rng = Sim.Rng.create ((seed * 1000) + tid) in
  let sink = ref 0 in
  for _ = 1 to ops_per_thread do
    let a =
      Pmem.addr ~pool:(Sim.Rng.int rng n_pools)
        ~word:(Sim.Rng.int rng pool_words)
    in
    match Sim.Rng.int rng 10 with
    | 0 | 1 | 2 | 3 -> sink := !sink + Sim.Sched.read a
    | 4 | 5 -> Sim.Sched.write a (Sim.Rng.int rng 1000)
    | 6 ->
        let v = Sim.Sched.read a in
        (* half genuine CAS, half deliberately stale expected value *)
        let expected = if Sim.Rng.int rng 2 = 0 then v else v + 1 in
        ignore (Sim.Sched.cas a ~expected ~desired:(v + 1))
    | 7 ->
        Sim.Sched.write a (Sim.Rng.int rng 1000);
        Sim.Sched.flush a;
        Sim.Sched.fence ()
    | 8 ->
        Sim.Sched.charge 3.5;
        Sim.Sched.yield ()
    | _ ->
        let t0 = Sim.Sched.now () in
        sink := !sink + Sim.Sched.self () + int_of_float t0
  done

let bodies seed = List.init threads (fun tid -> (tid, body ~seed))

(* Everything observable about a finished run, in comparable form. *)
let counter_list pmem =
  let c = Pmem.counters pmem in
  [
    ("loads", c.Pmem.loads);
    ("load_misses", c.Pmem.load_misses);
    ("stores", c.Pmem.stores);
    ("store_misses", c.Pmem.store_misses);
    ("cas_ops", c.Pmem.cas_ops);
    ("cas_failures", c.Pmem.cas_failures);
    ("flushes", c.Pmem.flushes);
    ("dirty_flushes", c.Pmem.dirty_flushes);
    ("fences", c.Pmem.fences);
    ("remote_accesses", c.Pmem.remote_accesses);
    ("accesses", c.Pmem.accesses);
  ]

let snapshot pmem =
  let acc = ref [] in
  for pool = 0 to n_pools - 1 do
    let w = ref 0 in
    while !w < pool_words do
      let a = Pmem.addr ~pool ~word:!w in
      acc := (Pmem.peek pmem a, Pmem.peek_persistent pmem a) :: !acc;
      w := !w + 97
    done
  done;
  !acc

let outcome_repr = function
  | Sim.Sched.Completed { time; events; fibers } ->
      Printf.sprintf "Completed { time = %h; events = %d; fibers = %d }" time
        events fibers
  | Sim.Sched.Crashed_at { time; events } ->
      Printf.sprintf "Crashed_at { time = %h; events = %d }" time events

let run_one ~fast_path ~crash seed =
  let pmem = mk_pmem seed in
  let outcome =
    Sim.Sched.run ~crash ~fast_path ~machine:(Pmem.machine pmem) (bodies seed)
  in
  (outcome_repr outcome, counter_list pmem, snapshot pmem)

let compare_paths ~crash seed =
  let slow_outcome, slow_counters, slow_mem =
    run_one ~fast_path:false ~crash seed
  in
  let fast_outcome, fast_counters, fast_mem =
    run_one ~fast_path:true ~crash seed
  in
  Alcotest.(check string)
    (Printf.sprintf "outcome (seed %d)" seed)
    slow_outcome fast_outcome;
  Alcotest.(check (list (pair string int)))
    (Printf.sprintf "pmem counters (seed %d)" seed)
    slow_counters fast_counters;
  check_bool
    (Printf.sprintf "memory images (seed %d)" seed)
    true
    (slow_mem = fast_mem)

let test_complete () =
  List.iter (compare_paths ~crash:Sim.Sched.No_crash) [ 1; 7; 42 ]

let test_crash_events () =
  (* crash mid-run: the event at which the crash fires, the virtual time it
     reports and the post-crash memory images must all agree *)
  List.iter (compare_paths ~crash:(Sim.Sched.After_events 5_000)) [ 1; 7; 42 ]

let test_fiber_count () =
  let pmem = mk_pmem 3 in
  match Sim.Sched.run ~machine:(Pmem.machine pmem) (bodies 3) with
  | Sim.Sched.Completed { fibers; _ } ->
      check_int "Completed reports one entry per body" threads fibers
  | Sim.Sched.Crashed_at _ -> Alcotest.fail "unexpected crash"

(* ---- tracing on ---------------------------------------------------------- *)

(* The scheduler reads the trace flag once per drive instead of at every
   park and resume, so a traced run must record exactly what it recorded
   before. Compared here: the retained ring of a run (or a session) under
   [Obs.Trace.start], event by event, floats bit for bit. *)

type event = float * int * int * int * float

let traced f =
  Obs.Trace.start ~capacity:(1 lsl 16) ();
  let outcome = f () in
  Obs.Trace.stop ();
  check_int "trace ring kept every event" 0 (Obs.Trace.dropped ());
  let ring = ref [] in
  Obs.Trace.iter_retained (fun ~ts ~tid ~kind ~arg ~farg ->
      ring := (ts, tid, kind, arg, farg) :: !ring);
  Obs.Trace.clear ();
  (outcome, List.rev !ring)

(* An inline primitive yields no park/resume pair, so the fast and the
   reference path agree on every event but those. *)
let without_switches =
  List.filter (fun (_, _, kind, _, _) ->
      kind <> Obs.Trace.k_park && kind <> Obs.Trace.k_resume)

let check_rings name (a : event list) (b : event list) =
  let render (ts, tid, kind, arg, farg) =
    Printf.sprintf "ts=%h tid=%d kind=%d arg=%d farg=%h" ts tid kind arg farg
  in
  check_int (name ^ ": events") (List.length a) (List.length b);
  List.iteri
    (fun i (x, y) ->
      if x <> y then
        Alcotest.failf "%s: event %d differs: %s vs %s" name i (render x) (render y))
    (List.combine a b)

let traced_run ~fast_path seed =
  let pmem = mk_pmem seed in
  traced (fun () ->
      outcome_repr
        (Sim.Sched.run ~fast_path ~machine:(Pmem.machine pmem) (bodies seed)))

(* The same bodies as a session stepped through epoch bounds [every] ns
   apart; [untraced_after] stops the recording after that many steps. *)
let traced_session ?untraced_after ~fast_path ~every seed =
  let pmem = mk_pmem seed in
  traced (fun () ->
      let s = Sim.Sched.open_session ~fast_path ~machine:(Pmem.machine pmem) (bodies seed) in
      let bound = ref every and steps = ref 0 in
      while !bound < 60_000.0 do
        if Some !steps = untraced_after then Obs.Trace.stop ();
        Sim.Sched.step s ~until:!bound;
        incr steps;
        bound := !bound +. every
      done;
      outcome_repr (Sim.Sched.finish s))

let test_traced_fast_matches_slow () =
  List.iter
    (fun seed ->
      let name = Printf.sprintf "seed %d" seed in
      let slow_outcome, slow = traced_run ~fast_path:false seed in
      let fast_outcome, fast = traced_run ~fast_path:true seed in
      Alcotest.(check string) (name ^ ": outcome") slow_outcome fast_outcome;
      check_bool (name ^ ": machine events traced") true
        (List.exists (fun (_, _, kind, _, _) -> kind = Obs.id_fence) fast);
      check_rings (name ^ ": fast vs reference") (without_switches slow)
        (without_switches fast))
    [ 1; 7 ]

(* A session re-reads the flag at every step. On the reference path every
   event parks and resumes anyway, so splitting the run at epoch bounds
   changes nothing in the ring, switches included; on the fast path a
   bound makes the fiber crossing it park, so only the switches differ. *)
let test_traced_session_matches_run () =
  let seed = 3 in
  let run_outcome, run = traced_run ~fast_path:false seed in
  let session_outcome, session = traced_session ~fast_path:false ~every:2_500.0 seed in
  Alcotest.(check string) "reference session outcome" run_outcome session_outcome;
  check_rings "reference run vs stepped session" run session;
  let run_outcome, run = traced_run ~fast_path:true seed in
  let session_outcome, session = traced_session ~fast_path:true ~every:2_500.0 seed in
  Alcotest.(check string) "fast session outcome" run_outcome session_outcome;
  check_rings "fast run vs stepped session" (without_switches run)
    (without_switches session);
  (* tracing stopped between two steps: the later steps record nothing *)
  let _, partial = traced_session ~untraced_after:4 ~fast_path:true ~every:2_500.0 seed in
  check_bool "a step after the stop records nothing" true
    (List.for_all (fun (ts, _, _, _, _) -> ts < 10_000.0) partial);
  check_bool "the steps before it recorded" true (partial <> [])

(* ---- allocation ------------------------------------------------------------ *)

(* Minor words allocated by [f], net of what reading the counter costs. *)
let words f =
  let calibrate () =
    let a = Gc.minor_words () in
    let b = Gc.minor_words () in
    b -. a
  in
  let overhead = calibrate () in
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  w1 -. w0 -. overhead

let native () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ()

let n_alloc = 20_000

(* One fiber: every primitive runs inline. After one warm-up pass (the
   first access installs the line in the fiber's timing cache, the first
   store gives the page its own array), a cache-hit read, write or CAS, a
   flush of a clean line and a fence allocate nothing at all — with
   latency jitter on, so the RNG draw is on the path. Nor do the slower
   timing paths: a read that misses, and the flush of a dirty line on a
   remote NUMA node (bandwidth queue and remote multiplier). *)
let test_inline_events_allocate_nothing () =
  native ();
  let pmem = mk_pmem 1 in
  let a = Pmem.addr ~pool:0 ~word:64 and b = Pmem.addr ~pool:1 ~word:640 in
  let remote = Pmem.addr ~pool:1 ~word:64 and i = ref 0 in
  let measured = ref [] in
  let measure name op =
    op ();
    measured := (name, words (fun () -> for _ = 1 to n_alloc do op () done)) :: !measured
  in
  let body ~tid:_ =
    Sim.Sched.write a 1;
    measure "read" (fun () -> ignore (Sim.Sched.read a : int));
    measure "write" (fun () -> Sim.Sched.write a 2);
    measure "cas" (fun () -> ignore (Sim.Sched.cas a ~expected:2 ~desired:2 : bool));
    measure "flush" (fun () -> Sim.Sched.flush b);
    measure "fence" Sim.Sched.fence;
    measure "missing read" (fun () ->
        incr i;
        ignore (Sim.Sched.read (Pmem.addr ~pool:(!i land 3) ~word:(!i * 4099 land (pool_words - 1))) : int));
    measure "dirty remote flush" (fun () ->
        Sim.Sched.write remote !i;
        Sim.Sched.flush remote;
        Sim.Sched.fence ())
  in
  (match Sim.Sched.run ~machine:(Pmem.machine pmem) [ (0, body) ] with
  | Sim.Sched.Completed _ -> ()
  | Sim.Sched.Crashed_at _ -> Alcotest.fail "unexpected crash");
  List.iter
    (fun (name, w) -> Alcotest.(check (float 0.0)) (name ^ ": minor words") 0.0 w)
    (List.rev !measured)

(* Timing a primitive into a histogram allocates nothing: [Sched.now] is
   inlined, so the clock readings stay unboxed floats, and [Histogram.add]
   is inlined too and keeps its sum, min and max in a flat float array.
   Both rely on cross-module inlining, so this also fails if the build goes
   back to compiling every module [-opaque]. *)
let test_timed_histogram_add_allocates_nothing () =
  native ();
  let pmem = mk_pmem 1 in
  let a = Pmem.addr ~pool:0 ~word:64 in
  let h = Sim.Histogram.create () in
  let timed () =
    let t0 = Sim.Sched.now () in
    ignore (Sim.Sched.read a : int);
    Sim.Histogram.add h (Sim.Sched.now () -. t0)
  in
  let measured = ref nan in
  let body ~tid:_ =
    (* warm-up: the line enters the timing cache, the samples' bucket row
       is allocated *)
    for _ = 1 to 100 do timed () done;
    measured := words (fun () -> for _ = 1 to n_alloc do timed () done)
  in
  (match Sim.Sched.run ~machine:(Pmem.machine pmem) [ (0, body) ] with
  | Sim.Sched.Completed _ -> ()
  | Sim.Sched.Crashed_at _ -> Alcotest.fail "unexpected crash");
  check_int "samples" (100 + n_alloc) (Sim.Histogram.count h);
  Alcotest.(check (float 0.0)) "minor words" 0.0 !measured

(* Draws allocate nothing: [int] and [next] return immediates,
   [geometric] consumes its [float] draws inside the module, and [float] is
   inlined into its caller, so its result stays unboxed there (compiled
   [-opaque], it came back boxed, 2 words a draw). The generator's state
   itself is never boxed. *)
let test_rng_draws_allocate_nothing () =
  native ();
  let r = Sim.Rng.create 1 in
  let sink = ref 0 and fsink = [| 0.0 |] in
  let per_draw f = words f /. float_of_int n_alloc in
  Alcotest.(check (float 0.0))
    "int" 0.0
    (per_draw (fun () -> for _ = 1 to n_alloc do sink := !sink + Sim.Rng.int r 1000 done));
  Alcotest.(check (float 0.0))
    "next" 0.0
    (per_draw (fun () -> for _ = 1 to n_alloc do sink := !sink + Sim.Rng.next r done));
  Alcotest.(check (float 0.0))
    "geometric" 0.0
    (per_draw (fun () ->
         for _ = 1 to n_alloc do
           sink := !sink + Sim.Rng.geometric r ~p:0.5 ~max_value:32
         done));
  Alcotest.(check (float 0.0))
    "float" 0.0
    (per_draw (fun () ->
         for _ = 1 to n_alloc do
           fsink.(0) <- fsink.(0) +. Sim.Rng.float r
         done));
  ignore (Sys.opaque_identity (!sink, fsink))

(* What one perform + continue allocates by itself: the continuation. The
   handler keeps it in a one-cell array (filled by the first perform) so
   that the measurement boxes nothing of its own. *)
type _ Effect.t += Ping : unit Effect.t

let perform_words () =
  let open Effect.Deep in
  let slot = ref [||] and pending = ref false in
  let keep (k : (unit, unit) continuation) =
    if Array.length !slot = 0 then slot := [| k |] else !slot.(0) <- k;
    pending := true
  in
  let body () =
    for _ = 1 to n_alloc do
      Effect.perform Ping
    done
  in
  let some_keep = Some keep in
  let effc : type a. a Effect.t -> ((a, unit) continuation -> unit) option = function
    | Ping -> some_keep
    | _ -> None
  in
  let handler = { retc = (fun () -> ()); exnc = raise; effc } in
  words (fun () ->
      match_with body () handler;
      while !pending do
        pending := false;
        continue !slot.(0) ()
      done)
  /. float_of_int n_alloc

(* Two fibers a stagger apart on a machine whose every op costs 1 ns: each
   primitive wakes its fiber after the other one, so every event parks.
   A parked event then allocates what [perform] itself does (the
   continuation block, 2 words on OCaml 5.1 amd64; it was 6 when the park
   boxed its waiter and its wake-up time) and nothing on top. Measured as
   the slope between two run lengths, so the fibers' one-off launch drops
   out. *)
let test_parked_event_allocates_only_the_continuation () =
  native ();
  let latency = [| 0.0 |] in
  let machine =
    {
      Sim.Sched.read =
        (fun ~tid:_ _ ->
          latency.(0) <- 1.0;
          0);
      write = (fun ~tid:_ _ _ -> latency.(0) <- 1.0);
      cas =
        (fun ~tid:_ _ _ _ ->
          latency.(0) <- 1.0;
          true);
      flush = (fun ~tid:_ _ -> latency.(0) <- 1.0);
      fence = (fun ~tid:_ -> latency.(0) <- 1.0);
      clock = [| 0.0 |];
      latency;
    }
  in
  let run n =
    let body ~tid:_ =
      for _ = 1 to n do
        ignore (Sim.Sched.read 0 : int)
      done
    in
    let events = ref 0 in
    let w =
      words (fun () ->
          match Sim.Sched.run ~machine [ (0, body); (1, body) ] with
          | Sim.Sched.Completed { events = e; _ } -> events := e
          | Sim.Sched.Crashed_at _ -> Alcotest.fail "unexpected crash")
    in
    (w, float_of_int !events)
  in
  let w1, e1 = run n_alloc and w2, e2 = run (2 * n_alloc) in
  let per_event = (w2 -. w1) /. (e2 -. e1) in
  let bound = perform_words () in
  check_bool
    (Printf.sprintf "%.3f words per parked event <= %.3f per bare perform" per_event bound)
    true
    (per_event <= bound)

let () =
  Alcotest.run "sched_fastpath"
    [
      ( "fast path is simulated-time invariant",
        [
          case "full runs match across seeds" test_complete;
          case "event-count crash points match" test_crash_events;
          case "Completed reports fiber count" test_fiber_count;
        ] );
      ( "tracing on",
        [
          case "fast and reference paths record the same trace"
            test_traced_fast_matches_slow;
          case "a stepped session records its run's trace"
            test_traced_session_matches_run;
        ] );
      ( "allocation",
        [
          case "inline cache-hit primitives allocate nothing"
            test_inline_events_allocate_nothing;
          case "RNG draws allocate nothing" test_rng_draws_allocate_nothing;
          case "timing into a histogram allocates nothing"
            test_timed_histogram_add_allocates_nothing;
          case "a parked event allocates only its continuation"
            test_parked_event_allocates_only_the_continuation;
        ] );
    ]
