(* Sim.Sched runs a primitive inline whenever its fiber stays the earliest,
   and parks only to yield: a pure wall-clock optimisation. A run must
   produce the virtual times, event counts, outcomes, PMEM counters, memory
   images and fiber trace events of test/support's reference scheduler,
   which parks at every primitive and shares no code with Sim.Sched. These
   tests drive a mixed read/write/CAS/flush/fence/charge workload down both
   and compare everything observable: under jittered latencies, so the
   shared RNG draw order is exercised too, and under uniform ones, where
   wake-up times tie often and the tie-break decides the interleaving. *)

open Testsupport

let n_pools = 4
let pool_words = 1 lsl 16
let threads = 8
(* About 6 400 events per run, so that the crash point below falls inside
   it. *)
let ops_per_thread = 600
let crash_point = Sim.Sched.After_events 5_000

let mk_pmem ?(latency = Pmem.Latency.default) seed =
  Pmem.create
    {
      Pmem.numa_nodes = 4;
      pool_words;
      n_pools;
      mode = Pmem.Multi_pool;
      stripe_words = 1 lsl 12;
      latency;
      cache_lines = 256;
      seed;
    }

let latencies =
  [ ("jittered", Pmem.Latency.default); ("uniform", Pmem.Latency.uniform) ]

(* One fiber: a per-tid RNG picks addresses and an op mix that exercises
   every primitive, including some that resolve without an event (now,
   self), and line reads, plain and prefetching another line, whose words
   it writes back summed so that the memory images compare them. *)
let mixed p ~ops ~seed ~tid =
  let rng = Sim.Rng.create ((seed * 1000) + tid) in
  let sink = ref 0 in
  let line = Array.make Pmem.line_words 0 in
  for _ = 1 to ops do
    let a =
      Pmem.addr ~pool:(Sim.Rng.int rng n_pools)
        ~word:(Sim.Rng.int rng pool_words)
    in
    let line_of a = a land lnot (Pmem.line_words - 1) in
    match Sim.Rng.int rng 12 with
    | 0 | 1 | 2 | 3 -> sink := !sink + p.read a
    | 4 | 5 -> p.write a (Sim.Rng.int rng 1000)
    | 6 ->
        let v = p.read a in
        (* half genuine CAS, half deliberately stale expected value *)
        let expected = if Sim.Rng.int rng 2 = 0 then v else v + 1 in
        ignore (p.cas a ~expected ~desired:(v + 1))
    | 7 ->
        p.write a (Sim.Rng.int rng 1000);
        p.flush a;
        p.fence ()
    | 8 ->
        p.charge 3.5;
        p.yield ()
    | 9 ->
        let t0 = p.now () in
        sink := !sink + p.self () + int_of_float t0
    | 10 ->
        p.read_line (line_of a) line;
        p.write a (Array.fold_left ( + ) 0 line land 0xffff)
    | _ ->
        let b =
          Pmem.addr ~pool:(Sim.Rng.int rng n_pools) ~word:(Sim.Rng.int rng pool_words)
        in
        p.read_line ~prefetch:(line_of b) (line_of a) line;
        p.write a (Array.fold_left ( + ) 0 line land 0xffff)
  done

let bodies p seed =
  List.init threads (fun tid ->
      (tid, fun ~tid -> mixed p ~ops:ops_per_thread ~seed ~tid))

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
    ("prefetches", c.Pmem.prefetches);
    ("prefetch_misses", c.Pmem.prefetch_misses);
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

let run_one prims ~latency ~crash seed =
  let pmem = mk_pmem ~latency seed in
  let p = prims pmem in
  let outcome = p.run ~crash ~machine:(Pmem.machine pmem) (bodies p seed) in
  (outcome_repr outcome, counter_list pmem, snapshot pmem)

(* The reference run, then Sim.Sched's with fibers on the domain-local
   wrappers and on their memory's port, under each latency model. *)
let compare_with_reference ~crash seed =
  List.iter
    (fun (lat, latency) ->
      let name what = Printf.sprintf "%s (seed %d, %s)" what seed lat in
      let ref_outcome, ref_counters, ref_mem = run_one ref_prims ~latency ~crash seed in
      List.iter
        (fun prims ->
          let outcome, counters, mem = run_one prims ~latency ~crash seed in
          Alcotest.(check string) (name "outcome") ref_outcome outcome;
          Alcotest.(check (list (pair string int)))
            (name "pmem counters") ref_counters counters;
          check_bool (name "memory images") true (ref_mem = mem))
        [ sched_prims; port_prims ])
    latencies

let test_complete () =
  List.iter (compare_with_reference ~crash:Sim.Sched.No_crash) [ 1; 7; 42 ]

let test_crash_events () =
  (* crash mid-run: the event at which the crash fires, the virtual time it
     reports and the post-crash memory images must all agree *)
  List.iter
    (fun seed ->
      let outcome, _, _ =
        run_one ref_prims ~latency:Pmem.Latency.default ~crash:crash_point seed
      in
      check_bool (Printf.sprintf "seed %d crashes: %s" seed outcome) true
        (String.starts_with ~prefix:"Crashed_at" outcome);
      compare_with_reference ~crash:crash_point seed)
    [ 1; 7; 42 ]

let test_fiber_count () =
  let pmem = mk_pmem 3 in
  match Sim.Sched.run ~machine:(Pmem.machine pmem) (bodies (sched_prims pmem) 3) with
  | Sim.Sched.Completed { fibers; _ } ->
      check_int "Completed reports one entry per body" threads fibers
  | Sim.Sched.Crashed_at _ -> Alcotest.fail "unexpected crash"

(* ---- tracing on ---------------------------------------------------------- *)

(* Compared here: the retained ring of a run (or a session) under
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

(* The reference records no park/resume pairs, and an inline primitive
   yields none, so the two agree on every event but those. *)
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

let traced_run ?(latency = Pmem.Latency.default) ?crash prims seed =
  let pmem = mk_pmem ~latency seed in
  let p = prims pmem in
  traced (fun () ->
      outcome_repr (p.run ?crash ~machine:(Pmem.machine pmem) (bodies p seed)))

(* The same bodies as a session stepped through epoch bounds [every] ns
   apart; [untraced_after] stops the recording after that many steps. *)
let traced_session ?untraced_after ~every seed =
  let pmem = mk_pmem seed in
  traced (fun () ->
      let s =
        Sim.Sched.open_session ~machine:(Pmem.machine pmem)
          (bodies (sched_prims pmem) seed)
      in
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
      List.iter
        (fun (lat, latency) ->
          List.iter
            (fun crash ->
              let name =
                Printf.sprintf "seed %d, %s, %s" seed lat
                  (match crash with
                  | Sim.Sched.No_crash -> "no crash"
                  | After_events n -> Printf.sprintf "crash after %d" n)
              in
              let ref_outcome, reference = traced_run ~latency ~crash ref_prims seed in
              let outcome, ring = traced_run ~latency ~crash sched_prims seed in
              Alcotest.(check string) (name ^ ": outcome") ref_outcome outcome;
              check_bool (name ^ ": machine events traced") true
                (List.exists (fun (_, _, kind, _, _) -> kind = Obs.id_fence) ring);
              check_rings (name ^ ": Sim.Sched vs reference") (without_switches reference)
                (without_switches ring))
            [ Sim.Sched.No_crash; crash_point ])
        latencies)
    [ 1; 7; 42 ]

(* A session re-reads the trace flag at every step. A bound makes the fiber
   crossing it park, so a stepped session records its run's events with
   only the switches differing. *)
let test_traced_session_matches_run () =
  let seed = 3 in
  let run_outcome, run = traced_run sched_prims seed in
  let session_outcome, session = traced_session ~every:2_500.0 seed in
  Alcotest.(check string) "session outcome" run_outcome session_outcome;
  check_rings "run vs stepped session" (without_switches run)
    (without_switches session);
  (* tracing stopped between two steps: the later steps record nothing *)
  let _, partial = traced_session ~untraced_after:4 ~every:2_500.0 seed in
  check_bool "a step after the stop records nothing" true
    (List.for_all (fun (ts, _, _, _, _) -> ts < 10_000.0) partial);
  check_bool "the steps before it recorded" true (partial <> [])

(* ---- ports ------------------------------------------------------------------ *)

(* A primitive issued through a memory's port reaches the run that is
   being driven, exactly as the domain-local wrappers do. Each scenario
   below is run three times, with every fiber on the wrappers, with every
   fiber on its memory's port, and on the reference scheduler, and must
   report the same outcomes (times, event counts) and PMEM counters. *)

let counters_repr name pmem =
  List.map (fun (k, v) -> Printf.sprintf "%s.%s=%d" name k v) (counter_list pmem)

let fibers n f = List.init n (fun tid -> (tid, f))

let check_matches_reference name scenario =
  let reference = scenario ref_prims in
  Alcotest.(check (list string)) (name ^ ": wrappers") reference (scenario sched_prims);
  Alcotest.(check (list string)) (name ^ ": port") reference (scenario port_prims)

(* A fiber of a run over one memory runs a nested run over a second one.
   The nested fibers also issue primitives through the outer memory's
   port, whose cached state (the outer run) is not live while the nested
   drive runs: they must reach the nested run. Back in the outer run, the
   port must find the outer run again. *)
let test_port_nested () =
  check_matches_reference "nested run" (fun prims ->
      let outer = mk_pmem 11 and inner = mk_pmem 12 in
      let po = prims outer and pi = prims inner in
      let log = ref [] in
      let inner_body ~tid =
        mixed pi ~ops:60 ~seed:6 ~tid;
        ignore (po.read (Pmem.addr ~pool:0 ~word:(64 * tid)) : int);
        po.write (Pmem.addr ~pool:1 ~word:(64 * tid)) tid;
        log := Printf.sprintf "inner tid %d at %h" (po.self ()) (po.now ()) :: !log
      in
      let outer_body ~tid =
        mixed po ~ops:60 ~seed:5 ~tid;
        if tid = 1 then
          log :=
            outcome_repr (pi.run ~machine:(Pmem.machine inner) (fibers 3 inner_body))
            :: !log;
        mixed po ~ops:60 ~seed:7 ~tid
      in
      let o = po.run ~machine:(Pmem.machine outer) (fibers 4 outer_body) in
      (outcome_repr o :: List.rev !log)
      @ counters_repr "outer" outer @ counters_repr "inner" inner)

(* Two sessions over two memories stepped alternately on one domain (the
   service engine's pattern): each drive leaves its state not live, so
   each port refreshes once per step. The reference runs each memory's
   fibers to the end in turn. *)
let test_port_alternating_sessions () =
  let scenario prims drive =
    let setup seed =
      let pmem = mk_pmem seed in
      let p = prims pmem in
      (pmem, (Pmem.machine pmem, fibers 4 (fun ~tid -> mixed p ~ops:120 ~seed ~tid)))
    in
    let m1, run1 = setup 21 and m2, run2 = setup 22 in
    let o1, o2 = drive run1 run2 in
    [ outcome_repr o1; outcome_repr o2 ] @ counters_repr "m1" m1 @ counters_repr "m2" m2
  in
  let stepped (machine1, b1) (machine2, b2) =
    let s1 = Sim.Sched.open_session ~machine:machine1 b1 in
    let s2 = Sim.Sched.open_session ~machine:machine2 b2 in
    let bound = ref 700.0 in
    while !bound < 30_000.0 do
      Sim.Sched.step s1 ~until:!bound;
      Sim.Sched.step s2 ~until:!bound;
      bound := !bound +. 700.0
    done;
    let o2 = Sim.Sched.finish s2 in
    (Sim.Sched.finish s1, o2)
  in
  let in_turn (machine1, b1) (machine2, b2) =
    let o1 = Ref_sched.run ~machine:machine1 b1 in
    (o1, Ref_sched.run ~machine:machine2 b2)
  in
  let reference = scenario ref_prims in_turn in
  Alcotest.(check (list string)) "wrappers" reference (scenario sched_prims stepped);
  Alcotest.(check (list string)) "port" reference (scenario port_prims stepped)

(* One memory driven by three runs in a row: the port holds each finished
   run until the next access refreshes it. *)
let test_port_consecutive_runs () =
  check_matches_reference "consecutive runs" (fun prims ->
      let pmem = mk_pmem 31 in
      let p = prims pmem in
      let run seed =
        outcome_repr
          (p.run ~machine:(Pmem.machine pmem)
             (fibers 4 (fun ~tid -> mixed p ~ops:120 ~seed ~tid)))
      in
      let a = run 1 in
      let b = run 2 in
      let c = run 3 in
      [ a; b; c ] @ counters_repr "pmem" pmem)

(* A memory first driven on this domain, then by a run on a [Sim.Pool]
   worker domain. *)
let test_port_worker_domain () =
  check_matches_reference "worker domain" (fun prims ->
      let setup seed =
        let pmem = mk_pmem seed in
        let p = prims pmem in
        let run seed =
          outcome_repr
            (p.run ~machine:(Pmem.machine pmem)
             (fibers 4 (fun ~tid -> mixed p ~ops:120 ~seed ~tid)))
        in
        let here = run seed in
        (pmem, here, run)
      in
      let m1, here1, run1 = setup 41 and m2, here2, run2 = setup 42 in
      let there = Sim.Pool.run ~jobs:2 [ (fun () -> run1 43); (fun () -> run2 44) ] in
      (here1 :: here2 :: there) @ counters_repr "m1" m1 @ counters_repr "m2" m2)

(* Outside a run, a primitive raises the scheduler's named error, through
   a port as through a wrapper. *)
let test_port_outside_run () =
  let p = Pmem.port (mk_pmem 1) in
  let outside = Invalid_argument "Sched: primitive issued outside a run" in
  Alcotest.check_raises "port read" outside (fun () ->
      ignore (Sim.Sched.Port.read p 0 : int));
  Alcotest.check_raises "port write" outside (fun () -> Sim.Sched.Port.write p 0 1);
  Alcotest.check_raises "now" outside (fun () -> ignore (Sim.Sched.now () : float));
  Alcotest.check_raises "self" outside (fun () -> ignore (Sim.Sched.self () : int))

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

(* The same through [Mem]'s field accessors, which reach the run through
   the memory's port: a cache-hit read, write or CAS of a field, a line
   read into a caller's buffer, plain or prefetching a second line (cached
   or missing), and the flush of a clean line allocate nothing either. *)
let test_port_field_accessors_allocate_nothing () =
  native ();
  let pmem = mk_pmem 1 in
  let mem = Mem.create ~pmem ~chunk_words:1024 ~block_words:64 ~n_arenas:1 () in
  let obj = Mem.riv_of_root ~pool:0 ~word:Mem.app_root_start in
  let line = Array.make Pmem.line_words 0 and i = ref 0 in
  let measured = ref [] in
  let measure name op =
    op ();
    measured := (name, words (fun () -> for _ = 1 to n_alloc do op () done)) :: !measured
  in
  let body ~tid:_ =
    Mem.write_field mem obj 0 1;
    Mem.flush_field mem obj 8;
    measure "read_field" (fun () -> ignore (Mem.read_field mem obj 0 : int));
    measure "write_field" (fun () -> Mem.write_field mem obj 0 2);
    measure "read_line" (fun () -> Mem.read_line mem (Mem.resolve mem obj) line 0);
    measure "prefetching read_line" (fun () ->
        Mem.read_line mem ~prefetch:(Mem.resolve mem obj + 8) (Mem.resolve mem obj) line 0);
    measure "read_line prefetching a missing line" (fun () ->
        incr i;
        let b = Pmem.addr ~pool:(!i land 3) ~word:((!i * 4099) lsl 3 land (pool_words - 1)) in
        Mem.read_line mem ~prefetch:b (Mem.resolve mem obj) line 0);
    measure "cas_field" (fun () ->
        ignore (Mem.cas_field mem obj 0 ~expected:2 ~desired:2 : bool));
    measure "flush_field" (fun () -> Mem.flush_field mem obj 8)
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
      ( "ports",
        [
          case "a nested run over a second memory" test_port_nested;
          case "two sessions stepped alternately" test_port_alternating_sessions;
          case "several runs in a row over one memory" test_port_consecutive_runs;
          case "a run on a worker domain" test_port_worker_domain;
          case "outside a run" test_port_outside_run;
        ] );
      ( "allocation",
        [
          case "inline cache-hit primitives allocate nothing"
            test_inline_events_allocate_nothing;
          case "field accessors through the port allocate nothing"
            test_port_field_accessors_allocate_nothing;
          case "RNG draws allocate nothing" test_rng_draws_allocate_nothing;
          case "timing into a histogram allocates nothing"
            test_timed_histogram_add_allocates_nothing;
          case "a parked event allocates only its continuation"
            test_parked_event_allocates_only_the_continuation;
        ] );
    ]
