(* Constant-stack regression test for Sim.Sched's direct handoff: the code
   that ends a fiber's turn resumes the next fiber itself, so every event of
   a run hangs off one chain of calls. Run under OCAMLRUNPARAM=l=32k (see
   dune): one frame per event on that chain, kept rather than replaced by
   a tail call, exhausts the cap long before these runs end. *)

(* A machine whose every op costs [latency_ns]: with fibers a stagger
   apart and ops of 1 ns, each fiber wakes after every other one, so every
   event parks and hands off. *)
let machine ~latency_ns =
  let latency = [| 0.0 |] in
  let charge () = latency.(0) <- latency_ns in
  {
    Sim.Sched.read =
      (fun ~tid:_ _ ->
        charge ();
        0);
    write = (fun ~tid:_ _ _ -> charge ());
    cas =
      (fun ~tid:_ _ _ _ ->
        charge ();
        true);
    flush = (fun ~tid:_ _ -> charge ());
    fence = (fun ~tid:_ -> charge ());
    clock = [| 0.0 |];
    latency;
  }

(* Every primitive in turn. *)
let bodies ~fibers ~ops =
  List.init fibers (fun tid ->
      ( tid,
        fun ~tid:_ ->
          for i = 1 to ops do
            match i mod 5 with
            | 0 -> ignore (Sim.Sched.read 0 : int)
            | 1 -> Sim.Sched.write 0 i
            | 2 -> ignore (Sim.Sched.cas 0 ~expected:0 ~desired:i : bool)
            | 3 -> Sim.Sched.flush 0
            | _ -> Sim.Sched.fence ()
          done ))

let events = function
  | Sim.Sched.Completed { events; _ } | Sim.Sched.Crashed_at { events; _ } ->
      events

let check_events name want outcome =
  Alcotest.(check int) name want (events outcome)

(* 1 M parked events over 8 fibers (every event is a [Park]). *)
let test_parked_run () =
  let ops = 125_000 in
  Sim.Sched.run ~machine:(machine ~latency_ns:1.0)
    (bodies ~fibers:8 ~ops)
  |> check_events "events" (8 * ops)

(* Many fibers, so that the chain also covers one turn-ending per fiber:
   50 k fibers that each finish ([retc] hands off), that are each killed
   once all of them have parked (the crash drain discontinues every one,
   and each killed fiber's [exnc] hands off to the next kill), and that
   never run at all ([After_events 0]: the drain skips every [Start]). *)
let fibers = 50_000

let many crash =
  Sim.Sched.run ~crash ~machine:(machine ~latency_ns:1_000.0)
    (bodies ~fibers ~ops:10)

let test_many_finish () =
  many Sim.Sched.No_crash |> check_events "events" (10 * fibers)

let test_crash_drain () =
  (match many (Sim.Sched.After_events (3 * fibers)) with
  | Sim.Sched.Crashed_at { events; _ } ->
      Alcotest.(check int) "crashed at its event" (3 * fibers) events
  | Sim.Sched.Completed _ -> Alcotest.fail "run did not crash");
  match many (Sim.Sched.After_events 0) with
  | Sim.Sched.Crashed_at { events; _ } ->
      Alcotest.(check int) "no fiber ran" 0 events
  | Sim.Sched.Completed _ -> Alcotest.fail "run did not crash"

(* A session stepped through 50 epoch bounds, each covering 20 k events:
   every step starts a chain of its own and gets control back at its
   bound. *)
let test_stepped_session () =
  let ops = 125_000 in
  let s =
    Sim.Sched.open_session ~machine:(machine ~latency_ns:1.0)
      (bodies ~fibers:8 ~ops)
  in
  let bound = ref 2_500.0 in
  while !bound < float_of_int ops do
    Sim.Sched.step s ~until:!bound;
    bound := !bound +. 2_500.0
  done;
  check_events "events" (8 * ops) (Sim.Sched.finish s)

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "sched_stack"
    [
      ( "constant stack",
        [
          case "1 M parked events, fast path" test_parked_run;
          case "crash drain" test_crash_drain;
          case "50 k fibers finish" test_many_finish;
          case "stepped session" test_stepped_session;
        ] );
    ]
