(* A reference scheduler for Sim.Sched: the semantics it must have, written
   the plainest way and sharing no code with it. From Sim.Sched it takes only
   the types [machine], [crash_point] and [outcome].

   Every primitive is an effect of this module. Its handler applies the
   machine op at the current virtual time, counts one event and either
   crashes the run (once [crash] events have executed) or parks the fiber
   until the op's latency has elapsed. A loop takes the parked fiber with
   the smallest (wake-up time, park sequence number) out of an ordered set
   and resumes it; so nothing runs inline, and every event is a park and a
   resume. Fibers start parked at staggered times, 0.1 ns * tid. At a crash
   the fiber whose event fired is unwound, then every parked one in queue
   order (a fiber that never started is dropped). Fiber completions and
   crash unwinds are traced (kinds [k_fiber_done] / [k_fiber_crash]) when
   tracing is on; parks and resumes are not. *)

type addr = int

type _ Effect.t +=
  | Read : addr -> int Effect.t
  | Write : (addr * int) -> unit Effect.t
  | Cas : (addr * int * int) -> bool Effect.t
  | Flush : addr -> unit Effect.t
  | Fence : unit Effect.t
  | Charge : float -> unit Effect.t
  | Now : float Effect.t
  | Self : int Effect.t

let read a = Effect.perform (Read a)
let write a v = Effect.perform (Write (a, v))
let cas a ~expected ~desired = Effect.perform (Cas (a, expected, desired))
let flush a = Effect.perform (Flush a)
let fence () = Effect.perform Fence
let charge ns = Effect.perform (Charge ns)
let now () = Effect.perform Now
let self () = Effect.perform Self
let yield () = charge 15.0

exception Crashed

(* A parked fiber: how to go on, and how to unwind it at a crash. *)
type parked = { resume : unit -> unit; kill : unit -> unit }

module Queue = Set.Make (struct
  type t = float * int * int  (* wake-up time, park sequence number, tid *)

  let compare (t1, s1, _) (t2, s2, _) =
    match Float.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c
end)

let run ?(crash = Sim.Sched.No_crash) ~(machine : Sim.Sched.machine) bodies =
  let crash_after =
    match crash with Sim.Sched.No_crash -> max_int | After_events n -> n
  in
  let clock = machine.clock and latency = machine.latency in
  let queue = ref Queue.empty and seq = ref 0 in
  let parked = Hashtbl.create 16 in
  let events = ref 0 and crashed = ref false and finished = ref 0 in
  let park time tid p =
    incr seq;
    queue := Queue.add (time, !seq, tid) !queue;
    Hashtbl.replace parked tid p
  in
  let trace tid kind =
    if Obs.Trace.enabled () then
      Obs.Trace.emit ~ts:clock.(0) ~tid ~kind ~arg:0 ~farg:0.0
  in
  (* The end of a primitive whose op has run: count it, then crash or
     park. *)
  let settle tid k v =
    incr events;
    if !crashed || !events >= crash_after then begin
      crashed := true;
      Effect.Deep.discontinue k Crashed
    end
    else
      park (clock.(0) +. latency.(0)) tid
        {
          resume = (fun () -> Effect.Deep.continue k v);
          kill = (fun () -> Effect.Deep.discontinue k Crashed);
        }
  in
  let handler tid =
    let open Effect.Deep in
    {
      retc =
        (fun () ->
          trace tid Obs.Trace.k_fiber_done;
          incr finished);
      exnc =
        (function
        | Crashed ->
            trace tid Obs.Trace.k_fiber_crash;
            incr finished
        | e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          let settled (v : a) =
            Some (fun (k : (a, unit) continuation) -> settle tid k v)
          and resumed (v : a) = Some (fun (k : (a, unit) continuation) -> continue k v) in
          match eff with
          | Read a -> settled (machine.read ~tid a)
          | Write (a, v) -> settled (machine.write ~tid a v)
          | Cas (a, expected, desired) -> settled (machine.cas ~tid a expected desired)
          | Flush a -> settled (machine.flush ~tid a)
          | Fence -> settled (machine.fence ~tid)
          | Charge ns ->
              latency.(0) <- ns;
              settled ()
          | Now -> resumed clock.(0)
          | Self -> resumed tid
          | _ -> None);
    }
  in
  clock.(0) <- 0.0;
  List.iter
    (fun (tid, body) ->
      if tid < 0 || Hashtbl.mem parked tid then invalid_arg "Ref_sched.run: tid";
      park (0.1 *. float_of_int tid) tid
        {
          resume =
            (fun () -> Effect.Deep.match_with (fun () -> body ~tid) () (handler tid));
          kill = ignore;
        })
    bodies;
  let rec loop () =
    match Queue.min_elt_opt !queue with
    | None -> ()
    | Some ((time, _, tid) as first) ->
        queue := Queue.remove first !queue;
        let p = Hashtbl.find parked tid in
        if !crashed then p.kill ()
        else begin
          clock.(0) <- time;
          if !events >= crash_after then begin
            crashed := true;
            p.kill ()
          end
          else p.resume ()
        end;
        loop ()
  in
  loop ();
  let fibers = List.length bodies in
  if !crashed then Sim.Sched.Crashed_at { time = clock.(0); events = !events }
  else if !finished <> fibers then
    failwith
      (Printf.sprintf "Ref_sched.run: %d of %d fibers never finished"
         (fibers - !finished) fibers)
  else Sim.Sched.Completed { time = clock.(0); events = !events; fibers }
