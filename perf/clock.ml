(* Host time for the benchmark: a nanosecond monotonic clock, the phase
   spans a traced run records around each call into a layer, and a
   machine wrapper that times a sample of the PMEM callbacks.

   Spans are kept in memory and written out when the run ends. They are
   recorded by the benchmark's own code around calls into the library, never
   inside it, so recording cannot change a simulated result. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  name : string;
  parent : int;  (* id of the enclosing span, -1 at top level *)
  start_ns : int;  (* since [start_recording] *)
  stop_ns : int;
}

type recorder = {
  mutable on : bool;
  mutable origin : int;
  mutable next_id : int;
  mutable open_ids : int list;
  mutable closed : span list;
}

let rec_ = { on = false; origin = 0; next_id = 0; open_ids = []; closed = [] }

let start_recording () =
  rec_.on <- true;
  rec_.origin <- now_ns ();
  rec_.next_id <- 0;
  rec_.open_ids <- [];
  rec_.closed <- []

let pause () = rec_.on <- false
let resume () = rec_.on <- true

(* Recorded spans, in start order. *)
let spans () = List.sort (fun a b -> compare a.id b.id) rec_.closed

(* [timed name f] runs [f] and returns its result with its host duration in
   ns; while recording, it also records a span named [name]. *)
let timed name f =
  if not rec_.on then begin
    let t0 = now_ns () in
    let r = f () in
    (r, now_ns () - t0)
  end
  else begin
    let id = rec_.next_id in
    rec_.next_id <- id + 1;
    let parent = match rec_.open_ids with p :: _ -> p | [] -> -1 in
    rec_.open_ids <- id :: rec_.open_ids;
    let t0 = now_ns () in
    let r = f () in
    let t1 = now_ns () in
    rec_.open_ids <- List.tl rec_.open_ids;
    rec_.closed <-
      { id; name; parent; start_ns = t0 - rec_.origin; stop_ns = t1 - rec_.origin }
      :: rec_.closed;
    (r, t1 - t0)
  end

(* ---- sampled PMEM callback timing ----------------------------------------- *)

type callbacks = {
  mutable calls : int;
  mutable sampled : int;
  mutable sampled_ns : int;
}

(* One callback in [sample_every] is timed: timing every one would cost more
   than the callback itself. *)
let sample_every = 16

(* [timed_machine m] forwards every callback to [m] unchanged (same
   arguments, same results, same timing cells), so the simulation it drives
   is identical to one driven by [m]. *)
let timed_machine (m : Sim.Sched.machine) =
  let c = { calls = 0; sampled = 0; sampled_ns = 0 } in
  let due () =
    c.calls <- c.calls + 1;
    c.calls mod sample_every = 0
  in
  let record t0 =
    c.sampled_ns <- c.sampled_ns + (now_ns () - t0);
    c.sampled <- c.sampled + 1
  in
  let machine =
    {
      m with
      Sim.Sched.read =
        (fun ~tid a ->
          if due () then begin
            let t0 = now_ns () in
            let v = m.read ~tid a in
            record t0;
            v
          end
          else m.read ~tid a);
      write =
        (fun ~tid a v ->
          if due () then begin
            let t0 = now_ns () in
            m.write ~tid a v;
            record t0
          end
          else m.write ~tid a v);
      cas =
        (fun ~tid a e d ->
          if due () then begin
            let t0 = now_ns () in
            let ok = m.cas ~tid a e d in
            record t0;
            ok
          end
          else m.cas ~tid a e d);
      flush =
        (fun ~tid a ->
          if due () then begin
            let t0 = now_ns () in
            m.flush ~tid a;
            record t0
          end
          else m.flush ~tid a);
      fence =
        (fun ~tid ->
          if due () then begin
            let t0 = now_ns () in
            m.fence ~tid;
            record t0
          end
          else m.fence ~tid);
    }
  in
  (machine, c)

(* Cost of one [now_ns] pair with nothing between, subtracted from every
   sampled callback. *)
let clock_pair_ns =
  lazy
    (let n = 200_000 in
     let acc = ref 0 in
     for _ = 1 to n do
       let t0 = now_ns () in
       acc := !acc + (now_ns () - t0)
     done;
     float_of_int !acc /. float_of_int n)

(* Estimated host ns spent inside every callback (sampled mean, net of the
   clock, times the number of calls). *)
let callback_ns c =
  if c.sampled = 0 then 0.0
  else
    let per =
      (float_of_int c.sampled_ns /. float_of_int c.sampled)
      -. Lazy.force clock_pair_ns
    in
    Float.max 0.0 per *. float_of_int c.calls
