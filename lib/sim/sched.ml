(* Deterministic discrete-event scheduler for simulated threads.

   Each simulated thread is an OCaml-5 effects fiber. Every persistent-memory
   primitive (read / write / CAS / flush / fence / charge; a line read, with
   or without a prefetched second line, is a read of the line's first word,
   see Pmem.read_line) runs inline in the calling fiber: it applies its
   operation to the simulated machine immediately (the primitive's atomicity point), charges its simulated
   latency, and lets the fiber go on while its virtual clock stays the
   earliest. The scheduler always resumes the fiber with the smallest
   virtual wake-up time, so primitives from different fibers interleave
   exactly as their simulated timings dictate — CAS failures, lock
   contention and helping all arise from genuine interleaving,
   reproducibly, on a single host core.

   One body per primitive: [read_in] ... [charge_in] apply the machine op
   and then [inline_settle], which bumps the virtual clock in place when the
   calling fiber would wake up strictly before every parked fiber — the
   common case, since most accesses are cache hits with nanosecond-scale
   latencies — and otherwise performs [Park], the scheduler's only effect,
   to yield through the heap. This matters because a parked event costs
   several times an inline one: on a 2-core x86-64 host under OCaml 5.1,
   12-20 ns inline against 50-70 ns parked among 8 fibers (the benchmark's
   [sched.inline_event_ns] and [sched.null_event_ns] probes: [bash
   perf/run.sh --workload ycsb-c-100k --trace 1], or [dune build
   @perf/smoke]). test/test_sched_fastpath.ml checks every simulated result
   against a plain reference scheduler in test/support that parks at every
   primitive and shares no code with this one.

   Direct handoff: a park does not return to a drive loop. The code that
   ends a fiber's turn — the [Park] handler, a fiber's [retc]/[exnc] — pops
   the next due event and resumes, kills or starts that fiber itself, as a
   tail call ([handoff]). [drive] only starts the chain, and gets control
   back once nothing is due before the step's bound; a run is one chain at
   constant stack depth (test/stack/test_stack.ml runs it under a 32 k-word
   stack cap). On the same host a bare switch done this way costs 30-35 ns,
   against 60-65 ns for a handler that returns to a loop which then resumes
   the next fiber; the heap adds about 25 ns.

   How a primitive finds the run: the run in progress on a domain sits in
   a domain-local slot, which [drive] sets and restores around each slice.
   The plain wrappers ([read], [write], ...) look it up on every call. The
   hot path does not: each simulated memory owns a [port], a cell caching
   the run state that last used it, valid while that state's [live] flag
   is set. [drive] sets the flag and clears it on exit and for as long as
   a nested drive runs, so a live cached state is always the domain's
   current one; a miss refreshes the port from the slot. [Memory.Mem] and
   the structures built on it issue every access through their pool's
   port, so a simulated access does no domain-local lookup; the wrappers
   remain for code that has no memory at hand (probes, tests). Both reach
   the same inline bodies; a primitive issued outside a run raises
   [Invalid_argument] ([outside_run]).

   Allocation discipline: the inline path runs once per simulated memory
   access — hundreds of millions of times per benchmark — and allocates
   nothing; a parked event allocates only the continuation [perform]
   captures (test/test_sched_fastpath.ml gates both). The virtual clock and
   the per-op latency live in one-cell float arrays shared with the machine
   ([machine.clock] / [machine.latency]) rather than being passed as
   (boxed) arguments and returns; wake-up times likewise reach the parking
   and resuming closures through cells, and the wait queue stores them in
   a flat float array instead of records. A parked continuation is stored
   as it is, in a tid-indexed array, not in a waiter box.

   Crashes: when the configured crash point (a count of primitive events)
   is reached, the running fiber is unwound with [Crashed] (raised inline
   in it) and every parked fiber is discontinued; the run then stops. The
   machine's unflushed cache lines are dropped separately by the memory
   model (see Pmem). *)

type addr = int

(* The simulated machine. Ops return only their functional result; timing
   flows through the two shared cells:
     - [clock.(0)]: current virtual time, written by the scheduler before
       every op (so ops never take a [~now] argument);
     - [latency.(0)]: simulated nanoseconds of the op just applied, written
       by the op before returning.
   One-cell [float array]s are flat, so neither direction boxes. *)
type machine = {
  read : tid:int -> addr -> int;
  write : tid:int -> addr -> int -> unit;
  cas : tid:int -> addr -> int -> int -> bool;
  flush : tid:int -> addr -> unit;
  fence : tid:int -> unit;
  clock : float array;  (* cell 0: virtual now, maintained by the scheduler *)
  latency : float array;  (* cell 0: ns charged by the last op *)
}

(* The scheduler's only effect: yield until the wake-up time deposited in
   the run state's [park_wake] cell (the op itself already ran inline). A
   constant constructor so performing it allocates nothing. *)
type _ Effect.t += Park : unit Effect.t

exception Crashed

type outcome =
  | Completed of { time : float; events : int; fibers : int }
  | Crashed_at of { time : float; events : int }

(* What a fiber in the heap is waiting for. A fiber is parked at most once
   at a time, so waiters live in a tid-indexed side array
   ([run_state.waiters]) and the event heap carries only the tid — its sift
   loops then touch exclusively flat float/int arrays and never pay a GC
   write barrier. A [Park] boxes nothing: its continuation goes straight
   into the tid-indexed [run_state.conts] and the waiter slot stays
   [Cont_slot], which means "if this tid is in the heap, resume
   [conts.(tid)] with ()". Only a fiber's launch is boxed. *)
type waiter =
  | Cont_slot
  | Start of (unit -> unit)  (* fiber not launched yet *)

(* Binary min-heap on (time, seq), stored as parallel flat arrays: wake-up
   times in a [float array] (unboxed), tie-break sequence numbers and fiber
   tids alongside. [seq] breaks ties deterministically in insertion order. *)
module Heap = struct
  type t = {
    mutable times : float array;
    mutable seqs : int array;
    mutable tids : int array;
    mutable len : int;
  }

  let create () =
    {
      times = Array.make 64 0.0;
      seqs = Array.make 64 0;
      tids = Array.make 64 (-1);
      len = 0;
    }

  (* Only valid when [len > 0]. A fresh push always gets the largest [seq],
     so a wake-up time strictly below [min_time] is strictly the minimum. *)
  let min_time t = Array.unsafe_get t.times 0

  (* Indices below are always < len <= capacity, so accesses use the
     unchecked primitives; sift loops move the hole instead of swapping
     (one write per visited level per array instead of three). *)

  let grow t =
    let n = 2 * t.len in
    let times = Array.make n 0.0 in
    Array.blit t.times 0 times 0 t.len;
    t.times <- times;
    let seqs = Array.make n 0 in
    Array.blit t.seqs 0 seqs 0 t.len;
    t.seqs <- seqs;
    let tids = Array.make n (-1) in
    Array.blit t.tids 0 tids 0 t.len;
    t.tids <- tids

  (* Inlined, so the wake-up time reaches the flat [times] array without
     being boxed as an argument. *)
  let[@inline] push t time seq tid =
    if t.len = Array.length t.times then grow t;
    let times = t.times and seqs = t.seqs and tids = t.tids in
    let i = ref t.len in
    t.len <- t.len + 1;
    let sifting = ref true in
    while !sifting && !i > 0 do
      let p = (!i - 1) / 2 in
      let pt = Array.unsafe_get times p in
      if time < pt || (time = pt && seq < Array.unsafe_get seqs p) then begin
        Array.unsafe_set times !i pt;
        Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
        Array.unsafe_set tids !i (Array.unsafe_get tids p);
        i := p
      end
      else sifting := false
    done;
    Array.unsafe_set times !i time;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set tids !i tid

  (* Seat (time, seq, tid) in the hole at the root of the first [n]
     entries, moving the hole down the min path. Inlined into both callers,
     so [time] is never boxed. *)
  let[@inline] sift_down t n time seq tid =
    let times = t.times and seqs = t.seqs and tids = t.tids in
    let i = ref 0 in
    let sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let r = l + 1 in
        let c =
          if r < n then begin
            let lt = Array.unsafe_get times l
            and rt = Array.unsafe_get times r in
            if
              rt < lt
              || (rt = lt && Array.unsafe_get seqs r < Array.unsafe_get seqs l)
            then r
            else l
          end
          else l
        in
        let ct = Array.unsafe_get times c in
        if ct < time || (ct = time && Array.unsafe_get seqs c < seq) then begin
          Array.unsafe_set times !i ct;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
          Array.unsafe_set tids !i (Array.unsafe_get tids c);
          i := c
        end
        else sifting := false
      end
    done;
    Array.unsafe_set times !i time;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set tids !i tid

  (* Remove and return the tid of the minimum entry. Only valid when
     [len > 0]; the caller reads [min_time] first for the wake-up time. *)
  let pop_min t =
    let tid0 = Array.unsafe_get t.tids 0 in
    let n = t.len - 1 in
    t.len <- n;
    (* the last entry is re-seated along the min path *)
    if n > 0 then
      sift_down t n (Array.unsafe_get t.times n) (Array.unsafe_get t.seqs n)
        (Array.unsafe_get t.tids n);
    tid0

  (* [push] then [pop_min] in one sift: the new entry takes the minimum's
     place and sinks. Only valid when [len > 0] and the new entry orders
     after the minimum (a fresh [seq] is the largest, so [time >= min_time]
     suffices). *)
  let[@inline] replace_min t time seq tid =
    let tid0 = Array.unsafe_get t.tids 0 in
    sift_down t t.len time seq tid;
    tid0
end

type crash_point = No_crash | After_events of int

(* State of the run in progress. A domain-local slot (set for the duration
   of each drive), or a port caching it, lets the primitive wrappers below
   run inline instead of performing an effect per call. Domain-local rather
   than a module-level ref so independent [run]s can execute concurrently
   on parallel domains (see Pool); within one domain runs still nest
   (save/restore). *)
type run_state = {
  machine : machine;
  clock : float array;  (* == machine.clock *)
  latency : float array;  (* == machine.latency *)
  heap : Heap.t;
  waiters : waiter array;  (* tid-indexed; a fiber parks at most once *)
  mutable conts : (unit, unit) Effect.Deep.continuation array;
      (* tid-indexed continuations of [Park]s; [||] until the first one,
         which also fills every slot (a slot is read only after its own
         tid's park has written it). A resumed slot is left as it
         is rather than cleared: that saves a write barrier per park and
         holds on to nothing but the spent continuation block. *)
  park_wake : float array;  (* cell 0: wake-up time for a pending [Park] *)
  next_wake : float array;
      (* cell 0: wake-up time of the event [run_event] runs next *)
  crash_after : int;  (* events before the crash; [max_int] = never *)
  mutable until : float;
      (* epoch bound of the step in progress: events at or beyond it park
         through the heap instead of running, so [step ~until] leaves them
         for a later step. [infinity] for unbounded runs. *)
  mutable events : int;
  mutable seq : int;
  mutable crashed : bool;
  mutable current_tid : int;  (* tid of the fiber currently executing *)
  mutable finished : int;
  mutable tracing : bool;
      (* [Obs.Trace.enabled ()], read once per drive (and at launch) rather
         than by a domain-local lookup at every park and resume; tracing is
         only ever switched on or off between runs *)
  mutable live : bool;
      (* set while [drive] runs this state's events and no nested drive is
         in progress: exactly when it is the domain's current run state, so
         a [port] holding it may use it without a domain-local lookup *)
}

let current_key : run_state option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* Cell accesses below use the unchecked primitives: [run] validates that
   both machine cells have an index 0 before anything touches them, and
   [park_wake] is created in-module with length 1. *)

let[@inline] crash_due st = st.events >= st.crash_after

(* The direct handoff (see the header): run the next due event. Every call
   that resumes, kills or hands off below is a tail call, which keeps the
   chain at constant stack depth. Returns to [drive] only when nothing is
   due before [st.until] (unconditionally once crashed: the drain that
   kills every parked fiber must not stop at an epoch bound). *)
let rec handoff st =
  let h = st.heap in
  if h.Heap.len > 0 && (st.crashed || Heap.min_time h < st.until) then begin
    Array.unsafe_set st.next_wake 0 (Heap.min_time h);
    run_event st (Heap.pop_min h)
  end

(* Run the event of fiber [tid], due at [next_wake.(0)] (a float argument
   would be boxed). *)
and run_event st tid =
  let time = Array.unsafe_get st.next_wake 0 in
  let w = Array.unsafe_get st.waiters tid in
  (* a [Start] is taken out of its slot; [Cont_slot] stays put *)
  (match w with
  | Cont_slot -> ()
  | Start _ -> Array.unsafe_set st.waiters tid Cont_slot);
  if st.crashed then kill st tid w
  else begin
    Array.unsafe_set st.clock 0 time;
    if crash_due st then begin
      st.crashed <- true;
      kill st tid w
    end
    else begin
      st.current_tid <- tid;
      if st.tracing then
        Obs.Trace.emit ~ts:time ~tid ~kind:Obs.Trace.k_resume ~arg:0 ~farg:0.0;
      match w with
      | Cont_slot -> Effect.Deep.continue (Array.unsafe_get st.conts tid) ()
      | Start f -> f ()
    end
  end

(* The killed fiber's [exnc] hands off; one that never ran does here. *)
and kill st tid = function
  | Cont_slot -> Effect.Deep.discontinue (Array.unsafe_get st.conts tid) Crashed
  | Start _ -> handoff st

(* Advance virtual time past the op whose latency the machine just wrote to
   [st.latency.(0)]: bump the clock in place when this fiber would wake
   strictly before every parked one, yield through the heap ([Park]) when it
   would not. Raises [Crashed] (unwinding the calling fiber) when the crash
   point fires. Inlined into each primitive, so its hit path is one
   straight run of code. *)
let[@inline] inline_settle st =
  st.events <- st.events + 1;
  if st.crashed || crash_due st then begin
    st.crashed <- true;
    raise Crashed
  end;
  let wake = Array.unsafe_get st.clock 0 +. Array.unsafe_get st.latency 0 in
  if
    wake < st.until && (st.heap.Heap.len = 0 || wake < Heap.min_time st.heap)
  then Array.unsafe_set st.clock 0 wake
  else begin
    Array.unsafe_set st.park_wake 0 wake;
    Effect.perform Park
  end

(* One inline body per primitive: the machine op on the run state, then
   [inline_settle]. The domain-local wrappers and the port hit paths below
   both expand it. *)
let[@inline] read_in st a =
  let v = st.machine.read ~tid:st.current_tid a in
  inline_settle st;
  v

let[@inline] write_in st a v =
  st.machine.write ~tid:st.current_tid a v;
  inline_settle st

let[@inline] cas_in st a expected desired =
  let ok = st.machine.cas ~tid:st.current_tid a expected desired in
  inline_settle st;
  ok

let[@inline] flush_in st a =
  st.machine.flush ~tid:st.current_tid a;
  inline_settle st

let[@inline] fence_in st =
  st.machine.fence ~tid:st.current_tid;
  inline_settle st

let[@inline] charge_in st ns =
  Array.unsafe_set st.latency 0 ns;
  inline_settle st

(* Each primitive on a looked-up run state; outside a run, the named
   error. *)
let outside_run () = invalid_arg "Sched: primitive issued outside a run"

let[@inline] read_on cur a =
  match cur with Some st -> read_in st a | None -> outside_run ()

let[@inline] write_on cur a v =
  match cur with Some st -> write_in st a v | None -> outside_run ()

let[@inline] cas_on cur a expected desired =
  match cur with
  | Some st -> cas_in st a expected desired
  | None -> outside_run ()

let[@inline] flush_on cur a =
  match cur with Some st -> flush_in st a | None -> outside_run ()

let[@inline] fence_on cur =
  match cur with Some st -> fence_in st | None -> outside_run ()

let[@inline] charge_on cur ns =
  match cur with Some st -> charge_in st ns | None -> outside_run ()

let[@inline] self_on cur =
  match cur with Some st -> st.current_tid | None -> outside_run ()

(* Primitive wrappers, through the domain-local slot. *)
let read a = read_on (Domain.DLS.get current_key) a
let write a v = write_on (Domain.DLS.get current_key) a v
let cas a ~expected ~desired = cas_on (Domain.DLS.get current_key) a expected desired
let flush a = flush_on (Domain.DLS.get current_key) a
let fence () = fence_on (Domain.DLS.get current_key)
let charge ns = charge_on (Domain.DLS.get current_key) ns

(* [now] charges nothing and never yields, so it is a pure state read. It
   is inlined, so the caller gets the clock unboxed. *)
let[@inline] now () =
  match Domain.DLS.get current_key with
  | Some st -> Array.unsafe_get st.clock 0
  | None -> outside_run ()

let self () = self_on (Domain.DLS.get current_key)

let yield () = charge 15.0

(* Ports: the same primitives without the domain-local lookup. A port
   caches the run state that last used it; the cached state is current
   exactly while its [live] flag is set, so a hit goes straight to
   [st.machine] and [inline_settle]. A miss (a new run, a nested drive, no
   run at all) refreshes the port from the domain-local slot and does what
   the wrapper above does; a finished run's state stays reachable from its
   ports until then. The hit paths are inlined into the
   caller (so [charge]'s float is never boxed), the misses are not. *)
type port = { mutable cur : run_state option }

module Port = struct
  type t = port

  let create () = { cur = None }

  (* A miss looks the run state up once, caches it, and dispatches on it
     exactly as the domain-local wrapper would. *)
  let refresh p =
    let cur = Domain.DLS.get current_key in
    p.cur <- cur;
    cur

  let[@inline never] read_miss p a = read_on (refresh p) a
  let[@inline never] write_miss p a v = write_on (refresh p) a v
  let[@inline never] cas_miss p a expected desired = cas_on (refresh p) a expected desired
  let[@inline never] flush_miss p a = flush_on (refresh p) a
  let[@inline never] fence_miss p = fence_on (refresh p)
  let[@inline never] charge_miss p ns = charge_on (refresh p) ns
  let[@inline never] self_miss p = self_on (refresh p)

  let[@inline] read p a =
    match p.cur with
    | Some st when st.live -> read_in st a
    | _ -> read_miss p a

  let[@inline] write p a v =
    match p.cur with
    | Some st when st.live -> write_in st a v
    | _ -> write_miss p a v

  let[@inline] cas p a ~expected ~desired =
    match p.cur with
    | Some st when st.live -> cas_in st a expected desired
    | _ -> cas_miss p a expected desired

  let[@inline] flush p a =
    match p.cur with
    | Some st when st.live -> flush_in st a
    | _ -> flush_miss p a

  let[@inline] fence p =
    match p.cur with
    | Some st when st.live -> fence_in st
    | _ -> fence_miss p

  let[@inline] charge p ns =
    match p.cur with
    | Some st when st.live -> charge_in st ns
    | _ -> charge_miss p ns

  let yield p = charge p 15.0

  let[@inline] self p =
    match p.cur with
    | Some st when st.live -> st.current_tid
    | _ -> self_miss p
end

(* An epoch-bounded scheduling session: the same run state as [run], but
   driven in externally-controlled slices ([step ~until]) instead of one
   shot. Fibers whose next wake-up lies at or beyond the current bound park
   through the heap and stay there until a later step (or [finish]) covers
   their wake-up time, so a session's event order is the concatenation of
   its steps' event orders — identical to one unbounded run over the same
   bodies. This is what lets a service engine interleave many independent
   schedulers round-robin on one domain, or pin them to parallel domains,
   with bit-identical results (see Svc.Domains). *)
type session = { st : run_state; fibers : int; mutable outcome : outcome option }

let open_session ?(crash = No_crash) ~(machine : machine) bodies =
  if Array.length machine.clock = 0 || Array.length machine.latency = 0 then
    invalid_arg "Sched.run: machine.clock and machine.latency need a cell 0";
  let max_tid =
    List.fold_left
      (fun m (tid, _) ->
        if tid < 0 then invalid_arg "Sched.run: negative tid";
        Int.max m tid)
      (-1) bodies
  in
  let st =
    {
      machine;
      clock = machine.clock;
      latency = machine.latency;
      heap = Heap.create ();
      waiters = Array.make (max_tid + 1) Cont_slot;
      conts = [||];
      park_wake = Array.make 1 0.0;
      next_wake = Array.make 1 0.0;
      crash_after = (match crash with No_crash -> max_int | After_events n -> n);
      until = infinity;
      events = 0;
      seq = 0;
      crashed = false;
      current_tid = -1;
      finished = 0;
      tracing = Obs.Trace.enabled ();
      live = false;
    }
  in
  st.clock.(0) <- 0.0;
  let trace_park time tid =
    Obs.Trace.emit
      ~ts:(Array.unsafe_get st.clock 0)
      ~tid ~kind:Obs.Trace.k_park ~arg:0 ~farg:time
  in
  (* A [Park], whose op already ran inline, then the handoff: the wake-up
     time comes from the [park_wake] cell (a float argument to this closure
     would be boxed), the waiter slot is already [Cont_slot] (every resume
     leaves it so), and the continuation goes into [conts] unboxed. When the
     heap's minimum is due and orders before this entry, the push and the
     handoff's pop are one sift ([Heap.replace_min]). *)
  let park_cont tid k =
    let time = Array.unsafe_get st.park_wake 0 in
    if st.tracing then trace_park time tid;
    if Array.length st.conts = 0 then st.conts <- Array.make (max_tid + 1) k
    else Array.unsafe_set st.conts tid k;
    st.seq <- st.seq + 1;
    let h = st.heap in
    if h.Heap.len > 0 && Heap.min_time h <= time && Heap.min_time h < st.until
    then begin
      Array.unsafe_set st.next_wake 0 (Heap.min_time h);
      run_event st (Heap.replace_min h time st.seq tid)
    end
    else begin
      Heap.push h time st.seq tid;
      handoff st
    end
  in
  (* The handler needs the fiber's tid, so fibers are launched through a
     per-tid [match_with] below rather than via a shared handler value. *)
  let launch (tid, body) =
    let open Effect.Deep in
    (* [Park] is the only effect a run performs, once per genuine yield; its
       handler is built once per fiber here instead of allocating a fresh
       closure (and [Some]) on every park. *)
    let some_on_park =
      Some (fun (k : (unit, unit) continuation) -> park_cont tid k)
    in
    let effc : type a. a Effect.t -> ((a, unit) continuation -> unit) option =
      function Park -> some_on_park | _ -> None
    in
    let start () =
      match_with
        (fun () -> body ~tid)
        ()
        {
          retc =
            (fun () ->
              if st.tracing then
                Obs.Trace.emit
                  ~ts:(Array.unsafe_get st.clock 0)
                  ~tid ~kind:Obs.Trace.k_fiber_done ~arg:0 ~farg:0.0;
              st.finished <- st.finished + 1;
              handoff st);
          exnc =
            (fun e ->
              match e with
              | Crashed ->
                  if st.tracing then
                    Obs.Trace.emit
                      ~ts:(Array.unsafe_get st.clock 0)
                      ~tid ~kind:Obs.Trace.k_fiber_crash ~arg:0 ~farg:0.0;
                  st.finished <- st.finished + 1;
                  handoff st
              | e -> raise e);
          effc;
        }
    in
    (match st.waiters.(tid) with
    | Cont_slot -> ()
    | Start _ -> invalid_arg "Sched.run: duplicate tid");
    (* Threads begin at staggered times so identical op streams don't move in
       lock-step. *)
    let time = 0.1 *. float_of_int tid in
    if st.tracing then trace_park time tid;
    st.waiters.(tid) <- Start start;
    st.seq <- st.seq + 1;
    Heap.push st.heap time st.seq tid
  in
  List.iter launch bodies;
  { st; fibers = List.length bodies; outcome = None }

(* Start the handoff chain and get control back once nothing is due before
   [st.until]. The DLS slot is set for the duration of each drive, so
   sessions from many schedulers can interleave on one domain — or run
   pinned to parallel domains — without sharing any state. *)
let drive st =
  st.tracing <- Obs.Trace.enabled ();
  let saved = Domain.DLS.get current_key in
  (* a drive nested in one of [saved]'s fibers: [saved] stops being the
     current run state until this drive returns *)
  let set_live live = match saved with Some o -> o.live <- live | None -> () in
  set_live false;
  Domain.DLS.set current_key (Some st);
  st.live <- true;
  Fun.protect
    ~finally:(fun () ->
      st.live <- false;
      Domain.DLS.set current_key saved;
      set_live true)
    (fun () -> handoff st)

let step s ~until =
  (match s.outcome with
  | Some _ -> invalid_arg "Sched.step: session already finished"
  | None -> ());
  s.st.until <- until;
  drive s.st

let finish s =
  match s.outcome with
  | Some o -> o
  | None ->
      let st = s.st in
      st.until <- infinity;
      drive st;
      let o =
        if st.crashed then
          Crashed_at { time = st.clock.(0); events = st.events }
        else begin
          if st.finished <> s.fibers then
            failwith
              (Printf.sprintf
                 "Sched.run: %d of %d fibers never finished (hung fiber: the \
                  event queue drained while a continuation was still \
                  suspended)"
                 (s.fibers - st.finished) s.fibers);
          Completed { time = st.clock.(0); events = st.events; fibers = s.fibers }
        end
      in
      s.outcome <- Some o;
      o

let run ?crash ~machine bodies = finish (open_session ?crash ~machine bodies)
