(* Deterministic observability: id-indexed counters with per-fiber rows,
   and an event-trace ring buffer with a Chrome trace_event exporter.

   Counters are host-side only — bumping one never reads or advances
   simulated state — so enabling/disabling observability cannot change
   simulated results. All event timestamps are virtual ns supplied by the
   caller, which is what makes exported traces byte-identical for a fixed
   seed.

   All mutable state here is domain-local (Domain.DLS): each OCaml domain
   owns its own counter rows and trace ring, so independent simulations can
   run on parallel domains (Sim.Pool) without sharing — or racing on — any
   observability state. A pool worker accumulates counters into its own
   domain's rows; the pool merges per-job deltas back into the caller's
   domain in job order, so totals match a sequential run exactly
   ({!snapshot} / {!add_delta}). *)

(* ---- counter ids --------------------------------------------------------- *)

let id_flush = 0
let id_dirty_flush = 1
let id_fence = 2
let id_pmem_cas = 3
let id_pmem_cas_fail = 4
let id_cas = 5
let id_cas_fail = 6
let id_restart = 7
let id_epoch_repair = 8
let id_retired = 9
let id_tower_repair = 10
let id_help = 11
let id_split = 12
let id_alloc = 13
let id_free = 14
let id_chunk = 15
let id_svc_enqueue = 16
let id_svc_shed = 17
let id_svc_batch = 18
let id_svc_group_flush = 19
let id_load_miss = 20
let id_store_miss = 21
let id_prefetch = 22
let id_prefetch_miss = 23
let id_detect_announce = 24
let id_detect_resolve = 25
let id_detect_recover = 26
let id_svc_replay = 27
let id_svc_dup_suppress = 28
let id_fp_match = 29
let id_fp_false_positive = 30
let id_hint_stop = 31
let id_hint_stale = 32
let id_fp_confirm = 33
let id_split_tail = 34
let n_ids = 35

(* Counters nothing bumps any more share the retired slot, which stays 0:
   [perf/] still reads them. *)
let id_split_repair = id_retired
let id_finger_hit = id_retired
let id_finger_invalid = id_retired

let names =
  [|
    "flushes";
    "dirty_flushes";
    "fences";
    "pmem_cas";
    "pmem_cas_failures";
    "sl_cas";
    "sl_cas_failures";
    "restarts";
    "epoch_repairs";
    "retired";
    "tower_repairs";
    "helps";
    "splits";
    "alloc_blocks";
    "free_blocks";
    "chunk_provisions";
    "svc_enqueued";
    "svc_shed";
    "svc_batches";
    "svc_group_flushes";
    "load_misses";
    "store_misses";
    "prefetches";
    "prefetch_misses";
    "detect_announces";
    "detect_resolves";
    "detect_recovered";
    "svc_replays";
    "svc_dup_suppressed";
    "fp_matches";
    "fp_false_positives";
    "hint_stops";
    "hint_stale";
    "fp_confirms";
    "split_tails";
  |]

let id_name id =
  if id < 0 || id >= n_ids then invalid_arg "Obs.id_name: bad id"
  else names.(id)

(* ---- per-fiber counter rows ---------------------------------------------- *)

(* One rows table per domain. The ref cell is created once per domain, so
   the hot path pays one DLS lookup plus the former ref dereference. *)
let rows_key : int array array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

let row_for tid =
  let rows = Domain.DLS.get rows_key in
  let r = !rows in
  let n = Array.length r in
  if tid < n then Array.unsafe_get r tid
  else begin
    let n' = max (tid + 1) (max 8 (2 * n)) in
    let r' = Array.make n' [||] in
    Array.blit r 0 r' 0 n;
    for i = n to n' - 1 do
      r'.(i) <- Array.make n_ids 0
    done;
    rows := r';
    r'.(tid)
  end

let bump ~tid id =
  let row = row_for tid in
  Array.unsafe_set row id (Array.unsafe_get row id + 1)

let counter ~tid id =
  let r = !(Domain.DLS.get rows_key) in
  if tid < Array.length r then r.(tid).(id) else 0

let read_row ~tid ~into =
  let r = !(Domain.DLS.get rows_key) in
  if tid < Array.length r then Array.blit r.(tid) 0 into 0 n_ids
  else Array.fill into 0 n_ids 0

let total id =
  Array.fold_left (fun acc row -> acc + row.(id)) 0 !(Domain.DLS.get rows_key)

let totals () =
  let t = Array.make n_ids 0 in
  Array.iter
    (fun row ->
      for id = 0 to n_ids - 1 do
        t.(id) <- t.(id) + row.(id)
      done)
    !(Domain.DLS.get rows_key)
  ;
  t

let reset () =
  Array.iter (fun row -> Array.fill row 0 n_ids 0) !(Domain.DLS.get rows_key)

(* ---- cross-domain merging (Sim.Pool) ------------------------------------- *)

let snapshot () = Array.map Array.copy !(Domain.DLS.get rows_key)

let add_delta ~before ~after =
  Array.iteri
    (fun tid row_after ->
      let row_before = if tid < Array.length before then before.(tid) else [||] in
      let has_before = Array.length row_before = n_ids in
      for id = 0 to n_ids - 1 do
        let d =
          row_after.(id) - (if has_before then row_before.(id) else 0)
        in
        if d <> 0 then begin
          let row = row_for tid in
          row.(id) <- row.(id) + d
        end
      done)
    after

(* ---- request spans ------------------------------------------------------- *)

module Span = struct
  (* Request-scoped latency decomposition for the service layer. A span is
     a finished request: its identity, end-to-end latency, and the measured
     duration of each pipeline phase. Phases are boundary-timestamp
     differences, so they telescope to the end-to-end latency by
     construction; the collector tracks the worst float residual anyway and
     counts any that exceed 1e-6 ns (pure last-ulp noise is ~1e-10 ns at
     these magnitudes, so a violation means a real instrumentation bug). *)

  let ph_hop = 0
  let ph_queue = 1
  let ph_batch = 2
  let ph_exec = 3
  let ph_commit = 4
  let n_phases = 5

  let phase_name = function
    | 0 -> "hop"
    | 1 -> "queue"
    | 2 -> "batch"
    | 3 -> "exec"
    | 4 -> "commit"
    | _ -> invalid_arg "Obs.Span.phase_name"

  (* Span ids derive from (client, per-client request index) only — never
     from wall clock or allocation order — so identical seeds give
     identical ids. *)
  let id ~client ~seq = (client lsl 24) lor (seq land 0xFFFFFF)

  type t = {
    sp_id : int;
    sp_client : int;
    sp_seq : int;
    sp_shard : int;
    sp_op : int;
    sp_arrival : float;
    sp_lat : float;
    sp_phase : float array;
    sp_fence : float;
    sp_recovery : float;
    sp_replay : int;
    sp_flushes : int;
    sp_fences : int;
    sp_load_misses : int;
  }

  let phase_sum sp =
    (* fixed left-to-right fold: the residual check depends on a stable
       summation order *)
    let s = ref 0.0 in
    for i = 0 to n_phases - 1 do
      s := !s +. sp.sp_phase.(i)
    done;
    !s

  let residual sp = Float.abs (phase_sum sp -. sp.sp_lat)

  type collector = {
    top_cap : int;
    sample_cap : int;
    mutable rng : int64;
    mutable n_recorded : int;
    mutable heap : t array; (* min-heap on (lat, id); [0, heap_len) live *)
    mutable heap_len : int;
    mutable sample : t array; (* reservoir; [0, sample_len) live *)
    mutable sample_len : int;
    phase_sum_all : float array;
    mutable lat_sum : float;
    mutable fence_sum : float;
    mutable recovery_sum : float;
    mutable residual_max : float;
    mutable residual_violations : int;
  }

  let create ?(top = 1024) ?(sample = 512) ~seed () =
    {
      top_cap = max 0 top;
      sample_cap = max 0 sample;
      rng = Int64.of_int seed;
      n_recorded = 0;
      heap = [||];
      heap_len = 0;
      sample = [||];
      sample_len = 0;
      phase_sum_all = Array.make n_phases 0.0;
      lat_sum = 0.0;
      fence_sum = 0.0;
      recovery_sum = 0.0;
      residual_max = 0.0;
      residual_violations = 0;
    }

  (* splitmix64: a fixed, platform-independent generator so the reservoir
     is byte-identical for a given seed regardless of OCaml's Random *)
  let next_rand c =
    c.rng <- Int64.add c.rng 0x9E3779B97F4A7C15L;
    let z = c.rng in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let rand_below c n =
    Int64.to_int (Int64.rem (Int64.logand (next_rand c) Int64.max_int)
                    (Int64.of_int n))

  (* total order on spans: latency, ties broken by id so equal latencies
     cannot make top-K membership depend on arrival order races (there are
     none, but the tie-break keeps the contract obvious) *)
  let slower a b =
    a.sp_lat > b.sp_lat || (a.sp_lat = b.sp_lat && a.sp_id > b.sp_id)

  let heap_swap c i j =
    let t = c.heap.(i) in
    c.heap.(i) <- c.heap.(j);
    c.heap.(j) <- t

  let rec sift_up c i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      if slower c.heap.(p) c.heap.(i) then begin
        heap_swap c i p;
        sift_up c p
      end
    end

  let rec sift_down c i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let m = ref i in
    if l < c.heap_len && slower c.heap.(!m) c.heap.(l) then m := l;
    if r < c.heap_len && slower c.heap.(!m) c.heap.(r) then m := r;
    if !m <> i then begin
      heap_swap c i !m;
      sift_down c !m
    end

  let record c sp =
    c.n_recorded <- c.n_recorded + 1;
    for i = 0 to n_phases - 1 do
      c.phase_sum_all.(i) <- c.phase_sum_all.(i) +. sp.sp_phase.(i)
    done;
    c.lat_sum <- c.lat_sum +. sp.sp_lat;
    c.fence_sum <- c.fence_sum +. sp.sp_fence;
    c.recovery_sum <- c.recovery_sum +. sp.sp_recovery;
    let r = residual sp in
    if r > c.residual_max then c.residual_max <- r;
    if r > 1e-6 then c.residual_violations <- c.residual_violations + 1;
    if c.top_cap > 0 then begin
      if Array.length c.heap = 0 then c.heap <- Array.make c.top_cap sp;
      if c.heap_len < c.top_cap then begin
        c.heap.(c.heap_len) <- sp;
        c.heap_len <- c.heap_len + 1;
        sift_up c (c.heap_len - 1)
      end
      else if slower sp c.heap.(0) then begin
        c.heap.(0) <- sp;
        sift_down c 0
      end
    end;
    if c.sample_cap > 0 then begin
      if Array.length c.sample = 0 then c.sample <- Array.make c.sample_cap sp;
      if c.sample_len < c.sample_cap then begin
        c.sample.(c.sample_len) <- sp;
        c.sample_len <- c.sample_len + 1
      end
      else begin
        (* algorithm R: keep each of the n seen so far with prob cap/n *)
        let j = rand_below c c.n_recorded in
        if j < c.sample_cap then c.sample.(j) <- sp
      end
    end

  let count c = c.n_recorded
  let phase_totals c = Array.copy c.phase_sum_all
  let lat_total c = c.lat_sum
  let fence_total c = c.fence_sum
  let recovery_total c = c.recovery_sum
  let residual_max c = c.residual_max
  let residual_violations c = c.residual_violations

  let tops c =
    let a = Array.sub c.heap 0 c.heap_len in
    Array.sort (fun x y -> if slower x y then -1 else if slower y x then 1 else 0) a;
    Array.to_list a

  let sampled c =
    let a = Array.sub c.sample 0 c.sample_len in
    Array.sort (fun x y -> compare x.sp_id y.sp_id) a;
    Array.to_list a
end

(* ---- event trace --------------------------------------------------------- *)

module Trace = struct
  let k_resume = n_ids
  let k_park = n_ids + 1
  let k_fiber_done = n_ids + 2
  let k_fiber_crash = n_ids + 3
  let k_op_begin = n_ids + 4
  let k_op_end = n_ids + 5
  let k_req_phase = n_ids + 6

  (* ring storage: parallel flat arrays, drop-oldest on overflow; one ring
     per domain, like the counter rows *)
  type state = {
    mutable on : bool;
    mutable cap : int;
    mutable ts_buf : float array;
    mutable tid_buf : int array;
    mutable kind_buf : int array;
    mutable arg_buf : int array;
    mutable farg_buf : float array;
    mutable total_emitted : int;
  }

  let state_key : state Domain.DLS.key =
    Domain.DLS.new_key (fun () ->
        {
          on = false;
          cap = 0;
          ts_buf = [||];
          tid_buf = [||];
          kind_buf = [||];
          arg_buf = [||];
          farg_buf = [||];
          total_emitted = 0;
        })

  let enabled () = (Domain.DLS.get state_key).on

  let clear () =
    let s = Domain.DLS.get state_key in
    s.total_emitted <- 0;
    if s.cap > 0 then Array.fill s.ts_buf 0 s.cap 0.0

  let start ?(capacity = 65536) () =
    let s = Domain.DLS.get state_key in
    let capacity = max 1 capacity in
    if capacity <> s.cap then begin
      s.cap <- capacity;
      s.ts_buf <- Array.make capacity 0.0;
      s.tid_buf <- Array.make capacity 0;
      s.kind_buf <- Array.make capacity 0;
      s.arg_buf <- Array.make capacity 0;
      s.farg_buf <- Array.make capacity 0.0
    end;
    s.total_emitted <- 0;
    s.on <- true

  let stop () = (Domain.DLS.get state_key).on <- false

  let emit ~ts ~tid ~kind ~arg ~farg =
    let s = Domain.DLS.get state_key in
    let c = s.cap in
    if c > 0 then begin
      let i = s.total_emitted mod c in
      Array.unsafe_set s.ts_buf i ts;
      Array.unsafe_set s.tid_buf i tid;
      Array.unsafe_set s.kind_buf i kind;
      Array.unsafe_set s.arg_buf i arg;
      Array.unsafe_set s.farg_buf i farg;
      s.total_emitted <- s.total_emitted + 1
    end

  let recorded () =
    let s = Domain.DLS.get state_key in
    min s.total_emitted s.cap

  let dropped () =
    let s = Domain.DLS.get state_key in
    max 0 (s.total_emitted - s.cap)

  let total_emitted () = (Domain.DLS.get state_key).total_emitted

  (* index of the i-th oldest retained event, i in [0, recorded) *)
  let slot s i =
    let c = s.cap in
    if s.total_emitted <= c then i else (s.total_emitted + i) mod c

  let iter_retained f =
    let s = Domain.DLS.get state_key in
    for i = 0 to min s.total_emitted s.cap - 1 do
      let sl = slot s i in
      f ~ts:s.ts_buf.(sl) ~tid:s.tid_buf.(sl) ~kind:s.kind_buf.(sl)
        ~arg:s.arg_buf.(sl) ~farg:s.farg_buf.(sl)
    done

  let kind_label = function
    | k when k = id_flush -> "flush"
    | k when k = id_dirty_flush -> "flush+wb"
    | k when k = id_fence -> "fence"
    | k when k = id_pmem_cas -> "cas"
    | k when k = id_pmem_cas_fail -> "cas-fail"
    | k when k = id_restart -> "restart"
    | k when k = id_epoch_repair -> "epoch-repair"
    | k when k = id_tower_repair -> "tower-repair"
    | k when k = id_help -> "help"
    | k when k = id_split -> "split"
    | k when k = id_alloc -> "alloc"
    | k when k = id_free -> "free"
    | k when k = id_chunk -> "chunk"
    | k when k = id_svc_enqueue -> "svc-enqueue"
    | k when k = id_svc_shed -> "svc-shed"
    | k when k = id_svc_batch -> "svc-batch"
    | k when k = id_svc_group_flush -> "svc-group-flush"
    | k when k = id_load_miss -> "load-miss"
    | k when k = id_store_miss -> "store-miss"
    | k when k = k_resume -> "resume"
    | k when k = k_park -> "park"
    | k when k = k_fiber_done -> "done"
    | k when k = k_fiber_crash -> "crashed"
    | _ -> "event"

  let op_label = function
    | 0 -> "read"
    | 1 -> "update"
    | 2 -> "insert"
    | 3 -> "scan"
    | _ -> "op"

  (* Chrome trace_event "ts"/"dur" are microseconds; our clock is virtual
     ns, so divide by 1000 and keep 6 decimals (sub-ns resolution). *)
  let us v = Json.Fixed (6, v /. 1000.0)

  let to_chrome ?(counter_tracks = []) () =
    let s = Domain.DLS.get state_key in
    let n = recorded () in
    let events = ref [] in
    let add fields = events := Json.Obj fields :: !events in
    let pid = ("pid", Json.int 0) in
    (* one named track per fiber, in tid order *)
    let max_tid = ref (-1) in
    for i = 0 to n - 1 do
      let tid = s.tid_buf.(slot s i) in
      if tid > !max_tid then max_tid := tid
    done;
    let seen = Array.make (!max_tid + 2) false in
    for i = 0 to n - 1 do
      seen.(s.tid_buf.(slot s i)) <- true
    done;
    Array.iteri
      (fun tid present ->
        if present then
          add
            [
              ("ph", Json.Str "M"); pid; ("tid", Json.int tid);
              ("name", Json.Str "thread_name");
              ("args", Json.Obj [ ("name", Json.Str (Printf.sprintf "fiber %d" tid)) ]);
            ])
      seen;
    (* windowed time-series as Chrome counter tracks ("C" events) *)
    List.iter
      (fun (name, series) ->
        List.iter
          (fun (ts, v) ->
            add
              [
                ("ph", Json.Str "C"); pid; ("name", Json.Str name); ("ts", us ts);
                ("args", Json.Obj [ ("value", Json.Fixed (3, v)) ]);
              ])
          series)
      counter_tracks;
    (* op_begin/op_end pair into one "X" slice per fiber (ops never nest) *)
    let open_ts = Array.make (!max_tid + 2) nan in
    let open_op = Array.make (!max_tid + 2) 0 in
    for i = 0 to n - 1 do
      let sl = slot s i in
      let ts = s.ts_buf.(sl)
      and tid = s.tid_buf.(sl)
      and kind = s.kind_buf.(sl)
      and arg = s.arg_buf.(sl)
      and farg = s.farg_buf.(sl) in
      let on_fiber ph = [ ("ph", Json.Str ph); pid; ("tid", Json.int tid) ] in
      if kind = k_op_begin then begin
        open_ts.(tid) <- ts;
        open_op.(tid) <- arg
      end
      else if kind = k_op_end then begin
        (* a begin lost to ring overflow leaves nothing to pair with *)
        if not (Float.is_nan open_ts.(tid)) then begin
          add
            (on_fiber "X"
            @ [
                ("ts", us open_ts.(tid)); ("dur", us (ts -. open_ts.(tid)));
                ("name", Json.Str (op_label open_op.(tid)));
              ]);
          open_ts.(tid) <- nan
        end
      end
      else if kind = k_req_phase then begin
        (* request phase: arg = span_id*8 + phase, ts the phase start, farg
           its duration — rendered as an async begin/end pair keyed by the
           span id so viewers stack one lane per in-flight request *)
        let phase = arg land 7 and span_id = arg asr 3 in
        let name = Span.phase_name (min phase (Span.n_phases - 1)) in
        let async ph at =
          add
            [
              ("ph", Json.Str ph); ("cat", Json.Str "req");
              ("id", Json.Str (Printf.sprintf "0x%x" span_id)); pid;
              ("tid", Json.int tid); ("name", Json.Str name); ("ts", us at);
            ]
        in
        async "b" ts;
        async "e" (ts +. farg)
      end
      else if kind <= id_pmem_cas_fail then
        (* PMEM primitive: ts is the op start, farg its latency *)
        add
          (on_fiber "X"
          @ [
              ("ts", us ts); ("dur", us farg); ("name", Json.Str (kind_label kind));
              ("args", Json.Obj [ ("addr", Json.int arg) ]);
            ])
      else
        add
          (on_fiber "i"
          @ [ ("ts", us ts); ("s", Json.Str "t"); ("name", Json.Str (kind_label kind)) ]
          @
          if kind = k_park then [ ("args", Json.Obj [ ("wake_us", us farg) ]) ]
          else if arg <> 0 then [ ("args", Json.Obj [ ("arg", Json.int arg) ]) ]
          else [])
    done;
    Json.Schema.doc Json.Schema.obs_trace
      [
        ("displayTimeUnit", Json.Str "ns");
        ("traceEvents", Json.List (List.rev !events));
        ("droppedEvents", Json.int (dropped ()));
      ]
end
