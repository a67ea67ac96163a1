(* The service engine: one scheduler (and one Pmem) per shard, stepped in
   exchange epochs.

   The run is split into hermetic *stations*:

   - station 0, the frontend: every client fiber plus one scan-aggregator
     fiber, on a machine whose PMEM ops reject (clients only charge time);
   - stations 1..shards: one per shard — the worker fiber (tid = shard, so
     Pmem's tid pinning is unchanged) and a queue-depth sampler fiber — on
     the shard's own Kv machine.

   Virtual time is cut into exchange epochs of cfg.exchange_ns. Every round
   [r], each station steps its own scheduler session up to (r+1)*epoch
   (Sched.step); then, with all stations at rest, the coordinator moves
   the per-pair mailboxes in a fixed order: frontend→shard request outboxes
   into the shards' inboxes, and shard→frontend scan results into the
   frontend's inbox. Messages published during round [r] become visible at
   the start of round [r+1]; no station ever reads another station's state
   outside the exchange. A client sends at its send instant with the
   request stamped [deliver = t_send + hop]; the receiving shard admits it
   (bounded-queue push or shed) at [max deliver boundary], where boundary
   is the start of the round that received it. No fiber polls: an idle
   worker sleeps to its next admission or the next boundary, and the idle
   aggregator to the next boundary, the only instants their input can
   change. Stations therefore compute
   identical results whether their steps run round-robin on one domain
   (domains <= 1) or pinned to parallel domains with a barrier around the
   exchange (Pool.run_phased) — which is what the @svc/domains runtest gate
   byte-checks.

   Everything a station accumulates (latency histograms, span collectors,
   per-window accumulators, depth samples, per-client ledgers) is
   station-local and merged on the coordinator in station order after the
   run; histogram and counter merges are exact, so the merged report is
   identical across modes. A traced run keeps every station on the calling
   domain (Pool.run_phased's rule), so its trace is the sequential one.

   Cross-shard scan fan-out resolves on the frontend: a shard acks its part
   locally and mails the rows back; the aggregator fiber merges them and
   charges the merge cost on the frontend's clock. A mid-run shard power
   failure is handled entirely inside the owning station (crash, reconnect,
   recover, detect-mode replay), possibly spanning several epochs, while
   every other station keeps serving; only the round-granular
   completed-in-outage attribution is the coordinator's: at exchange time it
   captures every shard's completion count just before the outage's first
   round and again at the end of the round the recovery ended in. *)

module H = Sim.Histogram
module Kv = Harness.Kv
module Driver = Harness.Driver

(* Simulated service costs (ns): request parse/dispatch, the fixed cost of
   a worker batch, the scan fan-out reduce per merged row, and a
   client→shard network hop within a zone and across zones; then the
   monitor's queue-depth sampling interval. *)
let req_overhead_ns = 50.0
let batch_overhead_ns = 150.0
let merge_ns_per_item = 5.0
let net_local_ns = 300.0
let net_remote_ns = 900.0
let sample_ns = 50_000.0

type scan_ctx = {
  sc_arrival : float;
  mutable sc_remaining : int;
  mutable sc_failed : bool;
  mutable sc_parts : (int * int) list list;
}

(* Per-request span scratchpad (only allocated when cfg.spans): boundary
   timestamps written as the request moves through the pipeline, plus the
   per-fiber counter values bracketing its own structure operation. All
   writes are host-side — recording spans never charges simulated time, so
   a run with spans on is simulation-identical to the same run with them
   off. [c_enq] is the admission instant [max deliver boundary], so the hop
   phase is the network hop, plus the rest of the send round when the hop
   ends inside it. *)
type sp_cell = {
  c_client : int;
  c_seq : int; (* per-client request index *)
  c_op : int; (* 0 read, 1 upsert *)
  mutable c_enq : float;
  mutable c_pop : float;
  mutable c_exec0 : float;
  mutable c_exec1 : float;
  mutable c_fence : float; (* group-commit fence duration, upserts *)
  mutable c_flush0 : int;
  mutable c_fence0 : int;
  mutable c_miss0 : int;
  mutable c_flushes : int;
  mutable c_fences : int;
  mutable c_misses : int;
  mutable c_replay : int; (* 0 normal, 1 replayed, 2 duplicate-suppressed *)
}

type req =
  | R_read of int
  | R_upsert of int * int
  | R_scan_part of scan_ctx * int * int

type entry = {
  arrival : float;
  deliver : float; (* arrival + network hop: when the request reaches the shard *)
  req : req;
  client : int;
  dseq : int; (* per-client descriptor sequence number; -1 for reads/scans *)
  cell : sp_cell option;
}

(* shard -> frontend: one resolved scan part (rows, or a failure from a
   shed or crash-lost part). The ctx is owned by the frontend; shards only
   carry the pointer back. *)
type up_msg = { um_ctx : scan_ctx; um_failed : bool; um_part : (int * int) list }

(* One accumulator per virtual-time window of the SLO time-series. *)
type wacc = {
  mutable aw_completed : int;
  mutable aw_shed : int;
  mutable aw_fences : int;
  aw_phase : H.t array;
}

(* A shard station. Only its own domain touches anything here during a
   round; the coordinator reads/writes it at exchange time (and after the
   run), with the barrier providing the happens-before edges. *)
type shard_station = {
  sx : int;
  kv : Kv.t;
  q : entry Bqueue.t;
  hist : H.t;  (* per-sub-request latency *)
  s_merged : H.t;  (* client-visible read/upsert latency *)
  mutable enq : int;
  mutable comp : int;
  mutable shed : int;
  mutable lost : int;
  mutable batches : int;
  mutable flushes : int;
  mutable completed : int;  (* client-visible completions *)
  mutable s_crashed : bool;
  mutable down_ns : float;
  mutable down_at : float; (* outage start; meaningful when down_ns > 0 *)
  mutable replay : entry list;
      (* detect mode: stranded requests awaiting re-execution after the
         shard's crash, oldest first (drained before new queue entries so
         per-client announce order stays monotone) *)
  mutable crash_at : float option;  (* armed crash plan *)
  mutable busy : bool;  (* worker parked mid-batch/mid-recovery *)
  s_in : entry Queue.t;  (* inbox, filled at exchange *)
  mutable pending : (float * entry) list;
      (* received, not yet admitted: (admission instant, entry), ascending,
         ties in exchange order *)
  mutable until : float;  (* end of the round being stepped *)
  s_out : up_msg Queue.t;  (* outbox to the frontend *)
  shed_c : int array;
  replayed_c : int array;
  suppressed_c : int array;
  mutable s_replayed : int;
  mutable s_suppressed : int;
  coll : Obs.Span.collector option;
  phase_hists : H.t array;
  mutable wins : wacc array;
  mutable depths : (int * int) list;  (* (sample tick, queue depth), newest first *)
  mutable stop : bool;
  mutable session : Sim.Sched.session option;
  mutable end_ns : float;
}

type frontend = {
  f_out : entry Queue.t array;  (* per destination shard *)
  f_in : up_msg Queue.t;
  f_scan_hist : H.t;
  mutable f_requests : int;
  mutable f_clients_done : int;
  mutable f_pending_scans : int;
  mutable f_completed_scans : int;
  mutable f_failed_scans : int;
  mutable f_stop : bool;
  mutable f_until : float;  (* end of the round being stepped *)
  mutable f_session : Sim.Sched.session option;
  mutable f_end_ns : float;
}

(* Clients and the aggregator never perform a PMEM op; the frontend machine
   exists only to give their session clock/latency cells. *)
let null_machine () =
  let fail () =
    failwith "Svc.Domains: frontend fiber performed a PMEM operation"
  in
  {
    Sim.Sched.read = (fun ~tid:_ _ -> fail ());
    write = (fun ~tid:_ _ _ -> fail ());
    cas = (fun ~tid:_ _ _ _ -> fail ());
    flush = (fun ~tid:_ _ -> fail ());
    fence = (fun ~tid:_ -> fail ());
    clock = [| 0.0 |];
    latency = [| 0.0 |];
  }

(* Shard [s]'s Kv system template: the config's [sys] reseeded with
   [seed + 1000*s] and sized for at least [shards] threads. *)
let shard_sys (cfg : Config.t) s =
  {
    cfg.Config.sys with
    Kv.seed = cfg.Config.sys.Kv.seed + (1000 * s);
    max_threads = max cfg.Config.sys.Kv.max_threads cfg.Config.shards;
  }

(* Each shard preloads its slice of 1..n_initial in its own scheduler run on
   its own machine; Pmem's new-run detection handles the clock reset when
   the service run starts afterwards at time zero. *)
let preload_shard router (cfg : Config.t) kv s =
  let keys = ref [] in
  for k = cfg.Config.n_initial downto 1 do
    if Router.shard_of_key router k = s then keys := k :: !keys
  done;
  let body ~tid =
    List.iter (fun k -> ignore (kv.Kv.upsert ~tid k ((1 lsl 30) + k))) !keys
  in
  (match Sim.Sched.run ~machine:(Kv.machine kv) [ (s, body) ] with
  | Sim.Sched.Completed _ -> ()
  | Sim.Sched.Crashed_at _ -> assert false);
  Pmem.reset_counters kv.Kv.pmem

let new_wacc () =
  {
    aw_completed = 0;
    aw_shed = 0;
    aw_fences = 0;
    aw_phase = Array.init Obs.Span.n_phases (fun _ -> H.create ());
  }

let mk_cell ~spans_on ~client ~seq ~op =
  if spans_on then
    Some
      {
        c_client = client;
        c_seq = seq;
        c_op = op;
        c_enq = 0.0;
        c_pop = 0.0;
        c_exec0 = 0.0;
        c_exec1 = 0.0;
        c_fence = 0.0;
        c_flush0 = 0;
        c_fence0 = 0;
        c_miss0 = 0;
        c_flushes = 0;
        c_fences = 0;
        c_misses = 0;
        c_replay = 0;
      }
  else None

let run ?(domains = 1) (cfg : Config.t) =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error e -> invalid_arg ("Svc.Domains.run: " ^ e));
  let epoch = cfg.exchange_ns in
  let spans_on = cfg.spans in
  let router = Router.create ~shards:cfg.shards ~zones:cfg.zones in
  let detect_clients = if cfg.detect then Some cfg.clients else None in
  let shards =
    Array.init cfg.shards (fun s ->
        let kv = Kv.make_named cfg.structure ?detect_clients (shard_sys cfg s) in
            {
              sx = s;
              kv;
              q = Bqueue.create ~cap:cfg.queue_cap;
              hist = H.create ();
              s_merged = H.create ();
              enq = 0;
              comp = 0;
              shed = 0;
              lost = 0;
              batches = 0;
              flushes = 0;
              completed = 0;
              s_crashed = false;
              down_ns = 0.0;
              down_at = 0.0;
              replay = [];
              crash_at =
                (match cfg.crash with
                | Some c when c.Config.crash_shard = s ->
                    Some c.Config.crash_at_ns
                | _ -> None);
              busy = false;
              s_in = Queue.create ();
              pending = [];
              until = 0.0;
              s_out = Queue.create ();
              shed_c = Array.make cfg.clients 0;
              replayed_c = Array.make cfg.clients 0;
              suppressed_c = Array.make cfg.clients 0;
              s_replayed = 0;
              s_suppressed = 0;
              coll =
                (if spans_on then
                   Some
                     (Obs.Span.create ~seed:(cfg.seed + (7717 * (s + 1))) ())
                 else None);
              phase_hists = Array.init Obs.Span.n_phases (fun _ -> H.create ());
              wins = [||];
              depths = [];
              stop = false;
              session = None;
              end_ns = 0.0;
            })
  in
  Array.iteri (fun s sh -> preload_shard router cfg sh.kv s) shards;
  let streams =
    Ycsb.Workload.generate ~seed:cfg.seed ~spec:cfg.workload
      ~n_initial:cfg.n_initial ~threads:cfg.clients
      ~ops_per_thread:cfg.requests_per_client
  in
  let fe =
    {
      f_out = Array.init cfg.shards (fun _ -> Queue.create ());
      f_in = Queue.create ();
      f_scan_hist = H.create ();
      f_requests = 0;
      f_clients_done = 0;
      f_pending_scans = 0;
      f_completed_scans = 0;
      f_failed_scans = 0;
      f_stop = false;
      f_until = 0.0;
      f_session = None;
      f_end_ns = 0.0;
    }
  in
  let win_of sh t =
    let idx = max 0 (int_of_float (t /. cfg.window_ns)) in
    let cur = sh.wins in
    let n = Array.length cur in
    if idx >= n then begin
      let n' = max (idx + 1) (max 8 (2 * n)) in
      let a = Array.init n' (fun i -> if i < n then cur.(i) else new_wacc ()) in
      sh.wins <- a
    end;
    sh.wins.(idx)
  in

  let sleep_until t =
    let now = Sim.Sched.now () in
    if t > now then Sim.Sched.charge (t -. now)
  in

  (* ---------------- frontend fibers ---------------- *)
  (* An open-loop client: each request leaves at its scheduled instant,
     stamped with the instant its network hop ends; the client never waits
     out the hop itself. *)
  let client_body c ~tid =
    let arr =
      Sim.Arrival.create
        ~seed:(cfg.seed + 104729 + (7919 * c))
        ~mean_gap_ns:(Config.mean_gap_ns cfg) cfg.arrival
    in
    let zone_c = Router.zone_of_client router c in
    let hop s =
      Router.hop_ns router ~local_ns:net_local_ns ~remote_ns:net_remote_ns
        ~from_zone:zone_c
        ~to_zone:(Router.zone_of_shard router s)
    in
    let send s ~arrival ~req ~dseq ~cell =
      Queue.push
        { arrival; deliver = arrival +. hop s; req; client = c; dseq; cell }
        fe.f_out.(s)
    in
    let seq = ref 0 in
    let rix = ref (-1) in
    Array.iter
      (fun op ->
        Sim.Sched.charge (Sim.Arrival.next_gap_ns arr);
        fe.f_requests <- fe.f_requests + 1;
        incr rix;
        let t_send = Sim.Sched.now () in
        match op with
        | Ycsb.Workload.Read k ->
            send (Router.shard_of_key router k) ~arrival:t_send ~req:(R_read k)
              ~dseq:(-1)
              ~cell:(mk_cell ~spans_on ~client:c ~seq:!rix ~op:0)
        | Ycsb.Workload.Update k | Ycsb.Workload.Insert k ->
            incr seq;
            let v = Driver.value_of ~tid ~seq:!seq in
            send (Router.shard_of_key router k) ~arrival:t_send
              ~req:(R_upsert (k, v)) ~dseq:!seq
              ~cell:(mk_cell ~spans_on ~client:c ~seq:!rix ~op:1)
        | Ycsb.Workload.Scan (start, len) ->
            let lo = start and hi = start + len - 1 in
            let parts = Router.shards_of_range router ~lo ~hi in
            let ctx =
              {
                sc_arrival = t_send;
                sc_remaining = List.length parts;
                sc_failed = false;
                sc_parts = [];
              }
            in
            fe.f_pending_scans <- fe.f_pending_scans + 1;
            List.iter
              (fun s ->
                send s ~arrival:t_send ~req:(R_scan_part (ctx, lo, hi))
                  ~dseq:(-1) ~cell:None)
              parts)
      streams.(c);
    fe.f_clients_done <- fe.f_clients_done + 1
  in
  (* Resolve scan parts mailed back by the shards; runs only on the
     frontend, so ctx mutation is single-station. The merge cost of a
     completed scan is charged to the aggregator's (frontend) clock. Idle,
     it sleeps to the next boundary: [f_in] changes only at an exchange. *)
  let aggregator_body ~tid:_ =
    let apply m =
      let ctx = m.um_ctx in
      if m.um_failed then ctx.sc_failed <- true
      else ctx.sc_parts <- m.um_part :: ctx.sc_parts;
      ctx.sc_remaining <- ctx.sc_remaining - 1;
      if ctx.sc_remaining = 0 then begin
        (if ctx.sc_failed then fe.f_failed_scans <- fe.f_failed_scans + 1
         else begin
           let rows = Router.merge_ranges (List.rev ctx.sc_parts) in
           Sim.Sched.charge
             (merge_ns_per_item *. float_of_int (List.length rows));
           H.add fe.f_scan_hist (Sim.Sched.now () -. ctx.sc_arrival);
           fe.f_completed_scans <- fe.f_completed_scans + 1
         end);
        fe.f_pending_scans <- fe.f_pending_scans - 1
      end
    in
    let rec loop () =
      while not (Queue.is_empty fe.f_in) do
        apply (Queue.pop fe.f_in)
      done;
      if not fe.f_stop then begin
        sleep_until fe.f_until;
        loop ()
      end
    in
    loop ()
  in

  (* ---------------- shard fibers ---------------- *)
  (* Admission of one request at its instant [at]: a bounded-queue push, or
     shed when the queue is full. *)
  let admit sh ~at e =
    if Bqueue.push sh.q e then begin
      sh.enq <- sh.enq + 1;
      Obs.bump ~tid:sh.sx Obs.id_svc_enqueue;
      match e.cell with Some cl -> cl.c_enq <- at | None -> ()
    end
    else begin
      sh.shed <- sh.shed + 1;
      sh.shed_c.(e.client) <- sh.shed_c.(e.client) + 1;
      Obs.bump ~tid:sh.sx Obs.id_svc_shed;
      (if spans_on then
         let w = win_of sh at in
         w.aw_shed <- w.aw_shed + 1);
      match e.req with
      | R_scan_part (ctx, _, _) ->
          Queue.push { um_ctx = ctx; um_failed = true; um_part = [] } sh.s_out
      | R_read _ | R_upsert _ -> ()
    end
  in
  (* Admit, in order, every pending request due by now. A shard fiber calls
     this before it looks at the queue; since the worker is the queue's only
     popper, no pop can fall between an admission instant and the look that
     performs it, so each push-or-shed sees the queue as it was then. *)
  let admit_due sh =
    let now = Sim.Sched.now () in
    let rec go = function
      | (at, e) :: rest when at <= now ->
          admit sh ~at e;
          go rest
      | l -> sh.pending <- l
    in
    go sh.pending
  in
  let finalize_span sh e t_ack lat =
    match (e.cell, sh.coll) with
    | Some cl, Some coll ->
        let recovery =
          if sh.down_ns > 0.0 then begin
            let t0 = sh.down_at and t1 = sh.down_at +. sh.down_ns in
            let lo = Float.max cl.c_enq t0 and hi = Float.min cl.c_pop t1 in
            Float.max 0.0 (hi -. lo)
          end
          else 0.0
        in
        let phase =
          [|
            cl.c_enq -. e.arrival;
            cl.c_pop -. cl.c_enq;
            cl.c_exec0 -. cl.c_pop;
            cl.c_exec1 -. cl.c_exec0;
            t_ack -. cl.c_exec1;
          |]
        in
        let sp =
          {
            Obs.Span.sp_id = Obs.Span.id ~client:cl.c_client ~seq:cl.c_seq;
            sp_client = cl.c_client;
            sp_seq = cl.c_seq;
            sp_shard = sh.sx;
            sp_op = cl.c_op;
            sp_arrival = e.arrival;
            sp_lat = lat;
            sp_phase = phase;
            sp_fence = cl.c_fence;
            sp_recovery = recovery;
            sp_replay = cl.c_replay;
            sp_flushes = cl.c_flushes;
            sp_fences = cl.c_fences;
            sp_load_misses = cl.c_misses;
          }
        in
        Obs.Span.record coll sp;
        for i = 0 to Obs.Span.n_phases - 1 do
          H.add sh.phase_hists.(i) phase.(i)
        done;
        let w = win_of sh t_ack in
        w.aw_completed <- w.aw_completed + 1;
        for i = 0 to Obs.Span.n_phases - 1 do
          H.add w.aw_phase.(i) phase.(i)
        done;
        if Obs.Trace.enabled () then begin
          let starts =
            [| e.arrival; cl.c_enq; cl.c_pop; cl.c_exec0; cl.c_exec1 |]
          in
          for i = 0 to Obs.Span.n_phases - 1 do
            Obs.Trace.emit ~ts:starts.(i) ~tid:sh.sx
              ~kind:Obs.Trace.k_req_phase
              ~arg:((sp.Obs.Span.sp_id lsl 3) lor i)
              ~farg:phase.(i)
          done
        end
    | _ -> ()
  in
  let worker_body sh ~tid =
    let ack e =
      let t_ack = Sim.Sched.now () in
      let lat = t_ack -. e.arrival in
      H.add sh.hist lat;
      sh.comp <- sh.comp + 1;
      match e.req with
      | R_read _ | R_upsert _ ->
          H.add sh.s_merged lat;
          sh.completed <- sh.completed + 1;
          finalize_span sh e t_ack lat
      | R_scan_part _ -> ()
    in
    let exec_begin e =
      match e.cell with
      | Some cl ->
          cl.c_exec0 <- Sim.Sched.now ();
          cl.c_flush0 <- Obs.counter ~tid Obs.id_flush;
          cl.c_fence0 <- Obs.counter ~tid Obs.id_fence;
          cl.c_miss0 <- Obs.counter ~tid Obs.id_load_miss
      | None -> ()
    in
    let exec_end e =
      match e.cell with
      | Some cl ->
          cl.c_exec1 <- Sim.Sched.now ();
          cl.c_flushes <- Obs.counter ~tid Obs.id_flush - cl.c_flush0;
          cl.c_fences <- Obs.counter ~tid Obs.id_fence - cl.c_fence0;
          cl.c_misses <- Obs.counter ~tid Obs.id_load_miss - cl.c_miss0
      | None -> ()
    in
    (* Power failure at a batch boundary: crash the pools (dropping
       unflushed lines), lose the queued backlog, reconnect, pay the
       pool-reopen cost and recover in-line. Stranded scan parts fail via
       the mailbox (resolved on the frontend next epoch); in detect mode
       stranded upserts are decided through their descriptors and
       everything else is queued for replay. The outage start is set here,
       so the coordinator sees it at this round's exchange; completed-in-
       outage attribution is captured there. *)
    let do_crash ~stranded =
      sh.crash_at <- None;
      sh.s_crashed <- true;
      admit_due sh;
      let t0 = Sim.Sched.now () in
      sh.down_at <- t0;
      Pmem.crash sh.kv.Kv.pmem;
      let stranded = stranded @ Bqueue.drain sh.q in
      sh.kv.Kv.reconnect ();
      Sim.Sched.charge (Harness.Fault.pool_open_ns ~pools:sh.kv.Kv.pools);
      sh.kv.Kv.recover ~tid;
      if cfg.detect then ignore (Kv.d_recover sh.kv ~tid : int);
      let to_replay = ref [] in
      let mark_replay e =
        (match e.cell with Some cl -> cl.c_replay <- 1 | None -> ());
        sh.replayed_c.(e.client) <- sh.replayed_c.(e.client) + 1;
        sh.s_replayed <- sh.s_replayed + 1;
        Obs.bump ~tid Obs.id_svc_replay;
        to_replay := e :: !to_replay
      in
      List.iter
        (fun e ->
          match e.req with
          | R_scan_part (ctx, _, _) ->
              sh.lost <- sh.lost + 1;
              Queue.push { um_ctx = ctx; um_failed = true; um_part = [] }
                sh.s_out
          | R_read _ ->
              if cfg.detect then mark_replay e else sh.lost <- sh.lost + 1
          | R_upsert _ ->
              if cfg.detect then (
                match Kv.d_decide sh.kv ~client:e.client ~seq:e.dseq with
                | Detect.Applied _ | Detect.Applied_unknown ->
                    (match e.cell with
                    | Some cl -> cl.c_replay <- 2
                    | None -> ());
                    sh.suppressed_c.(e.client) <- sh.suppressed_c.(e.client) + 1;
                    sh.s_suppressed <- sh.s_suppressed + 1;
                    Obs.bump ~tid Obs.id_svc_dup_suppress;
                    ack e
                | Detect.Not_applied -> mark_replay e)
              else sh.lost <- sh.lost + 1)
        stranded;
      sh.replay <- List.rev !to_replay;
      sh.down_ns <- Sim.Sched.now () -. t0
    in
    let process_entries entries =
      (if spans_on then
         let t_pop = Sim.Sched.now () in
         List.iter
           (fun e ->
             match e.cell with Some cl -> cl.c_pop <- t_pop | None -> ())
           entries);
      sh.batches <- sh.batches + 1;
      Obs.bump ~tid Obs.id_svc_batch;
      Sim.Sched.charge
        (batch_overhead_ns
        +. (req_overhead_ns *. float_of_int (List.length entries)));
      let durable = ref [] in
      let exec e =
        match e.req with
        | R_read k ->
            exec_begin e;
            ignore (sh.kv.Kv.search ~tid k);
            exec_end e;
            ack e
        | R_upsert (k, v) ->
            exec_begin e;
            (if cfg.detect then
               ignore
                 (Kv.d_upsert sh.kv ~tid ~client:e.client ~seq:e.dseq
                    ~fence:false k v
                   : int option)
             else ignore (sh.kv.Kv.upsert ~tid k v));
            exec_end e;
            durable := e :: !durable
        | R_scan_part (ctx, lo, hi) ->
            let part = sh.kv.Kv.range ~tid ~lo ~hi in
            ack e;
            Queue.push { um_ctx = ctx; um_failed = false; um_part = part }
              sh.s_out
      in
      let rec go = function
        | [] -> None
        | e :: rest -> (
            match sh.crash_at with
            | Some at when Sim.Sched.now () >= at -> Some (e :: rest)
            | _ ->
                exec e;
                go rest)
      in
      match go entries with
      | Some remaining -> do_crash ~stranded:(List.rev !durable @ remaining)
      | None -> (
          match !durable with
          | [] -> ()
          | ds ->
              let t_f0 = Sim.Sched.now () in
              Sim.Sched.fence ();
              sh.flushes <- sh.flushes + 1;
              Obs.bump ~tid Obs.id_svc_group_flush;
              if spans_on then begin
                let t_f1 = Sim.Sched.now () in
                let d_f = t_f1 -. t_f0 in
                List.iter
                  (fun e ->
                    match e.cell with
                    | Some cl -> cl.c_fence <- d_f
                    | None -> ())
                  ds;
                let w = win_of sh t_f1 in
                w.aw_fences <- w.aw_fences + 1
              end;
              List.iter ack (List.rev ds))
    in
    let rec take n = function
      | [] -> ([], [])
      | l when n = 0 -> ([], l)
      | e :: rest ->
          let a, b = take (n - 1) rest in
          (e :: a, b)
    in
    (* [busy] marks the worker parked mid-work at a barrier, so the
       coordinator's stop check never fires with unacked entries in
       flight. Idle, the worker sleeps to its next pending admission or the
       next boundary, whichever is first: nothing else can fill its queue. *)
    let rec loop () =
      admit_due sh;
      let crash_due =
        match sh.crash_at with
        | Some at -> Sim.Sched.now () >= at
        | None -> false
      in
      if crash_due then begin
        sh.busy <- true;
        do_crash ~stranded:[];
        sh.busy <- false;
        loop ()
      end
      else if sh.replay <> [] then begin
        sh.busy <- true;
        let batch, rest = take cfg.batch sh.replay in
        sh.replay <- rest;
        process_entries batch;
        sh.busy <- false;
        loop ()
      end
      else if not (Bqueue.is_empty sh.q) then begin
        sh.busy <- true;
        process_entries (Bqueue.pop_up_to sh.q cfg.batch);
        sh.busy <- false;
        loop ()
      end
      else if not sh.stop then begin
        sleep_until
          (match sh.pending with
          | (at, _) :: _ -> Float.min at sh.until
          | [] -> sh.until);
        loop ()
      end
    in
    loop ()
  in
  (* Depth sampler: one per shard, on the shard's own clock, sampling at
     the canonical ticks k*sample_ns so per-shard series zip exactly. *)
  let sampler_body sh ~tid:_ =
    let rec loop k =
      sleep_until (float_of_int k *. sample_ns);
      if not sh.stop then begin
        admit_due sh;
        sh.depths <- (k, Bqueue.length sh.q) :: sh.depths;
        loop (k + 1)
      end
    in
    loop 0
  in

  (* ---------------- stations, rounds, exchange ---------------- *)
  fe.f_session <-
    Some
      (Sim.Sched.open_session ~machine:(null_machine ())
         (List.init cfg.clients (fun c ->
              (cfg.shards + c, fun ~tid -> client_body c ~tid))
         @ [ (cfg.shards + cfg.clients, aggregator_body) ]));
  Array.iter
    (fun sh ->
      sh.session <-
        Some
          (Sim.Sched.open_session ~machine:(Kv.machine sh.kv)
             [
               (sh.sx, fun ~tid -> worker_body sh ~tid);
               ( cfg.shards + cfg.clients + 1 + sh.sx,
                 fun ~tid -> sampler_body sh ~tid );
             ]))
    shards;
  let session_of = function
    | Some s -> s
    | None -> assert false
  in
  (* A round's inbox joins the pending list at the round's start
     [boundary]: each request is due at [max deliver boundary]. *)
  let receive sh ~boundary =
    if not (Queue.is_empty sh.s_in) then begin
      let incoming =
        Queue.fold
          (fun acc e -> (Float.max e.deliver boundary, e) :: acc)
          [] sh.s_in
      in
      Queue.clear sh.s_in;
      sh.pending <-
        List.stable_sort
          (fun (a, _) (b, _) -> Float.compare a b)
          (sh.pending @ List.rev incoming)
    end
  in
  let step ~station ~round =
    let until = float_of_int (round + 1) *. epoch in
    if station = 0 then begin
      fe.f_until <- until;
      Sim.Sched.step (session_of fe.f_session) ~until
    end
    else begin
      let sh = shards.(station - 1) in
      receive sh ~boundary:(float_of_int round *. epoch);
      sh.until <- until;
      Sim.Sched.step (session_of sh.session) ~until
    end
  in
  (* Round-granular completed-in-outage, captured at exchange time while
     every station is at rest. The outage covers rounds r0 (its start's)
     through r1 (its end's, or the last round if that comes first); each
     shard's share is its completions at the end of round r1 minus those at
     the end of round r0 - 1 (0 before round 0). A crash and its recovery
     end each show up at the exchange that closes their own round, so
     [prev] (every shard's count at the end of the previous round) and the
     live counts are all the history needed: O(shards) words whatever the
     run length. *)
  let prev = Array.make cfg.shards 0 in
  let outage_from = ref None and outage_upto = ref None in
  let counts_at ~round r =
    if r = round - 1 then Array.copy prev
    else if r >= round then Array.map (fun sh -> sh.comp) shards
    else failwith "Svc.Domains: outage round already closed"
  in
  let capture_outage ~round ~last =
    match Array.find_opt (fun sh -> sh.s_crashed) shards with
    | None -> ()
    | Some crashed ->
        if !outage_from = None then
          outage_from :=
            Some (counts_at ~round (int_of_float (crashed.down_at /. epoch) - 1));
        if !outage_upto = None && crashed.down_ns > 0.0 then begin
          let r1 =
            int_of_float ((crashed.down_at +. crashed.down_ns) /. epoch)
          in
          if r1 <= round || last then
            outage_upto := Some (counts_at ~round r1)
        end
  in
  let exchange ~round =
    Array.iteri (fun s sh -> Queue.transfer fe.f_out.(s) sh.s_in) shards;
    Array.iter (fun sh -> Queue.transfer sh.s_out fe.f_in) shards;
    let idle =
      fe.f_clients_done = cfg.clients
      && fe.f_pending_scans = 0
      && Queue.is_empty fe.f_in
      && Array.for_all
           (fun sh ->
             Queue.is_empty sh.s_in && sh.pending = []
             && Bqueue.is_empty sh.q && sh.replay = [] && sh.crash_at = None
             && not sh.busy)
           shards
    in
    capture_outage ~round ~last:idle;
    Array.iteri (fun i sh -> prev.(i) <- sh.comp) shards;
    if idle then begin
      fe.f_stop <- true;
      Array.iter (fun sh -> sh.stop <- true) shards;
      false
    end
    else true
  in
  let finalize ~station =
    if station = 0 then begin
      match Sim.Sched.finish (session_of fe.f_session) with
      | Sim.Sched.Completed { time; _ } -> fe.f_end_ns <- time
      | Sim.Sched.Crashed_at _ -> assert false
    end
    else begin
      let sh = shards.(station - 1) in
      match Sim.Sched.finish (session_of sh.session) with
      | Sim.Sched.Completed { time; _ } -> sh.end_ns <- time
      | Sim.Sched.Crashed_at _ -> assert false
    end
  in
  Sim.Pool.run_phased
    ~domains:(if domains <= 1 then 0 else domains)
    ~stations:(cfg.shards + 1) ~step ~exchange ~finalize ();

  (* ---------------- deterministic merges ---------------- *)
  let span_ns =
    Array.fold_left (fun m sh -> Float.max m sh.end_ns) fe.f_end_ns shards
  in
  let sum f = Array.fold_left (fun acc sh -> acc + f sh) 0 shards in
  let remote, media =
    Array.fold_left
      (fun (r, m) sh ->
        let c = Pmem.counters sh.kv.Kv.pmem in
        ( r + c.Pmem.remote_accesses,
          m + c.Pmem.load_misses + c.Pmem.store_misses + c.Pmem.dirty_flushes ))
      (0, 0) shards
  in
  (* client-visible latency: shard histograms in shard order, then the
     frontend's completed scans — a fixed merge order, identical across
     modes *)
  let merged =
    H.merge_list
      (Array.to_list (Array.map (fun sh -> sh.s_merged) shards)
      @ [ fe.f_scan_hist ])
  in
  (* per-shard depth samples recorded at the same canonical ticks; zip them
     in shard order into the (time, per-shard depth) series *)
  let depth_arrs = Array.map (fun sh -> Array.of_list (List.rev sh.depths)) shards in
  let n_ticks =
    Array.fold_left (fun m a -> min m (Array.length a)) max_int depth_arrs
  in
  let n_ticks = if cfg.shards = 0 then 0 else n_ticks in
  let depth_series =
    List.init n_ticks (fun i ->
        let t = float_of_int (fst depth_arrs.(0).(i)) *. sample_ns in
        (t, Array.map (fun a -> snd a.(i)) depth_arrs))
  in
  let completed = sum (fun sh -> sh.completed) + fe.f_completed_scans in
  let replayed = sum (fun sh -> sh.s_replayed) in
  let suppressed = sum (fun sh -> sh.s_suppressed) in
  let in_outage =
    match (!outage_from, !outage_upto) with
    | Some from, Some upto -> Array.map2 ( - ) upto from
    | _ -> Array.make cfg.shards 0
  in
  let windows =
    if not spans_on then []
    else begin
      let n_from_ticks =
        List.fold_left
          (fun m (t, _) -> max m (1 + max 0 (int_of_float (t /. cfg.window_ns))))
          0 depth_series
      in
      let n =
        Array.fold_left
          (fun m sh -> max m (Array.length sh.wins))
          n_from_ticks shards
      in
      let dep_sum = Array.make (max n 1) 0.0 and dep_n = Array.make (max n 1) 0 in
      List.iter
        (fun (t, depths) ->
          let idx = max 0 (int_of_float (t /. cfg.window_ns)) in
          if idx < n then begin
            dep_sum.(idx) <-
              dep_sum.(idx) +. float_of_int (Array.fold_left ( + ) 0 depths);
            dep_n.(idx) <- dep_n.(idx) + 1
          end)
        depth_series;
      List.init n (fun i ->
          let waccs =
            Array.to_list
              (Array.map
                 (fun sh ->
                   if i < Array.length sh.wins then Some sh.wins.(i) else None)
                 shards)
          in
          let isum f =
            List.fold_left
              (fun a w -> match w with Some w -> a + f w | None -> a)
              0 waccs
          in
          {
            Slo.w_idx = i;
            w_completed = isum (fun w -> w.aw_completed);
            w_shed = isum (fun w -> w.aw_shed);
            w_fences = isum (fun w -> w.aw_fences);
            w_depth =
              (if dep_n.(i) = 0 then 0.0
               else dep_sum.(i) /. float_of_int dep_n.(i));
            w_phase =
              Array.init Obs.Span.n_phases (fun p ->
                  H.merge_list
                    (List.filter_map
                       (fun w ->
                         match w with
                         | Some w -> Some w.aw_phase.(p)
                         | None -> None)
                       waccs));
          })
    end
  in
  let outages =
    List.filter_map
      (fun i ->
        let sh = shards.(i) in
        if sh.down_ns > 0.0 then Some (i, sh.down_at, sh.down_at +. sh.down_ns)
        else None)
      (List.init cfg.shards Fun.id)
  in
  let spans =
    if not spans_on then None
    else begin
      let per_shard =
        Array.to_list
          (Array.map
             (fun sh ->
               match sh.coll with
               | None -> Slo.empty_summary ()
               | Some c ->
                   {
                     Slo.sp_count = Obs.Span.count c;
                     sp_top = Obs.Span.tops c;
                     sp_sample = Obs.Span.sampled c;
                     sp_phase_hist = sh.phase_hists;
                     sp_phase_sum = Obs.Span.phase_totals c;
                     sp_lat_sum = Obs.Span.lat_total c;
                     sp_fence_sum = Obs.Span.fence_total c;
                     sp_recovery_sum = Obs.Span.recovery_total c;
                     sp_residual_max = Obs.Span.residual_max c;
                     sp_residual_violations = Obs.Span.residual_violations c;
                     sp_outages = [];
                   })
             shards)
      in
      Some { (Slo.merge_summaries per_shard) with Slo.sp_outages = outages }
    end
  in
  let shard_reports =
    Array.to_list
      (Array.mapi
         (fun s sh ->
           {
             Slo.shard = s;
             zone = Router.zone_of_shard router s;
             s_enqueued = sh.enq;
             s_completed = sh.comp;
             s_shed = sh.shed;
             s_lost = sh.lost;
             s_batches = sh.batches;
             s_group_flushes = sh.flushes;
             queue_high_water = Bqueue.high_water sh.q;
             crashed = sh.s_crashed;
             down_ns = sh.down_ns;
             completed_in_outage = in_outage.(s);
             audit_errors = List.length (sh.kv.Kv.audit ());
             shard_lat = sh.hist;
           })
         shards)
  in
  let requests = fe.f_requests in
  {
    Slo.config = cfg;
    span_ns;
    requests;
    enqueued = sum (fun sh -> sh.enq);
    completed;
    shed = sum (fun sh -> sh.shed);
    lost = sum (fun sh -> sh.lost);
    failed_scans = fe.f_failed_scans;
    replayed;
    dup_suppressed = suppressed;
    client_reports =
      List.init cfg.clients (fun c ->
          {
            Slo.cr_client = c;
            cr_shed = sum (fun sh -> sh.shed_c.(c));
            cr_replayed = sum (fun sh -> sh.replayed_c.(c));
            cr_suppressed = sum (fun sh -> sh.suppressed_c.(c));
          });
    goodput_mops =
      (if span_ns > 0.0 then
         float_of_int completed /. span_ns *. 1000.0
       else 0.0);
    shed_rate =
      (if requests = 0 then 0.0
       else float_of_int (requests - completed) /. float_of_int requests);
    remote_fraction =
      (if media = 0 then 0.0 else float_of_int remote /. float_of_int media);
    merged;
    shard_reports;
    depth_series;
    windows;
    spans;
  }
