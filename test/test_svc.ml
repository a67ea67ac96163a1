(* Tests for the sharded service layer: router placement and range
   planning, the bounded queue, end-to-end service runs (determinism,
   sharding speedup, scan fan-out), and one-shard crash recovery under
   open-loop load. *)

open Testsupport
module Router = Svc.Router
module Bqueue = Svc.Bqueue
module Config = Svc.Config
module Domains = Svc.Domains
module Slo = Svc.Slo

(* ---- Router -------------------------------------------------------------- *)

let test_router_placement () =
  let r = Router.create ~shards:4 ~zones:4 in
  let counts = Array.make 4 0 in
  for k = 1 to 10_000 do
    let s = Router.shard_of_key r k in
    check_bool "in range" true (s >= 0 && s < 4);
    check_int "stable" s (Router.shard_of_key r k);
    counts.(s) <- counts.(s) + 1
  done;
  Array.iteri
    (fun s c ->
      check_bool
        (Printf.sprintf "shard %d balanced (%d)" s c)
        true
        (c > 1_500 && c < 3_500))
    counts;
  check_int "zone of shard" 2 (Router.zone_of_shard r 2);
  check_int "zone wraps" 1 (Router.zone_of_shard (Router.create ~shards:8 ~zones:4) 5);
  check_int "client zone" 3 (Router.zone_of_client r 7)

(* Routing stability: placement is a pure function of (key, shard count),
   so re-zoning a topology (a fresh router with the same shard count) keeps
   every key on its shard; only a different shard count may move keys. *)
let test_router_reconfigure_stability () =
  let z4 = Router.create ~shards:8 ~zones:4
  and z2 = Router.create ~shards:8 ~zones:2 in
  for k = 1 to 5_000 do
    check_int "stable across zone counts" (Router.shard_of_key z4 k)
      (Router.shard_of_key z2 k)
  done;
  let grown = Router.create ~shards:9 ~zones:4 in
  check_bool "shard-count change may remap" true
    (List.exists
       (fun k -> Router.shard_of_key grown k <> Router.shard_of_key z4 k)
       (List.init 100 (fun i -> i + 1)))

(* Hashed placement must stay balanced at every shard count a config can
   ask for: over a dense keyspace no shard may deviate from the ideal
   share by more than 30% (the splitmix64 mix gives ~±4σ ≈ ±10% at the
   worst point of this grid, so the bound has real slack without being
   vacuous). *)
let test_router_balance () =
  let keys = 10_000 in
  for shards = 1 to 16 do
    let r = Router.create ~shards ~zones:1 in
    let counts = Array.make shards 0 in
    for k = 1 to keys do
      let s = Router.shard_of_key r k in
      counts.(s) <- counts.(s) + 1
    done;
    let ideal = float_of_int keys /. float_of_int shards in
    Array.iteri
      (fun s c ->
        check_bool
          (Printf.sprintf "%d shards: shard %d holds %d (ideal %.0f)" shards s
             c ideal)
          true
          (abs_float (float_of_int c -. ideal) <= 0.3 *. ideal))
      counts
  done

let test_router_hop () =
  let r = Router.create ~shards:4 ~zones:4 in
  let hop = Router.hop_ns r ~local_ns:100.0 ~remote_ns:900.0 in
  Alcotest.(check (float 0.0)) "local" 100.0 (hop ~from_zone:2 ~to_zone:2);
  Alcotest.(check (float 0.0)) "remote" 900.0 (hop ~from_zone:0 ~to_zone:3)

let test_router_range_plan () =
  let r = Router.create ~shards:4 ~zones:4 in
  check_bool "empty range" true (Router.shards_of_range r ~lo:10 ~hi:9 = []);
  check_bool "singleton" true
    (Router.shards_of_range r ~lo:10 ~hi:10 = [ Router.shard_of_key r 10 ]);
  (* a narrow plan must cover the owner of every key in the range *)
  let plan = Router.shards_of_range r ~lo:100 ~hi:102 in
  for k = 100 to 102 do
    check_bool "covers key owner" true
      (List.mem (Router.shard_of_key r k) plan)
  done;
  check_bool "narrow plan is a subset" true
    (List.length plan <= 3 && List.for_all (fun s -> s >= 0 && s < 4) plan);
  check_bool "wide range hits all shards" true
    (Router.shards_of_range r ~lo:1 ~hi:100 = [ 0; 1; 2; 3 ]);
  check_bool "one shard trivial" true
    (Router.shards_of_range (Router.create ~shards:1 ~zones:1) ~lo:1 ~hi:2
    = [ 0 ])

let test_router_merge () =
  let parts = [ [ (1, 10); (4, 40) ]; [ (2, 20) ]; []; [ (3, 30); (9, 90) ] ] in
  check_pairs "merged ascending"
    [ (1, 10); (2, 20); (3, 30); (4, 40); (9, 90) ]
    (Router.merge_ranges parts);
  check_pairs "empty" [] (Router.merge_ranges [ []; [] ])

(* ---- Bounded queue ------------------------------------------------------- *)

let test_bqueue () =
  let q = Bqueue.create ~cap:3 in
  check_bool "empty" true (Bqueue.is_empty q);
  check_bool "push 1" true (Bqueue.push q 1);
  check_bool "push 2" true (Bqueue.push q 2);
  check_bool "push 3" true (Bqueue.push q 3);
  check_bool "full rejects" false (Bqueue.push q 4);
  check_int "high water" 3 (Bqueue.high_water q);
  check_bool "fifo batch" true (Bqueue.pop_up_to q 2 = [ 1; 2 ]);
  check_bool "admits again" true (Bqueue.push q 5);
  check_bool "drain" true (Bqueue.drain q = [ 3; 5 ]);
  check_bool "empty again" true (Bqueue.is_empty q);
  check_int "high water sticky" 3 (Bqueue.high_water q)

(* ---- Service runs -------------------------------------------------------- *)

let fast_sys =
  {
    Harness.Kv.default_sys with
    latency = Pmem.Latency.uniform;
    numa_nodes = 1;
    pool_words = 1 lsl 18;
  }

let base =
  {
    Config.default with
    sys = fast_sys;
    shards = 2;
    zones = 2;
    clients = 4;
    requests_per_client = 100;
    offered_mops = 4.0;
    n_initial = 256;
  }

(* Exact delivery, on every retained span. A request sent at [arrival] in
   round [floor (arrival / exchange_ns)] reaches its shard at [deliver =
   arrival + hop], but the shard sees it only from the next boundary on, so
   it is admitted at [max deliver boundary]: the hop phase is at least the
   router's hop (never admitted early), exceeds it by less than one
   exchange epoch, and is the hop itself when [deliver] lies at or past the
   boundary. When every admitted sub-request left a span (no crash, no
   scan parts, nothing dropped from the top/sample sets), the spans replay
   each shard's busy periods: a request admitted after every earlier
   admission on its shard was acked found the worker idle and the queue
   empty, so it waits 0 in the queue. Returns how many spans were admitted
   at their hop's end and how many found an idle shard. *)
let check_delivery (cfg : Config.t) (r : Slo.t) =
  match r.Slo.spans with
  | None -> (0, 0)
  | Some sp ->
      let router =
        Router.create ~shards:cfg.Config.shards ~zones:cfg.Config.zones
      in
      let epoch = cfg.Config.exchange_ns in
      let seen = Hashtbl.create 64 in
      List.iter
        (fun x -> Hashtbl.replace seen x.Obs.Span.sp_id x)
        (sp.Slo.sp_top @ sp.Slo.sp_sample);
      let spans = Hashtbl.fold (fun _ x acc -> x :: acc) seen [] in
      let at_hop = ref 0 in
      let enq x = x.Obs.Span.sp_arrival +. x.Obs.Span.sp_phase.(Obs.Span.ph_hop) in
      List.iter
        (fun x ->
          let hop =
            Router.hop_ns router ~local_ns:Domains.net_local_ns
              ~remote_ns:Domains.net_remote_ns
              ~from_zone:(Router.zone_of_client router x.Obs.Span.sp_client)
              ~to_zone:(Router.zone_of_shard router x.Obs.Span.sp_shard)
          in
          let a = x.Obs.Span.sp_arrival in
          let deliver = a +. hop in
          let boundary = Float.of_int (1 + int_of_float (a /. epoch)) *. epoch in
          let p = x.Obs.Span.sp_phase.(Obs.Span.ph_hop) in
          let expect what ok =
            if not ok then
              Alcotest.failf "span %d (arrival %.17g, hop %g, hop phase %.17g): %s"
                x.Obs.Span.sp_id a hop p what
          in
          expect "hop phase >= hop" (p >= hop -. 1e-6);
          expect "hop phase < hop + exchange" (p < hop +. epoch);
          expect "admitted at max deliver boundary"
            (p = Float.max deliver boundary -. a);
          if deliver >= boundary then begin
            incr at_hop;
            expect "hop phase = hop" (Float.abs (p -. hop) <= 1e-6)
          end)
        spans;
      let idle = ref 0 in
      if
        List.length spans = sp.Slo.sp_count
        && r.Slo.enqueued = sp.Slo.sp_count
        && sp.Slo.sp_outages = []
      then
        List.iter
          (fun x ->
            let found_idle =
              List.for_all
                (fun y ->
                  y == x
                  || y.Obs.Span.sp_shard <> x.Obs.Span.sp_shard
                  || enq y > enq x
                  || y.Obs.Span.sp_arrival +. y.Obs.Span.sp_lat <= enq x)
                spans
            in
            if found_idle then begin
              incr idle;
              let q = x.Obs.Span.sp_phase.(Obs.Span.ph_queue) in
              if q <> 0.0 then
                Alcotest.failf "span %d: idle, empty shard, but queue phase %g"
                  x.Obs.Span.sp_id q
            end)
          spans;
      (!at_hop, !idle)

(* Every admitted sub-request must resolve by the end of the run: workers
   drain their queues before exiting, so completions + crash losses account
   for every enqueue. Every retained span must obey exact delivery. *)
let check_conservation cfg (r : Slo.t) =
  let sub_completed =
    List.fold_left (fun acc s -> acc + s.Slo.s_completed) 0 r.Slo.shard_reports
  in
  check_int "enqueued = completed + lost (sub-requests)" r.Slo.enqueued
    (sub_completed + r.Slo.lost);
  ignore (check_delivery cfg r : int * int)

let test_svc_determinism () =
  let json () = Json.to_string (Slo.to_json (Domains.run base)) in
  let a = json () in
  check_bool "non-trivial run" true (String.length a > 200);
  Alcotest.(check string) "byte-identical SLO JSON" a (json ())

let test_svc_completes_requests () =
  let r = Domains.run base in
  check_int "all issued" (base.Config.clients * base.Config.requests_per_client)
    r.Slo.requests;
  check_bool "most requests complete" true
    (r.Slo.completed > r.Slo.requests / 2);
  check_bool "latency recorded" true
    (Sim.Histogram.count r.Slo.merged = r.Slo.completed);
  check_bool "goodput positive" true (r.Slo.goodput_mops > 0.0);
  check_conservation base r;
  List.iter
    (fun s -> check_int "audit clean" 0 s.Slo.audit_errors)
    r.Slo.shard_reports

let test_svc_sharding_speedup () =
  (* same offered load, far above one worker's service rate: four shards
     must clear more of it than one *)
  let load cfg = { cfg with Config.offered_mops = 40.0; clients = 8;
                   requests_per_client = 300; workload = Ycsb.Workload.c }
  in
  let c1 = load { base with Config.shards = 1; zones = 1 } in
  let c4 = load { base with Config.shards = 4; zones = 4 } in
  let r1 = Domains.run c1 in
  let r4 = Domains.run c4 in
  check_bool "one shard saturates" true (r1.Slo.shed > 0);
  check_bool
    (Printf.sprintf "4 shards beat 1 (%.3f vs %.3f Mops/s)"
       r4.Slo.goodput_mops r1.Slo.goodput_mops)
    true
    (r4.Slo.goodput_mops > 1.2 *. r1.Slo.goodput_mops);
  check_conservation c1 r1;
  check_conservation c4 r4

let test_svc_scan_fanout () =
  let cfg =
    { base with Config.shards = 4; zones = 4; workload = Ycsb.Workload.e;
      offered_mops = 2.0 }
  in
  let r = Domains.run cfg in
  check_bool "scans complete" true (r.Slo.completed > 0);
  check_bool "accounted" true
    (r.Slo.completed + r.Slo.failed_scans <= r.Slo.requests);
  (* scan-heavy traffic fans out: more sub-requests than requests *)
  check_bool "fan-out happened" true (r.Slo.enqueued > r.Slo.requests / 2 * 3);
  check_conservation cfg r

let test_svc_crash_recovery () =
  let cfg =
    {
      base with
      Config.shards = 4;
      zones = 4;
      clients = 4;
      requests_per_client = 400;
      offered_mops = 4.0;
      workload = Ycsb.Workload.a;
      queue_cap = 64;
      crash = Some { Config.crash_shard = 1; crash_at_ns = 50_000.0 };
    }
  in
  let r = Domains.run cfg in
  let shard s = List.nth r.Slo.shard_reports s in
  check_bool "shard 1 crashed" true (shard 1).Slo.crashed;
  check_bool "outage dominated by pool reopen" true
    ((shard 1).Slo.down_ns > 1e6);
  check_bool "crashed shard dropped or shed work" true
    ((shard 1).Slo.s_lost + (shard 1).Slo.s_shed > 0);
  (* Completions over the rounds the outage spans, pinned per shard: a
     capture one round early or late moves every count. Round granularity
     credits the crashed shard with what it completed in the crash's own
     round before the crash. *)
  List.iter2
    (fun s in_outage ->
      check_int
        (Printf.sprintf "shard %d audit clean after crash" s.Slo.shard)
        0 s.Slo.audit_errors;
      check_int
        (Printf.sprintf "shard %d completed in outage" s.Slo.shard)
        in_outage s.Slo.completed_in_outage)
    r.Slo.shard_reports [ 310; 8; 356; 353 ];
  check_bool "service goodput survived" true (r.Slo.completed > 0);
  check_conservation cfg r

(* With detectable operations the crashed shard loses nothing: stranded
   upserts are decided through their descriptors (acked if applied,
   replayed if not) and stranded reads are replayed, so every admitted
   request still completes exactly once. *)
let test_svc_detect_crash_exactly_once () =
  let cfg =
    {
      base with
      Config.shards = 4;
      zones = 4;
      clients = 4;
      requests_per_client = 400;
      offered_mops = 40.0;
      workload = Ycsb.Workload.a;
      queue_cap = 64;
      detect = true;
      (* the clients send their 1600 requests over the first ~40 us, so at
         35 us shard 1 is still working through its backlog; by 50 us it
         has drained it and a crash there strands nothing *)
      crash = Some { Config.crash_shard = 1; crash_at_ns = 35_000.0 };
    }
  in
  let r = Domains.run cfg in
  check_bool "shard 1 crashed" true (List.nth r.Slo.shard_reports 1).Slo.crashed;
  check_int "nothing lost under detect" 0 r.Slo.lost;
  check_bool "stranded work was replayed or suppressed" true
    (r.Slo.replayed + r.Slo.dup_suppressed > 0);
  check_int "every admitted request completed" r.Slo.requests
    (r.Slo.completed + r.Slo.shed);
  check_conservation cfg r;
  List.iter
    (fun s -> check_int "audit clean" 0 s.Slo.audit_errors)
    r.Slo.shard_reports;
  (* per-client ledger is complete and consistent with the totals *)
  check_int "one report per client" cfg.Config.clients
    (List.length r.Slo.client_reports);
  let sum f = List.fold_left (fun a c -> a + f c) 0 r.Slo.client_reports in
  check_int "client shed sums" r.Slo.shed (sum (fun c -> c.Slo.cr_shed));
  check_int "client replays sum" r.Slo.replayed
    (sum (fun c -> c.Slo.cr_replayed));
  check_int "client suppressions sum" r.Slo.dup_suppressed
    (sum (fun c -> c.Slo.cr_suppressed))

(* Detect mode changes only what happens after a crash: a crash-free run
   must complete the same requests (fences are folded into the group
   commit, so throughput stays in family but the schedule may differ). *)
let test_svc_detect_no_crash_parity () =
  let off = Domains.run base in
  let on = Domains.run { base with Config.detect = true } in
  check_int "requests identical" off.Slo.requests on.Slo.requests;
  check_int "nothing replayed without a crash" 0 on.Slo.replayed;
  check_int "nothing suppressed without a crash" 0 on.Slo.dup_suppressed;
  check_int "nothing lost" 0 on.Slo.lost;
  check_int "detect run completes everything" on.Slo.requests
    (on.Slo.completed + on.Slo.shed);
  check_conservation { base with Config.detect = true } on

(* ---- spans ---------------------------------------------------------------- *)

(* Span recording is host-side instrumentation: turning it on must not
   perturb the simulated run in any observable way. *)
let test_svc_spans_transparent () =
  let off = Domains.run base in
  let on = Domains.run { base with Config.spans = true } in
  check_bool "no summary when off" true (off.Slo.spans = None);
  check_bool "summary when on" true (on.Slo.spans <> None);
  check_int "requests identical" off.Slo.requests on.Slo.requests;
  check_int "completed identical" off.Slo.completed on.Slo.completed;
  check_int "shed identical" off.Slo.shed on.Slo.shed;
  check_bool "simulated span identical" true (off.Slo.span_ns = on.Slo.span_ns);
  check_bool "goodput identical" true
    (off.Slo.goodput_mops = on.Slo.goodput_mops);
  check_bool "depth series identical" true
    (off.Slo.depth_series = on.Slo.depth_series)

(* Every completed request's phases must telescope to its SLO latency
   exactly, and the windowed series must partition the completions. *)
let test_svc_span_conservation () =
  let cfg = { base with Config.spans = true; workload = Ycsb.Workload.a } in
  let r = Domains.run cfg in
  match r.Slo.spans with
  | None -> Alcotest.fail "no span summary"
  | Some sp ->
      check_int "one span per completed request" r.Slo.completed
        sp.Slo.sp_count;
      check_int "zero residual violations" 0 sp.Slo.sp_residual_violations;
      check_bool "zero max residual" true (sp.Slo.sp_residual_max <= 1e-6);
      let phase_total = Array.fold_left ( +. ) 0.0 sp.Slo.sp_phase_sum in
      check_bool "phase totals sum to latency total" true
        (abs_float (phase_total -. sp.Slo.sp_lat_sum) <= 1e-3);
      check_bool "windows present" true (r.Slo.windows <> []);
      check_int "windows partition completions" r.Slo.completed
        (List.fold_left (fun a w -> a + w.Slo.w_completed) 0 r.Slo.windows);
      check_conservation cfg r

(* During a power-fail campaign the queue-wait of requests stuck behind
   the outage is attributed to recovery overlap. *)
let test_svc_span_recovery_attribution () =
  let cfg =
    {
      base with
      Config.shards = 4;
      zones = 4;
      clients = 4;
      requests_per_client = 400;
      offered_mops = 4.0;
      workload = Ycsb.Workload.a;
      queue_cap = 64;
      spans = true;
      crash = Some { Config.crash_shard = 1; crash_at_ns = 50_000.0 };
    }
  in
  let r = Domains.run cfg in
  (* the windowed series spans the ~45 ms outage in 20 us windows whose
     phase histograms are almost all empty; a bucket array in each would
     make this report ~1.3 GB *)
  let words = Obj.reachable_words (Obj.repr r) in
  check_bool
    (Printf.sprintf "report heap bounded (%d words)" words)
    true (words < 4_000_000);
  match r.Slo.spans with
  | None -> Alcotest.fail "no span summary"
  | Some sp ->
      check_int "zero violations under crash" 0 sp.Slo.sp_residual_violations;
      check_bool "recovery overlap attributed" true
        (sp.Slo.sp_recovery_sum > 0.0);
      check_bool "outage window recorded" true (sp.Slo.sp_outages <> []);
      (* the overlap is a sub-attribution inside the queue phase *)
      check_bool "overlap bounded by queue time" true
        (sp.Slo.sp_recovery_sum <= sp.Slo.sp_phase_sum.(Obs.Span.ph_queue))

(* Delivery is exact and causal: a request is admitted when its network
   hop ends, or at the first boundary after its send round when the hop
   ends inside that round, and a request that finds its shard idle and
   empty goes straight to the worker. At the default epoch both admission
   cases occur; at an epoch shorter than every hop, every request is
   admitted at its hop's end, and received requests stay pending across
   exchanges. *)
let test_svc_exact_delivery () =
  let run cfg =
    let r = Domains.run cfg in
    check_conservation cfg r;
    let at_hop, idle = check_delivery cfg r in
    let count =
      match r.Slo.spans with Some sp -> sp.Slo.sp_count | None -> 0
    in
    check_int "every request completed" r.Slo.requests r.Slo.completed;
    check_int "one span per completion" r.Slo.completed count;
    check_bool (Printf.sprintf "idle shards seen (%d)" idle) true (idle > 0);
    (count, at_hop)
  in
  let cfg =
    { base with Config.spans = true; workload = Ycsb.Workload.a; detect = true }
  in
  let count, at_hop = run cfg in
  check_bool
    (Printf.sprintf "both admission cases (%d of %d at the hop's end)" at_hop
       count)
    true
    (at_hop > 0 && at_hop < count);
  let count, at_hop = run { cfg with Config.exchange_ns = 250.0 } in
  check_int "short epoch: every request admitted at its hop's end" count
    at_hop

let test_svc_span_json_determinism () =
  let json () =
    Json.to_string (Slo.spans_to_json (Domains.run { base with Config.spans = true }))
  in
  let a = json () in
  check_bool "non-trivial document" true (String.length a > 500);
  Alcotest.(check string) "byte-identical span JSON" a (json ())

let test_svc_validation () =
  let bad cfg =
    match Config.validate cfg with Ok () -> false | Error _ -> true
  in
  check_bool "zero shards" true (bad { base with Config.shards = 0 });
  check_bool "crash shard range" true
    (bad
       { base with
         Config.crash = Some { Config.crash_shard = 9; crash_at_ns = 1.0 } });
  check_bool "negative offered load" true
    (bad { base with Config.offered_mops = 0.0 });
  check_bool "base ok" false (bad base);
  Alcotest.check_raises "run rejects invalid config"
    (Invalid_argument "Svc.Domains.run: shards must be >= 1: 0")
    (fun () -> ignore (Domains.run { base with Config.shards = 0 }))

(* ---- the config's key table ---------------------------------------------- *)

let spec line =
  match Config.of_string line with Ok c -> c | Error e -> Alcotest.fail e

(* the two @svc/smoke runs, as svc/dune spells them *)
let smoke_lines =
  [
    "shards=4 zones=4 clients=8 requests=150 keys=1024 load=4 workload=a \
     latency=uniform mode=striped";
    "shards=4 zones=4 clients=4 requests=150 keys=512 load=4 workload=a \
     latency=uniform mode=striped crash=1@50000";
  ]

let every_key_off =
  "structure=bztree shards=3 zones=2 clients=5 requests=77 load=1.5 \
   arrival=jitter:0.25 workload=b keys=999 batch=4 queue_cap=32 \
   exchange_ns=700.5 seed=9 latency=uniform mode=striped nodes=2 spans=on \
   window_ns=15000 detect=on crash=2@20000.25"

let test_config_roundtrip () =
  let off = spec every_key_off in
  List.iter2
    (fun (k, d) (k', v) ->
      Alcotest.(check string) "same key order" k k';
      check_bool (Printf.sprintf "%s=%s is off its default %s" k v d) true (d <> v))
    (Config.fields Config.default) (Config.fields off);
  check_bool "seed sets the shards' seed too" true (off.Config.sys.Harness.Kv.seed = 9);
  List.iter
    (fun c ->
      let line = Config.to_string c in
      check_bool ("round-trip: " ^ line) true (Config.of_string line = Ok c))
    (Config.default :: off :: List.map spec smoke_lines);
  Alcotest.(check string)
    "the default config prints every key"
    "structure=upskiplist shards=4 zones=4 clients=16 requests=512 load=2 \
     arrival=poisson workload=C keys=4096 batch=8 queue_cap=256 \
     exchange_ns=1000 seed=42 latency=optane mode=numa nodes=1 spans=off \
     window_ns=20000 detect=off crash=none"
    (Config.to_string Config.default)

(* The report's config object, read back as SPEC tokens, is the run: the
   rebuilt config writes the same document. *)
let test_config_replays_report () =
  let cfg =
    spec
      "shards=2 zones=2 clients=4 requests=60 keys=256 load=4 workload=a \
       latency=uniform detect=on spans=on crash=1@20000"
  in
  let doc = Json.to_string (Slo.to_json (Domains.run cfg)) in
  let tokens =
    match Json.parse doc with
    | Json.Obj fields -> (
        match List.assoc "config" fields with
        | Json.Obj kvs ->
            List.map
              (function
                | k, Json.Str v -> k ^ "=" ^ v
                | k, _ -> Alcotest.fail ("config value not a string: " ^ k))
              kvs
        | _ -> Alcotest.fail "config is not an object")
    | _ -> Alcotest.fail "report is not an object"
  in
  let rebuilt = spec (String.concat " " tokens) in
  check_bool "crashed, replayed" true
    (List.exists (fun s -> s.Slo.crashed) (Domains.run rebuilt).Slo.shard_reports);
  Alcotest.(check string)
    "the rebuilt config writes the same report" doc
    (Json.to_string (Slo.to_json (Domains.run rebuilt)))

let test_config_errors () =
  Alcotest.(check (result reject string))
    "an unknown key's error names every key"
    (Error
       "unknown key: bogus (want structure | shards | zones | clients | \
        requests | load | arrival | workload | keys | batch | queue_cap | \
        exchange_ns | seed | latency | mode | nodes | spans | window_ns | \
        detect | crash)")
    (Config.of_string "bogus=1");
  let contains s sub =
    let n = String.length sub in
    let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
    at 0
  in
  let rejected key line =
    match Config.of_string line with
    | Ok _ -> Alcotest.fail ("accepted: " ^ line)
    | Error e -> check_bool (Printf.sprintf "%s names %s: %s" line key e) true (contains e key)
  in
  List.iter
    (fun (key, line) -> rejected key line)
    [
      ("shards", "shards=0"); ("zones", "zones=0"); ("clients", "clients=0");
      ("requests", "requests=-1"); ("load", "load=0"); ("load", "load=-2");
      ("load", "load=nan"); ("arrival", "arrival=jitter:2"); ("arrival", "arrival=burst");
      ("workload", "workload=z"); ("keys", "keys=1"); ("batch", "batch=0");
      ("queue_cap", "queue_cap=0"); ("exchange_ns", "exchange_ns=0");
      ("seed", "seed=x"); ("latency", "latency=fast"); ("mode", "mode=x");
      ("nodes", "nodes=0"); ("spans", "spans=yes"); ("window_ns", "window_ns=-5");
      ("detect", "detect=1"); ("crash", "crash=-1@5"); ("crash", "crash=1@-5");
      ("crash", "crash=1"); ("crash", "crash=4@100"); ("crash", "shards=2 crash=2@0");
    ];
  check_bool "malformed token rejected" true (Result.is_error (Config.of_string "shards"));
  (* a latency record that is neither preset has no spelling *)
  let unnamed =
    { Config.default with
      sys = { Config.default.sys with latency = { Pmem.Latency.uniform with Pmem.Latency.fence_ns = 2.0 } } }
  in
  (match Config.validate unnamed with
  | Ok () -> Alcotest.fail "an unnamed latency validated"
  | Error e -> check_bool ("names latency: " ^ e) true (contains e "latency"))

(* ---- domain-parallel determinism ----------------------------------------- *)

let dom_base =
  { base with Config.shards = 4; zones = 2; clients = 8; queue_cap = 64 }

(* The epoch-exchange engine's whole contract: the report is a function of
   the config alone, not of how many domains executed it. *)
let test_domains_parallel_byte_identity () =
  let cfg = { dom_base with Config.spans = true } in
  let seq = Domains.run ~domains:1 cfg in
  let par = Domains.run ~domains:4 cfg in
  Alcotest.(check string)
    "SLO JSON identical across domains 1/4" (Json.to_string (Slo.to_json seq))
    (Json.to_string (Slo.to_json par));
  Alcotest.(check string)
    "span JSON identical across domains 1/4" (Json.to_string (Slo.spans_to_json seq))
    (Json.to_string (Slo.spans_to_json par));
  check_bool "non-trivial run" true (seq.Slo.completed > 0);
  check_conservation cfg par

(* A one-shard power failure must not disturb the identity, and under
   detect the crashed station recovers exactly-once in-line while the
   other stations keep completing work. *)
let test_domains_crash_detect_identity () =
  let cfg =
    {
      dom_base with
      Config.clients = 4;
      requests_per_client = 400;
      workload = Ycsb.Workload.a;
      detect = true;
      crash = Some { Config.crash_shard = 1; crash_at_ns = 30_000.0 };
    }
  in
  let seq = Domains.run ~domains:1 cfg in
  let par = Domains.run ~domains:4 cfg in
  Alcotest.(check string)
    "crash report identical across domains 1/4" (Json.to_string (Slo.to_json seq))
    (Json.to_string (Slo.to_json par));
  check_bool "shard 1 crashed" true
    (List.nth par.Slo.shard_reports 1).Slo.crashed;
  check_int "nothing lost under detect" 0 par.Slo.lost;
  check_bool "stranded work replayed or suppressed" true
    (par.Slo.replayed + par.Slo.dup_suppressed > 0);
  List.iter
    (fun s ->
      check_int "audit clean" 0 s.Slo.audit_errors;
      if not s.Slo.crashed then
        check_bool
          (Printf.sprintf "shard %d kept serving during outage" s.Slo.shard)
          true
          (s.Slo.completed_in_outage > 0))
    par.Slo.shard_reports;
  check_conservation cfg par

(* Scan fan-out crosses stations through the mailboxes; the aggregation
   must still be domain-count independent. *)
let test_domains_scan_identity () =
  let cfg =
    { dom_base with Config.workload = Ycsb.Workload.e; offered_mops = 2.0 }
  in
  let seq = Domains.run ~domains:1 cfg in
  let par = Domains.run ~domains:3 cfg in
  Alcotest.(check string)
    "scan report identical across domains 1/3" (Json.to_string (Slo.to_json seq))
    (Json.to_string (Slo.to_json par));
  check_bool "scans completed" true (par.Slo.completed > 0);
  check_bool "fan-out happened" true (par.Slo.enqueued > par.Slo.requests)

let () =
  Alcotest.run "svc"
    [
      ( "router",
        [
          case "placement" test_router_placement;
          case "balance across shard counts" test_router_balance;
          case "reconfigure stability" test_router_reconfigure_stability;
          case "hop costs" test_router_hop;
          case "range planning" test_router_range_plan;
          case "k-way merge" test_router_merge;
        ] );
      ("queue", [ case "bounded fifo" test_bqueue ]);
      ( "service",
        [
          case "deterministic SLO JSON" test_svc_determinism;
          case "requests complete" test_svc_completes_requests;
          slow_case "sharding speedup" test_svc_sharding_speedup;
          case "scan fan-out" test_svc_scan_fanout;
          slow_case "one-shard crash recovery" test_svc_crash_recovery;
          slow_case "detect: crash is exactly once"
            test_svc_detect_crash_exactly_once;
          case "detect: crash-free parity" test_svc_detect_no_crash_parity;
          case "config validation" test_svc_validation;
        ] );
      ( "config table",
        [
          case "print then parse" test_config_roundtrip;
          case "a report's config replays it" test_config_replays_report;
          case "errors name their key" test_config_errors;
        ] );
      ( "domains",
        [
          case "parallel byte-identity" test_domains_parallel_byte_identity;
          slow_case "crash + detect identity" test_domains_crash_detect_identity;
          case "scan fan-out identity" test_domains_scan_identity;
        ] );
      ( "spans",
        [
          case "spans are transparent" test_svc_spans_transparent;
          case "span conservation" test_svc_span_conservation;
          case "delivery is exact and causal" test_svc_exact_delivery;
          slow_case "recovery attribution" test_svc_span_recovery_attribution;
          case "span JSON determinism" test_svc_span_json_determinism;
        ] );
    ]
