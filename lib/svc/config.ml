module Kv = Harness.Kv

type crash_plan = { crash_shard : int; crash_at_ns : float }

type t = {
  structure : string;
  shards : int;
  zones : int;
  clients : int;
  requests_per_client : int;
  offered_mops : float;
  arrival : Sim.Arrival.kind;
  workload : Ycsb.Workload.spec;
  n_initial : int;
  batch : int;
  queue_cap : int;
  net_local_ns : float;
  net_remote_ns : float;
  req_overhead_ns : float;
  batch_overhead_ns : float;
  merge_ns_per_item : float;
  poll_ns : float;
  sample_ns : float;
  exchange_ns : float;
  seed : int;
  sys : Kv.sys;
  crash : crash_plan option;
  spans : bool;
  span_top : int;
  span_sample : int;
  window_ns : float;
  detect : bool;
}

let default =
  {
    structure = "upskiplist";
    shards = 4;
    zones = 4;
    clients = 16;
    requests_per_client = 512;
    offered_mops = 2.0;
    arrival = Sim.Arrival.Poisson;
    workload = Ycsb.Workload.c;
    n_initial = 4096;
    batch = 8;
    queue_cap = 256;
    net_local_ns = 300.0;
    net_remote_ns = 900.0;
    req_overhead_ns = 50.0;
    batch_overhead_ns = 150.0;
    merge_ns_per_item = 5.0;
    poll_ns = 500.0;
    sample_ns = 50_000.0;
    exchange_ns = 1_000.0;
    seed = 42;
    sys = { Kv.default_sys with numa_nodes = 1; pool_words = 1 lsl 20 };
    crash = None;
    spans = false;
    span_top = 1024;
    span_sample = 512;
    window_ns = 20_000.0;
    detect = false;
  }

(* offered_mops is requests per microsecond across all clients; each of the
   [clients] open-loop sources contributes 1/clients of it *)
let mean_gap_ns t = float_of_int t.clients /. (t.offered_mops *. 1e-3)

let validate t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  if t.shards <= 0 then err "shards must be positive (got %d)" t.shards
  else if t.zones <= 0 then err "zones must be positive (got %d)" t.zones
  else if t.clients <= 0 then err "clients must be positive (got %d)" t.clients
  else if t.requests_per_client < 0 then
    err "requests-per-client must be non-negative (got %d)"
      t.requests_per_client
  else if t.offered_mops <= 0.0 then
    err "offered load must be positive (got %g Mops/s)" t.offered_mops
  else if not (Kv.known_structure t.structure) then
    err "unknown structure %S" t.structure
  else if t.n_initial < 0 then err "n-initial must be non-negative"
  else if t.batch <= 0 then err "batch must be positive (got %d)" t.batch
  else if t.queue_cap <= 0 then
    err "queue-cap must be positive (got %d)" t.queue_cap
  else if t.poll_ns <= 0.0 then err "poll interval must be positive"
  else if t.sample_ns <= 0.0 then err "sample interval must be positive"
  else if t.exchange_ns <= 0.0 then err "exchange epoch must be positive"
  else if t.window_ns <= 0.0 then err "window must be positive"
  else if t.spans && t.span_top < 0 then err "span-top must be non-negative"
  else if t.spans && t.span_sample < 0 then
    err "span-sample must be non-negative"
  else if t.spans && t.span_top + t.span_sample = 0 then
    err "spans need span-top or span-sample to be positive"
  else if t.net_local_ns < 0.0 || t.net_remote_ns < 0.0 then
    err "network hop costs must be non-negative"
  else
    match t.crash with
    | Some { crash_shard; crash_at_ns } ->
        if crash_shard < 0 || crash_shard >= t.shards then
          err "crash shard %d out of range [0,%d)" crash_shard t.shards
        else if crash_at_ns < 0.0 then err "crash time must be non-negative"
        else Ok ()
    | None -> Ok ()
