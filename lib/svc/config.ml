module Kv = Harness.Kv

type crash_plan = { crash_shard : int; crash_at_ns : float }

type t = {
  structure : Kv.structure;
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
  exchange_ns : float;
  seed : int;
  sys : Kv.sys;
  crash : crash_plan option;
  spans : bool;
  window_ns : float;
  detect : bool;
}

let default =
  {
    structure = Kv.Upskiplist;
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
    exchange_ns = 1_000.0;
    seed = 42;
    sys = { Kv.default_sys with numa_nodes = 1; pool_words = 1 lsl 20 };
    crash = None;
    spans = false;
    window_ns = 20_000.0;
    detect = false;
  }

(* offered_mops is requests per microsecond across all clients; each of the
   [clients] open-loop sources contributes 1/clients of it *)
let mean_gap_ns t = float_of_int t.clients /. (t.offered_mops *. 1e-3)

(* ---- the key table ------------------------------------------------------ *)

(* One entry per field a run can vary (a {!Harness.Keys} table): the only
   place the service config is spelled. The CLI parses SPEC tokens with it,
   the SLO, span and tail documents print their [config] object with it, and
   [validate] re-parses every printed value. Each key's parser holds its
   bounds; [validate] adds the one check across keys. *)
module K = Harness.Keys

(* A latency record prints only as one of Kv's presets; any other record has
   no spelling, so the table cannot print the run and [validate] rejects it. *)
let latency_name p =
  match List.find_opt (fun l -> Kv.latency_params l = p) [ Kv.Uniform; Kv.Optane ] with
  | Some l -> Kv.latency_name l
  | None -> "unnamed"

let crash_to_string = function
  | None -> "none"
  | Some c -> Printf.sprintf "%d@%s" c.crash_shard (Json.num_to_string c.crash_at_ns)

let crash_of_string v =
  match String.split_on_char '@' v with
  | [ "none" ] -> Ok None
  | [ s; t ] -> (
      match (int_of_string_opt s, float_of_string_opt t) with
      | Some crash_shard, Some crash_at_ns
        when crash_shard >= 0 && crash_at_ns >= 0.0 && Float.is_finite crash_at_ns ->
          Ok (Some { crash_shard; crash_at_ns })
      | _ -> Error (Printf.sprintf "crash: want a shard >= 0 and a time >= 0 ns: %s" v))
  | _ -> Error (Printf.sprintf "crash: want none | SHARD@NS: %s" v)

let keys =
  [
    K.spelling_key "structure" Kv.structure_of_string Kv.structure_name
      (fun c -> c.structure)
      (fun c structure -> { c with structure });
    K.int_key "shards" ~min:1 (fun c -> c.shards) (fun c shards -> { c with shards });
    K.int_key "zones" ~min:1 (fun c -> c.zones) (fun c zones -> { c with zones });
    K.int_key "clients" ~min:1 (fun c -> c.clients) (fun c clients -> { c with clients });
    K.int_key "requests" ~min:0
      (fun c -> c.requests_per_client)
      (fun c requests_per_client -> { c with requests_per_client });
    K.float_key "load" ~positive:true
      (fun c -> c.offered_mops)
      (fun c offered_mops -> { c with offered_mops });
    K.spelling_key "arrival" Sim.Arrival.kind_of_string Sim.Arrival.kind_to_string
      (fun c -> c.arrival)
      (fun c arrival -> { c with arrival });
    K.spelling_key "workload" Ycsb.Workload.of_label
      (fun w -> w.Ycsb.Workload.label)
      (fun c -> c.workload)
      (fun c workload -> { c with workload });
    K.int_key "keys" ~min:2 (fun c -> c.n_initial) (fun c n_initial -> { c with n_initial });
    K.int_key "batch" ~min:1 (fun c -> c.batch) (fun c batch -> { c with batch });
    K.int_key "queue_cap" ~min:1 (fun c -> c.queue_cap) (fun c queue_cap -> { c with queue_cap });
    K.float_key "exchange_ns" ~positive:true
      (fun c -> c.exchange_ns)
      (fun c exchange_ns -> { c with exchange_ns });
    (* one seed for the run and for its shards' machines *)
    K.int_key "seed"
      (fun c -> c.seed)
      (fun c seed -> { c with seed; sys = { c.sys with seed } });
    K.spelling_key "latency"
      (fun v -> Result.map Kv.latency_params (Kv.latency_of_string v))
      latency_name
      (fun c -> c.sys.latency)
      (fun c latency -> { c with sys = { c.sys with latency } });
    K.spelling_key "mode" Kv.mode_of_string Kv.mode_name
      (fun c -> c.sys.mode)
      (fun c mode -> { c with sys = { c.sys with mode } });
    K.int_key "nodes" ~min:1
      (fun c -> c.sys.numa_nodes)
      (fun c numa_nodes -> { c with sys = { c.sys with numa_nodes } });
    K.switch_key "spans" (fun c -> c.spans) (fun c spans -> { c with spans });
    K.float_key "window_ns" ~positive:true
      (fun c -> c.window_ns)
      (fun c window_ns -> { c with window_ns });
    K.switch_key "detect" (fun c -> c.detect) (fun c detect -> { c with detect });
    K.key "crash"
      (fun c -> crash_to_string c.crash)
      (fun v c -> Result.map (fun crash -> { c with crash }) (crash_of_string v));
  ]

let fields = K.fields ~default keys
let to_string = K.to_string ~default keys

(* The one check across keys: the crash plan names a shard of the run. *)
let check_crash t =
  match t.crash with
  | Some { crash_shard; _ } when crash_shard >= t.shards ->
      Error (Printf.sprintf "crash: shard %d out of range [0,%d)" crash_shard t.shards)
  | Some _ | None -> Ok t

let validate t = Result.map ignore (Result.bind (K.reparse keys t) check_crash)
let of_string line = Result.bind (K.of_string ~default keys line) check_crash
