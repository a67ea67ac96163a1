(* Uniform key-value interface over the three evaluated structures, plus
   fixture construction (simulated machine + memory manager + structure).

   Each fixture owns its own simulated PMEM so experiments are independent
   and reproducible. [reconnect] performs the host-side part of recovery
   (epoch / run-id bump, dropped DRAM caches); [recover] is the structure's
   post-crash work as a timed fiber (PMwCAS descriptor scan, transaction
   rollback; UPSkipList only recomputes its volatile top level and defers
   every repair into normal operation). *)

module Mem = Memory.Mem

type t = {
  name : string;
  upsert : tid:int -> int -> int -> int option;
  search : tid:int -> int -> int option;
  remove : tid:int -> int -> int option;
  range : tid:int -> lo:int -> hi:int -> (int * int) list;
  recover : tid:int -> unit;
  reconnect : unit -> unit;
  to_alist : unit -> (int * int) list;
  audit : unit -> string list;
      (* persistent-heap invariant violations (empty = clean); structures
         without a persistent auditor return [] *)
  corrupt : string -> bool;
      (* test-only fault injection for harness self-validation; false =
         mutation not applicable / unsupported *)
  detect : Detect.t option;
      (* per-client announcement table for detectable ops; present iff the
         fixture was built with ?detect_clients *)
  pmem : Pmem.t;
  mem : Mem.t;
  pools : int;  (* pools reopened at reconnect (for recovery-time model) *)
}

type sys = {
  mode : Pmem.mode;
  latency : Pmem.Latency.params;
  numa_nodes : int;
  pool_words : int;  (* per pool *)
  seed : int;
  max_threads : int;
}

let default_sys =
  {
    mode = Pmem.Multi_pool;
    latency = Pmem.Latency.default;
    numa_nodes = 4;
    pool_words = 1 lsl 21;
    seed = 42;
    max_threads = 200;
  }

let make_pmem sys =
  let n_pools = match sys.mode with Pmem.Multi_pool -> sys.numa_nodes | Pmem.Striped -> 1 in
  let pool_words =
    match sys.mode with
    | Pmem.Multi_pool -> sys.pool_words
    | Pmem.Striped -> sys.pool_words * sys.numa_nodes
  in
  Pmem.create
    {
      Pmem.numa_nodes = sys.numa_nodes;
      pool_words;
      n_pools;
      mode = sys.mode;
      (* Striped-mode interleave granularity. The paper stripes at 2 MiB
         over hundreds of GiB — a vanishing fraction of the data; simulated
         datasets are ~10^5 words, so the stripe must scale down with them
         or all data lands on one NUMA node's bandwidth queue. *)
      stripe_words = 512;
      latency = sys.latency;
      cache_lines = 4096;
      seed = sys.seed;
    }

let machine t = Pmem.machine t.pmem

(* Detect table construction shared by the fixtures (structure-agnostic:
   the table lives in its own region of pool 0 and only needs the memory
   manager), plus the audit combinator folding its well-formedness check
   into the structure's own persistent audit. *)
let make_detect ~mem = function
  | None -> None
  | Some clients -> Some (Detect.create ~mem ~clients)

let with_detect_audit det base_audit =
  match det with
  | None -> base_audit
  | Some d -> fun () -> base_audit () @ Detect.audit d

(* ---- UPSkipList --------------------------------------------------------- *)

let make_upskiplist ?(cfg = Upskiplist.Config.default) ?(n_arenas = 8)
    ?detect_clients sys =
  let pmem = make_pmem sys in
  let block_words = Upskiplist.Skiplist.required_block_words cfg in
  let mem =
    Mem.create ~pmem ~chunk_words:(64 * block_words) ~block_words ~n_arenas ()
  in
  Mem.format mem;
  let sl =
    Upskiplist.Skiplist.create ~mem ~cfg ~max_threads:sys.max_threads
      ~seed:(sys.seed + 17)
  in
  let det = make_detect ~mem detect_clients in
  {
    name = "UPSkipList";
    upsert = (fun ~tid k v -> Upskiplist.Skiplist.upsert sl ~tid k v);
    search = (fun ~tid k -> Upskiplist.Skiplist.search sl ~tid k);
    remove = (fun ~tid k -> Upskiplist.Skiplist.remove sl ~tid k);
    range = (fun ~tid ~lo ~hi -> Upskiplist.Skiplist.range sl ~tid ~lo ~hi);
    recover = (fun ~tid -> Upskiplist.Skiplist.recover sl ~tid);
    reconnect = (fun () -> Mem.reconnect mem);
    to_alist = (fun () -> Upskiplist.Skiplist.to_alist sl);
    audit = with_detect_audit det (fun () -> Upskiplist.Skiplist.audit_persistent sl);
    corrupt = (fun what -> Upskiplist.Skiplist.corrupt sl what);
    detect = det;
    pmem;
    mem;
    pools = (Pmem.config pmem).Pmem.n_pools;
  }

(* ---- BzTree -------------------------------------------------------------- *)

let make_bztree ?(leaf_capacity = 64) ?(fanout = 16) ~n_descriptors ?detect_clients
    sys =
  let pmem = make_pmem sys in
  let mem = Mem.create ~pmem ~chunk_words:(1 lsl 14) ~block_words:8 ~n_arenas:1 () in
  Mem.format mem;
  let pmw = Pmwcas.create_poked ~mem ~pool:0 ~n_descriptors in
  let bz =
    Bztree.create ~mem ~pmw ~leaf_capacity ~fanout ~max_threads:sys.max_threads
  in
  let det = make_detect ~mem detect_clients in
  {
    name = "BzTree";
    upsert = (fun ~tid k v -> Bztree.upsert bz ~tid k v);
    search = (fun ~tid k -> Bztree.search bz ~tid k);
    remove = (fun ~tid k -> Bztree.remove bz ~tid k);
    range = (fun ~tid ~lo ~hi -> Bztree.range bz ~tid ~lo ~hi);
    recover = (fun ~tid:_ -> Bztree.recover bz);
    reconnect = (fun () -> Mem.reconnect mem);
    to_alist = (fun () -> Bztree.to_alist bz);
    audit = with_detect_audit det (fun () -> []);
    corrupt = (fun _ -> false);
    detect = det;
    pmem;
    mem;
    pools = (Pmem.config pmem).Pmem.n_pools;
  }

(* ---- PMDK lock-based skip list ------------------------------------------- *)

let make_pmdk_list ?(max_height = 24) ?detect_clients sys =
  let pmem = make_pmem sys in
  let mem = Mem.create ~pmem ~chunk_words:(1 lsl 14) ~block_words:8 ~n_arenas:1 () in
  Mem.format mem;
  let tx = Pmdk.Tx.create_poked ~mem in
  let sl =
    Pmdk.Lock_skiplist.create ~mem ~tx ~max_height ~max_threads:sys.max_threads
      ~seed:(sys.seed + 23)
  in
  let det = make_detect ~mem detect_clients in
  {
    name = "PMDK skip list";
    upsert = (fun ~tid k v -> Pmdk.Lock_skiplist.upsert sl ~tid k v);
    search = (fun ~tid k -> Pmdk.Lock_skiplist.search sl ~tid k);
    remove = (fun ~tid k -> Pmdk.Lock_skiplist.remove sl ~tid k);
    range = (fun ~tid ~lo ~hi -> Pmdk.Lock_skiplist.range sl ~tid ~lo ~hi);
    recover = (fun ~tid:_ -> Pmdk.Lock_skiplist.recover sl);
    reconnect = (fun () -> Pmdk.Tx.reconnect tx);
    to_alist = (fun () -> Pmdk.Lock_skiplist.to_alist sl);
    audit = with_detect_audit det (fun () -> []);
    corrupt = (fun _ -> false);
    detect = det;
    pmem;
    mem;
    pools = (Pmem.config pmem).Pmem.n_pools;
  }

(* ---- spellings and name-dispatched construction -------------------------- *)

(* One table per vocabulary, read by replay specs, the CLI and the service
   config, so every driver accepts the same spellings: each value with its
   canonical name first, then its aliases, matched case-insensitively. *)
type structure = Upskiplist | Bztree | Pmdk

let structures =
  [
    (Upskiplist, [ "upskiplist"; "ups" ]);
    (Bztree, [ "bztree"; "bz" ]);
    (Pmdk, [ "pmdk"; "lock" ]);
  ]

let modes = [ (Pmem.Striped, [ "striped" ]); (Pmem.Multi_pool, [ "numa"; "multi" ]) ]

type latency = Uniform | Optane

let latencies = [ (Uniform, [ "uniform" ]); (Optane, [ "optane" ]) ]

let parse ~what table s =
  let l = String.lowercase_ascii s in
  match List.find_opt (fun (_, names) -> List.mem l names) table with
  | Some (v, _) -> Ok v
  | None ->
      Error
        (Printf.sprintf "unknown %s: %s (want %s)" what s
           (String.concat " | " (List.map (fun (_, names) -> List.hd names) table)))

let name table v = List.hd (List.assoc v table)
let structure_of_string = parse ~what:"structure" structures
let structure_name = name structures
let mode_of_string = parse ~what:"mode" modes
let mode_name = name modes
let latency_of_string = parse ~what:"latency model" latencies
let latency_name = name latencies

let latency_params = function
  | Uniform -> Pmem.Latency.uniform
  | Optane -> Pmem.Latency.default

let default_descriptors = 16_384

let make_named structure ?cfg ?(n_descriptors = default_descriptors) ?detect_clients
    sys =
  match structure with
  | Upskiplist -> make_upskiplist ?cfg ?detect_clients sys
  | Bztree -> make_bztree ~n_descriptors ?detect_clients sys
  | Pmdk -> make_pmdk_list ?detect_clients sys

(* ---- detectable operations ------------------------------------------------ *)

let detect_exn t =
  match t.detect with
  | Some d -> d
  | None ->
      invalid_arg
        ("Kv: " ^ t.name ^ " fixture was built without ?detect_clients")

(* Announce → execute → resolve. The announce carries its own fence (the
   one extra fence a detectable op costs); resolution is one flush whose
   fence the caller may defer (~fence:false) into a group commit. *)
let d_upsert t ~tid ~client ~seq ?(fence = true) k v =
  let d = detect_exn t in
  Detect.announce d ~tid ~client ~seq ~op:Detect.Op_upsert ~key:k ~value:v;
  let prev = t.upsert ~tid k v in
  Detect.resolve d ~tid ~client ~prev ~fence ();
  prev

let d_remove t ~tid ~client ~seq ?(fence = true) k =
  let d = detect_exn t in
  Detect.announce d ~tid ~client ~seq ~op:Detect.Op_remove ~key:k ~value:0;
  let prev = t.remove ~tid k in
  Detect.resolve d ~tid ~client ~prev ~fence ();
  prev

(* The recovery resolve pass, probing through the structure's own search.
   Part of post-crash recovery wherever a fixture carries a detect table:
   run it after [recover] and before any replay decision. *)
let d_recover t ~tid =
  let d = detect_exn t in
  Detect.recover_resolve d ~tid ~probe:(fun ~tid k -> t.search ~tid k)

let d_decide t ~client ~seq = Detect.decide (detect_exn t) ~client ~seq
