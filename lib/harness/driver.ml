(* Workload execution: preload, timed playback, latency collection.

   Workload streams are pre-generated (Ycsb.Workload.generate) and played
   back by one fiber per simulated thread; per-operation latencies are
   virtual-time differences, and throughput is total operations over the
   longest thread's virtual span — the same methodology as the thesis.

   Each operation is also attributed its observability-counter deltas: a
   fiber snapshots its own Obs row before the op and charges the difference
   to the op's type afterwards. Rows are per-fiber, so interleaved fibers
   never pollute each other's attribution, and the snapshot arrays are
   per-fiber scratch — the per-op cost is one row copy and one 16-entry
   diff, with no allocation. *)

module Stats = Sim.Stats
module Histogram = Sim.Histogram

type op_digest = {
  op : string;  (* "read" / "update" / "insert" / "scan" *)
  count : int;
  totals : int array;  (* Obs.n_ids cells, summed counter deltas *)
}

type result = {
  ops : int;
  sim_ns : float;
  throughput_mops : float;
  read_hist : Histogram.t;
  update_hist : Histogram.t;
  insert_hist : Histogram.t;
  scan_hist : Histogram.t;
  digests : op_digest list;
}

(* Unique nonzero values below BzTree's 2^50 key/value bound. *)
let value_of ~tid ~seq = 1 + (tid * (1 lsl 24)) + seq

let preload (kv : Kv.t) ~threads ~n =
  let body ~tid =
    let i = ref (tid + 1) in
    while !i <= n do
      ignore (kv.Kv.upsert ~tid !i (!i + (1 lsl 30)));
      i := !i + threads
    done
  in
  match
    Sim.Sched.run ~machine:(Kv.machine kv)
      (List.init threads (fun tid -> (tid, body)))
  with
  | Sim.Sched.Completed _ -> ()
  | Sim.Sched.Crashed_at _ -> failwith "Driver.preload: unexpected crash"

let op_labels = [| "read"; "update"; "insert"; "scan" |]

let run_workload (kv : Kv.t) ~spec ~threads ~n_initial ~ops_per_thread ~seed =
  let streams =
    Ycsb.Workload.generate ~seed ~spec ~n_initial ~threads ~ops_per_thread
  in
  let read_hist = Histogram.create ()
  and update_hist = Histogram.create ()
  and insert_hist = Histogram.create ()
  and scan_hist = Histogram.create () in
  (* op-code-indexed counter-delta accumulators (shared across fibers: the
     host is single-threaded, fibers interleave only at simulated yields) *)
  let acc = Array.init 4 (fun _ -> Array.make Obs.n_ids 0) in
  let acc_n = Array.make 4 0 in
  let body ~tid =
    let stream = streams.(tid) in
    let before = Array.make Obs.n_ids 0 in
    Array.iteri
      (fun seq op ->
        let code =
          match op with
          | Ycsb.Workload.Read _ -> 0
          | Ycsb.Workload.Update _ -> 1
          | Ycsb.Workload.Insert _ -> 2
          | Ycsb.Workload.Scan _ -> 3
        in
        Obs.read_row ~tid ~into:before;
        let t0 = Sim.Sched.now () in
        if Obs.Trace.enabled () then
          Obs.Trace.emit ~ts:t0 ~tid ~kind:Obs.Trace.k_op_begin ~arg:code
            ~farg:0.0;
        (match op with
        | Ycsb.Workload.Read k -> ignore (kv.Kv.search ~tid k)
        | Ycsb.Workload.Update k ->
            ignore (kv.Kv.upsert ~tid k (value_of ~tid ~seq))
        | Ycsb.Workload.Insert k ->
            ignore (kv.Kv.upsert ~tid k (value_of ~tid ~seq))
        | Ycsb.Workload.Scan (k, len) ->
            ignore (kv.Kv.range ~tid ~lo:k ~hi:(k + len)));
        let t1 = Sim.Sched.now () in
        if Obs.Trace.enabled () then
          Obs.Trace.emit ~ts:t1 ~tid ~kind:Obs.Trace.k_op_end ~arg:code
            ~farg:0.0;
        let dt = t1 -. t0 in
        let a = acc.(code) in
        acc_n.(code) <- acc_n.(code) + 1;
        for id = 0 to Obs.n_ids - 1 do
          a.(id) <- a.(id) + Obs.counter ~tid id - before.(id)
        done;
        Histogram.add
          (match op with
          | Ycsb.Workload.Read _ -> read_hist
          | Ycsb.Workload.Update _ -> update_hist
          | Ycsb.Workload.Insert _ -> insert_hist
          | Ycsb.Workload.Scan _ -> scan_hist)
          dt)
      stream
  in
  let outcome =
    Sim.Sched.run ~machine:(Kv.machine kv)
      (List.init threads (fun tid -> (tid, body)))
  in
  let sim_ns =
    match outcome with
    | Sim.Sched.Completed { time; _ } -> time
    | Sim.Sched.Crashed_at _ -> failwith "Driver.run_workload: unexpected crash"
  in
  let ops = threads * ops_per_thread in
  let digests =
    List.filter_map
      (fun code ->
        if acc_n.(code) = 0 then None
        else
          Some
            {
              op = op_labels.(code);
              count = acc_n.(code);
              totals = Array.copy acc.(code);
            })
      [ 0; 1; 2; 3 ]
  in
  {
    ops;
    sim_ns;
    throughput_mops = float_of_int ops /. sim_ns *. 1000.0;
    read_hist;
    update_hist;
    insert_hist;
    scan_hist;
    digests;
  }

(* Average throughput over [trials] runs with distinct seeds (the paper
   reports 3-trial averages with one-standard-deviation error bars). The
   structure is reused across trials — only workload C leaves it unchanged,
   but steady-state updates/inserts on a preloaded structure are exactly
   what the paper's warm runs measure. *)
let throughput_trials (kv : Kv.t) ~spec ~threads ~n_initial ~ops_per_thread
    ~seed ~trials =
  let results =
    List.init trials (fun i ->
        (run_workload kv ~spec ~threads ~n_initial ~ops_per_thread
           ~seed:(seed + (100 * i)))
          .throughput_mops)
  in
  Stats.mean_std results
