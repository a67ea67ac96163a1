(* Every metric the benchmark reports: the end-to-end metrics of an
   untraced run (with the bound by which each may worsen before a change is
   a regression) and the per-layer metrics of a traced run (with the
   end-to-end metric each should move). BENCHMARK.json declares the same
   names, units and directions; the smoke test checks that they agree. *)

type better = Higher | Lower

let better_to_string = function Higher -> "higher" | Lower -> "lower"

type e2e = { name : string; unit : string; better : better; bound : float }

(* Simulated metrics depend only on the seed. Host metrics are means over
   sub-runs of medians over repetitions; the host is shared and its speed
   drifts over minutes, so host time takes the largest bound, 0.25, and so
   does set-up time, so that work moved into set-up still shows. *)
let end_to_end =
  [
    { name = "sim_mops"; unit = "Mop/s"; better = Higher; bound = 0.05 };
    { name = "sim_p50_us"; unit = "us"; better = Lower; bound = 0.05 };
    { name = "sim_p99_us"; unit = "us"; better = Lower; bound = 0.10 };
    { name = "sim_p999_us"; unit = "us"; better = Lower; bound = 0.15 };
    { name = "host_ns_per_op"; unit = "ns"; better = Lower; bound = 0.25 };
    { name = "host_peak_mb"; unit = "MB"; better = Lower; bound = 0.10 };
    { name = "setup_s"; unit = "s"; better = Lower; bound = 0.25 };
  ]

type layer_metric = {
  lname : string;
  lunit : string;
  lbetter : better;
  target : string;
      (* the end-to-end metric this layer metric should move, or the
         per-layer headline it is ("space", "recovery", "correctness") *)
}

let m lname lunit lbetter target = { lname; lunit; lbetter; target }

let per_layer =
  [
    (* Sim.Sched *)
    m "sched.events_per_op" "1/op" Lower "host_ns_per_op";
    m "sched.host_ns_per_event" "ns" Lower "host_ns_per_op";
    m "sched.inline_event_ns" "ns" Lower "host_ns_per_op";
    m "sched.null_event_ns" "ns" Lower "host_ns_per_op";
    (* Pmem *)
    m "pmem.load_misses_per_op" "1/op" Lower "sim_p50_us";
    m "pmem.store_misses_per_op" "1/op" Lower "sim_mops";
    m "pmem.flushes_per_op" "1/op" Lower "sim_p99_us";
    m "pmem.dirty_flushes_per_op" "1/op" Lower "sim_p99_us";
    m "pmem.fences_per_op" "1/op" Lower "sim_p99_us";
    m "pmem.cas_fail_frac" "ratio" Lower "sim_p99_us";
    m "pmem.remote_frac" "ratio" Lower "sim_p50_us";
    m "pmem.host_ns_per_op" "ns" Lower "host_ns_per_op";
    m "pmem.hit_read_ns" "ns" Lower "host_ns_per_op";
    m "pmem.miss_read_ns" "ns" Lower "host_ns_per_op";
    m "pmem.flush_fence_ns" "ns" Lower "host_ns_per_op";
    (* Memory (Mem, Block_alloc) *)
    m "mem.allocs_per_kop" "1/kop" Lower "sim_mops";
    m "mem.frees_per_kop" "1/kop" Higher "space";
    m "mem.chunks" "count" Lower "space";
    m "mem.free_blocks" "count" Lower "space";
    m "mem.bytes_per_key" "B/key" Lower "space";
    (* Upskiplist.Skiplist, through the Kv closures *)
    m "skiplist.read_p50_us" "us" Lower "sim_p50_us";
    m "skiplist.update_p50_us" "us" Lower "sim_p50_us";
    m "skiplist.insert_p50_us" "us" Lower "sim_p50_us";
    m "skiplist.remove_p50_us" "us" Lower "sim_p50_us";
    m "skiplist.read_p99_us" "us" Lower "sim_p99_us";
    m "skiplist.update_p99_us" "us" Lower "sim_p99_us";
    m "skiplist.cas_per_op" "1/op" Lower "sim_mops";
    m "skiplist.cas_fail_frac" "ratio" Lower "sim_p99_us";
    m "skiplist.restarts_per_kop" "1/kop" Lower "sim_p99_us";
    m "skiplist.splits_per_kop" "1/kop" Lower "sim_p99_us";
    m "skiplist.helps_per_kop" "1/kop" Lower "sim_p99_us";
    m "skiplist.finger_hit_frac" "ratio" Higher "sim_mops";
    m "skiplist.finger_invalid_per_kop" "1/kop" Lower "sim_mops";
    m "skiplist.host_ns_per_op" "ns" Lower "host_ns_per_op";
    (* Detect, through Kv.d_* *)
    m "detect.announces_per_kop" "1/kop" Lower "sim_mops";
    m "detect.resolves_per_kop" "1/kop" Lower "sim_mops";
    m "detect.fences_per_upsert" "1/op" Lower "sim_p99_us";
    m "detect.sim_overhead_frac" "ratio" Lower "sim_mops";
    m "detect.host_overhead_ns" "ns" Lower "host_ns_per_op";
    (* Svc (Domains, Router, Bqueue, Slo), spans on *)
    m "svc.hop_us" "us" Lower "sim_p99_us";
    m "svc.queue_us" "us" Lower "sim_p99_us";
    m "svc.batch_us" "us" Lower "sim_p99_us";
    m "svc.exec_us" "us" Lower "sim_p50_us";
    m "svc.commit_us" "us" Lower "sim_p99_us";
    m "svc.fence_wait_us" "us" Lower "sim_p99_us";
    m "svc.batch_size" "1/batch" Higher "sim_mops";
    m "svc.group_flushes_per_batch" "1/batch" Lower "sim_p99_us";
    m "svc.queue_hwm" "count" Lower "sim_p99_us";
    m "svc.max_mops_at_slo" "Mop/s" Higher "sim_mops";
    (* recovery (Kv.recover, Kv.d_recover, Fault.pool_open_ns) *)
    m "recovery.total_ms" "ms" Lower "recovery";
    m "recovery.pool_open_ms" "ms" Lower "recovery";
    m "recovery.structure_us" "us" Lower "recovery";
    m "recovery.detect_resolve_us" "us" Lower "recovery";
    m "recovery.repairs_per_trial" "count" Lower "sim_mops";
    m "recovery.post_crash_ratio" "ratio" Higher "sim_mops";
    m "recovery.lost_acked" "count" Lower "correctness";
    (* set-up (Ycsb, Driver, Kv.make_* ) *)
    m "setup.fixture_s" "s" Lower "setup_s";
    m "setup.generate_s" "s" Lower "setup_s";
    m "setup.preload_s" "s" Lower "setup_s";
    m "setup.warmup_s" "s" Lower "setup_s";
    (* the traced run itself *)
    m "trace.overhead_frac" "ratio" Lower "host_ns_per_op";
  ]
