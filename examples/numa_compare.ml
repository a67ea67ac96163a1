(* NUMA awareness through the service layer: the same four-shard KV service
   under identical open-loop offered load, with each shard's device either
   (a) a single pool striped across four NUMA nodes or (b) four per-node
   pools addressed with extended RIV pointers — the Fig 5.4 / Table 5.2
   comparison, replayed at service granularity so the routing, batching and
   SLO machinery sit on top of both layouts.

     dune exec examples/numa_compare.exe *)

module Kv = Harness.Kv

let () =
  let base_cfg =
    {
      Svc.Config.default with
      shards = 4;
      zones = 4;
      clients = 16;
      requests_per_client = 400;
      offered_mops = 2.0;
      n_initial = 4_096;
      seed = 9;
    }
  in
  let variants =
    [
      ( "striped shards (one 4-node interleaved pool each)",
        { Kv.default_sys with mode = Pmem.Striped; numa_nodes = 4; seed = base_cfg.seed } );
      ( "NUMA-aware shards (four per-node pools each)",
        { Kv.default_sys with mode = Pmem.Multi_pool; numa_nodes = 4; seed = base_cfg.seed } );
    ]
  in
  List.iter
    (fun spec ->
      Fmt.pr "@.workload %s at %.1f Mops/s offered:@."
        spec.Ycsb.Workload.label base_cfg.Svc.Config.offered_mops;
      List.iter
        (fun (label, sys) ->
          let r =
            Svc.Domains.run { base_cfg with Svc.Config.sys; workload = spec }
          in
          let m = Svc.Slo.summarize r.Svc.Slo.merged in
          Fmt.pr
            "  %-48s goodput %.3f Mops/s   p50 %6.2f us   p99 %6.2f us   \
             remote-access fraction %.2f@."
            label r.Svc.Slo.goodput_mops (m.Svc.Slo.p50 /. 1e3)
            (m.Svc.Slo.p99 /. 1e3) r.Svc.Slo.remote_fraction)
        variants)
    [ Ycsb.Workload.a; Ycsb.Workload.c ];
  Fmt.pr
    "@.each shard's worker is pinned to one zone, so per-node pools make \
     almost every access local while striping spreads lines blindly (~3/4 \
     remote on 4 nodes); the paper measures the net throughput difference \
     at ~5.6%%.@."
