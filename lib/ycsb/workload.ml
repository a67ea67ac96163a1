(* YCSB workload generation (Table 5.1).

   | Workload | Name         | Read/Update/Insert | Distribution |
   |----------|--------------|--------------------|--------------|
   | A        | Update-Heavy | 50/50/0            | Zipfian      |
   | B        | Read-Mostly  | 95/5/0             | Zipfian      |
   | C        | Read-Only    | 100/0/0            | Zipfian      |
   | D        | Read-Latest  | 95/0/5             | Latest       |

   Workloads are pre-generated and played back by the driver (as in the
   thesis, to keep generation cost out of the measured run). Keys are dense
   integers 1..n; inserts extend the keyspace with fresh keys. The driver
   supplies values at execution time (the linearizability harness needs
   them unique). *)

type op =
  | Read of int
  | Update of int
  | Insert of int
  | Scan of int * int  (* start key, length *)

type distribution = Zipfian | Latest | Uniform

type spec = {
  label : string;
  name : string;
  read : float;
  update : float;
  insert : float;
  scan : float;
  max_scan_len : int;
  dist : distribution;
}

let a =
  { label = "A"; name = "Update-Heavy"; read = 0.5; update = 0.5; insert = 0.0;
    scan = 0.0; max_scan_len = 0; dist = Zipfian }

let b =
  { label = "B"; name = "Read-Mostly"; read = 0.95; update = 0.05; insert = 0.0;
    scan = 0.0; max_scan_len = 0; dist = Zipfian }

let c =
  { label = "C"; name = "Read-Only"; read = 1.0; update = 0.0; insert = 0.0;
    scan = 0.0; max_scan_len = 0; dist = Zipfian }

let d =
  { label = "D"; name = "Read-Latest"; read = 0.95; update = 0.0; insert = 0.05;
    scan = 0.0; max_scan_len = 0; dist = Latest }

(* YCSB E: short range scans with occasional inserts. The thesis did not run
   E (its removals/scans were future work); included here to exercise the
   range-query extension. *)
let e =
  { label = "E"; name = "Scan-Heavy"; read = 0.0; update = 0.0; insert = 0.05;
    scan = 0.95; max_scan_len = 100; dist = Zipfian }

let all = [ a; b; c; d; e ]

let of_label l =
  match List.find_opt (fun s -> String.uppercase_ascii l = s.label) all with
  | Some s -> Ok s
  | None ->
      Error
        (Printf.sprintf "unknown workload: %s (want %s)" l
           (String.concat " | " (List.map (fun s -> s.label) all)))

(* Generate per-thread operation streams over an initial keyspace of
   [n_initial] keys (1-based, dense). Inserted keys continue the sequence
   from n_initial+1 and are globally unique across threads. For the Latest
   distribution, reads target recently inserted keys (zipfian over recency,
   as in YCSB). *)
let generate ~seed ~spec ~n_initial ~threads ~ops_per_thread =
  if n_initial < 2 then invalid_arg "Ycsb.generate: n_initial < 2";
  let rng = Sim.Rng.create seed in
  let zipf = Zipfian.create ~seed:(seed + 1) n_initial in
  (* recency generator: small zipfian over ranks of "how recent" *)
  let latest_rank = Zipfian.create ~seed:(seed + 2) n_initial in
  let next_insert = ref (n_initial + 1) in
  let max_key () = !next_insert - 1 in
  let pick_key () =
    match spec.dist with
    | Zipfian -> 1 + Zipfian.next_scrambled zipf
    | Uniform -> 1 + Sim.Rng.int rng (max_key ())
    | Latest ->
        let rank = Zipfian.next_rank latest_rank in
        max 1 (max_key () - rank)
  in
  let gen_one () =
    let r = Sim.Rng.float rng in
    if r < spec.read then Read (pick_key ())
    else if r < spec.read +. spec.update then Update (pick_key ())
    else if r < spec.read +. spec.update +. spec.scan then
      Scan (pick_key (), 1 + Sim.Rng.int rng (max 1 spec.max_scan_len))
    else begin
      let k = !next_insert in
      incr next_insert;
      Insert k
    end
  in
  (* interleave generation across threads so Latest reads can see other
     threads' inserts, as a shared playback trace would *)
  let streams = Array.make_matrix threads ops_per_thread (Read 1) in
  for i = 0 to ops_per_thread - 1 do
    for tid = 0 to threads - 1 do
      streams.(tid).(i) <- gen_one ()
    done
  done;
  streams
