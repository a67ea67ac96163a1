(* Shard router. Placement must balance dense integer keyspaces (YCSB keys
   are 1..n) and stay consistent for the life of the service, so the key is
   mixed through the splitmix64 finalizer and reduced modulo the shard
   count. Range queries are planned exactly when narrow (enumerate the keys,
   dedup the shards) and fan out to every shard when wide — with hashed
   placement a range wider than the shard count touches all shards with
   overwhelming probability, and visiting a shard that happens to hold
   nothing in the range costs one empty sub-scan. *)

type t = { shards : int; zones : int }

let create ~shards ~zones =
  if shards <= 0 then invalid_arg "Svc.Router.create: shards must be positive";
  if zones <= 0 then invalid_arg "Svc.Router.create: zones must be positive";
  { shards; zones }

(* splitmix64 finalizer, truncated to OCaml's 63-bit int. *)
let mix k =
  let z = Int64.of_int k in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94d049bb133111ebL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int z land max_int

let shard_of_key t k = mix k mod t.shards
let zone_of_shard t s = s mod t.zones
let zone_of_client t c = c mod t.zones

let hop_ns _t ~local_ns ~remote_ns ~from_zone ~to_zone =
  if from_zone = to_zone then local_ns else remote_ns

let shards_of_range t ~lo ~hi =
  if hi < lo then []
  else if t.shards = 1 then [ 0 ]
  else begin
    let width = hi - lo + 1 in
    if width >= t.shards then List.init t.shards (fun s -> s)
    else begin
      (* narrow scan: the only keys that can exist in [lo..hi] are the
         integers lo..hi themselves, so plan exactly *)
      let seen = Array.make t.shards false in
      for k = lo to hi do
        seen.(shard_of_key t k) <- true
      done;
      List.filteri (fun s _ -> seen.(s)) (List.init t.shards (fun s -> s))
    end
  end

let merge_ranges lists =
  (* k is small (shard count); a simple repeated-min merge keeps this free
     of heap machinery while staying O(total * k) *)
  let heads = Array.of_list lists in
  let n = Array.length heads in
  let out = ref [] in
  let continue = ref true in
  while !continue do
    let best = ref (-1) in
    let best_key = ref max_int in
    for i = 0 to n - 1 do
      match heads.(i) with
      | (k, _) :: _ when k < !best_key ->
          best := i;
          best_key := k
      | _ -> ()
    done;
    if !best < 0 then continue := false
    else
      match heads.(!best) with
      | kv :: rest ->
          out := kv :: !out;
          heads.(!best) <- rest
      | [] -> assert false
  done;
  List.rev !out
