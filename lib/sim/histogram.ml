(* Log-bucketed histogram. Bucket layout (sub_bits = 7):

   - n in [0, 128): bucket n (unit width, exact to the integer).
   - otherwise, with shift = msb(n) - 7: the top 8 significant bits of n
     pick the bucket, index = ((shift+1) lsl 7) lor ((n lsr shift) land 127).

   The mapping is monotone and contiguous (bucket 128 follows bucket 127),
   and each bucket's width is 2^shift, i.e. at most 1/128 of the value, so
   reporting a bucket midpoint is within ~0.8% of any sample in it. With
   63-bit ints the shift tops out at 55, giving 7296 buckets total.

   The bucket array (58 KB) is allocated on the first [add]: a service run
   keeps several histograms per window and station, most of which never
   see a sample, so empty histograms (and merges of empty ones) hold no
   buckets at all. *)

let sub_bits = 7
let sub = 1 lsl sub_bits
let n_buckets = (64 - sub_bits) * sub
let max_rel_error = 1.0 /. float_of_int sub

type t = {
  mutable counts : int array;  (* [||] exactly when n = 0 *)
  mutable n : int;
  mutable sum : float;
  mutable minv : float;
  mutable maxv : float;
}

let create () = { counts = [||]; n = 0; sum = 0.0; minv = 0.0; maxv = 0.0 }

let clear t =
  t.counts <- [||];
  t.n <- 0;
  t.sum <- 0.0;
  t.minv <- 0.0;
  t.maxv <- 0.0

let bucket_of_int n =
  if n < sub then n
  else begin
    let msb = ref 0 in
    let v = ref n in
    while !v > 1 do
      incr msb;
      v := !v lsr 1
    done;
    let shift = !msb - sub_bits in
    ((shift + 1) lsl sub_bits) lor ((n lsr shift) land (sub - 1))
  end

(* inclusive-lower bound and width of bucket [idx] *)
let bucket_bounds idx =
  if idx < sub then (float_of_int idx, 1.0)
  else begin
    let shift = (idx lsr sub_bits) - 1 in
    let mant = sub lor (idx land (sub - 1)) in
    (float_of_int (mant lsl shift), float_of_int (1 lsl shift))
  end

let add t v =
  let v = if v < 0.0 then 0.0 else v in
  if t.n = 0 then begin
    t.counts <- Array.make n_buckets 0;
    t.minv <- v;
    t.maxv <- v
  end
  else begin
    if v < t.minv then t.minv <- v;
    if v > t.maxv then t.maxv <- v
  end;
  let idx = bucket_of_int (int_of_float v) in
  t.counts.(idx) <- t.counts.(idx) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum +. v

let count t = t.n
let sum t = t.sum
let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n

let min_value t =
  if t.n = 0 then invalid_arg "Sim.Histogram.min_value: empty histogram";
  t.minv

let max_value t =
  if t.n = 0 then invalid_arg "Sim.Histogram.max_value: empty histogram";
  t.maxv

let percentile t p =
  if t.n = 0 then invalid_arg "Sim.Histogram.percentile: empty histogram";
  let rank =
    let r = int_of_float (ceil (p /. 100.0 *. float_of_int t.n)) in
    if r < 1 then 1 else if r > t.n then t.n else r
  in
  let idx = ref 0 in
  let seen = ref 0 in
  (try
     for i = 0 to n_buckets - 1 do
       seen := !seen + t.counts.(i);
       if !seen >= rank then begin
         idx := i;
         raise Exit
       end
     done
   with Exit -> ());
  let lo, width = bucket_bounds !idx in
  let mid = lo +. (width /. 2.0) in
  if mid < t.minv then t.minv else if mid > t.maxv then t.maxv else mid

let median t = percentile t 50.0

(* Bucket-wise sum. Buckets are positional and shared by every histogram,
   so merging is exact: the merged histogram reports identical counts, sum
   and min/max to one that had ingested both sample streams directly. *)
let merge a b =
  let t = create () in
  let add_counts src =
    if src.n > 0 then
      Array.iteri (fun i c -> t.counts.(i) <- t.counts.(i) + c) src.counts
  in
  if a.n + b.n > 0 then begin
    t.counts <- Array.make n_buckets 0;
    add_counts a;
    add_counts b
  end;
  t.n <- a.n + b.n;
  t.sum <- a.sum +. b.sum;
  (if a.n = 0 then begin
     t.minv <- b.minv;
     t.maxv <- b.maxv
   end
   else if b.n = 0 then begin
     t.minv <- a.minv;
     t.maxv <- a.maxv
   end
   else begin
     t.minv <- (if a.minv < b.minv then a.minv else b.minv);
     t.maxv <- (if a.maxv > b.maxv then a.maxv else b.maxv)
   end);
  t

let merge_list = function
  | [] -> create ()
  | [ t ] -> merge t (create ())
  | t :: rest -> List.fold_left merge t rest
