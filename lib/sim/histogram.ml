(* Log-bucketed histogram. Bucket layout (sub_bits = 7):

   - n in [0, 128): bucket n (unit width, exact to the integer).
   - otherwise, with shift = msb(n) - 7: the top 8 significant bits of n
     pick the bucket, index = ((shift+1) lsl 7) lor ((n lsr shift) land 127).

   The mapping is monotone and contiguous (bucket 128 follows bucket 127),
   and each bucket's width is 2^shift, i.e. at most 1/128 of the value, so
   reporting a bucket midpoint is within ~0.8% of any sample in it. With
   63-bit ints the shift tops out at 55, giving 7296 buckets total.

   Buckets are stored in rows of 128, one row per shift, and a row is
   allocated on the first sample that lands in it: a latency histogram
   touches a handful of the 57 rows, so it holds about 5-15 KB instead of
   the 58 KB of the full bucket array, and none of it is a block large
   enough to bypass the minor heap. A service run keeps several histograms per
   window and station, most of which never see a sample, so empty
   histograms (and merges of empty ones) hold no rows at all. *)

let sub_bits = 7
let sub = 1 lsl sub_bits
let n_rows = 64 - sub_bits
let n_buckets = n_rows * sub
let max_rel_error = 1.0 /. float_of_int sub

type t = {
  mutable counts : int array array;
      (* row [idx lsr sub_bits] holds bucket [idx]; [||] for a row with no
         sample yet, and for the whole table exactly when n = 0 *)
  mutable n : int;
  stats : float array;
      (* sum, min and max, at [i_sum], [i_min] and [i_max]: a flat float
         array, so [add] stores them unboxed where mutable float fields of
         this mixed record would box a fresh float per store *)
}

let i_sum = 0
let i_min = 1
let i_max = 2
let create () = { counts = [||]; n = 0; stats = Array.make 3 0.0 }

let clear t =
  t.counts <- [||];
  t.n <- 0;
  Array.fill t.stats 0 3 0.0

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

(* Count in bucket [idx], growing its row on first use. *)
let count_in counts idx c =
  let r = idx lsr sub_bits in
  let row =
    let row = counts.(r) in
    if Array.length row > 0 then row
    else begin
      let row = Array.make sub 0 in
      counts.(r) <- row;
      row
    end
  in
  let i = idx land (sub - 1) in
  row.(i) <- row.(i) + c

(* Count one sample in the bucket of [bucket_of_int i]. *)
let add_bucket t i =
  if t.n = 0 then t.counts <- Array.make n_rows [||];
  count_in t.counts (bucket_of_int i) 1;
  t.n <- t.n + 1

(* Inlined, so a float computed at the call site reaches [stats] without
   being boxed as an argument; the bucket update is an int call. *)
let[@inline] add t v =
  let v = if v < 0.0 then 0.0 else v in
  if t.n = 0 then begin
    t.stats.(i_min) <- v;
    t.stats.(i_max) <- v
  end
  else begin
    if v < t.stats.(i_min) then t.stats.(i_min) <- v;
    if v > t.stats.(i_max) then t.stats.(i_max) <- v
  end;
  add_bucket t (int_of_float v);
  t.stats.(i_sum) <- t.stats.(i_sum) +. v

let count t = t.n
let sum t = t.stats.(i_sum)
let mean t = if t.n = 0 then 0.0 else t.stats.(i_sum) /. float_of_int t.n

let min_value t =
  if t.n = 0 then invalid_arg "Sim.Histogram.min_value: empty histogram";
  t.stats.(i_min)

let max_value t =
  if t.n = 0 then invalid_arg "Sim.Histogram.max_value: empty histogram";
  t.stats.(i_max)

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
       let row = t.counts.(i lsr sub_bits) in
       if Array.length row > 0 then seen := !seen + row.(i land (sub - 1));
       if !seen >= rank then begin
         idx := i;
         raise Exit
       end
     done
   with Exit -> ());
  let lo, width = bucket_bounds !idx in
  let mid = lo +. (width /. 2.0) in
  let minv = t.stats.(i_min) and maxv = t.stats.(i_max) in
  if mid < minv then minv else if mid > maxv then maxv else mid

let median t = percentile t 50.0

(* Bucket-wise sum. Buckets are positional and shared by every histogram,
   so merging is exact: the merged histogram reports identical counts, sum
   and min/max to one that had ingested both sample streams directly. *)
let merge a b =
  let t = create () in
  let add_counts src =
    if src.n > 0 then
      Array.iteri
        (fun r row ->
          Array.iteri
            (fun i c -> if c > 0 then count_in t.counts ((r lsl sub_bits) lor i) c)
            row)
        src.counts
  in
  if a.n + b.n > 0 then begin
    t.counts <- Array.make n_rows [||];
    add_counts a;
    add_counts b
  end;
  t.n <- a.n + b.n;
  t.stats.(i_sum) <- a.stats.(i_sum) +. b.stats.(i_sum);
  (if a.n = 0 then begin
     t.stats.(i_min) <- b.stats.(i_min);
     t.stats.(i_max) <- b.stats.(i_max)
   end
   else if b.n = 0 then begin
     t.stats.(i_min) <- a.stats.(i_min);
     t.stats.(i_max) <- a.stats.(i_max)
   end
   else begin
     let amin = a.stats.(i_min) and bmin = b.stats.(i_min) in
     let amax = a.stats.(i_max) and bmax = b.stats.(i_max) in
     t.stats.(i_min) <- (if amin < bmin then amin else bmin);
     t.stats.(i_max) <- (if amax > bmax then amax else bmax)
   end);
  t

let merge_list = function
  | [] -> create ()
  | [ t ] -> merge t (create ())
  | t :: rest -> List.fold_left merge t rest
