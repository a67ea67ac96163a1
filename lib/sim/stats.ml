(* Summary statistics for benchmark results: mean / stddev / percentiles.

   Samples are collected into a growable buffer; percentile queries sort a
   snapshot on demand. Sizes in this project are small (at most a few
   hundred thousand samples per series), so the simple approach is fine. *)

type t = {
  mutable data : float array;
  mutable len : int;
  mutable sorted : bool;
}

let create ?(capacity = 1024) () =
  { data = Array.make (Int.max 1 capacity) 0.0; len = 0; sorted = true }

let clear t =
  t.len <- 0;
  t.sorted <- true

let add t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  t.sorted <- false

let count t = t.len

let ensure_sorted t =
  if not t.sorted then begin
    let live = Array.sub t.data 0 t.len in
    Array.sort Float.compare live;
    Array.blit live 0 t.data 0 t.len;
    t.sorted <- true
  end

let mean t =
  if t.len = 0 then 0.0
  else begin
    let sum = ref 0.0 in
    for i = 0 to t.len - 1 do
      sum := !sum +. t.data.(i)
    done;
    !sum /. float_of_int t.len
  end

let stddev t =
  if t.len < 2 then 0.0
  else begin
    let m = mean t in
    let sum = ref 0.0 in
    for i = 0 to t.len - 1 do
      let d = t.data.(i) -. m in
      sum := !sum +. (d *. d)
    done;
    sqrt (!sum /. float_of_int (t.len - 1))
  end

(* Nearest-rank percentile, [p] in [0, 100]. *)
let percentile t p =
  if t.len = 0 then invalid_arg "Sim.Stats.percentile: empty collection";
  ensure_sorted t;
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.len)) in
  let idx = Int.max 0 (Int.min (t.len - 1) (rank - 1)) in
  t.data.(idx)

let min_value t =
  if t.len = 0 then invalid_arg "Sim.Stats.min_value: empty collection";
  ensure_sorted t;
  t.data.(0)

let max_value t =
  if t.len = 0 then invalid_arg "Sim.Stats.max_value: empty collection";
  ensure_sorted t;
  t.data.(t.len - 1)

let median t = percentile t 50.0

(* Mean and sample stddev of a plain float list: used for the 3-trial
   averages reported in the paper's tables. *)
let mean_std xs =
  let n = List.length xs in
  if n = 0 then (0.0, 0.0)
  else begin
    let m = List.fold_left ( +. ) 0.0 xs /. float_of_int n in
    if n = 1 then (m, 0.0)
    else begin
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs
        /. float_of_int (n - 1)
      in
      (m, sqrt var)
    end
  end
