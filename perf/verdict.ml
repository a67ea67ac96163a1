(* Comparing two sets of runs of one (metric, workload): quartiles, and the
   verdict rule a claimed gain or a regression check must pass. *)

type t = Better | Same | Worse | Unresolved

let to_string = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* First quartile, median and third quartile, computed exactly as Python's
   [statistics.quantiles(values, n=4)] (the default "exclusive" method), so
   spreads read the same whichever tool computes them. *)
let quartiles values =
  let d = Array.of_list values in
  Array.sort compare d;
  let ld = Array.length d in
  if ld = 0 then invalid_arg "Verdict.quartiles: no values"
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let median values =
  let _, med, _ = quartiles values in
  med

(* Distance between the quartiles as a share of the median (0 when the
   median is 0 and every value equals it). *)
let spread values =
  let q1, med, q3 = quartiles values in
  if med = 0.0 then if q3 -. q1 = 0.0 then 0.0 else infinity
  else (q3 -. q1) /. Float.abs med

(* [improves better a b]: value [b] is strictly better than value [a]. *)
let improves better a b =
  match better with Catalogue.Higher -> b > a | Catalogue.Lower -> b < a

(* [verdict ~better ~bound ~base ~change]:
   - unresolved when either side's spread is wider than [bound], unless
     every change run is better than every base run (then better);
   - worse when the change median is worse than the base median by more
     than [bound] (a share of the base median);
   - better when the change median is better by more than the base's own
     spread and the change wins at least nine tenths of the pairs (run i of
     one set against run i of the other; ties count for neither);
   - same otherwise. *)
let verdict ~better ~bound ~base ~change =
  let _, mb, _ = quartiles base and _, mc, _ = quartiles change in
  let gain =
    (* signed improvement of the change as a share of the base median *)
    if mb = 0.0 then if mc = 0.0 then 0.0 else if improves better mb mc then infinity else neg_infinity
    else
      match better with
      | Catalogue.Higher -> (mc -. mb) /. Float.abs mb
      | Catalogue.Lower -> (mb -. mc) /. Float.abs mb
  in
  let all_better =
    List.for_all (fun c -> List.for_all (fun b -> improves better b c) base) change
  in
  let pairs = min (List.length base) (List.length change) in
  let wins =
    List.length
      (List.filter Fun.id
         (List.init pairs (fun i ->
              improves better (List.nth base i) (List.nth change i))))
  in
  if Float.max (spread base) (spread change) > bound then
    if all_better then Better else Unresolved
  else if -.gain > bound then Worse
  else if gain > 0.0 && gain > spread base && float_of_int wins >= 0.9 *. float_of_int pairs
  then Better
  else Same
