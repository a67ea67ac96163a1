(* Seeded open-loop arrival processes: the caller asks for inter-arrival
   gaps and sleeps them in virtual time, so the request schedule is fixed by
   the seed alone and never stretches when the service slows down. *)

type kind = Poisson | Fixed | Jittered of float

type t = { rng : Rng.t; mean : float; kind : kind }


let create ~seed ~mean_gap_ns kind =
  if not (mean_gap_ns > 0.0) then
    invalid_arg "Sim.Arrival.create: mean_gap_ns must be positive";
  let kind =
    match kind with
    | Jittered f -> Jittered (Float.max 0.0 (Float.min 1.0 f))
    | k -> k
  in
  { rng = Rng.create seed; mean = mean_gap_ns; kind }

let next_gap_ns t =
  match t.kind with
  | Fixed -> t.mean
  | Poisson ->
      (* inverse CDF; 1 - u is in (0, 1] so the log is finite, and the gap
         is strictly positive *)
      -.t.mean *. log (1.0 -. Rng.float t.rng)
  | Jittered f ->
      let u = Rng.float t.rng in
      Float.max 1.0 (t.mean *. (1.0 -. f +. (2.0 *. f *. u)))

let mean_gap_ns t = t.mean

let kind_to_string = function
  | Poisson -> "poisson"
  | Fixed -> "fixed"
  | Jittered f -> "jitter:" ^ Json.num_to_string f

let kind_of_string s =
  match String.lowercase_ascii s with
  | "poisson" -> Ok Poisson
  | "fixed" -> Ok Fixed
  | s when String.length s > 7 && String.sub s 0 7 = "jitter:" -> (
      match float_of_string_opt (String.sub s 7 (String.length s - 7)) with
      | Some f when f >= 0.0 && f <= 1.0 -> Ok (Jittered f)
      | _ -> Error ("bad jitter fraction in arrival kind: " ^ s))
  | s -> Error ("unknown arrival kind (want poisson|fixed|jitter:<f>): " ^ s)
