(* Deterministic splitmix64 pseudo-random generator.

   Every source of randomness in the simulator (height generation, workload
   key selection, latency jitter, crash points) draws from an explicitly
   seeded [Rng.t] so that whole experiments replay bit-identically.

   The 64-bit state lives unboxed in 8 bytes, read and written with the
   native-endian int64 primitives, so a draw allocates nothing: an [int64]
   mutable field would box a fresh state on every step. [next64] is inlined
   into [next], [int], [bool] and [split], and [next] into [float], so none
   of them boxes an intermediate [int64] either; [float]'s result is boxed
   only where a caller in another module receives it (callers on the
   simulator's per-access path draw [next] and scale it themselves). *)

type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

let golden = 0x9E3779B97F4A7C15L

(* One splitmix64 step: returns 64 pseudo-random bits. *)
let[@inline] next64 t =
  let z = Int64.add (get_state t 0) golden in
  set_state t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Non-negative 62-bit int. *)
let[@inline] next t = Int64.to_int (Int64.shift_right_logical (next64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  next t mod bound

let[@inline] float t = float_of_int (next t) *. 0x1p-62 (* exactly [/. 2^62] *)

let bool t = Int64.logand (next64 t) 1L = 1L

(* Number of failures before first success for a Bernoulli(p) trial:
   used for skip-list tower heights (p = 0.5 gives the classic geometric
   height distribution). *)
let geometric t ~p ~max_value =
  (* a loop rather than a local recursive function, which would be a
     closure allocated per call *)
  let h = ref 1 in
  while !h < max_value && not (float t < p) do
    incr h
  done;
  !h

(* Fisher-Yates shuffle, in place. *)
let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* Split off an independent stream (for per-thread generators). *)
let split t = of_state (Int64.mul (next64 t) 0x2545F4914F6CDD1DL)
