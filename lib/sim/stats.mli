(** Sample collection and summary statistics (mean, stddev, percentiles)
    used to report benchmark series the way the paper's figures do. *)

type t

val create : ?capacity:int -> unit -> t
val clear : t -> unit
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
val stddev : t -> float

val percentile : t -> float -> float
(** Nearest-rank percentile; argument in [\[0, 100\]].
    @raise Invalid_argument when no samples have been added. *)

val median : t -> float
(** @raise Invalid_argument when no samples have been added. *)

val min_value : t -> float
(** @raise Invalid_argument when no samples have been added. *)

val max_value : t -> float
(** @raise Invalid_argument when no samples have been added. *)

val mean_std : float list -> float * float
(** Mean and sample standard deviation of a list (paper-style trial
    averages). *)
