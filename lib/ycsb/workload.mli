(** YCSB workload generation (paper Table 5.1): operation mixes A-D over
    zipfian / latest key-popularity distributions, pre-generated into
    per-thread playback streams. *)

type op =
  | Read of int
  | Update of int  (** overwrite an existing key *)
  | Insert of int  (** a key extending the keyspace *)
  | Scan of int * int  (** range scan: start key and length *)

type distribution = Zipfian | Latest | Uniform

type spec = {
  label : string;  (** "A".."E" *)
  name : string;  (** e.g. "Update-Heavy" *)
  read : float;
  update : float;
  insert : float;
  scan : float;
  max_scan_len : int;
  dist : distribution;
}

val a : spec  (** 50/50/0, zipfian *)

val b : spec  (** 95/5/0, zipfian *)

val c : spec  (** 100/0/0, zipfian *)

val d : spec  (** 95/0/5, latest *)

val e : spec
(** Scan-heavy (95 % short range scans, 5 % inserts); not in the paper's
    evaluation — exercises the range-query follow-up. *)

val all : spec list

val of_label : string -> (spec, string) result
(** Case-insensitive lookup of a {!spec.label}; an unknown label's error
    lists every label. *)

val generate :
  seed:int ->
  spec:spec ->
  n_initial:int ->
  threads:int ->
  ops_per_thread:int ->
  op array array
(** [generate] returns one operation stream per thread over the dense
    keyspace [1..n_initial]; inserts continue the key sequence and are
    globally unique. Deterministic in [seed]. *)
