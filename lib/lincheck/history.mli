(** Operation histories for strict-linearizability analysis (Chapter 6).

    Following the thesis, upserts are logged as conditional swaps (they
    return the previous value) with unique written values, and timestamps
    are globally monotone across crashes. *)

type kind =
  | Upsert of { value : int; prev : int option }
  | Read of { out : int option }

type event = {
  tid : int;
  key : int;
  kind : kind;
  inv : float;
  res : float;  (** [infinity] when the crash interrupted the operation *)
  era : int;  (** failure-free era of invocation (0-based) *)
  completed : bool;
  opid : (int * int) option;
      (** detectable-op identity (client, seq); crash-replay histories
          carry it so the checker can assert each identified operation
          appears at most once ({!Checker.check}) *)
}

type t

val create : eras:int -> event list -> t

val completed_upsert :
  tid:int ->
  key:int ->
  value:int ->
  prev:int option ->
  inv:float ->
  res:float ->
  era:int ->
  event

val pending_upsert :
  tid:int -> key:int -> value:int -> inv:float -> era:int -> event
(** An upsert in flight at the crash: no response, unknown previous value.
    It may or may not have taken effect. *)

val completed_read :
  tid:int -> key:int -> out:int option -> inv:float -> res:float -> era:int -> event

val with_opid : int * int -> event -> event
(** Attach a detectable-op identity (client, seq) to an event. The plain
    constructors leave [opid] = [None]. *)

val events : t -> event list
val eras : t -> int
val size : t -> int
