(** Bounded FIFO request queue for one shard: O(1) push/pop, a hard
    capacity for admission control, and a high-water mark for the SLO
    report. Host-side only — fibers mutate it between simulated events, so
    no synchronisation is needed (the host is single-threaded). *)

type 'a t

val create : cap:int -> 'a t
(** Raises [Invalid_argument] unless [cap] is positive. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> bool
(** [false] when the queue is at capacity (the caller sheds). *)

val pop_up_to : 'a t -> int -> 'a list
(** Dequeue at most [n] oldest entries, oldest first — one worker batch. *)

val drain : 'a t -> 'a list
(** Remove and return everything (a shard crash dropping its backlog). *)

val high_water : 'a t -> int
(** Largest depth ever reached. *)
