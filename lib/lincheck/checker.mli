(** Strict-linearizability checker for unique-value upsert/read histories
    spanning crashes (the analysis of the paper's Chapter 6).

    Soundness relies on two harness guarantees: every upsert returns the
    value it overwrote, and written values are unique per key, so effective
    writes form a single observable chain per key. Detected violation
    classes: lost updates (including across crashes), forks, out-of-thin-air
    and stale reads, chain orders contradicting real time, and in-flight
    operations resurrected after a crash (strict linearizability forbids
    post-crash linearization). *)

type violation = { key : int; message : string }

val pp_violation : Format.formatter -> violation -> unit

val check : History.t -> violation list
(** Empty result = the history is strictly linearizable (for this
    operation class). *)

val check_detectable : History.t -> violation list
(** Exactly-once check for detectable crash-replay histories: {!check}
    plus operation-identity discipline over events carrying an
    [opid] — an identified operation must appear at most once as a
    completed event and never both completed and pending. An acked-op
    duplicate apply additionally surfaces through {!check}'s unique-value
    chain (the replayed write observes its own value as predecessor). *)
