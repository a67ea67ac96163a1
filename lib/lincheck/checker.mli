(** Strict-linearizability checker for unique-value upsert/read histories
    spanning crashes (the analysis of the paper's Chapter 6).

    Soundness relies on two harness guarantees: every upsert returns the
    value it overwrote, and written values are unique per key, so effective
    writes form a single observable chain per key. Detected violation
    classes: lost updates (including across crashes), forks, out-of-thin-air
    and stale reads, chain orders contradicting real time, and in-flight
    operations resurrected after a crash (strict linearizability forbids
    post-crash linearization), and identified operations recorded twice. *)

type violation = { key : int; message : string }

val pp_violation : Format.formatter -> violation -> unit

val check : History.t -> violation list
(** Empty result = the history is strictly linearizable (for this
    operation class) and keeps the operation-identity discipline over
    events carrying an [opid]: an identified operation appears at most
    once as a completed event and is never both completed and pending
    (exactly-once for detectable crash-replay histories; a history without
    op ids meets it trivially). An acked-op duplicate apply additionally
    surfaces through the unique-value chain (the replayed write observes
    its own value as predecessor). *)
