(** Bounded domain pool for independent simulation jobs.

    Fans self-contained deterministic jobs (each owning its Pmem instance,
    structure, and RNGs) out across OCaml domains and collects results in
    job order, so report output produced after collection is byte-identical
    to a sequential run. [jobs:1] executes the jobs inline with no domain
    machinery at all — today's exact sequential code path.

    Additional guarantees (see the implementation header for details):
    observability counters merge back into the calling domain in job order
    ([Obs.totals] matches a sequential run exactly); while the caller is
    recording a trace the jobs run one after another on the caller, so
    its ring is exactly a sequential run's; the first failing job's exception
    re-raises in the caller; nested [run]s execute sequentially instead of
    multiplying domains. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the [-j] default in the bench
    and CLI drivers. *)

val run : ?jobs:int -> (unit -> 'a) list -> 'a list
(** [run ~jobs thunks] executes every thunk (at most [jobs] concurrently,
    default {!default_jobs}) and returns their results in list order.
    Jobs must be independent: no shared mutable state beyond the
    domain-local scheduler/observability state each run owns. Raises the
    first (by index) job exception, if any, with its backtrace. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [run ~jobs (List.map (fun x () -> f x) xs)]. *)

val run_phased :
  ?domains:int ->
  stations:int ->
  step:(station:int -> round:int -> unit) ->
  exchange:(round:int -> bool) ->
  finalize:(station:int -> unit) ->
  unit ->
  unit
(** Phased execution of [stations] communicating long-lived loops. Round
    [r] calls [step ~station:i ~round:r] once per station, then — with
    every station at rest — [exchange ~round:r] on the caller; rounds
    continue while [exchange] returns [true], after which
    [finalize ~station:i] runs once per station on the station's owning
    domain.

    With [domains:0] (default) everything runs inline on the caller:
    steps in station order then the exchange — the sequential fallback.
    With [domains:w > 0], station 0 runs on the caller and stations 1..
    are distributed round-robin over [min w (stations-1)] pinned worker
    domains, with a barrier between the compute and exchange phases of
    every round. Stations must not share mutable state with each other;
    the exchange callback may touch all of them (it runs while they are
    at rest, with the barrier providing the happens-before edges).

    Worker-domain Obs counter deltas merge back into the caller in worker
    order, so counter totals equal the sequential schedule exactly. While
    the caller is recording a trace the sequential schedule runs, so its
    ring is exactly the [domains:0] run's. The first station exception
    (caller exceptions last) re-raises after all domains join. *)
