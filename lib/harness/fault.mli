(** Crash trials and adversarial fault-injection campaigns.

    One trial engine serves every crash experiment: the single-crash
    trial (preload, crashed upsert-heavy workload, reconnect + recovery,
    recorded re-touch of every key; [rounds = 1], [depth = 0]) that the
    Chapter 6 campaigns check and Table 5.4 times, extended with
    multi-crash trials (the recovery fiber itself runs under crash
    points, recursively up to a configurable depth), deterministic
    crash-point sweeps over a jittered grid, a dirty-line subset
    adversary choosing per cache line what persisted at each power
    failure, a persistent-heap audit after every recovery, and greedy
    shrinking of failing trials to minimal replayable reproducers.

    The {!spec} is the only description of a trial: it names the
    structure and its tuning, and the engine builds the fixture from it
    (no caller supplies one). Everything is deterministic given the spec:
    the same spec replays the same fixture, crash points, persisted-state
    draws and verdict — which is what makes the one-line printed spec
    ({!spec_to_string}, consumed by [upskip_cli crash-replay], and the base
    of an [upskip_cli crash-sweep] campaign) a complete bug report. *)

(** Where round 0 crashes. *)
type point =
  | Event of int  (** after this many primitive events *)
  | Fraction of float
      (** this fraction (strictly between 0 and 1) of the way through the
          spec's own crash-free run ({!trial_events}), resolved by one dry
          run when the trial starts: the point stays in the same phase of
          the workload when its operations get cheaper *)

type spec = {
  structure : Kv.structure;
  latency : Kv.latency;
  mode : Pmem.mode;
  threads : int;
  keyspace : int;
  ops_per_thread : int;
  read_fraction : float;
  rounds : int;
      (** workload rounds, each under its own crash point; rounds > 1
          crash the structure again while it is still lazily repairing *)
  crash_at : point;  (** crash point of round 0 *)
  depth : int;
      (** crash points injected into the recovery fiber itself: a crashed
          recovery powers the machine down again and restarts recovery,
          recursively up to [depth] times per workload crash *)
  evict : float;
      (** what persists at a power failure ({!Pmem.crash}'s
          [persist_line]): each dirty cache line independently, with this
          probability, drawn from [draw_seed]; every subset is
          fence-consistent. [0.] (the default) loses every dirty line and
          draws nothing. *)
  draw_seed : int;
      (** seeds persisted-state draws and recovery/round crash points *)
  seed : int;  (** seeds the workload streams and the sweep grid *)
  mutant : string;
      (** [none], or a {!Kv.t}[.corrupt] mutation applied after each
          completed recovery (harness self-validation); [skip_resolve] is
          special-cased: the recovery fiber omits the descriptor resolve
          pass, so detect trials must flag an exactly-once violation *)
  detect : bool;
      (** route every upsert through its client's persistent operation
          descriptor ({!Kv.d_upsert}, client = tid) and, after each crash,
          decide interrupted ops from their descriptors: provably-applied
          ops are acked without re-execution (duplicate suppression),
          provably-unapplied ops are replayed exactly once *)
  cfg : Upskiplist.Config.t;
      (** UPSkipList's tuning; any other structure keeps
          {!Upskiplist.Config.default} *)
  descriptors : int;
      (** BzTree's PMwCAS descriptor pool (its recovery scans all of it);
          any other structure keeps {!Kv.default_descriptors} *)
}

val default_spec : spec
(** upskiplist, uniform/numa, 4 threads, keyspace 120, 100 ops/thread,
    20% reads, one round crashed at 10k events, depth 0, [evict = 0.],
    no mutant, default UPSkipList config, 16 384 descriptors. Every trial
    runs the persistent-heap audit after each recovery; no key turns it
    off. *)

type result = {
  history : Lincheck.History.t;
  violations : Lincheck.Checker.violation list;
  audit_errors : string list;
  audits : int;  (** audit passes performed (one per completed recovery) *)
  recovery_ns : float;
      (** total modeled recovery (pool reopen + structure work) summed
          over completed recoveries; positive iff the trial crashed *)
  crashes : int;  (** power failures injected (workload + recovery) *)
  crash_events : int;
      (** primitive events before the first crash; 0 = never crashed *)
  completed_events : int;
      (** round 0's primitive events when its workload ran to completion
          before [crash_at] (the point lies past the run); 0 when it
          crashed *)
  repairs : int;
      (** lazy-recovery repairs (epoch claims, interrupted splits, tower
          rebuilds; from the Obs counters) performed during the trial *)
  replays : int;
      (** detect trials: interrupted ops re-executed because the descriptor
          proved they had not taken effect *)
  suppressions : int;
      (** detect trials: interrupted ops NOT re-executed because the
          descriptor proved they had already taken effect *)
  raised : string option;
      (** the exception ([Printexc.to_string]) the structure raised after a
          power failure, in its recovery or in a later workload round or
          read-back; the trial stopped there and its cut-short history is
          not checked. An exception before the first power failure still
          propagates. *)
  kv : Kv.t;
}

val failed : result -> bool
(** A strict-linearizability violation, a non-empty audit report, or an
    exception raised after a power failure. *)

val pool_open_ns : pools:int -> float
(** Modeled cost of reconnecting pools after restart (mmap of DAX files,
    constant in structure size): ~45 ms + ~12 ms per extra pool. *)

val run_trial : spec -> result
(** One adversarial trial on a fresh fixture built from the spec: its
    structure and tuning on four NUMA nodes with room for 200 threads,
    under its latency model and mode, with 2^20 words per pool or, for a larger
    BzTree descriptor pool, enough to hold it twice. *)

(** {1 Replay specs} *)

val spec_keys : (string * Kv.structure option) list
(** Every spec key, in printed order, with the structure it tunes: [None]
    for a trial key, printed on every line; [Some st] for fixture tuning
    of [st] ([keys height p budget] for UPSkipList's config,
    [descriptors] for BzTree's descriptor pool), printed only where it
    differs from {!default_spec}. One table in the implementation prints,
    parses and validates every key; this list is its vocabulary. *)

val mutants : string list
(** The [mutant=] values: [none], [skip_resolve] and {!Kv.t}[.corrupt]'s
    mutations. *)

val spec_to_string : spec -> string
(** One line of [key=value] tokens, {!spec_keys} in order; {!spec_of_string}
    inverts it. *)

val validate : spec -> (spec, string) Stdlib.result
(** The spec unchanged if the engine can run it: every key's printed value
    parses back within the key's bounds (threads in 1..256, keyspace, ops
    and rounds >= 1, descriptors in 1..1 000 000, depth >= 0, crash_at
    an event count >= 0 or a fraction strictly between 0 and 1,
    [evict] in [0,1], a mutant in {!mutants}), the config passes
    {!Upskiplist.Config.validate}, and no tuning key of a structure the
    spec does not build is off its default. *)

val spec_of_string : string -> (spec, string) Stdlib.result
(** Parse a replay spec; unspecified keys default to {!default_spec}.
    [structure], [latency] and [mode] take {!Kv}'s spellings, [read],
    [evict] and [p] a number, [detect] [on | off],
    [mutant] one of {!mutants}, the rest an integer. An unknown key's error names every key. The parsed spec must
    pass {!validate}. *)

val pp_failure : Format.formatter -> spec * result -> unit
(** A failing trial's report: its replay line, then its violations, audit
    errors and post-recovery exception, one per line. *)

val run_spec : spec -> result
(** {!run_trial}, the replay entry point: a spec parsed from a failing
    trial's printed line rebuilds that trial's fixture and reruns it. *)

(** {1 Deterministic crash-point sweeps} *)

type grid = {
  origin : int;  (** first crash point *)
  stride : int;  (** spacing between points *)
  points : int;
  jitter : int;  (** seeded displacement in [0, jitter) added per point *)
}

val grid_points : seed:int -> grid -> int list
(** The sweep's crash points; same seed, same points. *)

(** {2 Crash points that stay put}

    A crash point counts scheduler events, so a point pinned as an event
    count moves into other code, or past the run, whenever operations get
    cheaper. A fraction of the spec's own crash-free run does not: a
    deterministic trial equals that dry run up to its crash. *)

val trial_events : spec -> int
(** The events of [spec]'s round-0 workload run to completion (its
    crash point ignored): one crash-free trial. *)

val event_at : events:int -> float -> int
(** The event [fraction] of the way through a run of [events]. *)

val crash_event : spec -> int
(** Round 0's crash point in events: [crash_at]'s event count, or its
    fraction of {!trial_events}[ spec] (one dry run). *)

val dry_run_grid :
  ?events:int -> spec -> first:float -> stride:float -> jitter:float -> points:int -> int list
(** [points] crash points over [spec]'s crash-free run of [events]
    (default: {!trial_events}[ spec]): point [i] is the event at fraction
    [first + i * stride] of the run, resolved on its own (so the last one
    lies where its fraction says, whatever the rounding), displaced by a
    seeded draw below [jitter]'s events ({!grid_points}'s draws, seeded by
    [spec.seed]). *)

type campaign = {
  base : spec;  (** [crash_at] / [draw_seed] are overridden per trial *)
  points : int list;
      (** the crash points, in events: {!dry_run_grid}'s, or
          {!grid_points} of a pinned grid *)
  draws : int;  (** persisted-state draws per grid point *)
}

type summary = {
  trials : int;
  crashed_trials : int;
  crash_points : int list;
  draws_per_point : int;
  total_crashes : int;  (** incl. crashes injected during recovery *)
  audit_passes : int;
  audit_failures : int;  (** trials with a non-empty audit report *)
  violation_trials : int;
  repairs : int;  (** lazy-recovery repairs summed over all trials *)
  replays : int;  (** detectable ops re-executed, summed over all trials *)
  suppressions : int;  (** detectable replays suppressed as duplicates *)
  recovery_ns : float list;  (** one total per crashed trial *)
  missed : (int * int) list;
      (** [(crash_at, events)] of each trial whose round-0 workload ended
          after [events] primitive events, before its crash point; in spec
          order. {!print_summary} names them. *)
  failures : (spec * result) list;
}

val run_campaign : ?jobs:int -> campaign -> summary
(** [grid.points * draws] trials of the fixture the base spec names.
    [?jobs] (default 1) runs trials on a
    {!Sim.Pool} of that many domains; every trial is a self-contained
    deterministic run, and the summary aggregates results in spec order,
    so the summary is identical for any [jobs]. *)

val missed_message : int * int -> string
(** The report line for one of {!summary.missed}'s [(crash_at, events)]. *)

val print_summary : name:string -> summary -> unit

(** {1 Failure shrinking} *)

val shrink : ?budget:int -> spec -> spec
(** Greedily minimise a failing spec — halve threads / keyspace / ops,
    drop rounds and depth, bisect the crash point — re-running candidates
    via {!run_spec} (at most [budget] times, default 80) and keeping each
    reduction that still {!failed}. Returns the smallest failing spec
    found (the input itself if nothing smaller fails). *)
