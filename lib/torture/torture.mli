(** Seeded, deterministic lifecycle torture driver.

    Composes random kernel operations — spawn/start/kill/move/suspend/
    resume, mutex lock/unlock chains (via the generated workloads), I/O
    submissions, interrupt bursts, and [hsfq_mknod]/[rmnod] leaf churn —
    against a randomly built hierarchy, and after every step cross-checks
    the conserved quantities through {!Hsfq_check.Kernel_audit} and
    {!Hsfq_check.Hierarchy_audit}: effective weight = live weight +
    outstanding donations, the donation ledger drains to zero when all
    mutexes are free, every Runnable thread is enqueued in exactly its
    leaf, virtual time is monotone, and no wake timer outlives its
    thread.

    Everything is derived from one integer seed through independent
    {!Hsfq_engine.Prng.stream}s (structure / op generation / per-thread
    workloads), so a run is exactly reproducible and an executed trace
    can be {!replay}ed — or any subsequence of it, which is what
    {!shrink} exploits to minimise a failing trace. Thread and leaf
    operands in an {!op} are {e slot indices} (creation order, taken
    modulo the population at interpretation time), never raw kernel ids,
    so every op list is interpretable against every intermediate state. *)

open Hsfq_engine

type config = {
  seed : int;
  ops : int;  (** operations to generate (a replay runs its whole list) *)
  audit_period : int;  (** audit every n ops; 1 = after every op *)
  max_leaves : int;  (** cap on {e live} leaves: rmnod makes room for mknod *)
  max_spawns : int;  (** cap on threads ever spawned *)
  prepopulate : int;
      (** leaves built at init, before the op stream runs. Large values
          (10^5+) build giant randomized hierarchies whose mknod/rmnod
          churn drives the scheduling structures through growth,
          shrinking and compaction under the full audit stack. Must not
          exceed [max_leaves]. *)
  cpus : int;
      (** simulated CPUs ([Kernel.create ~cpus]). At [1] (the default)
          the generated op stream, PRNG draws and kernel behaviour are
          byte-identical to the historical single-CPU driver. At [> 1]
          every CPU beyond 0 gets its own seeded periodic interrupt
          source and the op generator targets interrupts at random CPUs
          ({!op.Interrupt_on}), so dispatch races cross-CPU migrations
          against per-CPU interrupt storms. *)
}

val config :
  ?ops:int ->
  ?audit_period:int ->
  ?max_leaves:int ->
  ?max_spawns:int ->
  ?prepopulate:int ->
  ?cpus:int ->
  int ->
  config
(** [config seed] — defaults: [ops = 10_000], [audit_period = 1],
    [max_leaves = 16], [max_spawns = 192], [prepopulate = 0],
    [cpus = 1]. *)

type op =
  | Advance of Time.span  (** run the simulation forward *)
  | Spawn of { leaf : int; weight : int; profile : int }
  | Start of int
  | Kill of int
  | Move of { th : int; leaf : int }
  | Suspend of int
  | Resume of int
  | Interrupt of Time.span
  | Interrupt_on of { cpu : int; dur : Time.span }
      (** interrupt a specific CPU (generated only when [cpus > 1]) *)
  | Mknod of { group : int; weight : int }  (** add a leaf under a group *)
  | Rmnod of int  (** retire an (empty) leaf *)

type outcome = {
  ops_run : int;
  trace : op list;  (** the executed ops, in order *)
  violations : Hsfq_check.Invariant.violation list;
  crash : string option;  (** exception escaping an op, if any *)
  footprint_words : int;
      (** {!Hsfq_core.Hierarchy.footprint_words} of the scheduling
          structure when the run ended — deterministic (array lengths,
          never GC sampling), so regressions can assert on it: churn
          storms must not permanently grow the structure. *)
}

val failed : outcome -> bool

val run : config -> outcome
(** Generate-and-execute [cfg.ops] operations from [cfg.seed]. Stops at
    the first audit failure or crash; the trace up to and including the
    offending op is in [trace]. *)

val sweep :
  ?jobs:int ->
  ?minor_heap:int ->
  config ->
  seeds:int array ->
  outcome array
(** {!run} for every seed in [seeds] (each with [cfg]'s ops/audit
    settings; [cfg.seed] is ignored), fanned out over [jobs] workers via
    {!Hsfq_par.Par.sweep} ([jobs] defaults to 1; values [<= 0] resolve
    via {!Hsfq_par.Par.resolve_jobs}, the one jobs policy). [minor_heap]
    is passed through to {!Hsfq_par.Par.sweep}. Every run builds its own
    simulator, kernel and invariant sink from its seed alone, so the
    returned outcomes — verdicts, violation lists, traces — are
    identical whatever [jobs] is. *)

val replay : config -> op list -> outcome
(** Re-execute an explicit op list against the same seed-derived system
    (structure, devices, workload streams). [cfg.ops] is ignored. *)

val shrink : config -> op list -> op list
(** Greedy delta-debugging: repeatedly drop chunks of the trace while
    {!replay} still fails, halving the chunk size down to single ops.
    Returns the input unchanged if it does not fail. *)

val op_to_string : op -> string
val trace_to_string : op list -> string
val outcome_summary : outcome -> string
