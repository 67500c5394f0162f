(** Parallel whole-simulation sweeps on a pool of OCaml 5 domains.

    Everything this repository fans out — torture seed sweeps, figure
    regeneration, CSV export, differential-oracle batches, benchmark
    harness runs — is a set of {e independent} simulations. {!sweep}
    runs such a set in parallel while guaranteeing that the merged
    result array is {e exactly} the one the serial run produces: tasks
    carry no shared mutable state (each builds its own [Sim.t],
    [Invariant.sink], [Tracelog.t], ...), randomness comes from
    {!Hsfq_engine.Prng.stream} substreams keyed by task index (see
    {!sweep_seeded}), and results are merged in task-index order. Any
    output a task would print must instead be returned as data and
    rendered at the join point, in index order, by the caller.

    A parallel sweep spawns its worker domains, which — together with
    the calling domain — pull task-index chunks off an atomic counter,
    and joins them before returning. The heap is shared, so every minor
    collection is a stop-the-world rendezvous across the pool;
    [?minor_heap] trades memory for fewer of them on allocation-heavy
    sweeps.

    Domain-safety rules for task functions (enforced by convention and
    by the [toplevel-mutable] lint on [lib/engine] / [lib/torture],
    whole-program by the typed [tl-domain-race] pass): a task must not
    touch module-level mutable state, must not print, and must not
    share simulator objects with any other task. All of [lib/engine],
    [lib/core], [lib/kernel] and [lib/torture] keep their state inside
    instances created per run, so a task that builds its own world is
    safe by construction. *)

val available_cores : unit -> int
(** [Domain.recommended_domain_count ()], clamped to at least 1. *)

val resolve_jobs : int -> int
(** The one jobs-resolution policy, used by every fan-out surface
    (CLI [--jobs], {!Hsfq_torture.Torture.sweep}, the bench harness):
    [resolve_jobs n] is [n] for [n >= 1] and {!available_cores} for
    [n <= 0] ("auto"). Auto therefore resolves to [1] — i.e. the plain
    serial path — on a single-core box, where any [jobs >= 2]
    configuration is a guaranteed loss; asking for oversubscription
    explicitly (a literal [--jobs 2] on one core) is honored as given. *)

val default_jobs : unit -> int
(** [resolve_jobs 0] — what [--jobs 0] resolves to. *)

val sweep : ?minor_heap:int -> jobs:int -> tasks:'a array -> ('a -> 'b) -> 'b array
(** One-shot sweep at a parallelism of [jobs] domains doing task work
    ([jobs <= 0] resolves via {!resolve_jobs}; a resolved value below 2
    — and task counts below 2 — takes the plain serial path, with no
    domains, atomics or pool involved). The contract is the one that
    matters everywhere in this repo: for a task-pure [f],

    {[ sweep ~jobs ~tasks f = Array.map f tasks ]}

    byte for byte, whatever [jobs] is. A [jobs] above the runtime's
    domain limit runs on as many domains as the runtime grants (serially
    in the caller if it grants none).

    [minor_heap] (words) sizes the nursery every task runs under —
    worker domains at startup, and the calling domain for the duration
    of the sweep (restored afterwards) — trading memory for fewer minor
    collections on allocation-heavy sweeps (see [--minor-heap] in
    doc/PERFORMANCE.md).

    Exceptions: if one or more tasks raise, the sweep raises — after all
    in-flight work has drained — the exception of the {e lowest} failing
    task index, with its backtrace, so failure is as deterministic as
    success. *)

val sweep_seeded :
  ?minor_heap:int ->
  jobs:int ->
  rng:Hsfq_engine.Prng.t ->
  tasks:'a array ->
  (rng:Hsfq_engine.Prng.t -> 'a -> 'b) ->
  'b array
(** {!sweep} for stochastic tasks: task [i] receives
    [Prng.stream rng i], the [i]-th independent substream of [rng]
    (derived without advancing [rng]), so the randomness each task sees
    depends only on [(rng, i)] — never on how tasks were interleaved
    across domains. *)
