(** Leaf-class schedulers, as plugged into the hierarchical framework.

    The paper's leaf nodes hold "a pointer to a function that is invoked,
    when it is scheduled by its parent node, to select one of its threads"
    (§4); any algorithm qualifies provided it also participates in the
    runnable/charge protocol. [t] is the OCaml rendering of that function
    table. Adapters are provided for every scheduler in this repository:
    {!Sfq_leaf} (SFQ among threads), {!Svr4_leaf} (TS + RT classes),
    {!Rm_leaf}, {!Edf_leaf}, and {!Fair_leaf} over any
    {!Hsfq_sched.Scheduler_intf.FAIR} baseline.

    Thread membership is registered on the adapter handle ({e before} the
    kernel first marks the thread runnable), because each class needs
    different per-thread parameters (weight, RT priority, period, ...). *)

open Hsfq_engine

type t = {
  name : string;
  enqueue : now:Time.t -> int -> unit;  (** thread became runnable *)
  dequeue : now:Time.t -> int -> unit;
      (** a runnable but not-running thread leaves the ready set *)
  select_id : now:Time.t -> int;
      (** pick the next thread to run: its id, or [-1] iff the ready set
          is empty *)
  charge : now:Time.t -> int -> service:Time.span -> runnable:bool -> unit;
      (** account actual CPU consumed by the selected thread *)
  quantum_ns_of : int -> Time.span;
      (** class-specific quantum in ns, or [-1] for the kernel default *)
  preempts : waker:int -> running:int -> bool;
      (** should a wakeup preempt the running thread of this class
          immediately (e.g. SVR4 RT)? *)
  backlogged : unit -> int;  (** number of runnable member threads *)
  detach : int -> unit;  (** thread exits or moves away *)
  second_tick : unit -> unit;  (** once-per-second housekeeping *)
  donate : blocked:int -> recipient:int -> unit;
      (** weight transfer when [blocked] waits on a resource held by
          [recipient] (§4 priority-inversion avoidance); a no-op for
          classes without weights *)
  revoke : blocked:int -> unit;  (** undo [blocked]'s donation *)
  sfq_probe : Hsfq_core.Sfq.t option;
      (** the underlying SFQ when the class is SFQ-backed ([None]
          otherwise) — a read-only probe for the kernel-wide audit
          ({!Hsfq_check.Kernel_audit} via [Kernel.dump]) *)
}

(** SFQ as a leaf scheduler (used by the paper's SFQ-1/SFQ-2 nodes and the
    Figure 10/11 experiments). *)
module Sfq_leaf : sig
  type handle

  val make :
    ?quantum:Time.span ->
    ?audit:Hsfq_check.Invariant.sink ->
    ?audit_label:string ->
    unit ->
    t * handle
  (** [?audit] wraps the SFQ in {!Hsfq_check.Audited.Sfq}, the full
      {!Hsfq_check.Sfq_rules} transition audit: every
      enqueue/dequeue/select/charge/detach/donate/revoke is verified
      against the pre-state and reported into the sink, labelled
      [audit_label] (default ["sfq-leaf"]). Auditing is pay-per-use —
      omitting [?audit] leaves the fast path untouched. *)

  val add : handle -> tid:int -> weight:float -> unit
  (** Register a member thread: it becomes a blocked SFQ client at once
      ({!Hsfq_core.Sfq.admit}), so its weight can be administered or
      donated before it first runs. [weight] is converted once, by
      {!Hsfq_sched.Vtime.weight_of_float} (which also rejects it).
      Raises if the thread is already a member. *)

  val set_weight : handle -> tid:int -> weight:float -> unit
  (** Re-weight a member; a runnable member's next charge uses it. *)

  val donate : handle -> blocked:int -> recipient:int -> unit
  (** Weight transfer between member threads (priority-inversion
      avoidance, §4). *)

  val revoke : handle -> blocked:int -> unit
  val sfq : handle -> Hsfq_core.Sfq.t  (** the underlying SFQ (tests) *)
end

(** Any {!Hsfq_sched.Scheduler_intf.FAIR} baseline as a leaf scheduler
    (used for scheduler-comparison experiments). Departing the ready set
    other than by blocking loses the client's virtual-time state. *)
module Fair_leaf (F : Hsfq_sched.Scheduler_intf.FAIR) : sig
  type handle

  val make :
    ?rng:Prng.t ->
    ?quantum_hint:Time.span ->
    ?quantum:Time.span ->
    ?audit:Hsfq_check.Invariant.sink ->
    ?audit_label:string ->
    unit ->
    t * handle
  (** [?audit] wraps the baseline in {!Hsfq_check.Audited.Make}[(F)]: the
      algorithm-independent invariants (virtual-time monotonicity,
      ready-set bookkeeping, select/charge protocol, work conservation)
      are checked on every transition and reported into the sink,
      labelled [audit_label] (default [F.algorithm_name]). *)

  val add : handle -> tid:int -> weight:float -> unit
  val set_weight : handle -> tid:int -> weight:float -> unit
  val scheduler : handle -> F.t
end

(** The SVR4 scheduler (TS dispatch table + preemptive RT class) as a leaf
    — the paper's modified "SVR4 leaf scheduler" (§4), with RT used in
    Figure 9. *)
module Svr4_leaf : sig
  type handle

  val make :
    ?table:Hsfq_sched.Svr4.row array ->
    ?tick:Time.span ->
    ?tick_accounting:bool ->
    ?rt_quantum:Time.span ->
    unit ->
    t * handle

  val add : handle -> tid:int -> ?prio:int -> Hsfq_sched.Svr4.cls -> unit
  val svr4 : handle -> Hsfq_sched.Svr4.t
end

(** Rate-monotonic leaf: static priorities from periods; preemptive
    within the class. *)
module Rm_leaf : sig
  type handle

  val make : ?quantum:Time.span -> unit -> t * handle
  val add : handle -> tid:int -> period:Time.span -> unit
end

(** EDF leaf: a member's deadline for each activation is
    [wake time + relative deadline]; preemptive within the class. *)
module Edf_leaf : sig
  type handle

  val make : ?quantum:Time.span -> unit -> t * handle
  val add : handle -> tid:int -> relative_deadline:Time.span -> unit
end

(** WFQ/FQS with the real-time GPS virtual clock ({!Hsfq_sched.Gps_vt}) —
    the textbook variants whose fairness breaks when available bandwidth
    fluctuates (the [xfair] comparison). *)
module Gps_leaf : sig
  type handle

  val make :
    order:Hsfq_sched.Gps_vt.order ->
    ?quantum_hint:Time.span ->
    ?quantum:Time.span ->
    unit ->
    t * handle

  val add : handle -> tid:int -> weight:float -> unit
end

(** Processor capacity reserves (Mercer, Savage & Tokuda 1994, the
    paper's reference [13]) as a leaf class — §6 notes such schedulers "can be
    employed as leaf class scheduler in our framework".

    Each member thread holds a reserve (capacity C per period T): while
    its budget lasts it runs in the {e reserved} band (FIFO among
    reserved threads, preempting unreserved ones on wake); once depleted
    it falls to the {e background} band until the periodic replenishment
    restores the budget — i.e. reserves are {e soft} (the guaranteed
    minimum, plus whatever the background round-robin grants). Dispatch
    slices are capped at the remaining budget, so the reserved band can
    never overrun. Threads added without a reserve are always
    background. *)
module Reserve_leaf : sig
  type handle

  val make : sim:Hsfq_engine.Sim.t -> unit -> t * handle
  (** The leaf schedules its own replenishment events on [sim]. *)

  val add :
    handle -> tid:int -> ?reserve:Time.span * Time.span -> unit -> unit
  (** [~reserve:(capacity, period)] — omit for a background-only
      thread. Replenishment is periodic from the moment of [add]. *)

  val budget_left : handle -> tid:int -> Time.span
end

val traced : sys:Hsfq_obs.Trace.sys -> node:int -> t -> t
(** Tracepoint decorator ({!Hsfq_obs}): returns a scheduler whose
    enqueue/dequeue/select/charge/donate/revoke additionally emit
    leaf-level events ([leaf-enqueue], [leaf-dequeue], [leaf-pick],
    [leaf-charge], [donate], [revoke]) under hierarchy node [node].
    Wrapping costs one closure record at install time; per event it is
    the usual single enabled-flag test. *)
