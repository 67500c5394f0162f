(** Audited decorators: wrap a scheduler so every transition is checked.

    {!Make} wraps any {!Hsfq_sched.Scheduler_intf.FAIR} scheduler with the
    algorithm-independent invariants (work conservation, virtual-time
    monotonicity, ready-set bookkeeping, select/charge protocol). The
    result is itself a [FAIR] scheduler, so it can be dropped anywhere the
    bare algorithm is accepted — including {!Hsfq_kernel.Leaf_sched}'s
    [Fair_leaf] functor:

    {[
      module Checked_wfq = Hsfq_check.Audited.Make (Hsfq_sched.Wfq)
      module Leaf = Hsfq_kernel.Leaf_sched.Fair_leaf (Checked_wfq)
    ]}

    {!Sfq} wraps the paper's own algorithm with the full rule set of
    {!Sfq_rules} (tag discipline, heap order of selections, donation
    conservation), since SFQ exposes the probes those rules need. *)

open Hsfq_sched

module Make (F : Scheduler_intf.FAIR) : sig
  include Scheduler_intf.FAIR

  val wrap : ?node:string -> ?sink:Invariant.sink -> F.t -> t
  (** Audit an existing scheduler. [node] (default the algorithm name)
      labels violations; [sink] defaults to a fresh [Raise]-policy sink. *)

  val inner : t -> F.t
  val sink : t -> Invariant.sink
end
(** [create] builds [F.create]'s scheduler wrapped with a fresh
    [Raise]-policy sink, and [algorithm_name] is [F.algorithm_name ^
    "+audit"]. *)

(** The paper's SFQ under the full {!Sfq_rules} audit. Mirrors the
    {!Hsfq_core.Sfq} API (including [wake]/[block]/[donate]/[revoke]);
    every call captures the pre-state its rules read, performs the
    transition on the wrapped instance, and checks the step semantics
    plus all state invariants — on the clean path, which allocates
    nothing, unless some rule fails and the report path runs. *)
module Sfq : sig
  type t

  val wrap : ?node:string -> ?sink:Invariant.sink -> Hsfq_core.Sfq.t -> t
  val create : ?node:string -> ?sink:Invariant.sink -> unit -> t
  val inner : t -> Hsfq_core.Sfq.t
  val sink : t -> Invariant.sink

  val arrive : t -> id:int -> weight:int -> unit

  val wake : t -> id:int -> unit
  (** {!Hsfq_core.Sfq.wake}, checked as an [arrive] at the stored
      weight. *)

  val depart : t -> id:int -> unit
  val set_weight : t -> id:int -> weight:int -> unit
  val select_id : t -> int
  val charge : t -> id:int -> service:int -> runnable:bool -> unit
  val block : t -> id:int -> unit
  val donate : t -> blocked:int -> recipient:int -> unit
  val revoke : t -> blocked:int -> unit
  val backlogged : t -> int
  val virtual_time : t -> int
  val start_tag : t -> id:int -> int
  val finish_tag : t -> id:int -> int
  val is_runnable : t -> id:int -> bool
  val mem : t -> id:int -> bool
end
