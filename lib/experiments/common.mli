(** Shared scaffolding for the paper-reproduction experiments.

    Builds simulated systems (simulator + hierarchy + kernel), wires leaf
    schedulers and threads with less ceremony than the raw APIs, and
    provides the check/reporting conventions every figure module uses. *)

open Hsfq_engine
open Hsfq_core
open Hsfq_kernel

type sys = {
  sim : Sim.t;
  hier : Hierarchy.t;
  k : Kernel.t;
  audit : Hsfq_check.Invariant.sink option;
      (** collects violations from the hierarchy audit and every audited
          leaf; [None] when built with [~audit:false] *)
  obs : Hsfq_obs.Trace.sys option;
      (** tracepoint handle, present when the system was built under
          {!with_obs} *)
}

val with_obs : Hsfq_obs.Trace.t -> (unit -> 'a) -> 'a
(** Install [tr] as the ambient tracer while [f] runs: every system
    {!make_sys} builds inside [f] registers itself with the tracer and
    wires tracepoints through its hierarchy, kernel and leaf
    schedulers.  The binding is per-domain (Domain.DLS), so traced runs
    on [Par.sweep] workers stay independent and deterministic. *)

val make_sys :
  ?config:Kernel.config -> ?cpus:int -> ?audit:bool -> ?obs_label:string ->
  unit -> sys
(** [audit] (default [true]) attaches {!Hsfq_check.Hierarchy_audit} to the
    scheduling structure and audits every {!sfq_leaf}, collecting
    violations in [sys.audit] for {!audit_check} to report.
    [cpus] (default 1) builds the kernel on a simulated CPU set
    ({!Kernel.create}[ ~cpus]) — used by the multiprocessor experiment
    family.  [obs_label] (default ["sys"]) names this system's trace
    process when built under {!with_obs}. *)

val internal : sys -> parent:Hierarchy.id -> name:string -> weight:float ->
  Hierarchy.id
(** Create an internal node (raises on error). *)

val sfq_leaf : sys -> parent:Hierarchy.id -> name:string -> weight:float ->
  ?quantum:Time.span -> unit -> Hierarchy.id * Leaf_sched.Sfq_leaf.handle
(** Create a leaf node with an SFQ class scheduler installed. *)

val svr4_leaf : sys -> parent:Hierarchy.id -> name:string -> weight:float ->
  ?table:Hsfq_sched.Svr4.row array -> ?tick_accounting:bool ->
  ?rt_quantum:Time.span -> unit -> Hierarchy.id * Leaf_sched.Svr4_leaf.handle

val edf_leaf : sys -> parent:Hierarchy.id -> name:string -> weight:float ->
  ?quantum:Time.span -> unit -> Hierarchy.id * Leaf_sched.Edf_leaf.handle

(** {1 Thread helpers} (spawn + class registration + start) *)

val dhrystone_thread : sys -> leaf:Hierarchy.id ->
  sfq:Leaf_sched.Sfq_leaf.handle -> name:string -> weight:float ->
  loop_cost:Time.span -> Kernel.tid * Hsfq_workload.Dhrystone.counter

val dhrystone_ts_thread : sys -> leaf:Hierarchy.id ->
  svr4:Leaf_sched.Svr4_leaf.handle -> name:string ->
  loop_cost:Time.span -> Kernel.tid * Hsfq_workload.Dhrystone.counter

val mpeg_thread : sys -> leaf:Hierarchy.id ->
  sfq:Leaf_sched.Sfq_leaf.handle -> name:string -> weight:float ->
  ?params:Hsfq_workload.Mpeg.params -> ?paced:bool -> unit ->
  Kernel.tid * Hsfq_workload.Mpeg.counter

val periodic_rt_thread : sys -> leaf:Hierarchy.id ->
  svr4:Leaf_sched.Svr4_leaf.handle -> name:string -> rt_prio:int ->
  period:Time.span -> cost:Time.span ->
  Kernel.tid * Hsfq_workload.Periodic.counter

val background_daemons : sys -> leaf:Hierarchy.id ->
  svr4:Leaf_sched.Svr4_leaf.handle -> n:int -> mean_think:Time.span ->
  burst:Time.span -> seed:int -> Kernel.tid list
(** Interactive TS threads standing in for "all the normal system
    processes" of the paper's multiuser-mode testbed. *)

(** {1 Reporting conventions} *)

type check = { label : string; ok : bool; detail : string }

val check : string -> bool -> ('a, unit, string, check) format4 -> 'a
(** [check label ok fmt ...] builds a {!check} with a printf detail. *)

val audit_check : sys -> check
(** Run the final quiescent sweep ({!Hsfq_check.Hierarchy_audit.check_all})
    and fold the whole run's audit verdict into one {!check}: PASS iff no
    scheduler invariant was violated. *)

val merge_audits : string -> check list -> check
(** Collapse many {!audit_check} verdicts (experiments that build dozens
    of systems) into one: the first failing verdict relabelled, or a
    clean summary. *)

val print_checks : check list -> unit
val all_ok : check list -> bool
