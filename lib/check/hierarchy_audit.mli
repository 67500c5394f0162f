(** Invariant audit for a whole scheduling structure.

    [attach sink hier] installs a {!Hsfq_core.Hierarchy.set_audit_hook}
    observer: after every transition of any internal node's SFQ, that
    node's instance is re-checked against the full {!Sfq_rules} state
    invariants plus the structure-level rules below, reporting violations
    into [sink] with the node's path as location. A clean check is one
    pass that allocates nothing; the rules are re-evaluated one by one,
    with paths built, only when one fails.

    Structure-level rules:
    - ["weight-conservation"]: every child's administered weight equals
      its registration in the parent's SFQ;
    - ["slot-cache"]: every child's cached slot in the parent's SFQ
      ({!Hsfq_core.Hierarchy.node_slot}) is where the SFQ holds it;
    - ["runnability"]: an internal node is runnable iff its SFQ has
      backlogged children (§4 — a node is runnable iff some leaf of its
      subtree is runnable, maintained by the setrun/sleep walks). *)

open Hsfq_core

val attach : Invariant.sink -> Hierarchy.t -> unit
(** Install the observer (replacing any previous hook). *)

val check_all : Invariant.sink -> Hierarchy.t -> unit
(** Sweep every internal node of the structure (e.g. at the end of an
    experiment). *)
