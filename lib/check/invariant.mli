(** Composable runtime invariant checking.

    The correctness layer of the scheduler stack: a {e violation} is a
    structured record of a broken invariant (which rule, during which
    transition, on which node, with what evidence), and a {e sink}
    decides what happens to it — raise immediately (tests, debugging) or
    collect for a final report (experiments, long simulations).

    The invariants themselves live next to what they check:
    {!Sfq_rules} for a single SFQ instance, {!Hierarchy_audit} for a
    scheduling structure, {!Audited} for any
    {!Hsfq_sched.Scheduler_intf.FAIR} scheduler. Each checked rule is
    documented with its paper citation in [doc/INVARIANTS.md]. *)

type violation = {
  invariant : string;  (** rule identifier, e.g. ["vt-monotone"] *)
  event : string;  (** the transition being checked, e.g. ["charge id=3"] *)
  node : string;  (** node path or scheduler label, e.g. ["/rt"] *)
  detail : string;  (** evidence: the values that broke the rule *)
}

exception Violation of violation
(** Raised by sinks with the {!Raise} policy. *)

type policy =
  | Raise  (** raise {!Violation} on the first report *)
  | Collect  (** accumulate; read back with {!violations} *)

type sink

val create : ?policy:policy -> ?limit:int -> unit -> sink
(** A fresh sink. [policy] defaults to [Collect]. [limit] (default 1000)
    caps the number of {e stored} violations so a hot loop cannot eat the
    heap; {!count} keeps counting past it. *)

val report : sink -> violation -> unit

val fail :
  sink ->
  invariant:string ->
  node:string ->
  event:string ->
  ('a, unit, string, unit) format4 ->
  'a
(** [fail sink ~invariant ~node ~event fmt ...] reports a violation with
    the formatted detail. Per-transition checkers guard it as
    [if not ok then fail ...], so the location, the detail arguments and
    the formatting are all paid only when the rule breaks. *)

val check :
  sink ->
  invariant:string ->
  node:string ->
  event:string ->
  bool ->
  ('a, unit, string, unit) format4 ->
  'a
(** [check sink ~invariant ~node ~event ok fmt ...] is {!fail} when [ok]
    is false and does nothing otherwise. The arguments are still
    evaluated (boxing floats, building strings) and the format is still
    walked when [ok] holds, so this suits cold sweeps; hot paths use the
    [if not ok then fail ...] pattern instead. *)

val count : sink -> int
(** Total violations reported (including any dropped past [limit]). *)

val violations : sink -> violation list
(** Stored violations, oldest first. *)

val clear : sink -> unit

val pp_violation : Format.formatter -> violation -> unit
val violation_to_string : violation -> string

val summary : sink -> string
(** One line: ["0 invariant violations"] or ["3 invariant violations
    (first: ...)"]. *)
