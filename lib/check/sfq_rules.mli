(** The paper's SFQ invariants (§3 rules 1–2, Theorems 1–3), executable.

    Two granularities:

    - the state rules hold on one SFQ instance at any time (tag
      discipline, virtual-time bounds, ready-count consistency, donation
      conservation);
    - the step rules of a single [arrive]/[select]/[charge]/[block]/
      [depart]/[set_weight]/[donate]/[revoke] hold against the
      pre-state captured just before it ({!capture}, {!capture_ready}).

    Each rule is written once, as one bit of a fault mask, and read by
    two paths (see [doc/INVARIANTS.md]). The clean path ({!state_clean}
    and the [*_ok] predicates) asks whether the masks are 0: one pass
    over the SFQ's flat slot columns that formats nothing and — while
    no donation is outstanding — allocates nothing. The report path
    ({!check_state}, {!report}) computes the same masks and reports one
    record per set bit; callers run it only when the clean path says
    no. Every comparison is exact ([=], [<=] on ints — no epsilon).

    Rule identifiers reported to the sink (see [doc/INVARIANTS.md]):
    ["vt-monotone"], ["tag-discipline"], ["select-min-start"],
    ["nrun-consistent"], ["donation-conservation"], ["work-conserving"],
    ["charge-finish-tag"], ["max-finish-bound"]. *)

open Hsfq_core

type pre_state
(** What a transition's rules read of the state before it: virtual
    time, max finish tag, backlog, the in-service client, outstanding
    donations, and either the target client's row (tags, remainder,
    effective weight, runnable flag) or, before a selection, the ready
    set. A reusable buffer. *)

val buffer : unit -> pre_state

val capture : pre_state -> Sfq.t -> id:int -> unit
(** Refill the buffer before a transition that targets client [id] (the
    blocked client of a donate or revoke): the scalars plus that
    client's row, found through the id index. *)

val capture_ready : pre_state -> Sfq.t -> unit
(** Refill the buffer before a selection: the scalars plus the ids and
    start tags of the runnable clients. The buffer's columns grow only
    when the SFQ's slot bound outgrows them. *)

(** A transition, for {!report}. *)
type event =
  | Arrive of { id : int; weight : int }
  | Select of int  (** the selection result; [-1] = none *)
  | Charge of { id : int; service : int; runnable : bool }
  | Block of int
  | Depart of int
  | Set_weight of { id : int; weight : int }
  | Donate of { blocked : int; recipient : int }
  | Revoke of int

(** {1 Clean path} *)

val state_clean : Sfq.t -> bool
(** Whether every state rule holds: one sweep of the slot columns plus
    the claim set, read in place. *)

val arrive_ok : pre_state -> Sfq.t -> id:int -> weight:int -> bool
(** Whether the step rules of [Arrive {id; weight}], the clock rules and
    every state rule hold after the transition. Likewise below. *)

val select_ok : pre_state -> Sfq.t -> int -> bool
val charge_ok :
  pre_state -> Sfq.t -> id:int -> service:int -> runnable:bool -> bool
val block_ok : pre_state -> Sfq.t -> id:int -> bool
val depart_ok : pre_state -> Sfq.t -> id:int -> bool
val set_weight_ok : pre_state -> Sfq.t -> id:int -> weight:int -> bool

val donate_ok : pre_state -> Sfq.t -> blocked:int -> recipient:int -> bool
(** Reads the donation list (allocates), as does {!revoke_ok}. *)

val revoke_ok : pre_state -> Sfq.t -> blocked:int -> bool

(** {1 Report path} *)

val check_state :
  Invariant.sink -> where:(unit -> string * string) -> Sfq.t -> unit
(** Evaluate every state rule and report each broken one. [where ()]
    gives the [(node, event)] labels of a report; it is called only when
    a rule fails. *)

val report :
  node:string -> Invariant.sink -> pre:pre_state -> Sfq.t -> event -> unit
(** Evaluate the step rules of [event] against [pre] (captured for that
    event), then {!check_state} on the post-state, reporting each broken
    rule labelled with [node] and the event's name. Adds nothing iff the
    event's [*_ok] predicate holds. *)

(** {1 Theorem 1 in integers}

    For any window in which clients [f] and [m] are both continuously
    backlogged, with [W] the service each received in the window and
    [l] its largest quantum (see [doc/INVARIANTS.md] for the
    derivation):
    {[ |⌊unit·W_f/w_f⌋ - ⌊unit·W_m/w_m⌋| <= ⌈unit·l_f/w_f⌉ + ⌈unit·l_m/w_m⌉ + 2 ]}
    i.e. the paper's eq. 3 plus one virtual unit of quantisation per
    client. Weights are {!Hsfq_sched.Vtime} units, service ns. *)

val fair_window :
  w_f:int -> work_f:int -> l_f:int -> w_m:int -> work_m:int -> l_m:int -> bool
(** Whether one window's service satisfies the bound ([<=], exact). *)
