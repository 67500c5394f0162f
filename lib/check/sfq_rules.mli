(** The paper's SFQ invariants (§3 rules 1–2, Theorems 1–3), executable.

    Two granularities:

    - {!check_state} scans one SFQ instance and verifies every invariant
      expressible on a state snapshot (tag discipline, virtual-time
      bounds, ready-count consistency, donation conservation);
    - {!check_transition} additionally verifies the step semantics of a
      single [arrive]/[select]/[charge]/[block]/[depart]/[donate]/[revoke]
      against the pre-state captured with {!snapshot}.

    Both scan the SFQ's flat slot columns ({!Hsfq_core.Sfq.slot_bound}
    and the slot probes) and build no list or view per client, so with
    every probe an int read, a passing check allocates a bounded handful
    of words whatever the client count, in dev and release alike. Every
    comparison is exact ([=], [<=] on ints — no epsilon). A violation's
    location, event label and evidence are built only when a rule
    fails.

    Rule identifiers reported to the sink (see [doc/INVARIANTS.md]):
    ["vt-monotone"], ["tag-discipline"], ["select-min-start"],
    ["nrun-consistent"], ["donation-conservation"], ["work-conserving"],
    ["charge-finish-tag"], ["max-finish-bound"]. *)

open Hsfq_core

type snapshot
(** The observable SFQ state a transition is judged against: virtual
    time, max finish tag, ready count, in-service client, donations, and
    per slot the client's id, tags, effective weight and runnable flag. *)

val snapshot : ?into:snapshot -> Sfq.t -> snapshot
(** Capture the state. With [into], refill that buffer (growing its
    columns only when the SFQ's slot bound outgrows them) and return it,
    so a guard that keeps one buffer snapshots every operation without
    allocating. *)

(** The transition just performed, for {!check_transition}. *)
type event =
  | Arrive of { id : int; weight : int }
  | Select of int  (** the selection result; [-1] = none *)
  | Charge of { id : int; service : int; runnable : bool }
  | Block of int
  | Depart of int
  | Set_weight of { id : int; weight : int }
  | Donate of { blocked : int; recipient : int }
  | Revoke of int

val check_state :
  Invariant.sink -> where:(unit -> string * string) -> Sfq.t -> unit
(** Verify all snapshot invariants of the SFQ, reporting into the sink.
    [where ()] gives the [(node, event)] labels of a report; it is called
    only when a rule fails, so a caller can pass a thunk that builds a
    node path or an event label without paying for it on every check. *)

val check_transition :
  ?node:string -> Invariant.sink -> pre:snapshot -> Sfq.t -> event -> unit
(** Verify the step semantics of [event] given the pre-state, then run
    {!check_state} on the post-state, labelling reports with [node]
    (default ["sfq"]) and the event's name. *)

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
