(** Common interface for proportional-share ("fair") schedulers.

    All the virtual-time schedulers in this repository — the paper's SFQ
    ({!Hsfq_core.Sfq}) and the related-work baselines (WFQ, SCFQ, FQS,
    stride, lottery, EEVDF) — operate on an abstract set of *clients*
    (threads or scheduling-structure nodes) identified by integers, each
    with a positive weight.

    Units: weights are fixed-point {!Vtime} units ([Vtime.unit] = 1.0),
    service is integer nanoseconds, and virtual time is an exact integer
    in ns per weight unit scaled by [Vtime.unit] (a weight-1.0 client's
    tags advance by exactly its service).  Floats enter only at the admin
    boundary, through {!Vtime.weight_of_float}.

    Protocol, driven by the kernel or by a test harness:
    {ol
    {- [arrive] announces that a client is runnable (first time or after
       blocking). Per-client scheduler state (e.g. SFQ's finish tag)
       persists across blocked periods.}
    {- [select_id] picks the client to run next and marks it "in
       service"; it returns [-1] iff no client is runnable. Exactly one
       [charge] must follow each successful [select_id], and a second
       [select_id] before it raises.}
    {- [charge] reports the *actual* service received (the paper's quantum
       length [l], measured here in nanoseconds of CPU time) and whether
       the client is still runnable.}
    {- [depart] removes a client entirely (thread exit). The client in
       service cannot depart: charge it first. Such a [depart] raises
       [Invalid_argument] and changes nothing.}}

    Service is reported {e after} it happens. Algorithms that need quantum
    lengths a priori (WFQ, SCFQ — see §6 of the paper) instead use the
    [quantum_hint] given at creation as the assumed length; this is exactly
    the limitation the paper criticises and the comparison experiments
    exercise it. *)

module type FAIR = sig
  type t

  val algorithm_name : string

  val create : ?rng:Hsfq_engine.Prng.t -> ?quantum_hint:int -> unit -> t
  (** [rng] is required only by randomized algorithms (lottery) and
      otherwise ignored. [quantum_hint] (default 10 ms, in ns) is the
      assumed/standard quantum for algorithms that need one. *)

  val arrive : t -> id:int -> weight:int -> unit
  (** Mark client [id] runnable with the given weight (in {!Vtime}
      units). Idempotent when the client is already runnable (the weight
      argument is then ignored; use [set_weight] to change it). [weight]
      must be positive. *)

  val depart : t -> id:int -> unit
  (** Forget the client completely. Unknown ids are ignored. Raises
      [Invalid_argument], with no state changed, if [id] is in service. *)

  val set_weight : t -> id:int -> weight:int -> unit

  val select_id : t -> int
  (** Choose the next client to serve: its id, or [-1] iff no client is
      runnable. The chosen client is "in service" until the matching
      [charge]. *)

  val charge : t -> id:int -> service:int -> runnable:bool -> unit
  (** Account [service] ns to the in-service client [id]; [runnable]
      says whether it stays in the ready set (false = it blocked).
      Raises [Invalid_argument] rather than wrap if a tag would pass
      [max_int] (see {!Vtime} for the horizon). *)

  val backlogged : t -> int
  (** Number of runnable clients (including one in service, if any). *)

  val virtual_time : t -> int
  (** The algorithm's notion of virtual time, for tests and diagnostics
      (0 for algorithms without one, e.g. lottery). *)
end
