(** WFQ/FQS with the {e real-time} GPS virtual clock — the variants the
    paper actually criticises in §6.

    The textbook WFQ definition (paper eq. 12) advances virtual time with
    {e wall-clock} time at rate [C / (sum of backlogged weights)], where
    [C] is the server's nominal capacity — here one fully dedicated CPU
    (one ns of work per ns). When the bandwidth actually available
    fluctuates below [C] — e.g. the scheduler sits at a
    hierarchy node whose siblings come and go — v(t) races ahead of the
    service actually delivered, every client's tags re-anchor to [max(v,
    F)], and the allocation degrades toward unweighted round-robin. This
    is the precise failure mode behind "WFQ does not provide fairness
    when the processor bandwidth fluctuates over time"; the [xfair]
    experiment measures it against SFQ.

    [order] selects finish-tag scheduling (WFQ proper; needs the assumed
    [quantum_hint] length a priori) or start-tag scheduling (FQS; actual
    lengths). Unlike {!Scheduler_intf.FAIR} implementations, every
    operation takes the current wall-clock [now] (nanoseconds). *)

type t

type order = Finish_tags  (** WFQ *) | Start_tags  (** FQS *)

val create : order:order -> ?quantum_hint:int -> unit -> t
(** [quantum_hint] is the assumed quantum in ns (default 20 ms). *)

val arrive : t -> now:Hsfq_engine.Time.t -> id:int -> weight:int -> unit
(** [weight] in {!Vtime} units. *)

val depart : t -> id:int -> unit
(** Raises [Invalid_argument], with no state changed, if [id] is in
    service (selected, not yet charged). *)

val set_weight : t -> id:int -> weight:int -> unit

val select_id : t -> now:Hsfq_engine.Time.t -> int
(** The next client to serve, or [-1] iff none is runnable; in service
    until the matching [charge]. *)

val charge :
  t -> now:Hsfq_engine.Time.t -> id:int -> service:int -> runnable:bool -> unit

val backlogged : t -> int
val virtual_time : t -> now:Hsfq_engine.Time.t -> int
(** The GPS round number ({!Vtime} scale), advanced to [now]. *)
