(** Per-node metric counters (service, quanta, preemptions, GPS lag,
    wait-time histograms).

    Nodes are dense small-int ids — hierarchy node ids in a traced
    simulation, raw client ids when a bare {!Sfq} carries the tracer.
    Accumulators grow by doubling on first touch and are plain array
    cells afterwards, so the record path stays allocation-free in the
    steady state. *)

type t

val create : unit -> t

val charge_sample : t -> node:int -> service:int -> norm:int -> vt:int -> unit
(** Account one charged quantum: [service] ns of CPU, [norm] normalized
    service (the quantum's tag increment, service / effective weight on
    the {!Hsfq_sched.Vtime} scale), [vt] the scheduler's virtual time at
    the charge.  Also counts one quantum. *)

val incr_preempt : t -> node:int -> unit

val wait_sample : t -> node:int -> int -> unit
(** Dispatch-wait sample in ns (histogrammed over 0–100 ms, 20 bins). *)

(** {1 Readback} — ids beyond [node_count] read as zero/empty. *)

val node_count : t -> int
(** Highest touched node id + 1. *)

val active : t -> node:int -> bool
(** Whether the node ever received a sample. *)

val service : t -> node:int -> int
val norm_service : t -> node:int -> int
val quanta : t -> node:int -> int
val preemptions : t -> node:int -> int

val vt_lag : t -> node:int -> int
(** [norm_service - (vt_last - vt_first)]: how far the node's normalized
    service leads (+) or trails (-) the advance of virtual time over its
    charged interval — the GPS-relative lag the paper's eq. 3 bounds for
    continuously backlogged nodes.  0 before two samples exist. *)

val wait_histogram : t -> node:int -> Hsfq_engine.Histogram.t option
