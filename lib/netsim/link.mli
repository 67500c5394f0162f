(** A network link scheduled by a fair queuing algorithm — the setting
    SFQ originally comes from (the paper's reference [6], Goyal, Vin &
    Cheng, SIGCOMM '96), whose theorems §3 imports wholesale.

    Packets make the guarantees sharper to test than CPU quanta: lengths
    are known exactly at dequeue time, arrivals are external events (a
    flow need not stay backlogged), and service is non-preemptive per
    packet. A link transmits at [rate_bps]; each flow keeps a FIFO packet
    queue; the scheduler (any {!Hsfq_sched.Scheduler_intf.FAIR}
    implementation — SFQ by default) picks which flow's head packet to
    transmit next and is charged the packet's actual length.

    All per-flow accounting needed for the paper's claims is recorded:
    delivered bits (throughput series), per-packet delay (arrival to last
    bit), drops (per-flow queue cap). *)

open Hsfq_engine

type t

val create :
  sim:Sim.t ->
  rate_bps:float ->
  ?sched:(module Hsfq_sched.Scheduler_intf.FAIR) ->
  ?quantum_hint_bits:int ->
  ?queue_cap:int ->
  unit ->
  t
(** Defaults: SFQ, 12 000-bit assumed quantum (one 1500-byte packet — only
    finish-tag schedulers use it), 1000-packet per-flow queues. *)

val add_flow : t -> id:int -> weight:float -> unit
(** Register a flow. Weights are the fair-queuing weights, converted by
    {!Hsfq_sched.Vtime.weight_of_float}; giving each flow its share of
    the link (its rate / [rate_bps], summing to <= 1) yields the paper's
    throughput/delay guarantees for the flow. A weight's unit of virtual
    time is one bit per 10^-6 of share, so shares keep tags fine-grained
    where raw rates in bits/s would make a virtual unit a whole second
    of the flow's transmission time. *)

val remove_flow : t -> id:int -> unit

val enqueue : t -> flow:int -> bits:int -> unit
(** A packet of the given size arrives now. Starts transmission
    immediately if the link is idle; dropped (and counted) if the flow's
    queue is full. *)

val scheduler_name : t -> string

(** {1 Per-flow accounting} *)

val delivered_bits : t -> flow:int -> float
val delivered_series : t -> flow:int -> Series.t
(** (completion time, bits) per packet — bucket for goodput plots. *)

val delay_stats : t -> flow:int -> Stats.t
(** Per-packet delay (arrival to end of transmission), ns. *)

val delays : t -> flow:int -> float array
(** Raw per-packet delays in completion order, ns. *)

val completions : t -> flow:int -> (float * float * float) array
(** Per packet, in completion order: (arrival ns, completion ns, bits) —
    the inputs to the eq. 8 delay-bound check. *)

val drops : t -> flow:int -> int
val queue_length : t -> flow:int -> int
val busy : t -> bool
