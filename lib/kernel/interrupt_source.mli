(** Interrupt load generators.

    The paper models a CPU whose effective bandwidth fluctuates because
    "processing of hardware interrupts occurs at the highest priority"
    (§3, property 3), abstracted as a Fluctuation Constrained or
    Exponentially Bounded Fluctuation server. These generators produce
    exactly such load: arrivals either strictly periodic with fixed cost
    (FC-style — burstiness is bounded deterministically) or Poisson with
    exponential cost (EBF-style).

    A source is started once against a kernel; it then self-schedules via
    the kernel's simulator for the whole run. *)

open Hsfq_engine

type spec =
  | Periodic of { period : Time.span; cost : Time.span }
      (** e.g. a 10 ms clock interrupt costing 50 µs. *)
  | Poisson of { rate_hz : float; mean_cost : Time.span; seed : int }
      (** Exponential inter-arrivals at [rate_hz], exponential costs. *)

val utilization : spec -> float
(** Long-run fraction of the CPU consumed by the source. *)

val fc_burstiness : spec -> Time.span
(** For [Periodic]: the delta parameter of the FC model of the
    {e remaining} CPU — the largest instantaneous shortfall, [cost] per
    outstanding burst. For [Poisson] there is no deterministic bound; a
    3-sigma-style estimate over one second is returned. *)

type t
(** A started source. *)

val start : spec -> sim:Sim.t -> fire:(t -> duration:Time.span -> unit) -> t
(** Begin generating: [fire src ~duration] is invoked at each arrival
    instant with the interrupt's processing cost (the kernel routes it to
    top-priority execution).

    Each arrival draws the interrupt's cost and then the gap to the
    next arrival, in that order ([Poisson] from its own PRNG stream;
    the first gap is drawn here), so {!next_arrival} is already the
    next arrival's instant when [fire] runs. That arrival is armed
    {e before} [fire] when the interrupt ends strictly before it
    ([duration < gap]): {!pending} then reads [true] inside [fire],
    and the interrupt's end may fire in place ({!Sim.fire_in_place}).
    Otherwise it is armed as soon as [fire] returns, so an interrupt
    end that [fire] arms for the arrival's own instant fires first. *)

val next_arrival : t -> Time.t
(** The instant of the source's next arrival. *)

val pending : t -> bool
(** The next arrival is armed: always, except inside a [fire] whose
    interrupt does not end strictly before it. *)
