(** Exact integer virtual time, shared by SFQ and every tag-based
    discipline.

    Weights are fixed-point integers: {!unit} units are weight 1.0.
    Tags and virtual times are integers: service normalized to weight
    1.0, in ns ([service·unit/w]), so a weight-1.0 client's tag grows by
    exactly its service.  Every charge applies one rule,

    {[ F = S + ⌊(l·unit + r) / w⌋ ]}

    where [r] is the client's remainder from its previous charge (the
    caller resets it to 0 when the start tag is taken from v(t) rather
    than from the previous finish tag).  Carrying [r] keeps cumulative
    tags exact: over any chain of quanta [l_1 .. l_n] the tag advances
    by exactly [⌊(unit·Σl + r_0)/w⌋].  {!step} and {!carry} together
    cost one division.

    No-overflow horizon: [l·unit] must stay at or below [max_int]
    (about 4.6·10^12 ns, 77 minutes of service in one charge, on 63-bit
    ints), and a tag at or below [max_int] (a weight-1 unit client
    reaches it after 4.6·10^12 ns of service, a weight-1.0 client after
    4.6·10^18 ns).  Past either limit {!step} and {!add} raise
    [Invalid_argument] instead of wrapping. *)

val unit : int
(** Weight units per 1.0: [1_000_000]. *)

val weight_of_float : float -> int
(** Round an administered weight to units.  Raises [Invalid_argument]
    on NaN, ±infinity, weights [<= 0], weights that round to 0 units
    (below 5·10^-7) and weights above 10^9.  The only float-to-weight
    conversion: the admin calls ([Hierarchy.mknod]/[set_weight], the
    leaf adapters' [add]/[set_weight], network flows) use it. *)

val to_float : int -> float
(** Units back to an administered weight (display and reports). *)

val step : service:int -> weight:int -> rem:int -> int
(** [⌊(service·unit + rem) / weight⌋], the tag increment of one charge.
    [service >= 0], [weight > 0], [0 <= rem < weight].  Raises
    [Invalid_argument] if [service·unit + rem] would pass [max_int]. *)

val carry : service:int -> weight:int -> rem:int -> step:int -> int
(** The remainder after {!step}: [service·unit + rem - step·weight], by
    multiply-subtract (no second division). *)

val add : int -> int -> int
(** [a + b] for non-negative tags; raises [Invalid_argument] instead of
    wrapping past [max_int]. *)

(** {1 System clocks}

    A virtual clock advanced by the same rule, for the GPS-style
    disciplines whose v(t) grows by [service / total weight] per charge
    (WFQ, FQS, stride's global pass, EEVDF). *)

type clock = { mutable v : int; mutable rem : int }

val clock : unit -> clock
(** v = 0, no remainder. *)

val advance : clock -> service:int -> weight:int -> unit
(** [v <- v + ⌊(service·unit + rem) / weight⌋], carrying the remainder;
    a no-op when [weight <= 0] (no backlogged weight to divide by). *)
