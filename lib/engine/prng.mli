(** Deterministic pseudo-random number generation.

    A self-contained SplitMix64 generator. Every stochastic element of the
    simulator draws from an explicitly passed [Prng.t], so that (a) a run is
    fully determined by its seeds and (b) independent subsystems can use
    [split] streams without interfering with each other. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator. Equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives an independent generator and advances [t]. *)

val stream : t -> int -> t
(** [stream t i] derives the [i]-th of a family of independent generators
    from [t]'s current state {e without} advancing [t]: equal [(t, i)]
    give equal streams, distinct [i] give decorrelated ones. This is the
    multi-stream split used by subsystems that must each see a stable
    stream regardless of how much randomness their siblings consume
    (e.g. the torture driver's structure / op / workload streams). *)

val copy : t -> t

val next_int64 : t -> int64
(** Raw 64-bit output of SplitMix64. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)


val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean (> 0). *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normally distributed (Box–Muller; one draw per call). *)

val pareto : t -> shape:float -> scale:float -> float
(** Pareto distributed: [scale * U^(-1/shape)]. *)

val choice : t -> 'a array -> 'a
(** Uniform pick from a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
