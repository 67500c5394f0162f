(** Simulated time.

    All simulation time is kept as an integer number of nanoseconds since
    the start of the simulation. On a 64-bit platform OCaml's [int] gives
    63 bits, i.e. about 146 years of simulated time, far beyond any
    experiment in this repository. Using integers (rather than floats)
    makes event ordering exact and runs reproducible. *)

type t = int
(** A point in simulated time, in nanoseconds since simulation start. *)

type span = int
(** A duration, in nanoseconds. Spans and times share the representation;
    the distinct alias exists purely for interface readability. *)

val zero : t

val nanoseconds : int -> span
val microseconds : int -> span
val milliseconds : int -> span
val seconds : int -> span
val minutes : int -> span

val of_seconds_float : float -> span
(** [of_seconds_float s] rounds [s] seconds to the nearest nanosecond. *)

val to_seconds_float : t -> float
val to_milliseconds_float : t -> float

val add : t -> span -> t

val saturating_add : t -> span -> t
(** [add] clamped at [max_int] instead of wrapping, for [t >= 0]: the
    instant of a wait "forever" (a span near [max_int]) never arrives
    rather than landing in the past. *)

val diff : t -> t -> span
(** [diff later earlier] is [later - earlier]. *)

val scale : span -> float -> span
(** [scale d f] is [d * f] rounded to the nearest nanosecond. *)

val min : t -> t -> t
val max : t -> t -> t
val compare : t -> t -> int

val to_string : t -> string
(** A human-friendly rendering, e.g. ["12.500ms"] or ["3.2s"]. *)
