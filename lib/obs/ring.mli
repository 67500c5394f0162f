(** Preallocated tracepoint ring buffer.

    Fixed-size event records in structure-of-arrays columns: an int
    event [code], the simulated [time] (ns), the emitting subsystem
    [pid], four int payload words [a b c d] and two virtual-time payload
    words [x y] — exact integers on the {!Hsfq_sched.Vtime} scale (a
    virtual time or tag, or a service in ns).  Capacity is rounded up to a power of two; once full, the
    oldest event is overwritten ([total] keeps counting, [length] caps
    at capacity).

    The record path allocates nothing: every payload is an immediate, so
    an event costs a handful of int-array stores.  See
    [doc/OBSERVABILITY.md]. *)

type t

val create : capacity:int -> t
(** Rounded up to a power of two, minimum 16. *)

val capacity : t -> int

val emit :
  t -> code:int -> time:int -> pid:int -> a:int -> b:int -> c:int -> d:int ->
  x:int -> y:int -> unit
(** Record one event.  Never allocates. *)

val clear : t -> unit

val total : t -> int
(** Events ever emitted (monotone, survives wraparound). *)

val length : t -> int
(** Events currently held: [min total capacity]. *)

(** {1 Readback} — logical index [0 .. length-1], oldest event first.
    Out-of-range indices raise [Invalid_argument]. *)

val code : t -> int -> int
val time : t -> int -> int
val pid : t -> int -> int
val a : t -> int -> int
val b : t -> int -> int
val c : t -> int -> int
val d : t -> int -> int
val x : t -> int -> int
val y : t -> int -> int
