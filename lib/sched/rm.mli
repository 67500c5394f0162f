(** Rate Monotonic scheduling (Liu & Layland 1973) — static priorities,
    shorter period = higher priority. Used by the paper's Figure 9
    experiment to schedule two periodic threads inside the SVR4 node's RT
    class.

    Task-oriented: tasks [register] once with their period; [wake]/[block]
    toggle readiness at each round. [select_id] is non-destructive. *)

type t

val create : unit -> t

val register : t -> id:int -> period:float -> unit
(** Add a task. Re-registering changes the period. Tasks start blocked. *)

val unregister : t -> id:int -> unit
val wake : t -> id:int -> unit
val block : t -> id:int -> unit

val select_id : t -> int
(** Ready task with the smallest period, ties broken by registration
    order; [-1] iff no task is ready. *)

val period_of : t -> id:int -> float option

val higher_priority : t -> int -> than:int -> bool
(** [higher_priority t a ~than:b] — strictly shorter period (RM priority
    order), registration order breaking ties. *)

val backlogged : t -> int
