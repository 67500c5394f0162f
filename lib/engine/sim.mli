(** Discrete-event simulation driver.

    Owns the clock and the event queue. Event thunks run with the clock
    already advanced to their timestamp and may schedule further events.
    Time never goes backwards: scheduling strictly in the past raises. *)

type t

val create : unit -> t

val now : t -> Time.t

val at : t -> Time.t -> (unit -> unit) -> Event_queue.handle
(** [at t time f] schedules [f] for absolute [time] (>= [now t]). *)

val after : t -> Time.span -> (unit -> unit) -> Event_queue.handle
(** [after t d f] schedules [f] at [now t + d] ([d >= 0]), saturating
    at [max_int]: a delay that would overflow means "never". *)

val cancel : Event_queue.handle -> unit

val run_until : t -> Time.t -> unit
(** Fire all events with timestamp <= the horizon, advancing the clock; on
    return the clock is exactly the horizon. Events scheduled beyond the
    horizon remain pending. *)

val run : t -> unit
(** Drain the queue completely. Diverges on self-perpetuating schedules —
    prefer [run_until] for open-ended systems. *)

val steps : t -> int
(** Number of events fired so far (diagnostics). *)
