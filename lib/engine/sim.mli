(** Discrete-event simulation driver.

    Owns the clock and the event queue. Event thunks run with the clock
    already advanced to their timestamp and may schedule further events.
    Time never goes backwards: scheduling strictly in the past raises.

    Two kinds of event: a one-shot ({!at}, {!after}) fires once and
    cannot be cancelled; a persistent {!timer} is created once with its
    thunk and then armed and disarmed as often as needed, storing only
    integers each time. Code that may cancel an event, or fires the
    same thunk repeatedly, holds a timer. *)

type t

val create : unit -> t

val now : t -> Time.t

val at : t -> Time.t -> (unit -> unit) -> unit
(** [at t time f] runs [f] once at absolute [time] (>= [now t]). *)

val after : t -> Time.span -> (unit -> unit) -> unit
(** [after t d f] runs [f] once at [now t + d] ([d >= 0]), saturating
    at [max_int]: a delay that would overflow means "never". *)

val timer : t -> (unit -> unit) -> Event_queue.timer
(** A new, disarmed timer running the thunk each time it fires. *)

val arm : t -> Event_queue.timer -> Time.t -> unit
(** [arm t tm time] arms [tm] for absolute [time] (>= [now t]),
    replacing any pending arming. A timer is disarmed as it fires, so
    its thunk may re-arm it. *)

val disarm : t -> Event_queue.timer -> unit
(** The timer will not fire until armed again; a no-op if not armed. *)

val armed : t -> Event_queue.timer -> bool

val repeat : t -> Time.span -> (unit -> Time.span) -> unit
(** [repeat t d f] runs [f] at [now t + d], then again each time the
    delay [f] returns has elapsed, for the rest of the run: one timer,
    re-armed after each call. *)

val run_until : t -> Time.t -> unit
(** Fire all events with timestamp <= the horizon, advancing the clock; on
    return the clock is exactly the horizon. Events scheduled beyond the
    horizon remain pending. *)

val run : t -> unit
(** Drain the queue completely. Diverges on self-perpetuating schedules —
    prefer [run_until] for open-ended systems. *)

val fire_in_place : t -> Time.t -> bool
(** [fire_in_place t time] fires, in place, the event that arming a
    timer for [time] would make the next one to fire. It returns [true]
    when [time] is within the horizon of the run in progress and
    strictly earlier than every pending event: the clock is then
    [time] and one more event has fired ({!steps}), and the caller runs
    that event's action itself. Otherwise it changes nothing and
    returns [false], and the caller arms its timer as usual. Outside
    {!run_until} and {!run} it always returns [false].

    Call it only from the tail of an event's action, with nothing left
    to do in that action but the arming it replaces: code that runs
    after it would run after the in-place event, out of order. An
    action that must also arm a timer of its own, for an instant later
    than the in-place one, arms it first: it is then pending, so no
    in-place firing that it starts can pass it. An interrupt source's
    arrival does this with its next arrival ([Interrupt_source.start]).
    A timer due no later would have to fire before the in-place event:
    the action then fires nothing in place and arms afterwards. The comparison
    is strict because a pending event set for the same instant was
    armed first, so it fires first.
    @raise Invalid_argument if [time < now t]. *)

val steps : t -> int
(** Number of events fired so far (diagnostics). *)
