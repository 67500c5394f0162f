(** Cancellable future-event queue.

    Events are thunks keyed by (time, insertion sequence); popping yields
    events in time order, FIFO among events scheduled for the same instant.
    Cancellation is lazy: [cancel] marks the handle and the queue discards
    the entry when it surfaces. *)

type t

type handle
(** Token for a scheduled event; allows cancellation.

    A handle is dead once its event is cancelled {e or fired}: the queue
    recycles dead handle records for later {!schedule} calls, so
    touching one afterwards may observe (or cancel!) an unrelated
    event. Treat {!cancel} as the last use of a handle, and clear any
    stored reference to a handle from inside its own fired thunk (the
    thunk runs strictly after the record is parked, strictly before any
    other event can reuse it). *)

val create : unit -> t

val schedule : t -> at:Time.t -> (unit -> unit) -> handle
(** Enqueue a thunk to fire at the given time. Scheduling in the past is
    the caller's responsibility to avoid; the queue itself only orders.
    @raise Invalid_argument if [at < 0]: simulated time starts at zero,
    and [take_until] reserves [-1] for "no event". *)

val cancel : handle -> unit
(** A cancelled event never fires. Cancelling a fired handle is a no-op;
    cancelling an already-cancelled handle is a no-op only until the
    queue recycles it (see {!type:handle}) — treat the first [cancel]
    as the last use of a handle. *)

val is_cancelled : handle -> bool

val handle_id : handle -> int
(** Identity of the underlying handle record: assigned when the record
    is first allocated, kept across recycling. Two live handles never
    share an id; observing the same id again after a fire/cancel means
    the record was reused (diagnostics and tests). *)

val null : handle
(** A permanently-dead placeholder ([handle_id] is [-1], [cancel] is a
    no-op): lets callers keep a [handle] field without an option box,
    using [is_null] in place of [None]. *)

val is_null : handle -> bool

val next_time : t -> Time.t option
(** Time of the earliest pending (non-cancelled) event, without firing. *)

val take_until : t -> horizon:Time.t -> Time.t
(** Allocation-free pop bounded by the horizon: remove the earliest
    pending event if its time is [<= horizon] and return that time, with
    the thunk readable via {!taken}; [-1] (an impossible timestamp —
    simulation time starts at zero) iff no such event exists. This is
    the simulation driver's per-event path: one settle pass, no option,
    no tuple, and the fired handle record is parked for reuse before the
    thunk is exposed. *)

val taken : t -> unit -> unit
(** Thunk of the most recent successful {!take_until}. Call it exactly
    once, before the next queue operation; after a [take_until] miss it
    reads as a no-op. *)

val pop : t -> (Time.t * (unit -> unit)) option
(** Remove and return the earliest pending event. Convenience/test
    shape of {!take_until} (it allocates the option and pair). *)

val pending : t -> int
(** Number of live (non-cancelled, not yet fired) events. O(1). *)

val capacity : t -> int
(** Current heap-array capacity in slots. Arrays shrink on the drain
    paths once occupancy falls below a quarter of capacity (2x-headroom
    hysteresis; capacity under 1024 slots is kept, so small queues that
    drain and refill every cycle never thrash), so a queue that once
    held 10^6 in-flight events stops pinning their memory after
    draining. *)

val retained_handles : t -> int
(** Dead handle records parked for reuse. Capped at twice the in-heap
    entry count (floor 1024, matching the array-shrink floor): the
    retained arena follows the live event count down instead of
    recording its high-water mark, while small oscillating queues keep
    recycling every handle. *)

val footprint_words : t -> int
(** Approximate retained heap words of the queue — heap columns, slot
    pool, free stack, and parked records. Deterministic (array lengths,
    not GC sampling), for the scale benches' footprint accounting. *)
