(** Future-event queue of persistent timers and one-shot events.

    Entries are keyed by (time, arming sequence); firing yields them in
    time order, FIFO among entries armed for the same instant. A
    {!timer} is created once with its thunk and then armed, re-armed and
    disarmed any number of times; every such operation stores integers
    only. A one-shot ({!schedule}) fires exactly once and cannot be
    cancelled. *)

type t

type timer [@@immediate]
(** A persistent timer of one queue. Its id is never freed or reused,
    so a stale [timer] value can only ever address its own timer:
    disarming one that already fired or was disarmed is a no-op. *)

val create : unit -> t

val timer : t -> (unit -> unit) -> timer
(** A new, disarmed timer that runs the thunk each time it fires. The
    queue stores the thunk once. *)

val arm : t -> timer -> at:Time.t -> unit
(** Arm the timer to fire at the given time. Re-arming a pending timer
    disarms it first and takes a fresh sequence number, exactly as a
    cancel followed by a new schedule would. The timer is disarmed
    again as it fires, before its thunk runs, so the thunk may re-arm
    it. Right after a {!take_until} hit (typically from the fired
    thunk), the entry takes the fired one's place at the root: one
    sift instead of a removal and an insertion.
    @raise Invalid_argument if [at < 0]: simulated time starts at zero,
    and [take_until] reserves [-1] for "no event". *)

val disarm : t -> timer -> unit
(** A disarmed timer does not fire until armed again. A no-op on a
    timer that is not armed. *)

val armed : t -> timer -> bool
(** The timer has a pending entry: armed, and neither fired nor
    disarmed since. *)

val schedule : t -> at:Time.t -> (unit -> unit) -> unit
(** Enqueue a one-shot thunk to fire at the given time. Scheduling in
    the past is the caller's responsibility to avoid; the queue itself
    only orders. Right after a {!take_until} hit it fills the fired
    entry's place, as {!arm} does.
    @raise Invalid_argument if [at < 0]. *)

val next_time : t -> Time.t option
(** Time of the earliest pending entry, without firing. *)

val take_until : t -> horizon:Time.t -> Time.t
(** Allocation-free pop bounded by the horizon: remove the earliest
    pending entry if its time is [<= horizon] and return that time, with
    its thunk readable via {!taken}; [-1] (an impossible timestamp —
    simulation time starts at zero) iff no such entry exists. This is
    the simulation driver's per-event path: one settle pass, no option,
    no tuple, and the fired timer or slot is recorded as an int.

    The fired entry leaves the heap lazily: the next {!arm} or
    {!schedule} overwrites it, and any other operation removes it
    first. Neither is visible: the fired entry is out of {!pending} at
    once, {!capacity} moves exactly as with an eager removal, and the
    fire order is the (time, sequence) order either way. *)

val taken : t -> unit -> unit
(** Thunk of the most recent successful {!take_until}. Read it before
    the next queue operation; after a [take_until] miss it reads as a
    no-op. *)

val pending : t -> int
(** Number of armed timers plus one-shots not yet fired. O(1). *)

val capacity : t -> int
(** Current heap-array capacity in entries. Heap arrays and the one-shot
    slot table shrink on the drain paths once occupancy falls below a
    quarter of capacity (2x-headroom hysteresis; capacity under 1024 is
    kept, so small queues that drain and refill every cycle never
    thrash), so a queue that once held 10^6 in-flight events stops
    pinning their memory after draining. Timer columns only grow. *)

val footprint_words : t -> int
(** Approximate retained heap words of the queue — heap columns, timer
    columns, one-shot slot table and free stack. Deterministic (array
    lengths, not GC sampling), for the scale benches' footprint
    accounting. *)
