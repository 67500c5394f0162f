(** Min-heap of (key, id) with lazy invalidation, on flat arrays.

    Scheduler ready-queues re-key clients every quantum. Instead of
    supporting decrease-key we push a fresh entry with a per-client
    generation number and discard stale entries when they surface, which
    keeps each operation O(log n) amortized. Ties on the key break by
    insertion order (FIFO), making runs deterministic — the paper's
    "ties are broken arbitrarily".

    The representation is structure-of-arrays (four [int array]
    columns: key, seq, gen, id): pushes and pops allocate nothing in
    steady state, and comparisons are inlined rather than dispatched
    through a closure.

    Keys are exact integers — virtual-time tags ({!Vtime}), deadlines or
    sequence numbers in ns — so equal keys are genuinely equal and the
    FIFO tie-break is the whole of the ordering contract.  Any [int] is
    a valid key; callers keep their tags below [max_int] ({!Vtime.add}
    raises rather than wrap).

    Lazy deletion alone lets a heap grow without bound (a client cycling
    arrive -> block without being selected adds one stale entry per
    cycle). Callers that bump generations while an entry may still be
    queued should report it with {!invalidate} and install a validity
    predicate with {!set_validator}; once more than half the queued
    entries are stale (and the heap is non-trivially sized), the next
    {!push} compacts in place and re-heapifies. *)

type t

val create : unit -> t

val set_validator : t -> (id:int -> gen:int -> bool) -> unit
(** Install the predicate used by compaction, {!pop_valid} and
    {!peek_valid}. Typically a single closure built once at scheduler
    creation. *)

val invalidate : t -> unit
(** Note that one queued entry just went stale (its client's generation
    was bumped while queued). Drives the compaction trigger; harmless to
    under-report (compaction then triggers later, via pops). *)

val push : t -> key:int -> gen:int -> id:int -> unit

val pop_valid : t -> int
(** Pop the minimum-key entry the installed validator accepts,
    discarding stale entries along the way: returns its id, or [-1] if
    no valid entry remains. The popped key is readable via {!last_key}.
    Allocation-free. Raises [Invalid_argument] if no validator was
    installed.

    The popped entry leaves the arrays lazily: a {!push} right after
    overwrites it (one sift, the heap-replace of SFQ's select ->
    charge cycle), and any other operation removes it first. It is out
    of {!size} at once, {!capacity} moves exactly as with an eager
    removal, and the pop order is the (key, sequence) order either
    way. *)

val peek_valid : t -> int
(** Like {!pop_valid} but leaves the entry in place (the stale prefix
    is still discarded); its key is readable via {!peeked_key}. *)

val last_key : t -> int
(** Key of the most recently popped entry. *)

val peeked_key : t -> int
(** Key of the most recent {!peek_valid} hit. *)

val compact : t -> unit
(** Drop every stale entry now (needs an installed validator; no-op
    otherwise). Normally triggered automatically by {!push}. Also
    releases capacity: whenever live entries fall below a quarter of
    the array capacity (and capacity exceeds 1024 — smaller arrays are
    kept, so heaps that drain and refill every cycle never thrash),
    the arrays shrink to the smallest power of two leaving 2x
    headroom — pops check the same trigger, so a heap drained without
    stale entries releases memory too. The 2x gap between trigger and
    post-shrink occupancy makes grow/shrink cycles amortized O(1) per
    operation. *)

val remap_ids : t -> int array -> unit
(** [remap_ids t map] rewrites every queued entry's id through [map]
    (old id -> new id; ids outside the array or mapped to a negative
    value are left untouched). Keys and seqs are preserved, so heap
    order and FIFO tie-breaks are unchanged. For owners that renumber
    their dense client tables under compaction: call this with the
    old-slot -> new-slot map so queued entries follow the move. *)

val size : t -> int
(** Queued entries, stale ones included; a popped entry is never
    counted. *)

val stale_bound : t -> int
(** Number of reported-but-still-queued invalidations (diagnostics; an
    upper bound on how early compaction will trigger). *)

val capacity : t -> int
(** Current array capacity (diagnostics: shrink-under-churn tests and
    footprint accounting). *)

val footprint_words : t -> int
(** Approximate retained heap words of the four columns, headers
    included (deterministic — array lengths, not GC sampling). *)
