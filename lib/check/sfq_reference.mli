(** Naive reference implementation of the paper's SFQ (§3).

    Same observable semantics as the optimized {!Hsfq_core.Sfq} — tags,
    virtual time, FIFO tie-break, blocking, weight donation — but
    implemented the slow, obvious way: boxed per-client records in a
    hashtable and an O(n) linear scan per selection. It exists purely as
    a differential-testing oracle: the qcheck property in
    [test/test_sfq.ml] drives both implementations through identical
    random op sequences and requires tag-for-tag agreement, so any
    representation bug in the flat-array hot path (dense tables, lazy
    heap deletion, generation validation, compaction) shows up as a
    divergence from this specification. Tags, weights and v(t) are the
    same exact integers as {!Hsfq_core.Sfq}'s, so agreement is checked
    with [=]. Never use it for scheduling. *)

type t

val create : unit -> t
val arrive : t -> id:int -> weight:int -> unit
val depart : t -> id:int -> unit
val set_weight : t -> id:int -> weight:int -> unit

val select : t -> int option
(** Linear scan for the least (start tag, enqueue order) runnable
    client. Must be followed by exactly one {!charge}. *)

val charge : t -> id:int -> service:int -> runnable:bool -> unit
val block : t -> id:int -> unit
val donate : t -> blocked:int -> recipient:int -> unit
val revoke : t -> blocked:int -> unit
val backlogged : t -> int

val virtual_time : t -> int
val max_finish_tag : t -> int
val start_tag : t -> id:int -> int
val finish_tag : t -> id:int -> int
val effective_weight_of : t -> id:int -> int
val is_runnable : t -> id:int -> bool
val mem : t -> id:int -> bool
