(** Start-time Fair Queuing — the paper's scheduling algorithm (§3).

    Each client's j-th quantum gets a start tag
    [S = max(v(request time), F_{j-1})] and, once its actual length [l] is
    known, a finish tag [F = S + l/w]. Clients are served in increasing
    start-tag order (FIFO among ties). Virtual time [v(t)] is the start tag
    of the quantum in service while the server is busy, and the maximum
    finish tag assigned to any client while it is idle.

    Units and exactness: tags and [v(t)] are exact integers on the
    {!Hsfq_sched.Vtime} scale, weights are {!Hsfq_sched.Vtime} units
    ([Vtime.unit] = weight 1.0) and service is integer ns.  The finish
    tag is [F = S + ⌊(l·unit + r)/w⌋] with [r] the remainder the client
    carried out of its previous charge ([r] is reset to 0 when [S] is
    taken from [v(t)]), so a continuously backlogged client's tags
    advance by exactly [⌊(unit·Σl + r_0)/w⌋] and a weight-1.0 client's by
    exactly its service.

    No-overflow horizon (63-bit ints): one charge's [l·unit] must stay at
    or below [max_int], i.e. [l <= 4.6·10^12] ns; a tag reaches
    [max_int] after [4.6·10^18 / unit] ns of service per unit of
    weight — 4.6·10^18 ns (146 years) at weight 1.0, 4.6·10^12 ns
    (77 minutes) at the smallest weight of 1 unit.  A charge that would
    pass either limit raises [Invalid_argument] and leaves the state
    untouched; nothing wraps.

    Key properties (all property-tested in [test/test_sfq.ml]):
    - quantum length is needed only {e after} execution ([charge]);
    - for any interval in which clients [f] and [m] are both continuously
      backlogged, [|W_f/w_f - W_m/w_m| <= l_f^max/w_f + l_m^max/w_m]
      (eq. 3) — regardless of how the available service fluctuates;
    - O(log Q) per scheduling decision.

    Implements {!Hsfq_sched.Scheduler_intf.FAIR}, plus [block] (make a
    non-in-service client un-runnable, preserving its finish tag) and the
    weight-donation operations the paper sketches for priority-inversion
    avoidance (§4). *)

include Hsfq_sched.Scheduler_intf.FAIR

(** Note on [arrive]: in addition to the generic contract, an [arrive]
    that wakes a {e blocked} client applies [~weight] as the client's new
    weight (it governs the quantum being requested). Only an arrive on an
    already-runnable client ignores the argument. [weight <= 0] is
    rejected in every case. Weights are {!Hsfq_sched.Vtime} units.

    Client state lives in a dense flat table indexed by *slot* (ids are
    mapped to slots on arrival, through a flat open-addressed index), so
    a scheduling decision performs no hashing and no allocation. Ids may
    be arbitrary non-negative integers — they do not size the table; the
    number of {e live} clients is bounded at 2^22. Slots are recycled on [depart], and when
    live clients fall below a quarter of the table capacity the columns
    are packed and released, so retained memory stays O(live clients)
    under sustained arrive/depart churn. Callers that cache slots (see
    {!slot_of_id}) must subscribe to {!set_on_remap} to follow
    compaction moves. *)

val set_obs : t -> Hsfq_obs.Trace.sys option -> node:int -> unit
(** Attach (or detach) a tracepoint sink. [node] is the hierarchy node
    this SFQ serves, recorded as the parent of every pick/tag-update
    event (use [-1] for a standalone instance). With [None] attached a
    scheduling decision pays exactly one extra match branch; with a sink
    attached but tracing disabled, one call testing the flag. *)

(** Note on [select_id]: it returns [-1] iff no client is runnable {e and
    unclaimed} (see {!set_servers}), and allocates nothing —
    {!Hierarchy.schedule_id} relies on that to keep hierarchical dispatch
    allocation-free. *)

val set_servers : t -> int -> unit
(** Raise (or lower) the claim capacity: how many [select_id]s may be
    outstanding before the next one raises. The default of 1 is the
    paper's single-CPU protocol. With capacity [p], up to [p] distinct
    clients can be in service at once — a claimed client is out of the
    ready queue until charged, so each client serves at most one claim
    at a time (the multiprocessor hierarchy uses this on the root
    scheduler only; see {!Hierarchy.set_servers}). While several claims
    are outstanding, [v(t)] is the start tag of the most recent one —
    the maximum, since selections pop in start-tag order. Raises if the
    new capacity is below 1 or below the outstanding-claim count. *)

val servers : t -> int
(** Current claim capacity (1 unless {!set_servers} raised it). *)

val admit : t -> id:int -> weight:int -> unit
(** Register a new client {e blocked}, with weight [weight] and finish
    tag 0, so its weight is known (and administrable, donatable) before
    it first runs. Its first {!wake} or [arrive] then starts it at
    [S = v(t)], exactly as a first [arrive] would. Raises if [id] is
    negative or already known, or [weight <= 0]. *)

val wake : t -> id:int -> unit
(** [arrive] at the client's stored weight: a blocked client becomes
    runnable with [S = max(v, F)]; a runnable one is untouched. One
    index probe, no allocation. Raises if the client is unknown. *)

(** {1 Slot-keyed entry points}

    [arrive]/[block]/[wake] by id pay one probe of the id index to find
    the client's slot (a few int loads, no allocation). Callers on a
    per-decision path — the hierarchy caches one slot per child node —
    look the slot up once ({!slot_of_id}), keep it fresh across
    compactions via {!set_on_remap}, and use these twins to skip even
    that. *)

val slot_of_id : t -> id:int -> int
(** The client's current slot, or [-1] if unknown. Valid until the next
    compaction (subscribe with {!set_on_remap}) or [depart]. *)

val id_of_slot : t -> slot:int -> int
(** Inverse of {!slot_of_id} ([-1] for a free or out-of-range slot). *)

val set_on_remap : t -> (id:int -> slot:int -> unit) option -> unit
(** Install a callback invoked once per live client after each
    compaction, reporting the client's (possibly unchanged) slot. Cold
    path — compaction is amortized O(1) per depart. *)

val arrive_slot : t -> slot:int -> weight:int -> unit
(** [arrive] for a known client by slot (wake-from-blocked or
    idempotent-runnable; raises if the slot is free — registration of a
    new id must go through [arrive]). *)

val block_slot : t -> slot:int -> unit
(** {!block} by slot (no-op on a free slot or an already-blocked
    client). *)

val charge_slot : t -> slot:int -> service:int -> runnable:bool -> unit
(** [charge] by slot. (The id-keyed [charge] needs no index probe
    either: the in-service slot knows its id.) *)

val block : t -> id:int -> unit
(** Remove a client from the ready set without forgetting it; its finish
    tag is retained so a later [arrive] restarts it at
    [max(v, finish)]. Used by [hsfq_move]/[rmnod]-style operations where a
    client stops being runnable while {e not} in service. No-op if the
    client is unknown or already blocked. Must not be called on the
    in-service client (use [charge ~runnable:false]). *)

val donate : t -> blocked:int -> recipient:int -> unit
(** Weight transfer for priority-inversion avoidance: add [blocked]'s
    weight to [recipient]'s, so the blocking client runs with at least the
    blocked client's share (§4). A client may hold donations from several
    blockers; donating twice from the same blocker first revokes the
    previous donation. *)

val revoke : t -> blocked:int -> unit
(** Undo [blocked]'s outstanding donation, if any. *)

val start_tag : t -> id:int -> int
(** Start tag of the client's pending/in-service quantum (diagnostics,
    Figure 3). *)

val finish_tag : t -> id:int -> int
(** Finish tag of the client's last completed quantum. *)

val is_runnable : t -> id:int -> bool

val mem : t -> id:int -> bool
(** Whether the client has ever arrived (and not departed). *)

(** {1 Diagnostics and audit probes}

    Read-only visibility into the scheduler state, used by the invariant
    audit ({!Hsfq_check}) and by tests. See [doc/INVARIANTS.md] for the
    properties these make checkable. *)

val clients : t -> int list
(** All known clients (runnable or blocked), in ascending id order
    (allocates). *)

(** Slot probes: the audit scans the flat client table through these,
    with no list, sort or hash. Slots [0, slot_bound) hold every known
    client; {!id_of_slot} is [-1] on a free slot, and the probes below
    read a live slot's columns (out-of-range slots raise). *)

val slot_bound : t -> int
val slot_weight : t -> slot:int -> int
val slot_effective_weight : t -> slot:int -> int
val slot_start : t -> slot:int -> int
val slot_finish : t -> slot:int -> int

val slot_remainder : t -> slot:int -> int
(** The {!Hsfq_sched.Vtime} remainder the client's next charge starts
    from. *)

val slot_runnable : t -> slot:int -> bool

val slot_live : t -> slot:int -> bool
(** Whether the slot's state is runnable or blocked — what {!mem} reads
    once the index has found the slot. *)

val weight : t -> id:int -> int
(** The client's own (administered) weight, excluding donations. *)

val effective_weight_of : t -> id:int -> int
(** [weight + donated] — the divisor the next [charge] will use. *)

val in_service : t -> int
(** The client selected but not yet charged, or [-1] if none — with
    several claims outstanding (see {!set_servers}), one of them. *)

val claim_count : t -> int
(** How many selections are outstanding (at most {!servers}). *)

val claim_id : t -> int -> int
(** [claim_id t i], for [0 <= i < claim_count t]: the client of the
    [i]-th outstanding selection, oldest first. *)

val max_finish_tag : t -> int
(** Largest finish tag ever assigned (the idle-transition value of
    [v(t)], §3 rule 2). *)

val donation_count : t -> int
(** Outstanding donations, read in place (the audits' clean path skips
    the donation rules' list walk when it is 0). *)

val donations : t -> (int * int * int) list
(** Outstanding donations as [(blocked, recipient, amount)] triples. *)

val capacity : t -> int
(** Current per-client table capacity in slots (shrink-under-churn
    tests and footprint accounting). *)

val live_clients : t -> int
(** Known clients (runnable + blocked). *)

val queued : t -> int
(** Entries in the ready heap, stale ones included. A compaction drops
    every stale one, so right after it this equals {!backlogged}. *)

val footprint_words : t -> int
(** Approximate retained heap words of the client table, id index, and
    ready queue — deterministic (array lengths, not GC sampling), for
    the scale benches' footprint gate. *)
