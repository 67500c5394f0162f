(** The scheduling structure: hierarchical partitioning of CPU bandwidth
    (§2, §4 of the paper).

    A tree of weighted nodes. Every intermediate node schedules its
    children with its own SFQ instance; leaf nodes represent application
    classes whose threads are scheduled by a class-specific leaf scheduler
    (owned by the kernel — this module only tracks leaf runnability).

    The operations mirror the paper's system calls:
    [mknod]/[parse]/[rmnod]/weight administration ([hsfq_admin]), and the
    kernel-side entry points [schedule_id] (paper: [hsfq_schedule]),
    [update_ns] ([hsfq_update]), [setrun] ([hsfq_setrun]) and [sleep]
    ([hsfq_sleep]).

    Units: administered weights are floats at the admin calls ([mknod],
    [set_weight]) and are converted once, by
    {!Hsfq_sched.Vtime.weight_of_float}, to fixed-point units (1.0 =
    [Vtime.unit]); {!weight} reports the units. Tags and virtual times are
    exact integers on the {!Hsfq_sched.Vtime} scale and service is integer
    ns, so the kernel entry points carry no float. The no-overflow
    horizon is {!Sfq}'s, per node.

    Invariant: a node is runnable iff some leaf in its subtree is
    runnable; [setrun]/[sleep]/[update_ns] maintain this with the paper's
    walk-up-until-no-change optimization. *)

type t

type id = int
(** Node identifier. The root is {!root}. *)

type kind = Leaf | Internal

val root : id

val create : unit -> t
(** A structure containing only the (internal) root node ["/"]. *)

(** {1 Structure administration (the paper's system calls)} *)

val mknod :
  t -> name:string -> parent:id -> weight:float -> kind -> (id, string) result
(** [mknod t ~name ~parent ~weight kind] creates a child of [parent].
    [name] is a single path component, unique among siblings; [weight]
    must be accepted by {!Hsfq_sched.Vtime.weight_of_float} (positive,
    finite, at least one unit); [parent] must be an internal node. *)

val parse : t -> ?hint:id -> string -> (id, string) result
(** Resolve an absolute name (["/best-effort/user1"]) or a name relative
    to [hint] (default: root). *)

val rmnod : t -> id -> (unit, string) result
(** Remove a node. Fails on the root, on nodes with children, and on
    runnable leaves (detach threads first). *)

val set_weight : t -> id -> float -> unit
(** Change a node's share of its parent ([hsfq_admin]). Takes effect from
    the node's next quantum. Raises [Invalid_argument] on a weight
    {!Hsfq_sched.Vtime.weight_of_float} rejects. *)

val reserve_children : t -> id -> int -> unit
(** [reserve_children t id n] pre-sizes the internal node's name table
    for [n] children, so bulk construction (config parse, giant torture
    structures, scale benches) doesn't rehash it through a dozen
    doublings. Never shrinks; raises [Invalid_argument] on leaves. *)

val weight : t -> id -> int
(** The node's administered weight in {!Hsfq_sched.Vtime} units. *)

(** {1 Introspection} *)

val name_of : t -> id -> string
(** Full path, e.g. ["/best-effort/user1"]. *)

val kind_of : t -> id -> kind
val parent_of : t -> id -> id option
val children_of : t -> id -> id list
(** In creation order. *)

val children_newest_first : t -> id -> id list
(** {!children_of} in reverse: the list the node stores, so reading it
    allocates nothing (the per-transition audit's walk). *)

type node
(** A node's record, for a reader of several of its fields: one lookup
    by id, then a load per field (the per-child audit check). *)

val node : t -> id -> node
(** Raises [Invalid_argument] on an unknown id. *)

val node_weight : node -> int
(** {!weight} of the node. *)

val node_runnable : node -> bool
(** {!is_runnable} of the node. *)

val node_slot : node -> int
(** The node's slot in its parent's SFQ as the node caches it ([-1] for
    the root). The walks trust it, so the audit checks it against
    {!Sfq.slot_of_id}. *)

val depth : t -> id -> int
(** Root has depth 0. *)

val node_count : t -> int
val is_runnable : t -> id -> bool

val capacity : t -> int
(** Current node-array capacity in slots. Removed ids are recycled
    lowest-first and the array shrinks once live ids occupy under a
    quarter of it, so capacity tracks the live node count (to within
    the 2x hysteresis headroom) under sustained mknod/rmnod churn. *)

val footprint_words : t -> int
(** Approximate retained heap words of the whole structure — node
    array, id pool, per-node records, name tables, and every internal
    node's SFQ ({!Sfq.footprint_words}). Deterministic (array lengths
    and bucket counts, not GC sampling), for the scale benches'
    footprint gate. *)

val virtual_time_of : t -> id -> int
(** Virtual time of an internal node's SFQ (diagnostics/tests). *)

val internal_sfq : t -> id -> Sfq.t
(** Read-only view of an internal node's child scheduler, for the
    invariant audit ({!Hsfq_check}) and diagnostics. Mutating it directly
    voids every guarantee. Raises [Invalid_argument] on leaves. *)

val set_audit_hook : t -> (node:id -> event:string -> unit) option -> unit
(** Install (or clear) an observation hook, called after every transition
    of an internal node's SFQ with that node's id and the event name
    (["mknod"], ["rmnod"], ["set_weight"], ["setrun"], ["sleep"],
    ["select"], ["charge"], ["donate"], ["revoke"]). The hook must not
    mutate the hierarchy; it is meant for the {!Hsfq_check} invariant
    audit. *)

val attach_obs : t -> Hsfq_obs.Trace.sys option -> unit
(** Attach (or detach) a tracepoint sink ({!Hsfq_obs}): fans out to
    every internal node's SFQ via {!Sfq.set_obs} (pick/tag-update
    events keyed by node id), emits node-lifecycle events
    (mknod/rmnod/setrun/sleep/donate/revoke), and names an exporter
    lane per node.  Nodes created after the attach are wired by
    [mknod]. *)

val render_tree : t -> string
(** Multi-line rendering of the structure: one node per line, indented by
    depth, with weight, kind, and runnable flag — e.g.
    ["  best-effort  w=6  internal  runnable"]. *)

val start_tag_of : t -> id -> int
(** The node's start tag within its parent's SFQ (diagnostics/tests).
    Root has no tags; raises [Invalid_argument]. *)

(** {1 Kernel entry points} *)

val setrun : t -> id -> unit
(** The leaf's first thread became runnable: mark the leaf and every
    newly-eligible ancestor runnable. Walks up only until an
    already-runnable node is found. *)

val sleep : t -> id -> unit
(** The leaf's last thread stopped being runnable while the leaf was
    {e not} in service (e.g. its only thread was moved away). The common
    blocked-while-running case is handled by
    [update_ns ~leaf_runnable:false]. *)

val schedule_id : t -> id
(** Select the leaf to serve next: from the root, repeatedly pick the
    runnable child with the smallest start tag. Returns the leaf's id,
    or [-1] iff no leaf is runnable {e and reachable} — with several
    decision paths outstanding (see {!set_servers}), every runnable root
    subtree may already be claimed. Each successful [schedule_id] must
    be followed by exactly one {!update_ns} for the returned leaf.
    Allocation-free. *)

val set_servers : t -> int -> unit
(** Allow up to [p] outstanding [schedule_id]/[update_ns] decision pairs, for
    multiprocessor dispatch. Only the root scheduler's claim capacity is
    raised: claims release bottom-up, so concurrent decision paths can
    contend only at the root, and each path owns its whole root subtree
    until its [update]. Consequently a single root child subtree serves
    at most one CPU at a time — multiprocessor topologies should give
    the root at least [p] children. Raises if [p < 1] or below the
    current number of outstanding decisions. *)


val update_ns : t -> leaf:id -> service_ns:int -> leaf_runnable:bool -> unit
(** Charge [service_ns] (CPU nanoseconds) for the quantum just executed
    by a thread of [leaf]: updates finish/start tags of the leaf and all
    its ancestors, and propagates un-runnability upward when
    [leaf_runnable = false]. Raises [Invalid_argument] on a negative
    service or a tag past the {!Sfq} horizon. *)

(** {1 Priority-inversion support (§4)} *)

val donate : t -> blocked:id -> recipient:id -> (unit, string) result
(** Transfer the blocked leaf's weight to a sibling leaf (both must share
    the same parent), so the blocking class runs with at least the blocked
    class's share. *)

val revoke : t -> blocked:id -> unit
