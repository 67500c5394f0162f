(** Tracepoint hub: a {!Ring} of events plus per-subsystem handles.

    A tracer [t] is created by the harness; each instrumented subsystem
    (one kernel + hierarchy pair per simulated system) registers a
    {!sys} handle carrying a Chrome-trace process id and a
    {!Metrics.t}.  Instrumented code stores a [sys option] and emits
    through it:

    - [None] — observability detached: the tracepoint is one match
      branch, nothing else;
    - [Some s] with tracing disabled — at most one call testing
      {!on}, or just a load + branch when the caller caches
      {!on_cell}; no allocation (every payload is an immediate int);
    - [Some s] enabled — a handful of array stores into the ring.

    Event schema (code, int payload a/b/c/d, virtual-time payload x/y) is
    documented per event in [doc/OBSERVABILITY.md]. *)

type t
type sys

val create : ?capacity:int -> ?enabled:bool -> unit -> t
(** [capacity] (default 4096 events, rounded to a power of two) bounds
    the ring; oldest events are overwritten beyond it. Disabled by
    default. *)

val set_enabled : t -> bool -> unit

val set_now : t -> int -> unit
(** Stamp the current simulated time (ns); every subsequent event
    records it.  The kernel calls this before each burst of events. *)

val ring : t -> Ring.t

val register_sys : t -> label:string -> sys
(** Allocate the next process id (1, 2, ...) for one simulated system. *)

val pid : sys -> int
val metrics : sys -> Metrics.t

val on : sys -> bool
(** Whether [s]'s tracer is enabled — guard for work beyond the emit itself
    (metric accumulation, payload computation). *)

val on_cell : sys -> bool ref
(** The tracer's live enabled flag as a shared cell.  Hot emitters
    (e.g. {!Hsfq_core.Sfq}) cache it next to their [sys] so a disabled
    tracepoint — payload computation and emit call included — costs
    one in-module load and branch. *)

val sys_set_now : sys -> int -> unit

val emitf :
  sys -> code:int -> a:int -> b:int -> c:int -> d:int -> x:int -> y:int -> unit
(** Record an event with an x/y payload (see {!Ring}). *)

val emit0 : sys -> code:int -> a:int -> b:int -> c:int -> d:int -> unit
(** Record an event with zero x/y payload. *)

val name_lane : sys -> lane:int -> name:string -> unit
(** Attach a display name to a lane (thread tid, {!node_lane} id, or
    {!irq_lane}) for the exporters.  Cold path; re-naming overwrites. *)

(** {1 Readback} (exporters) *)

val sys_count : t -> int
val sys_label : t -> int -> string
(** By pid, 1-based. *)

val sys_metrics : t -> int -> Metrics.t
val lane_count : t -> int
val lane_pid : t -> int -> int
val lane_id : t -> int -> int
val lane_name : t -> int -> string

(** {1 Lane namespaces} *)

val node_lane_base : int
val node_lane : int -> int
(** Lane id for hierarchy/scheduler node [nid] (offset so node lanes
    never collide with thread tids). *)

val irq_lane : int

val cpu_lane : int -> int
(** Lane id for simulated CPU [cid] (multiprocessor kernels name one
    lane per CPU so exporters render per-CPU tracks). *)

(** {1 Event codes} *)

val ev_pick : int
val ev_tag_update : int
val ev_dispatch : int
val ev_quantum_end : int
val ev_preempt : int
val ev_spawn : int
val ev_kill : int
val ev_move : int
val ev_sleep : int
val ev_wake : int
val ev_suspend : int
val ev_resume : int
val ev_irq_begin : int
val ev_irq_end : int
val ev_donate : int
val ev_revoke : int
val ev_node_setrun : int
val ev_node_sleep : int
val ev_mknod : int
val ev_rmnod : int
val ev_node_donate : int
val ev_node_revoke : int
val ev_leaf_enqueue : int
val ev_leaf_dequeue : int
val ev_leaf_pick : int
val ev_leaf_charge : int
val ev_migrate : int
val ev_cpu_run : int
val ev_cpu_idle : int

val code_name : int -> string
