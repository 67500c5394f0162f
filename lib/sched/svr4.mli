(** SVR4/Solaris-style scheduler: a time-sharing (TS) class driven by a
    dispatch table, plus a fixed-priority preemptive real-time (RT) class.

    This models the scheduler the paper modifies and compares against:

    - {b TS class} — 60 priority levels. Each level's dispatch-table row
      gives the quantum (in clock ticks), the priority after quantum
      expiry ([tqexp], lower), the priority after returning from sleep
      ([slpret], higher), and a starvation-avoidance rule: a thread that
      waited more than [maxwait] seconds without running is boosted to
      [lwait]. CPU usage is accounted in whole clock ticks when
      [tick_accounting] is on (the SVR4 behaviour: partial ticks are
      charged as full ticks), which — together with the dispatch-table
      dynamics — makes per-thread throughput unpredictable; Figure 5
      reproduces exactly that.
    - {b RT class} — fixed priorities above every TS priority, FIFO within
      a priority, preemptive on wake ([preempts]); used with RM-assigned
      priorities in the Figure 9 experiment. [15] documents how this class
      can monopolize the CPU, which the hierarchical framework prevents.

    Service times are in nanoseconds ({!Hsfq_engine.Time.span}). *)

type t

type cls =
  | Rt of int  (** real-time, fixed priority (higher = more urgent) *)
  | Ts  (** time-sharing, priority evolves via the dispatch table *)

type row = {
  quantum_ticks : int;  (** quantum at this level, in clock ticks *)
  tqexp : int;  (** new priority when the quantum expires *)
  slpret : int;  (** new priority on return from sleep *)
  maxwait_s : int;  (** seconds runnable-but-not-run before a boost *)
  lwait : int;  (** new priority when the maxwait boost fires *)
}

val default_table : unit -> row array
(** A 60-level table shaped like Solaris's ts_dptbl: long quanta and harsh
    expiry demotion at low priorities, short quanta and high sleep-return /
    starvation boosts at high priorities. *)

val table_of_string : string -> (row array, string) result
(** Parse a dispatch table in the classic ts_dptbl(4) textual layout: one
    row per priority level (low to high), five whitespace-separated
    integer columns [ts_quantum ts_tqexp ts_slpret ts_maxwait ts_lwait]
    (quantum in clock ticks), ['#']-comments and blank lines ignored.
    Exactly 60 rows are required; priorities must be in [0, 59] and
    quanta positive. *)

val table_to_string : row array -> string
(** Render a table back to the [table_of_string] format. *)

val create :
  ?table:row array ->
  ?tick:Hsfq_engine.Time.span ->
  ?tick_accounting:bool ->
  ?rt_quantum:Hsfq_engine.Time.span ->
  unit ->
  t
(** Defaults: [default_table ()], 10 ms tick, tick accounting on,
    25 ms RT quantum. *)

val add : t -> id:int -> ?prio:int -> cls -> unit
(** Register a thread; TS threads start at [prio] (default 29, the
    classic initial user priority), runnable. RT threads' [prio] is the
    [Rt] argument. *)

val remove : t -> id:int -> unit
val wake : ?boost:bool -> t -> id:int -> unit
(** Runnable again; TS threads get their [slpret] boost unless
    [~boost:false] (used when admitting a freshly created thread, which
    has not actually slept). *)

val block : t -> id:int -> unit

val select_id : t -> int
(** Highest-priority runnable thread: any RT before any TS; FIFO within an
    RT priority; per-level queues with preempted-thread-first for TS.
    Returns [-1] iff the run queue is empty. The selected thread is "in
    service" until [charge]; a second [select_id] before it raises. *)

val charge : t -> id:int -> service:Hsfq_engine.Time.span -> runnable:bool -> unit
(** Account CPU use. TS threads whose quantum is exhausted are demoted to
    [tqexp] and requeued at the tail; otherwise they keep their remaining
    quantum and requeue at the head of their level. *)

val quantum_of : t -> id:int -> Hsfq_engine.Time.span
(** Remaining quantum for the thread's current level (RT: fixed). *)

val preempts : t -> waker:int -> running:int -> bool
(** True when the waking thread's class/priority should preempt the
    running one immediately (RT above TS; higher RT above lower RT).
    TS never preempts. *)

val second_tick : t -> unit
(** Once-per-second housekeeping: apply maxwait/lwait starvation boosts.
    Threads are scanned in id order — deterministic, and a faithful source
    of the systematic asymmetry time-sharing exhibits in Figure 5. *)

val prio_of : t -> id:int -> int
val is_rt : t -> id:int -> bool
val backlogged : t -> int
