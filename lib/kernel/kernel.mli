(** The simulated operating-system kernel.

    Substitutes for the paper's Solaris 2.4 substrate: owns the threads,
    drives the hierarchical scheduling structure ({!Hsfq_core.Hierarchy})
    and the per-leaf class schedulers ({!Leaf_sched}), executes workloads
    under quantum-based preemptive dispatch, runs interrupts at the
    highest priority, and keeps the accounting the experiments report
    (per-thread CPU series, scheduling latency, kernel overheads).

    Cost model: each dispatch consumes [context_switch_cost] plus
    [sched_cost_per_level * (depth of the chosen leaf)] of wall-clock CPU
    before the thread's work proceeds — this is what the Figure 7
    overhead experiments measure. Interrupts pause the running thread
    without consuming its quantum (the thread resumes its remaining
    slice), exactly the fluctuation the FC server model captures.

    Preemption: by default threads run to the end of their quantum
    ([`Quantum_boundary]) — cross-class scheduling latency is therefore
    bounded by the quantum, as in the paper's Figure 9 — but a wakeup
    preempts immediately when the waking and running threads share a leaf
    whose class is preemptive (SVR4 RT, RM, EDF). [`Preempt_on_wake]
    additionally preempts across classes (ablation). *)

open Hsfq_engine

type t

type tid = int

type preemption = Quantum_boundary | Preempt_on_wake

type config = {
  default_quantum : Time.span;  (** node-level quantum (paper: 10–25 ms) *)
  context_switch_cost : Time.span;
  sched_cost_per_level : Time.span;
  preemption : preemption;
  housekeeping_period : Time.span;
      (** period of the [second_tick] housekeeping call (SVR4 starvation
          boosts); the paper's kernel runs it every second *)
  migration_cost : Time.span;
      (** extra overhead charged when a CPU dispatches a thread that
          last ran on a different CPU (cold caches). Inert at
          [cpus = 1]: a single CPU never migrates. *)
}

val default_config : config
(** 20 ms quantum, 2 µs context switch, 200 ns per hierarchy level,
    quantum-boundary preemption, 1 s housekeeping, 5 µs migration. *)

type thread_state = Created | Runnable | Running | Blocked | Exited

val create : ?config:config -> ?cpus:int -> Sim.t -> Hsfq_core.Hierarchy.t -> t
(** [~cpus:p] (default 1) builds a CPU set of [p] simulated processors
    dispatching from the {e shared} hierarchical structure: each CPU has
    its own dispatch slot, interrupt context, and time accounting, while
    threads, leaves, mutexes and devices are global. Creating with
    [cpus > 1] raises the hierarchy's root claim capacity
    ({!Hsfq_core.Hierarchy.set_servers}) so [p] root→leaf decisions can
    be outstanding at once; an idle CPU always claims the runnable root
    subtree with the smallest start tag — the most service-starved one —
    which is the hierarchical load-balancing policy. With [cpus = 1] the
    kernel is byte-for-byte the paper's single-CPU dispatcher. *)

val config : t -> config
val sim : t -> Sim.t

val cpus : t -> int
(** Size of the CPU set. *)

(** {1 Classes and threads} *)

val install_leaf : t -> Hsfq_core.Hierarchy.id -> Leaf_sched.t -> unit
(** Attach a class scheduler to a leaf node. Required before any thread
    of that leaf starts. *)

val leaf_sched : t -> Hsfq_core.Hierarchy.id -> Leaf_sched.t

val spawn :
  t -> name:string -> leaf:Hsfq_core.Hierarchy.id -> Workload_intf.t -> tid
(** Create a thread in the given leaf class, initially [Created] (not
    runnable). Register it with the leaf's adapter (e.g.
    {!Leaf_sched.Sfq_leaf.add}) before calling [start]. *)

val start : t -> tid -> unit
(** Activate a [Created] thread at the current simulated time: its first
    workload action is fetched and it becomes [Runnable] (or [Blocked] if
    the workload begins by sleeping). *)

val kill : t -> tid -> unit
(** Terminate a non-[Running] thread immediately. A killed mutex waiter
    leaves the wait queue and takes its donated weight back; a killed
    holder hands each held mutex to its first live waiter, so waiters are
    never stranded behind an [Exited] holder. *)

val move : t -> tid -> to_leaf:Hsfq_core.Hierarchy.id -> unit
(** The paper's [hsfq_move]: reassign a non-[Running] thread to another
    leaf class. The destination adapter must already know the thread.
    Donations migrate with it: an outstanding donation is revoked against
    the old leaf before the retarget and re-established in the new leaf
    iff waiter and holder are co-located again; donations aimed {e at}
    the moved thread are refreshed the same way. Moving a thread to the
    leaf it is already in is a no-op. *)

val suspend : t -> tid -> unit
(** Forcibly block a thread until [resume] — used by the
    dynamic-allocation experiment (Figure 11) to "put a thread to sleep"
    externally. Any lifecycle state except [Exited] (and [Running], which
    is first un-dispatched) is legal: a sleeper's timer is cancelled and
    its wake banked; a mutex/I/O waiter stays queued, and a grant or
    completion arriving meanwhile is banked rather than delivered.
    Suspending an already-suspended thread is a no-op. *)

val resume : t -> tid -> unit
(** Undo [suspend], delivering any wake banked while suspended. A no-op
    on threads that are not suspended — in particular a thread blocked
    waiting for a mutex wakes only when the mutex is granted. *)

val is_suspended : t -> tid -> bool

val state : t -> tid -> thread_state
val thread_name : t -> tid -> string
val leaf_of : t -> tid -> Hsfq_core.Hierarchy.id

val tids : t -> tid list
(** All threads ever spawned (including [Exited] ones), ascending. *)

val uninstall_leaf : t -> Hsfq_core.Hierarchy.id -> unit
(** Detach the class scheduler from a leaf that no live thread belongs
    to (counterpart of {!install_leaf}, for [hsfq_rmnod]-style churn).
    Raises [Invalid_argument] if a live thread still references it. *)

val dump : t -> Hsfq_check.Kernel_audit.view
(** A structural snapshot — thread lifecycle states, mutex ownership and
    wait queues, per-leaf scheduler probes, each CPU's slice end,
    completion timer and pending interrupt arrivals — for
    {!Hsfq_check.Kernel_audit.check}. *)

(** {1 Mutexes and priority inversion (§4)} *)

val create_mutex : t -> int
(** A simulated blocking mutex, usable from workloads via
    {!Workload_intf.action.Lock}/[Unlock]. Acquisition and release are
    zero-cost; contended acquisition blocks the thread and ownership is
    granted FIFO. While a thread waits on a holder in the {e same} leaf
    class, the leaf's [donate] hook transfers the waiter's weight to the
    holder — SFQ leaves thereby avoid priority inversion exactly as §4
    prescribes ("such a transfer will ensure that the blocking thread
    will have a weight ... at least as large as the weight of the
    blocked thread"); classes without weights ignore it. *)

val mutex_holder : t -> int -> tid option

(** {1 I/O devices} *)

type device_model =
  | Fixed_service of Time.span  (** deterministic time per request unit *)
  | Exponential_service of { mean : Time.span; seed : int }
      (** exponential per-unit service (seeded; deterministic) *)

val create_device : t -> device_model -> int
(** A FIFO-served device (disk, NIC, ...) running concurrently with the
    CPU. Workloads issue requests via {!Workload_intf.action.Io} and
    block until completion — producing the unpredictable early quantum
    ends that SFQ (unlike WFQ) handles without knowing lengths a
    priori. *)

val device_completed : t -> int -> int
val device_busy_time : t -> int -> Time.span
val device_queue_length : t -> int -> int

(** {1 Interrupts} *)

val interrupt : t -> duration:Time.span -> unit
(** Process an interrupt of the given cost starting now on CPU 0, at the
    highest priority (pausing that CPU's running thread). Overlapping
    interrupts queue. *)

val interrupt_on : t -> cpu:int -> duration:Time.span -> unit
(** {!interrupt} targeted at a specific CPU: only that CPU's dispatch
    pauses; the others keep running. *)

val add_interrupt_source : t -> ?cpu:int -> Interrupt_source.spec -> unit
(** Attach a periodic/random interrupt source to a CPU (default 0).
    While a source of positive cost is attached, a slice that the CPU's
    next arrival will pause arms no completion timer. *)

(** {1 Running} *)

val run_until : t -> Time.t -> unit
(** Advance the simulation to the horizon. *)

(** {1 Accounting} *)

val cpu_time : t -> tid -> Time.span
(** Total CPU work executed for the thread. *)

val cpu_series : t -> tid -> Series.t
(** (time, service ns) sample per charge — bucket for throughput plots. *)

val dispatch_count : t -> tid -> int

val latency_stats : t -> tid -> Stats.t
(** Scheduling latency: wakeup-to-first-dispatch, in ns. *)

val latency_series : t -> tid -> Series.t

val idle_time : t -> Time.span
(** Summed across the CPU set (equal to the per-CPU value at
    [cpus = 1]). *)

val interrupt_time : t -> Time.span
val overhead_time : t -> Time.span

val migrations : t -> int
(** Dispatches that moved a thread across CPUs (0 at [cpus = 1]). *)

val cpu_idle_time : t -> int -> Time.span
val cpu_interrupt_time : t -> int -> Time.span
val cpu_overhead_time : t -> int -> Time.span
val cpu_migrations : t -> int -> int

val running_on : t -> tid -> int option
(** The CPU currently executing the thread ([None] unless Running). *)

val running_tid : t -> cpu:int -> tid option
(** The thread the CPU is executing, if any. *)

val last_cpu_of : t -> tid -> int option
(** The CPU the thread last ran on ([None] before its first
    dispatch) — the affinity the next dispatch prefers. *)

val work_series : t -> Series.t
(** Aggregate (time, service) samples — input to FC-server estimation. *)

val set_trace : t -> Tracelog.t option -> unit
(** When set, every executed slice is recorded as a Gantt segment on the
    thread's name lane. *)

val set_obs : t -> Hsfq_obs.Trace.sys option -> unit
(** Attach (or detach) a structured tracepoint sink ({!Hsfq_obs}): the
    kernel stamps the simulated clock into the tracer, emits thread
    lifecycle events (spawn/kill/move/sleep/wake/suspend/resume),
    dispatch/quantum-end pairs, preemptions and interrupts, and feeds
    per-leaf dispatch-wait and preemption metrics.  Scheduler-level
    events come from {!Hierarchy.attach_obs}, which the harness wires
    alongside this.  Threads spawned before the attach keep unnamed
    lanes; attach first. *)

val render_summary : t -> string
(** A human-readable per-thread table (state, CPU, dispatches, mean
    scheduling latency, class) plus the kernel totals — for examples and
    debugging sessions. *)
