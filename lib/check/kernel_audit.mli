(** Whole-kernel lifecycle and donation invariants.

    {!Sfq_rules} checks one SFQ instance and {!Hierarchy_audit} one
    scheduling structure; this module checks the conserved quantities
    that span the {e kernel}: thread states versus leaf ready sets,
    mutex ownership versus the donation ledger, suspension flags versus
    armed wake timers. The kernel cannot be inspected from here (the
    dependency points the other way), so it exports a {!view} — a plain
    snapshot built by [Kernel.dump] — and this module judges it.

    Checked rules (each documented in [doc/INVARIANTS.md]):
    - [runnable-enqueued]: a thread is Runnable/Running iff it is a
      runnable client of exactly its own leaf's SFQ.
    - [leaf-membership]: every SFQ client is a live thread of that leaf
      (no exited or moved-away stragglers).
    - [leaf-runnability]: a leaf's hierarchy flag agrees with its
      backlog.
    - [mutex-sanity]: holders are live threads, waiters are Blocked and
      queued exactly where their [waiting_mutex] says, free mutexes have
      no waiters.
    - [donation-ledger]: the SFQ donation table is exactly the set of
      same-leaf (waiter, holder) pairs — so when all mutexes are free
      the ledger is empty and every effective weight equals the
      administered weight.
    - [wake-handle], [suspend-state], [run-state]: no timer outlives or
      bypasses its thread's lifecycle state; every dispatched thread is
      Running, every Running thread is dispatched on some CPU, no CPU
      holds two dispatches, and no thread runs on two CPUs at once.
    - [slice-end]: every running, unpaused slice ends either by its
      CPU's armed completion or by a pending arrival of one of that
      CPU's positive-cost interrupt sources at or before the slice's
      end (the arrival pauses the slice first); a CPU running no such
      slice has no completion armed.
    - [vt-monotone]: each leaf SFQ's virtual time never recedes between
      audits (tracked in the {!ctx}).

    Every SFQ-backed leaf is additionally swept with
    {!Sfq_rules.check_state}. *)

type thread_state = Created | Runnable | Running | Blocked | Exited

type thread_view = {
  tid : int;
  tname : string;
  leaf : int;  (** hierarchy node id of the thread's leaf class *)
  state : thread_state;
  waiting_mutex : int option;
  wake_armed : bool;  (** the sleep timer is armed *)
  suspended : bool;
  wake_pending : bool;  (** a wake arrived while suspended; banked *)
}

type mutex_view = {
  mid : int;
  holder : int option;
  waiters : int list;  (** FIFO order *)
}

type leaf_view = {
  node : int;  (** hierarchy node id *)
  label : string;  (** node path, for reporting *)
  sfq : Hsfq_core.Sfq.t option;
      (** the class scheduler's SFQ when it is SFQ-backed *)
  backlogged : int;  (** runnable member threads *)
  leaf_runnable : bool;  (** the hierarchy's runnable flag for the leaf *)
}

type cpu_view = {
  cpu : int;
  slice_end : int option;
      (** the instant the CPU's running slice ends, its overhead and
          work left run from its resume instant; [None] when the CPU
          runs no thread or an interrupt has paused it *)
  completion_armed : bool;  (** the CPU's slice-completion timer is armed *)
  arrivals : int list;
      (** the pending next arrivals of the CPU's positive-cost
          interrupt sources *)
}

type view = {
  threads : thread_view list;
  mutexes : mutex_view list;
  leaves : leaf_view list;
  running : (int * int) list;
      (** the live dispatches as [(cpu, tid)] pairs — at most one per
          CPU, empty when every CPU is idle. Single-CPU kernels report
          [[(0, tid)]] or [[]]. *)
  cpus : cpu_view list;  (** one per CPU, by cid *)
}

type ctx
(** Audit context: the sink plus cross-sweep state (last virtual time
    seen per leaf). *)

val create : Invariant.sink -> ctx

val check : ?event:string -> ctx -> view -> unit
(** Judge a snapshot: report every broken rule into the context's sink.
    [event] labels the reports (default ["kernel-audit"]). *)
