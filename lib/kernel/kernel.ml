open Hsfq_engine
module Hierarchy = Hsfq_core.Hierarchy

type tid = int

type preemption = Quantum_boundary | Preempt_on_wake

type config = {
  default_quantum : Time.span;
  context_switch_cost : Time.span;
  sched_cost_per_level : Time.span;
  preemption : preemption;
  housekeeping_period : Time.span;
  migration_cost : Time.span;
}

let default_config =
  {
    default_quantum = Time.milliseconds 20;
    context_switch_cost = Time.microseconds 2;
    sched_cost_per_level = Time.nanoseconds 200;
    preemption = Quantum_boundary;
    housekeeping_period = Time.seconds 1;
    migration_cost = Time.microseconds 5;
  }

type thread_state = Created | Runnable | Running | Blocked | Exited

type thread = {
  tid : tid;
  tname : string;
  mutable leaf : Hierarchy.id;
  workload : Workload_intf.t;
  mutable state : thread_state;
  mutable work_left : Time.span; (* of the current Compute segment *)
  mutable waiting_mutex : int option; (* blocked on this mutex *)
  (* The sleep timer ([do_wake]), armed while a [`Sleep]/[Block_until]
     is pending; created with the thread. *)
  wake : Event_queue.timer;
  (* Wake instant of the pending [`Sleep]/[Block_until]: kept here so
     neither pseudo-action carries a boxed payload. *)
  mutable sleep_at : Time.t;
  mutable suspended : bool;
  (* A wake (timer, mutex grant, I/O completion) arrived while suspended:
     banked, delivered by [resume]. Implies [suspended]. *)
  mutable wake_pending : bool;
  mutable last_wake : Time.t;
  mutable awaiting_dispatch : bool;
  (* CPU affinity: the CPU the thread last ran on (-1 before its first
     dispatch) and the CPU currently executing it (-1 unless Running).
     Dispatching on a CPU other than [last_cpu] is a migration: it
     charges [migration_cost] extra overhead. *)
  mutable last_cpu : int;
  mutable running_on : int;
  mutable total_cpu : Time.span;
  mutable dispatches : int;
  cpu : Series.t;
  latency : Stats.t;
  lat_series : Series.t;
}

(* The dispatch record is pooled: each CPU owns a single [spare]
   record that every dispatch on that CPU reuses (it describes a
   dispatch while the CPU's [busy] flag is set), so the quantum loop
   allocates no per-dispatch state. Safe because at most one dispatch
   exists per CPU at a time and [end_dispatch] never reads the record
   after handing the CPU back to the dispatch loop. *)
type dispatch = {
  mutable d_tid : tid;
  mutable d_leaf : Hierarchy.id;
  mutable d_quantum : Time.span; (* total work budget for this dispatch *)
  mutable overhead_left : Time.span;
  mutable seg_left : Time.span; (* work scheduled in the current slice *)
  mutable used : Time.span; (* work completed so far in this dispatch *)
  mutable resume_at : Time.t;
  mutable paused : bool;
}

(* One simulated CPU: its dispatch slot, its interrupt context, and its
   share of the time accounting. All CPUs dispatch from the one shared
   hierarchical structure — there are no per-CPU run queues; mutual
   exclusion between concurrent decisions is the hierarchy's root claim
   set (see [Hierarchy.set_servers]). Its two timers are created with
   it and re-armed for every slice and interrupt. *)
type cpu_state = {
  cid : int;
  spare : dispatch; (* the pooled dispatch record (see above) *)
  mutable busy : bool; (* [spare] describes a running dispatch *)
  completion : Event_queue.timer; (* [complete_slice]: the slice ends *)
  irq : Event_queue.timer; (* [interrupts_done]; armed = in an interrupt *)
  mutable interrupt_until : Time.t;
  (* The CPU's interrupt sources of positive cost, and the earliest of
     their next arrivals ([max_int] without one): each such arrival
     pauses a running slice. *)
  mutable sources : Interrupt_source.t array;
  mutable next_irq : Time.t;
  (* Start of the current idle period; [not_idle] (simulated time is
     never negative) while the CPU runs a thread or an interrupt. *)
  mutable idle_since : Time.t;
  mutable idle_total : Time.span;
  mutable interrupt_total : Time.span;
  mutable overhead_total : Time.span;
  mutable migrations : int; (* dispatches that moved a thread here *)
}

let not_idle = -1

(* A simulated blocking mutex. Ownership is granted FIFO; while a
   thread waits, its weight is donated to the holder when both belong to
   the same weighted leaf class (the paper's §4 priority-inversion
   avoidance). *)
type mutex = { mutable holder : tid option; waiters : tid Queue.t }

type device_model =
  | Fixed_service of Time.span (* per unit *)
  | Exponential_service of { mean : Time.span; seed : int }

(* A FIFO I/O device running concurrently with the CPU. *)
type device = {
  model : device_model;
  rng : Prng.t;
  dqueue : (tid * Time.span) Queue.t; (* waiting requests *)
  mutable dbusy : bool;
  mutable completed : int;
  mutable busy_time : Time.span;
}

type t = {
  sim : Sim.t;
  hier : Hierarchy.t;
  cfg : config;
  leaves : (Hierarchy.id, Leaf_sched.t) Hashtbl.t;
  threads : (tid, thread) Hashtbl.t;
  (* Dense mirrors of [leaves]/[threads]: node ids and tids are both
     small counter-allocated ints, so the dispatch hot path resolves
     them with an array read instead of a hashtable probe. The
     hashtables remain the source of truth for iteration/removal. *)
  mutable leaf_cache : Leaf_sched.t option array;
  (* Each installed leaf's depth, beside [leaf_cache]: a dispatch's
     overhead reads it, and leaves are never re-parented. *)
  mutable leaf_depth : int array;
  mutable thread_cache : thread option array;
  mutexes : (int, mutex) Hashtbl.t;
  mutable next_mutex : int;
  devices : (int, device) Hashtbl.t;
  mutable next_device : int;
  mutable next_tid : tid;
  (* The simulated CPUs, indexed by cid. Set once by [create], right
     after the record: their timers' thunks close over it. *)
  mutable cpu_set : cpu_state array;
  wseries : Series.t;
  mutable trace : Tracelog.t option;
  mutable obs : Hsfq_obs.Trace.sys option;
      (* structured tracepoint sink (Hsfq_obs); independent of the
         Gantt [trace] above *)
}

(* A runaway workload returning only zero-length/past actions would
   otherwise spin the activation loop forever. *)
let max_consecutive_null_actions = 1_000_000

let config t = t.cfg
let sim t = t.sim
let cpus t = Array.length t.cpu_set

let nth_cpu t c =
  if c < 0 || c >= Array.length t.cpu_set then
    invalid_arg (Printf.sprintf "Kernel: unknown cpu %d" c);
  t.cpu_set.(c)

(* Tracepoints.  [obs_stamp] pushes the simulated clock into the tracer
   before a kernel entry point runs scheduler code (Hierarchy/Sfq emit
   under the last stamped time); [obs_emit] stamps and records one
   kernel event.  With no sink attached both are a single match. *)
let obs_stamp t =
  match t.obs with
  | None -> ()
  | Some s -> Hsfq_obs.Trace.sys_set_now s (Sim.now t.sim)

let obs_emit t ~code ~a ~b ~c ~d =
  match t.obs with
  | None -> ()
  | Some s ->
    Hsfq_obs.Trace.sys_set_now s (Sim.now t.sim);
    Hsfq_obs.Trace.emit0 s ~code ~a ~b ~c ~d

let unknown_thread tid =
  invalid_arg (Printf.sprintf "Kernel: unknown thread %d" tid)

let thread t tid =
  if tid >= 0 && tid < Array.length t.thread_cache then
    match t.thread_cache.(tid) with
    | Some th -> th
    | None -> unknown_thread tid
  else unknown_thread tid

let no_leaf_sched leaf =
  invalid_arg
    (Printf.sprintf "Kernel: no leaf scheduler installed on node %d" leaf)

let leaf_sched t leaf =
  if leaf >= 0 && leaf < Array.length t.leaf_cache then
    match t.leaf_cache.(leaf) with
    | Some lf -> lf
    | None -> no_leaf_sched leaf
  else no_leaf_sched leaf

(* Grow-and-set for the dense caches (registration-time only). *)
let cache_set : 'a. 'a array -> fill:'a -> int -> 'a -> 'a array =
 fun cache ~fill i v ->
  let cache =
    if i < Array.length cache then cache
    else begin
      let ncap = Int.max (i + 1) (Int.max 16 (2 * Array.length cache)) in
      let nc = Array.make ncap fill in
      Array.blit cache 0 nc 0 (Array.length cache);
      nc
    end
  in
  cache.(i) <- v;
  cache

let mutex t m =
  try Hashtbl.find t.mutexes m
  with Not_found -> invalid_arg (Printf.sprintf "Kernel: unknown mutex %d" m)

let create_mutex t =
  let m = t.next_mutex in
  t.next_mutex <- t.next_mutex + 1;
  Hashtbl.replace t.mutexes m { holder = None; waiters = Queue.create () };
  m

let mutex_holder t m = (mutex t m).holder

let device t d =
  match Hashtbl.find_opt t.devices d with
  | Some dev -> dev
  | None -> invalid_arg (Printf.sprintf "Kernel: unknown device %d" d)

let create_device t model =
  (match model with
  | Fixed_service s when s <= 0 -> invalid_arg "Kernel.create_device: bad service time"
  | Exponential_service { mean; _ } when mean <= 0 ->
    invalid_arg "Kernel.create_device: bad service time"
  | _ -> ());
  let d = t.next_device in
  t.next_device <- t.next_device + 1;
  let rng =
    match model with
    | Exponential_service { seed; _ } -> Prng.create seed
    | Fixed_service _ -> Prng.create 0
  in
  Hashtbl.replace t.devices d
    { model; rng; dqueue = Queue.create (); dbusy = false; completed = 0; busy_time = 0 };
  d

let device_completed t d = (device t d).completed
let device_busy_time t d = (device t d).busy_time
let device_queue_length t d = Queue.length (device t d).dqueue

let request_duration dev units =
  let unit_time =
    match dev.model with
    | Fixed_service s -> s
    | Exponential_service { mean; _ } ->
      Int.max 1
        (Time.of_seconds_float
           (Prng.exponential dev.rng ~mean:(Time.to_seconds_float mean)))
  in
  units * unit_time

let install_leaf t leaf lf =
  (match Hierarchy.kind_of t.hier leaf with
  | Hierarchy.Leaf -> ()
  | Hierarchy.Internal ->
    invalid_arg "Kernel.install_leaf: node is not a leaf");
  if Hashtbl.mem t.leaves leaf then
    invalid_arg "Kernel.install_leaf: leaf already has a scheduler";
  Hashtbl.replace t.leaves leaf lf;
  t.leaf_cache <- cache_set t.leaf_cache ~fill:None leaf (Some lf);
  t.leaf_depth <- cache_set t.leaf_depth ~fill:0 leaf (Hierarchy.depth t.hier leaf)

let interrupt_active t c = Sim.armed t.sim c.irq

(* Neither running a thread nor servicing an interrupt. *)
let cpu_free t c = (not c.busy) && not (interrupt_active t c)

let close_idle c now =
  if c.idle_since <> not_idle then begin
    c.idle_total <- c.idle_total + Time.diff now c.idle_since;
    c.idle_since <- not_idle
  end

let trace_slice t th ~start ~stop =
  match t.trace with
  | None -> ()
  | Some tr ->
    if stop > start then
      Tracelog.segment tr ~lane:th.tname ~start ~stop ~label:"run"

(* Stop the clock on CPU [c]'s running dispatch: split the elapsed wall
   time into scheduler overhead and thread work, and disarm its
   completion timer. *)
let pause_dispatch t c now =
  let d = c.spare in
  assert (not d.paused);
  Sim.disarm t.sim c.completion;
  let elapsed = Time.diff now d.resume_at in
  if elapsed <= d.overhead_left then d.overhead_left <- d.overhead_left - elapsed
  else begin
    let work = elapsed - d.overhead_left in
    d.overhead_left <- 0;
    (* [work <= seg_left] because the completion event would have fired
       otherwise. *)
    d.seg_left <- d.seg_left - work;
    d.used <- d.used + work;
    let th = thread t d.d_tid in
    th.work_left <- th.work_left - work;
    trace_slice t th ~start:(Time.add d.resume_at d.overhead_left) ~stop:now
  end;
  d.paused <- true

(* Arm [c]'s completion for [at], unless the CPU's next interrupt
   arrives no later: that arrival pauses the slice first, and
   [pause_dispatch] derives the slice's progress from the elapsed
   time, so the completion would only be disarmed. At a tie the arrival
   fires first: it was armed before any slice that it can cut. *)
let arm_completion t c at = if at < c.next_irq then Sim.arm t.sim c.completion at

(* The CPU scans of [make_runnable], from CPU [i] up; -1 when none
   qualifies. Top-level with explicit arguments: as local [let rec]s
   they would capture [t]/[th]/[lf] and allocate three closures per
   wake. *)
let rec find_within t th (lf : Leaf_sched.t) i =
  if i >= Array.length t.cpu_set then -1
  else
    let c = t.cpu_set.(i) in
    let r = c.spare.d_tid in
    if
      c.busy && r <> th.tid
      && (thread t r).leaf = th.leaf
      && lf.preempts ~waker:th.tid ~running:r
    then i
    else find_within t th lf (i + 1)

let rec find_free t i =
  if i >= Array.length t.cpu_set then -1
  else if cpu_free t t.cpu_set.(i) then i
  else find_free t (i + 1)

let rec find_busy t tid i =
  if i >= Array.length t.cpu_set then -1
  else
    let c = t.cpu_set.(i) in
    if c.busy && c.spare.d_tid <> tid then i else find_busy t tid (i + 1)

type disposition =
  | Requeue (* quantum expired / preempted: thread stays runnable *)
  | Block_until (* sleeping with a wakeup timer at [sleep_at] *)
  | Block_external (* suspended; no timer *)
  | Die

let rec end_dispatch t c d now disposition =
  obs_stamp t;
  let th = thread t d.d_tid in
  let lf = leaf_sched t d.d_leaf in
  let disposition =
    match disposition with
    | Requeue when th.work_left = 0 ->
      (* A preemption (or an external wake under Preempt_on_wake) landed
         exactly on the segment boundary and beat the completion event:
         the slice is in fact finished, so resolve the next action as
         [complete_slice] would have instead of requeueing a thread with
         nothing left to run. *)
      (match next_effective_action t th now with
      | `Work -> Requeue
      | `Sleep -> Block_until
      | `Lock_wait | `Io -> Block_external
      | `Exit -> Die)
    | other -> other
  in
  let service = d.used in
  let runnable = match disposition with Requeue -> true | _ -> false in
  lf.charge ~now d.d_tid ~service ~runnable;
  (match disposition with
  | Die -> lf.detach d.d_tid
  | Requeue | Block_until | Block_external -> ());
  let leaf_runnable = lf.backlogged () > 0 in
  Hierarchy.update_ns t.hier ~leaf:d.d_leaf ~service_ns:service ~leaf_runnable;
  th.total_cpu <- th.total_cpu + service;
  if service > 0 then begin
    Series.add th.cpu now (float_of_int service);
    Series.add t.wseries now (float_of_int service)
  end;
  obs_emit t ~code:Hsfq_obs.Trace.ev_quantum_end ~a:d.d_tid ~b:d.d_leaf
    ~c:service
    ~d:
      (match disposition with
      | Requeue -> 0
      | Block_until -> 1
      | Block_external -> 2
      | Die -> 3);
  if Array.length t.cpu_set > 1 then
    obs_emit t ~code:Hsfq_obs.Trace.ev_cpu_idle ~a:c.cid ~b:d.d_tid ~c:service
      ~d:0;
  c.busy <- false;
  th.running_on <- -1;
  (match disposition with
  | Requeue -> th.state <- Runnable
  | Block_until ->
    th.state <- Blocked;
    Sim.arm t.sim th.wake th.sleep_at
  | Block_external -> th.state <- Blocked
  | Die ->
    th.state <- Exited;
    release_mutex_links t th);
  (* Releasing this CPU's hierarchy claim can unblock a sibling CPU that
     found every runnable subtree claimed, so offer the dispatch to every
     idle CPU, this one first. *)
  dispatch_idle t ~prefer:c.cid

(* Fetch workload actions until one takes effect. Returns the resulting
   pseudo-action, an immediate whose payload lives in the thread:
   [`Work] (work_left set), [`Sleep] (sleep_at set), [`Lock_wait]
   (queued on a held mutex), [`Io] (request submitted) or [`Exit]; the
   caller blocks the thread for [`Lock_wait]/[`Io]. Free-mutex
   acquisition and unlocking are zero-cost and the loop continues past
   them. *)
and next_effective_action t th now =
  action_loop t th now max_consecutive_null_actions

(* Top-level (not a local [let rec]): a nested recursive closure would
   capture [t]/[th]/[now] and allocate on every action fetch. *)
and action_loop t th now budget =
  if budget = 0 then
    failwith
      (Printf.sprintf "Kernel: workload of %s yields no effective action" th.tname)
  else
    match th.workload ~now with
    | Workload_intf.Compute w when w > 0 ->
      th.work_left <- w;
      `Work
    | Workload_intf.Compute _ -> action_loop t th now (budget - 1)
    | Workload_intf.Sleep_for d when d > 0 ->
      th.sleep_at <- Time.saturating_add now d;
      `Sleep
    | Workload_intf.Sleep_for _ -> action_loop t th now (budget - 1)
    | Workload_intf.Sleep_until at when Time.compare at now > 0 ->
      th.sleep_at <- at;
      `Sleep
    | Workload_intf.Sleep_until _ -> action_loop t th now (budget - 1)
    | Workload_intf.Lock m ->
      if acquire_or_wait t th m then action_loop t th now (budget - 1)
      else `Lock_wait
    | Workload_intf.Unlock m ->
      unlock_mutex t th m;
      action_loop t th now (budget - 1)
    | Workload_intf.Io (d, units) ->
      if units <= 0 then action_loop t th now (budget - 1)
      else begin
        submit_io t th d units;
        `Io
      end
    | Workload_intf.Exit -> `Exit

(* Take mutex [m] if it is free ([true]); otherwise queue [th] on it
   ([false]). *)
and acquire_or_wait t th m =
  let mu = mutex t m in
  match mu.holder with
  | None ->
    mu.holder <- Some th.tid;
    true
  | Some h when h = th.tid ->
    invalid_arg (Printf.sprintf "Kernel: recursive lock of mutex %d" m)
  | Some _ ->
    enqueue_mutex_waiter t th m;
    false

(* Submit an I/O request: start service now if the device is idle, else
   queue FIFO. The caller blocks the thread. *)
and submit_io t th d units =
  let dev = device t d in
  let dur = request_duration dev units in
  if dev.dbusy then Queue.push (th.tid, dur) dev.dqueue
  else begin
    dev.dbusy <- true;
    Sim.after t.sim dur (fun () -> io_complete t d th.tid dur)
  end

and io_complete t d tid dur =
  let dev = device t d in
  dev.completed <- dev.completed + 1;
  dev.busy_time <- dev.busy_time + dur;
  (match Queue.take_opt dev.dqueue with
  | Some (next_tid, next_dur) ->
    Sim.after t.sim next_dur (fun () -> io_complete t d next_tid next_dur)
  | None -> dev.dbusy <- false);
  let th = thread t tid in
  match th.state with
  | Blocked ->
    (* The requester may have been suspended (bank the wake for [resume])
       or killed (nothing to deliver) while the device worked. *)
    if th.suspended then th.wake_pending <- true
    else activate t th (Sim.now t.sim)
  | Created | Runnable | Running | Exited -> ()

(* Record that [th] now waits on mutex [m]: queue it and donate its
   weight to the holder when they share a leaf class. The caller is
   responsible for the thread-state transition. *)
and enqueue_mutex_waiter t th m =
  let mu = mutex t m in
  th.waiting_mutex <- Some m;
  Queue.push th.tid mu.waiters;
  match mu.holder with
  | Some h when (thread t h).leaf = th.leaf ->
    (leaf_sched t th.leaf).donate ~blocked:th.tid ~recipient:h
  | Some _ | None -> ()

(* Pass ownership of the mutex to its first live waiter, or leave it
   free. The grant is eager — the grantee leaves the wait queue, its
   donation is returned and the remaining waiters' donations re-target
   the new holder immediately, so the ledger is consistent as soon as the
   current event finishes — but the wakeup itself is deferred to a
   zero-delay event so the grantee activates outside the caller's
   dispatch bookkeeping. *)
and hand_off t mu =
  let rec next_live () =
    match Queue.take_opt mu.waiters with
    | None -> None
    | Some w -> if (thread t w).state = Blocked then Some w else next_live ()
  in
  match next_live () with
  | None -> mu.holder <- None
  | Some w ->
    mu.holder <- Some w;
    let wth = thread t w in
    wth.waiting_mutex <- None;
    (leaf_sched t wth.leaf).revoke ~blocked:w;
    (* Remaining waiters now wait on the new holder: re-target their
       donations. *)
    Queue.iter
      (fun x ->
        let xth = thread t x in
        let lf = leaf_sched t xth.leaf in
        lf.revoke ~blocked:x;
        if xth.leaf = wth.leaf then lf.donate ~blocked:x ~recipient:w)
      mu.waiters;
    Sim.after t.sim 0 (fun () -> grant_wake t w)

and unlock_mutex t th m =
  let mu = mutex t m in
  (match mu.holder with
  | Some h when h = th.tid -> ()
  | _ -> invalid_arg (Printf.sprintf "Kernel: unlock of mutex %d by non-holder" m));
  hand_off t mu

(* Undo a dying thread's mutex entanglements: leave any wait queue
   (taking the donated weight back with it) and hand off every mutex it
   still holds, so no waiter is ever stranded behind an Exited holder and
   no donation outlives the wait that justified it. *)
and release_mutex_links t th =
  (match th.waiting_mutex with
  | None -> ()
  | Some m ->
    let mu = mutex t m in
    let keep = Queue.create () in
    Queue.iter (fun w -> if w <> th.tid then Queue.push w keep) mu.waiters;
    Queue.clear mu.waiters;
    Queue.transfer keep mu.waiters;
    (leaf_sched t th.leaf).revoke ~blocked:th.tid;
    th.waiting_mutex <- None);
  Hashtbl.iter
    (fun _ mu ->
      match mu.holder with
      | Some h when h = th.tid -> hand_off t mu
      | Some _ | None -> ())
    t.mutexes

and grant_wake t w =
  (* The grantee may have been killed or suspended between grant and
     wake; only a live, un-suspended Blocked thread activates. *)
  let th = thread t w in
  match th.state with
  | Blocked ->
    if th.suspended then th.wake_pending <- true
    else activate t th (Sim.now t.sim)
  | Created | Runnable | Running | Exited -> ()

(* The completion timer fired: the current slice's overhead+work has
   fully executed. Either the quantum is exhausted, or the workload
   segment finished and we pull the next action. *)
and complete_slice t c =
  let d = c.spare in
  let now = Sim.now t.sim in
  let th = thread t d.d_tid in
  trace_slice t th ~start:(Time.add d.resume_at d.overhead_left) ~stop:now;
  d.used <- d.used + d.seg_left;
  th.work_left <- th.work_left - d.seg_left;
  d.seg_left <- 0;
  d.overhead_left <- 0;
  if th.work_left > 0 then
    (* seg was bounded by the quantum: budget exhausted. *)
    end_dispatch t c d now Requeue
  else begin
    let budget = d.d_quantum - d.used in
    match next_effective_action t th now with
    | `Work ->
      if budget > 0 then begin
        d.seg_left <- Int.min budget th.work_left;
        d.resume_at <- now;
        continue_slice t c d.seg_left
      end
      else end_dispatch t c d now Requeue
    | `Sleep -> end_dispatch t c d now Block_until
    | `Lock_wait | `Io -> end_dispatch t c d now Block_external
    | `Exit -> end_dispatch t c d now Die
  end

(* End [c]'s slice [span] from now, from the tail of an event's action.
   When nothing can fire before that instant, the completion fires in
   place: a tail call, so a chain of segments runs in constant stack.
   Otherwise the completion is armed ([arm_completion]). *)
and continue_slice t c span =
  let at = Time.saturating_add (Sim.now t.sim) span in
  if Sim.fire_in_place t.sim at then complete_slice t c
  else arm_completion t c at

and dispatch_cpu t c =
  if cpu_free t c then begin
    let now = Sim.now t.sim in
    obs_stamp t;
    let leaf = Hierarchy.schedule_id t.hier in
    if leaf < 0 then begin
      if c.idle_since = not_idle then c.idle_since <- now
    end
    else begin
      close_idle c now;
      let lf = leaf_sched t leaf in
      let tid = lf.select_id ~now in
      if tid < 0 then
        failwith
          (Printf.sprintf
             "Kernel: leaf %s marked runnable but its scheduler is empty"
             (Hierarchy.name_of t.hier leaf));
      let th = thread t tid in
      assert (th.state = Runnable);
      assert (th.work_left > 0);
      if th.awaiting_dispatch then begin
        let lat = Time.diff now th.last_wake in
        Stats.add th.latency (float_of_int lat);
        Series.add th.lat_series now (float_of_int lat);
        (match t.obs with
        | Some s when Hsfq_obs.Trace.on s ->
          Hsfq_obs.Metrics.wait_sample (Hsfq_obs.Trace.metrics s) ~node:leaf lat
        | Some _ | None -> ());
        th.awaiting_dispatch <- false
      end;
      let quantum =
        let q = lf.quantum_ns_of tid in
        if q >= 0 then Int.min q t.cfg.default_quantum
        else t.cfg.default_quantum
      in
      (* A thread picked up by a CPU other than the one it last ran on
         pays the migration cost on top of the context switch (cold
         caches); the first dispatch of a thread is placement, not
         migration. Never taken at cpus = 1. *)
      let migrating = th.last_cpu >= 0 && th.last_cpu <> c.cid in
      let overhead =
        t.cfg.context_switch_cost
        + (t.cfg.sched_cost_per_level * t.leaf_depth.(leaf))
        + (if migrating then t.cfg.migration_cost else 0)
      in
      c.overhead_total <- c.overhead_total + overhead;
      if migrating then begin
        c.migrations <- c.migrations + 1;
        obs_emit t ~code:Hsfq_obs.Trace.ev_migrate ~a:tid ~b:leaf ~c:th.last_cpu
          ~d:c.cid
      end;
      th.last_cpu <- c.cid;
      th.running_on <- c.cid;
      let seg = Int.min quantum th.work_left in
      let d = c.spare in
      d.d_tid <- tid;
      d.d_leaf <- leaf;
      d.d_quantum <- quantum;
      d.overhead_left <- overhead;
      d.seg_left <- seg;
      d.used <- 0;
      d.resume_at <- now;
      d.paused <- false;
      (* Armed, never [continue_slice]: a dispatch also runs inside
         [start], [resume] or [move], called from user code that may
         schedule more after it returns. *)
      arm_completion t c (Time.saturating_add now (overhead + seg));
      c.busy <- true;
      th.state <- Running;
      th.dispatches <- th.dispatches + 1;
      obs_emit t ~code:Hsfq_obs.Trace.ev_dispatch ~a:tid ~b:leaf ~c:quantum
        ~d:overhead;
      if Array.length t.cpu_set > 1 then
        obs_emit t ~code:Hsfq_obs.Trace.ev_cpu_run ~a:c.cid ~b:tid ~c:leaf
          ~d:quantum
    end
  end

(* Offer a dispatch to every idle CPU, [prefer] first (thread-affinity
   heuristic: the waker's or just-freed CPU gets the first claim). One
   ordered pass suffices: a successful dispatch only consumes hierarchy
   claims, it never makes a new leaf runnable. *)
and dispatch_idle t ~prefer =
  let n = Array.length t.cpu_set in
  if n = 1 then dispatch_cpu t t.cpu_set.(0)
  else begin
    if prefer >= 0 && prefer < n then dispatch_cpu t t.cpu_set.(prefer);
    for i = 0 to n - 1 do
      if i <> prefer then dispatch_cpu t t.cpu_set.(i)
    done
  end

and preempt_cpu t c =
  if c.busy then begin
    let d = c.spare in
    let now = Sim.now t.sim in
    obs_emit t ~code:Hsfq_obs.Trace.ev_preempt ~a:d.d_tid ~b:d.d_leaf ~c:0 ~d:0;
    (match t.obs with
    | Some s when Hsfq_obs.Trace.on s ->
      Hsfq_obs.Metrics.incr_preempt (Hsfq_obs.Trace.metrics s) ~node:d.d_leaf
    | Some _ | None -> ());
    if not d.paused then pause_dispatch t c now;
    end_dispatch t c d now Requeue
  end

and make_runnable t th now =
  th.state <- Runnable;
  th.last_wake <- now;
  th.awaiting_dispatch <- true;
  obs_emit t ~code:Hsfq_obs.Trace.ev_wake ~a:th.tid ~b:th.leaf ~c:0 ~d:0;
  let lf = leaf_sched t th.leaf in
  lf.enqueue ~now th.tid;
  if not (Hierarchy.is_runnable t.hier th.leaf) then Hierarchy.setrun t.hier th.leaf;
  (* Within-leaf preemption targets the CPU serving the waker's leaf —
     there is at most one, since a leaf is claimed by a single decision
     path. Cross-class preemption ([Preempt_on_wake]) fires only when no
     CPU is free to take the waker; the lowest-numbered busy CPU yields
     (on one CPU this is the classic immediate preemption). *)
  let within = find_within t th lf 0 in
  if within >= 0 then preempt_cpu t t.cpu_set.(within)
  else begin
    match t.cfg.preemption with
    | Preempt_on_wake when find_free t 0 < 0 ->
      let victim = find_busy t th.tid 0 in
      if victim >= 0 then preempt_cpu t t.cpu_set.(victim)
    | Preempt_on_wake | Quantum_boundary -> ()
  end;
  dispatch_idle t ~prefer:th.last_cpu

and activate t th now =
  if th.work_left > 0 then make_runnable t th now
  else begin
    match next_effective_action t th now with
    | `Work -> make_runnable t th now
    | `Sleep ->
      th.state <- Blocked;
      obs_emit t ~code:Hsfq_obs.Trace.ev_sleep ~a:th.tid ~b:th.leaf ~c:0 ~d:0;
      Sim.arm t.sim th.wake th.sleep_at
    | `Lock_wait ->
      th.state <- Blocked;
      obs_emit t ~code:Hsfq_obs.Trace.ev_sleep ~a:th.tid ~b:th.leaf ~c:1 ~d:0
    | `Io ->
      th.state <- Blocked;
      obs_emit t ~code:Hsfq_obs.Trace.ev_sleep ~a:th.tid ~b:th.leaf ~c:2 ~d:0
    | `Exit ->
      th.state <- Exited;
      obs_emit t ~code:Hsfq_obs.Trace.ev_kill ~a:th.tid ~b:th.leaf ~c:1 ~d:0;
      (leaf_sched t th.leaf).detach th.tid;
      release_mutex_links t th
  end

and do_wake t tid =
  let th = thread t tid in
  match th.state with
  | Blocked ->
    if th.suspended then th.wake_pending <- true
    else activate t th (Sim.now t.sim)
  | Created | Runnable | Running | Exited -> ()

let start t tid =
  let th = thread t tid in
  if th.state <> Created then invalid_arg "Kernel.start: thread already started";
  if th.suspended then begin
    (* Started while suspended: park it Blocked with the activation
       banked; [resume] delivers it. *)
    th.state <- Blocked;
    th.wake_pending <- true
  end
  else activate t th (Sim.now t.sim)

let detach_runnable t th =
  (* Remove a Runnable (not Running) thread from its leaf's ready set and
     propagate leaf sleep if it was the last one. *)
  let now = Sim.now t.sim in
  let lf = leaf_sched t th.leaf in
  lf.dequeue ~now th.tid;
  if lf.backlogged () = 0 && Hierarchy.is_runnable t.hier th.leaf then
    Hierarchy.sleep t.hier th.leaf

let kill t tid =
  let th = thread t tid in
  (match th.state with
  | Running -> invalid_arg "Kernel.kill: cannot kill the running thread"
  | Runnable -> detach_runnable t th
  | Blocked -> Sim.disarm t.sim th.wake
  | Created | Exited -> ());
  if th.state <> Exited then begin
    obs_emit t ~code:Hsfq_obs.Trace.ev_kill ~a:tid ~b:th.leaf ~c:0 ~d:0;
    (* Leave wait queues / hand off held mutexes while the leaf still
       knows the thread, so the donation revoke finds its record. *)
    release_mutex_links t th;
    (leaf_sched t th.leaf).detach tid;
    th.state <- Exited;
    th.suspended <- false;
    th.wake_pending <- false
  end

(* The only sanctioned [th.leaf <- _] site: every retarget must come
   through [move], which also migrates ready-set membership and
   donations (the source lint's [leaf-retarget] rule enforces this). *)
let retarget_leaf th ~to_leaf = th.leaf <- to_leaf

(* After a thread changes leaf, the donations aimed at it are stale:
   every waiter on a mutex it holds must re-donate iff it now shares the
   holder's (new) leaf. *)
let refresh_held_donations t th =
  Hashtbl.iter
    (fun _ mu ->
      match mu.holder with
      | Some h when h = th.tid ->
        Queue.iter
          (fun w ->
            let wth = thread t w in
            let lf = leaf_sched t wth.leaf in
            lf.revoke ~blocked:w;
            if wth.leaf = th.leaf then lf.donate ~blocked:w ~recipient:th.tid)
          mu.waiters
      | Some _ | None -> ())
    t.mutexes

let move t tid ~to_leaf =
  let th = thread t tid in
  ignore (leaf_sched t to_leaf);
  (match th.state with
  | Running -> invalid_arg "Kernel.move: cannot move the running thread"
  | Exited -> invalid_arg "Kernel.move: thread has exited"
  | Created | Runnable | Blocked -> ());
  if to_leaf <> th.leaf then begin
    obs_emit t ~code:Hsfq_obs.Trace.ev_move ~a:tid ~b:th.leaf ~c:to_leaf ~d:0;
    (match th.state with
    | Running | Exited -> assert false
    | Created | Blocked ->
      (* Detaching departs the old leaf's scheduler, which also revokes
         any outstanding donation there — before the retarget, so the
         revoke hits the scheduler actually holding the donated weight. *)
      (leaf_sched t th.leaf).detach tid;
      retarget_leaf th ~to_leaf;
      (match th.waiting_mutex with
      | Some m -> (
        (* Still waiting: re-donate in the new leaf iff it is now the
           holder's. *)
        match (mutex t m).holder with
        | Some h when (thread t h).leaf = to_leaf ->
          (leaf_sched t to_leaf).donate ~blocked:tid ~recipient:h
        | Some _ | None -> ())
      | None -> ())
    | Runnable ->
      detach_runnable t th;
      (leaf_sched t th.leaf).detach tid;
      retarget_leaf th ~to_leaf;
      let now = Sim.now t.sim in
      (leaf_sched t to_leaf).enqueue ~now tid;
      if not (Hierarchy.is_runnable t.hier to_leaf) then
        Hierarchy.setrun t.hier to_leaf);
    refresh_held_donations t th
  end

let suspend t tid =
  let th = thread t tid in
  if th.state <> Exited && not th.suspended then
    obs_emit t ~code:Hsfq_obs.Trace.ev_suspend ~a:tid ~b:th.leaf ~c:0 ~d:0;
  match th.state with
  | Exited -> invalid_arg "Kernel.suspend: thread has exited"
  | _ when th.suspended -> ()
  | Created -> th.suspended <- true
  | Blocked ->
    th.suspended <- true;
    (* A sleeper's timer is disarmed and the wake banked for [resume];
       mutex grants and I/O completions bank theirs on arrival. *)
    if Sim.armed t.sim th.wake then begin
      Sim.disarm t.sim th.wake;
      th.wake_pending <- true
    end
  | Runnable ->
    detach_runnable t th;
    th.state <- Blocked;
    th.suspended <- true;
    th.wake_pending <- true
  | Running ->
    let c = nth_cpu t th.running_on in
    let d = c.spare in
    assert (c.busy && d.d_tid = tid);
    th.suspended <- true;
    th.wake_pending <- true;
    let now = Sim.now t.sim in
    if not d.paused then pause_dispatch t c now;
    end_dispatch t c d now Block_external

let resume t tid =
  let th = thread t tid in
  if th.suspended then begin
    th.suspended <- false;
    obs_emit t ~code:Hsfq_obs.Trace.ev_resume ~a:tid ~b:th.leaf ~c:0 ~d:0;
    (* Deliver the banked wake, if any; a mutex or I/O waiter whose wake
       has not arrived stays Blocked until the grant/completion. *)
    if th.state = Blocked && th.wake_pending then begin
      th.wake_pending <- false;
      activate t th (Sim.now t.sim)
    end
  end

let is_suspended t tid = (thread t tid).suspended

(* Interrupts execute at the highest priority on their target CPU: they
   pause that CPU's running thread (whose quantum does not advance) and
   extend any interrupt processing already in progress there. Other CPUs
   keep dispatching. *)
let interrupts_done t c =
  let now = Sim.now t.sim in
  if now < c.interrupt_until then
    (* Extended while we were queued; re-arm. *)
    Sim.arm t.sim c.irq c.interrupt_until
  else begin
    obs_emit t ~code:Hsfq_obs.Trace.ev_irq_end ~a:c.cid ~b:0 ~c:0 ~d:0;
    if c.busy then begin
      let d = c.spare in
      assert d.paused;
      d.paused <- false;
      d.resume_at <- now;
      continue_slice t c (d.overhead_left + d.seg_left)
    end
    else dispatch_cpu t c
  end

(* [in_place]: called from a source's arrival whose next arrival is
   armed already ([Interrupt_source.pending]), so nothing is left to arm
   in that event and the interrupt's end may fire in place. Ad hoc
   interrupts always arm it: they run inside user code that may
   schedule more after they return. *)
let do_interrupt t c ~duration ~in_place =
  if duration <= 0 then ()
  else begin
    let now = Sim.now t.sim in
    c.interrupt_total <- c.interrupt_total + duration;
    obs_emit t ~code:Hsfq_obs.Trace.ev_irq_begin
      ~a:(if interrupt_active t c then 1 else 0)
      ~b:c.cid ~c:duration ~d:0;
    if interrupt_active t c then
      c.interrupt_until <- c.interrupt_until + duration
    else begin
      close_idle c now;
      if c.busy && not c.spare.paused then pause_dispatch t c now;
      let until = Time.add now duration in
      c.interrupt_until <- until;
      if in_place && Sim.fire_in_place t.sim until then interrupts_done t c
      else Sim.arm t.sim c.irq until
    end
  end

let rec earliest_arrival sources i at =
  if i = Array.length sources then at
  else
    earliest_arrival sources (i + 1)
      (Int.min at (Interrupt_source.next_arrival sources.(i)))

(* A source's arrival on [c]. Its next arrival is drawn already, so
   [next_irq] is current before anything can arm a completion; it is
   armed too when this interrupt ends first, and only then may the end
   fire in place. *)
let source_interrupt t c src ~duration =
  c.next_irq <- earliest_arrival c.sources 0 max_int;
  do_interrupt t c ~duration ~in_place:(Interrupt_source.pending src)

let make_cpu t cid =
  {
    cid;
    spare =
      {
        d_tid = -1;
        d_leaf = -1;
        d_quantum = 0;
        overhead_left = 0;
        seg_left = 0;
        used = 0;
        resume_at = Time.zero;
        paused = false;
      };
    busy = false;
    completion = Sim.timer t.sim (fun () -> complete_slice t t.cpu_set.(cid));
    irq = Sim.timer t.sim (fun () -> interrupts_done t t.cpu_set.(cid));
    interrupt_until = Time.zero;
    sources = [||];
    next_irq = max_int;
    (* Each CPU is idle until its first dispatch or interrupt. *)
    idle_since = Time.zero;
    idle_total = 0;
    interrupt_total = 0;
    overhead_total = 0;
    migrations = 0;
  }

let create ?(config = default_config) ?(cpus = 1) sim hier =
  if cpus < 1 then invalid_arg "Kernel.create: cpus < 1";
  (* Concurrent root->leaf decisions need one root claim per CPU; at
     [cpus = 1] the hierarchy keeps the paper's single-server protocol
     untouched. *)
  if cpus > 1 then Hierarchy.set_servers hier cpus;
  let t =
    {
      sim;
      hier;
      cfg = config;
      leaves = Hashtbl.create 8;
      threads = Hashtbl.create 32;
      leaf_cache = [||];
      leaf_depth = [||];
      thread_cache = [||];
      mutexes = Hashtbl.create 4;
      next_mutex = 1;
      devices = Hashtbl.create 4;
      next_device = 1;
      next_tid = 1;
      cpu_set = [||];
      wseries = Series.create ();
      trace = None;
      obs = None;
    }
  in
  t.cpu_set <- Array.init cpus (make_cpu t);
  (* Periodic housekeeping (SVR4 starvation boosts). *)
  Sim.repeat t.sim t.cfg.housekeeping_period (fun () ->
      Hashtbl.iter (fun _ (lf : Leaf_sched.t) -> lf.second_tick ()) t.leaves;
      t.cfg.housekeeping_period);
  t

let spawn t ~name ~leaf workload =
  ignore (leaf_sched t leaf);
  let tid = t.next_tid in
  t.next_tid <- t.next_tid + 1;
  let th =
    {
      tid;
      tname = name;
      leaf;
      workload;
      state = Created;
      work_left = 0;
      waiting_mutex = None;
      wake = Sim.timer t.sim (fun () -> do_wake t tid);
      sleep_at = Time.zero;
      suspended = false;
      wake_pending = false;
      last_wake = Time.zero;
      awaiting_dispatch = false;
      last_cpu = -1;
      running_on = -1;
      total_cpu = 0;
      dispatches = 0;
      cpu = Series.create ();
      latency = Stats.create ();
      lat_series = Series.create ();
    }
  in
  Hashtbl.replace t.threads tid th;
  t.thread_cache <- cache_set t.thread_cache ~fill:None tid (Some th);
  (match t.obs with
  | None -> ()
  | Some s -> Hsfq_obs.Trace.name_lane s ~lane:tid ~name);
  obs_emit t ~code:Hsfq_obs.Trace.ev_spawn ~a:tid ~b:leaf ~c:0 ~d:0;
  tid

let interrupt t ~duration = do_interrupt t t.cpu_set.(0) ~duration ~in_place:false

let interrupt_on t ~cpu ~duration =
  do_interrupt t (nth_cpu t cpu) ~duration ~in_place:false

let add_interrupt_source t ?(cpu = 0) spec =
  let c = nth_cpu t cpu in
  let src = Interrupt_source.start spec ~sim:t.sim ~fire:(source_interrupt t c) in
  match spec with
  | Interrupt_source.Periodic { cost = 0; _ } -> ()
  | Interrupt_source.Periodic _ | Interrupt_source.Poisson _ ->
    c.sources <- Array.append c.sources [| src |];
    c.next_irq <- earliest_arrival c.sources 0 max_int

let run_until t horizon = Sim.run_until t.sim horizon

let state t tid = (thread t tid).state
let thread_name t tid = (thread t tid).tname
let leaf_of t tid = (thread t tid).leaf
let cpu_time t tid = (thread t tid).total_cpu
let cpu_series t tid = (thread t tid).cpu
let dispatch_count t tid = (thread t tid).dispatches
let latency_stats t tid = (thread t tid).latency
let latency_series t tid = (thread t tid).lat_series

let cpu_idle_time t c =
  let c = nth_cpu t c in
  c.idle_total
  + if c.idle_since = not_idle then 0 else Time.diff (Sim.now t.sim) c.idle_since

let sum_cpus t f = Array.fold_left (fun acc c -> acc + f c) 0 t.cpu_set
let idle_time t = sum_cpus t (fun c -> 0 + cpu_idle_time t c.cid)
let interrupt_time t = sum_cpus t (fun c -> c.interrupt_total)
let overhead_time t = sum_cpus t (fun c -> c.overhead_total)
let migrations t = sum_cpus t (fun c -> c.migrations)
let cpu_migrations t c = (nth_cpu t c).migrations
let cpu_interrupt_time t c = (nth_cpu t c).interrupt_total
let cpu_overhead_time t c = (nth_cpu t c).overhead_total

let running_on t tid =
  let th = thread t tid in
  if th.running_on >= 0 then Some th.running_on else None

let running_tid t ~cpu =
  let c = nth_cpu t cpu in
  if c.busy then Some c.spare.d_tid else None

let last_cpu_of t tid =
  let th = thread t tid in
  if th.last_cpu >= 0 then Some th.last_cpu else None
let work_series t = t.wseries
let set_trace t tr = t.trace <- tr

let set_obs t sys =
  t.obs <- sys;
  match sys with
  | Some s when Array.length t.cpu_set > 1 ->
    (* One named lane per CPU so the Chrome exporter renders per-CPU
       tracks ([ev_cpu_run] slices). Single-CPU traces keep the legacy
       lane set byte-for-byte. *)
    Array.iter
      (fun c ->
        Hsfq_obs.Trace.name_lane s
          ~lane:(Hsfq_obs.Trace.cpu_lane c.cid)
          ~name:(Printf.sprintf "cpu%d" c.cid))
      t.cpu_set
  | Some _ | None -> ()

let tids t =
  List.sort Int.compare (Hashtbl.fold (fun tid _ acc -> tid :: acc) t.threads [])

let uninstall_leaf t leaf =
  let lf = leaf_sched t leaf in
  if lf.backlogged () > 0 then
    invalid_arg "Kernel.uninstall_leaf: leaf still has runnable threads";
  Hashtbl.iter
    (fun _ th ->
      if th.leaf = leaf && th.state <> Exited then
        invalid_arg "Kernel.uninstall_leaf: a live thread still belongs to the leaf")
    t.threads;
  Hashtbl.remove t.leaves leaf;
  t.leaf_cache.(leaf) <- None

let dump t =
  let module V = Hsfq_check.Kernel_audit in
  let conv = function
    | Created -> V.Created
    | Runnable -> V.Runnable
    | Running -> V.Running
    | Blocked -> V.Blocked
    | Exited -> V.Exited
  in
  let threads =
    List.map
      (fun tid ->
        let th = thread t tid in
        {
          V.tid;
          tname = th.tname;
          leaf = th.leaf;
          state = conv th.state;
          waiting_mutex = th.waiting_mutex;
          wake_armed = Sim.armed t.sim th.wake;
          suspended = th.suspended;
          wake_pending = th.wake_pending;
        })
      (tids t)
  in
  let mutexes =
    Hashtbl.fold
      (fun mid mu acc ->
        { V.mid; holder = mu.holder; waiters = List.of_seq (Queue.to_seq mu.waiters) }
        :: acc)
      t.mutexes []
    |> List.sort (fun (a : V.mutex_view) b -> Int.compare a.mid b.mid)
  in
  let leaves =
    Hashtbl.fold
      (fun node (lf : Leaf_sched.t) acc ->
        {
          V.node;
          label = Hierarchy.name_of t.hier node;
          sfq = lf.sfq_probe;
          backlogged = lf.backlogged ();
          leaf_runnable = Hierarchy.is_runnable t.hier node;
        }
        :: acc)
      t.leaves []
    |> List.sort (fun (a : V.leaf_view) b -> Int.compare a.node b.node)
  in
  let running =
    Array.to_list t.cpu_set
    |> List.filter_map (fun c ->
           if c.busy then Some (c.cid, c.spare.d_tid) else None)
  in
  let cpus =
    Array.to_list t.cpu_set
    |> List.map (fun c ->
           let d = c.spare in
           {
             V.cpu = c.cid;
             slice_end =
               (if c.busy && not d.paused then
                  Some (Time.saturating_add d.resume_at (d.overhead_left + d.seg_left))
                else None);
             completion_armed = Sim.armed t.sim c.completion;
             arrivals =
               Array.to_list c.sources
               |> List.filter Interrupt_source.pending
               |> List.map Interrupt_source.next_arrival;
           })
  in
  { V.threads; mutexes; leaves; running; cpus }

let render_summary t =
  let tbl =
    Table.create
      [ "thread"; "state"; "cpu"; "dispatches"; "mean latency"; "class" ]
  in
  let tids = Hashtbl.fold (fun tid _ acc -> tid :: acc) t.threads [] in
  List.iter
    (fun tid ->
      let th = thread t tid in
      Table.row tbl
        [
          th.tname;
          (match th.state with
          | Created -> "created"
          | Runnable -> "runnable"
          | Running -> "running"
          | Blocked -> "blocked"
          | Exited -> "exited");
          Time.to_string th.total_cpu;
          string_of_int th.dispatches;
          (if Stats.count th.latency = 0 then "-"
           else Time.to_string (int_of_float (Stats.mean th.latency)));
          Hierarchy.name_of t.hier th.leaf;
        ])
    (List.sort Int.compare tids);
  Table.render tbl
  ^ Printf.sprintf "idle %s | interrupts %s | overhead %s\n"
      (Time.to_string (idle_time t))
      (Time.to_string (interrupt_time t))
      (Time.to_string (overhead_time t))
  ^
  if Array.length t.cpu_set = 1 then ""
  else
    String.concat ""
      (List.map
         (fun c ->
           Printf.sprintf "cpu%d: idle %s | interrupts %s | migrations %d\n"
             c.cid
             (Time.to_string (cpu_idle_time t c.cid))
             (Time.to_string c.interrupt_total)
             c.migrations)
         (Array.to_list t.cpu_set))
