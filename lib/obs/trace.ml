(* Tracepoint hub: one ring shared by every instrumented subsystem.

   A [sys] is a registered subsystem handle — a (tracer, pid, metrics)
   triple.  Instrumented code holds a [sys option]; with [None] a
   tracepoint is a single match branch, with [Some _] and tracing
   disabled it is one call that tests [enabled] and returns.  Every
   payload is an immediate int, so the record path never allocates.

   This module is on the record path: no closures, no lists, no
   formatting (enforced by the obs-alloc lint rule).  Exporters live in
   Text_dump / Chrome_trace. *)

type t = {
  ring : Ring.t;
  (* A shared cell rather than a mutable field so hot emitters (Sfq)
     can cache it and gate a whole tracepoint — payload computation and
     the emit call included — on one in-module load (see [on_cell]). *)
  enabled : bool ref;
  mutable now : int; (* simulated ns, stamped on every event *)
  mutable nsys : int;
  mutable sys_labelv : string array;
  mutable sys_metricsv : Metrics.t array;
  mutable nlanes : int;
  mutable lane_pidv : int array;
  mutable lane_idv : int array;
  mutable lane_namev : string array;
}

type sys = { tr : t; pid : int; metrics : Metrics.t }

let create ?(capacity = 4096) ?(enabled = false) () =
  {
    ring = Ring.create ~capacity;
    enabled = ref enabled;
    now = 0;
    nsys = 0;
    sys_labelv = [||];
    sys_metricsv = [||];
    nlanes = 0;
    lane_pidv = [||];
    lane_idv = [||];
    lane_namev = [||];
  }

let set_enabled t on = t.enabled := on
let set_now t now = t.now <- now
let ring t = t.ring

(* Double [a] until it holds index [n] (cold path: registration only). *)
let grow a n fill =
  let old = Array.length a in
  if n < old then a
  else begin
    let cap = ref (if old < 4 then 4 else old) in
    while !cap <= n do
      cap := !cap * 2
    done;
    let b = Array.make !cap fill in
    Array.blit a 0 b 0 old;
    b
  end

let register_sys t ~label =
  let m = Metrics.create () in
  let i = t.nsys in
  t.sys_labelv <- grow t.sys_labelv i label;
  t.sys_metricsv <- grow t.sys_metricsv i m;
  t.sys_labelv.(i) <- label;
  t.sys_metricsv.(i) <- m;
  t.nsys <- i + 1;
  { tr = t; pid = i + 1; metrics = m }

let pid s = s.pid
let metrics s = s.metrics
let on s = !(s.tr.enabled)
let on_cell s = s.tr.enabled
let sys_set_now s now = s.tr.now <- now

let emitf s ~code ~a ~b ~c ~d ~x ~y =
  if !(s.tr.enabled) then
    Ring.emit s.tr.ring ~code ~time:s.tr.now ~pid:s.pid ~a ~b ~c ~d ~x ~y

let emit0 s ~code ~a ~b ~c ~d =
  if !(s.tr.enabled) then
    Ring.emit s.tr.ring ~code ~time:s.tr.now ~pid:s.pid ~a ~b ~c ~d ~x:0 ~y:0

(* Lane naming (cold): linear table of (pid, lane, name). *)
let name_lane s ~lane ~name =
  let t = s.tr in
  let found = ref (-1) in
  for i = 0 to t.nlanes - 1 do
    if t.lane_pidv.(i) = s.pid && t.lane_idv.(i) = lane then found := i
  done;
  if !found >= 0 then t.lane_namev.(!found) <- name
  else begin
    let i = t.nlanes in
    t.lane_pidv <- grow t.lane_pidv i 0;
    t.lane_idv <- grow t.lane_idv i 0;
    t.lane_namev <- grow t.lane_namev i name;
    t.lane_pidv.(i) <- s.pid;
    t.lane_idv.(i) <- lane;
    t.lane_namev.(i) <- name;
    t.nlanes <- i + 1
  end

(* Readback for exporters. *)
let sys_count t = t.nsys

let sys_label t p =
  if p < 1 || p > t.nsys then invalid_arg "Trace.sys_label: unknown pid";
  t.sys_labelv.(p - 1)

let sys_metrics t p =
  if p < 1 || p > t.nsys then invalid_arg "Trace.sys_metrics: unknown pid";
  t.sys_metricsv.(p - 1)

let lane_count t = t.nlanes

let lane_pid t i =
  if i < 0 || i >= t.nlanes then invalid_arg "Trace.lane_pid: out of range";
  t.lane_pidv.(i)

let lane_id t i =
  if i < 0 || i >= t.nlanes then invalid_arg "Trace.lane_id: out of range";
  t.lane_idv.(i)

let lane_name t i =
  if i < 0 || i >= t.nlanes then invalid_arg "Trace.lane_name: out of range";
  t.lane_namev.(i)

(* Lane-id namespaces: kernel thread events use the tid itself;
   scheduler-node events use node_lane(nid); interrupts get one fixed
   lane per subsystem. *)
let node_lane_base = 1_000_000
let node_lane nid = node_lane_base + nid
let irq_lane = 999_999
let cpu_lane_base = 2_000_000
let cpu_lane cid = cpu_lane_base + cid

(* Event codes.  Layer prefixes: scheduler decisions (sfq), kernel
   thread lifecycle, hierarchy node lifecycle, leaf-adapter ops. *)
let ev_pick = 1
let ev_tag_update = 2
let ev_dispatch = 3
let ev_quantum_end = 4
let ev_preempt = 5
let ev_spawn = 6
let ev_kill = 7
let ev_move = 8
let ev_sleep = 9
let ev_wake = 10
let ev_suspend = 11
let ev_resume = 12
let ev_irq_begin = 13
let ev_irq_end = 14
let ev_donate = 15
let ev_revoke = 16
let ev_node_setrun = 17
let ev_node_sleep = 18
let ev_mknod = 19
let ev_rmnod = 20
let ev_node_donate = 21
let ev_node_revoke = 22
let ev_leaf_enqueue = 23
let ev_leaf_dequeue = 24
let ev_leaf_pick = 25
let ev_leaf_charge = 26
let ev_migrate = 27
let ev_cpu_run = 28
let ev_cpu_idle = 29

let code_name c =
  match c with
  | 1 -> "pick"
  | 2 -> "tag-update"
  | 3 -> "dispatch"
  | 4 -> "quantum-end"
  | 5 -> "preempt"
  | 6 -> "spawn"
  | 7 -> "kill"
  | 8 -> "move"
  | 9 -> "sleep"
  | 10 -> "wake"
  | 11 -> "suspend"
  | 12 -> "resume"
  | 13 -> "irq-begin"
  | 14 -> "irq-end"
  | 15 -> "donate"
  | 16 -> "revoke"
  | 17 -> "node-setrun"
  | 18 -> "node-sleep"
  | 19 -> "mknod"
  | 20 -> "rmnod"
  | 21 -> "node-donate"
  | 22 -> "node-revoke"
  | 23 -> "leaf-enqueue"
  | 24 -> "leaf-dequeue"
  | 25 -> "leaf-pick"
  | 26 -> "leaf-charge"
  | 27 -> "migrate"
  | 28 -> "cpu-run"
  | 29 -> "cpu-idle"
  | _ -> "unknown"
