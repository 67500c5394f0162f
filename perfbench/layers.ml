(* Layer attribution from outside the library.

   [probe] wraps the leaf-scheduler closures and the workload closures a
   scenario hands to the kernel, times every call with the monotonic
   clock, and records the hierarchy operations the kernel performs
   around them (setrun, sleep, schedule, update) as an op stream.  The
   kernel calls [Hierarchy] directly, so its time cannot be wrapped;
   [replay] instead feeds the recorded stream into a fresh hierarchy of
   the same shape and times those calls. *)

module H = Hsfq_core.Hierarchy
module LS = Hsfq_kernel.Leaf_sched
module WI = Hsfq_kernel.Workload_intf

let now_ns = Measure.now_ns

(* Cost of one empty timed span: two back-to-back clock reads.  It is
   subtracted from every measured span. *)
let calibrate () =
  let n = 200_000 in
  let best = ref max_int in
  for _ = 1 to 5 do
    let acc = ref 0 in
    for _ = 1 to n do
      let t0 = now_ns () in
      acc := !acc + (now_ns () - t0)
    done;
    best := Int.min !best (!acc / n)
  done;
  !best

(* Growable op stream: two ints per op.  The first packs the op kind
   (low 2 bits), the leaf-runnable flag of an update (bit 2) and the
   leaf id (the rest); the second is the update's service in ns. *)
let op_setrun = 0
let op_sleep = 1
let op_schedule = 2
let op_update = 3

type ops = { mutable buf : int array; mutable len : int }

let push ops code svc =
  if ops.len + 2 > Array.length ops.buf then begin
    let nb = Array.make (2 * Array.length ops.buf) 0 in
    Array.blit ops.buf 0 nb 0 ops.len;
    ops.buf <- nb
  end;
  ops.buf.(ops.len) <- code;
  ops.buf.(ops.len + 1) <- svc;
  ops.len <- ops.len + 2

let op_count ops = ops.len / 2

(* Span buckets: host ns and call counts per kind of wrapped call. *)
let b_select = 0
let b_charge = 1
let b_enq = 2  (* enqueue and dequeue *)
let b_other = 3  (* backlogged, quantum, preempts, detach, second tick *)
let b_workload = 4

type probe = {
  calib : int;
  record_ops : bool;  (** keep the op stream (for a replay), or only count *)
  ops : ops;
  ns : int array;  (** by bucket *)
  calls : int array;
  mutable draining : bool;
      (** once set, every workload blocks at its next action boundary *)
  counts : int array;  (** hierarchy ops by kind *)
}

let create_probe ~calib ~record_ops =
  {
    calib;
    record_ops;
    ops = { buf = Array.make (if record_ops then 65536 else 0) 0; len = 0 };
    ns = Array.make 5 0;
    calls = Array.make 5 0;
    draining = false;
    counts = Array.make 4 0;
  }

let record p kind ~node ~runnable svc =
  p.counts.(kind) <- p.counts.(kind) + 1;
  if p.record_ops then
    push p.ops (kind lor (if runnable then 4 else 0) lor (node lsl 3)) svc

(* Close a span opened at [t0] into bucket [b]. *)
let close p b t0 =
  p.ns.(b) <- p.ns.(b) + Int.max 0 (now_ns () - t0 - p.calib);
  p.calls.(b) <- p.calls.(b) + 1

let leaf_ns p = p.ns.(b_select) + p.ns.(b_charge) + p.ns.(b_enq) + p.ns.(b_other)

let leaf_calls p =
  p.calls.(b_select) + p.calls.(b_charge) + p.calls.(b_enq) + p.calls.(b_other)

let per_call p b = if p.calls.(b) = 0 then 0. else float_of_int p.ns.(b) /. float_of_int p.calls.(b)

(* Wrap one leaf scheduler.  The hierarchy op the kernel performs next
   to each call is derived here: the kernel calls [Hierarchy.setrun]
   after an enqueue into a non-runnable leaf, [Hierarchy.sleep] after a
   dequeue empties a runnable leaf, [schedule_id] right before
   [select_id], and [update_ns] right after [charge]. *)
let wrap_leaf p ~hier ~node (lf : LS.t) : LS.t =
  {
    lf with
    enqueue =
      (fun ~now tid ->
        let was_runnable = H.is_runnable hier node in
        let t0 = now_ns () in
        lf.enqueue ~now tid;
        close p b_enq t0;
        if not was_runnable then record p op_setrun ~node ~runnable:false 0);
    dequeue =
      (fun ~now tid ->
        let t0 = now_ns () in
        lf.dequeue ~now tid;
        close p b_enq t0;
        if lf.backlogged () = 0 && H.is_runnable hier node then
          record p op_sleep ~node ~runnable:false 0);
    select_id =
      (fun ~now ->
        record p op_schedule ~node ~runnable:false 0;
        let t0 = now_ns () in
        let r = lf.select_id ~now in
        close p b_select t0;
        r);
    charge =
      (fun ~now tid ~service ~runnable ->
        let t0 = now_ns () in
        lf.charge ~now tid ~service ~runnable;
        close p b_charge t0;
        record p op_update ~node ~runnable:(lf.backlogged () > 0) service);
    quantum_ns_of =
      (fun tid ->
        let t0 = now_ns () in
        let q = lf.quantum_ns_of tid in
        close p b_other t0;
        q);
    preempts =
      (fun ~waker ~running ->
        let t0 = now_ns () in
        let r = lf.preempts ~waker ~running in
        close p b_other t0;
        r);
    backlogged =
      (fun () ->
        let t0 = now_ns () in
        let n = lf.backlogged () in
        close p b_other t0;
        n);
    detach =
      (fun tid ->
        let t0 = now_ns () in
        lf.detach tid;
        close p b_other t0);
    second_tick =
      (fun () ->
        let t0 = now_ns () in
        lf.second_tick ();
        close p b_other t0);
  }

(* A sleep long enough to outlast any horizon: a drained thread never
   wakes again. *)
let forever = Hsfq_engine.Time.seconds 1_000_000

let wrap_workload p (wl : WI.t) : WI.t =
 fun ~now ->
  if p.draining then WI.Sleep_for forever
  else begin
    let t0 = now_ns () in
    let a = wl ~now in
    close p b_workload t0;
    a
  end

let hooks p : Scenario.hooks =
  {
    leaf = (fun ~hier ~node lf -> wrap_leaf p ~hier ~node lf);
    workload = wrap_workload p;
  }

(* Forget the spans of the set-up phase: attribution covers the
   measured slice only.  Ops before [mark] are still replayed (they
   build the state) but not timed. *)
let reset_spans p =
  Array.fill p.ns 0 (Array.length p.ns) 0;
  Array.fill p.calls 0 (Array.length p.calls) 0

type replay = {
  schedule_ns : int;
  schedule_calls : int;
  update_ns : int;
  update_calls : int;
  setrun_sleep_ns : int;
  setrun_sleep_calls : int;
  mismatches : int;
  depth_sum : int;  (** depth of every scheduled leaf, summed *)
}

let fresh_hierarchy (shape : Scenario.node_spec list) =
  let h = H.create () in
  List.iter
    (fun (n : Scenario.node_spec) ->
      match H.mknod h ~name:n.name ~parent:n.parent ~weight:n.weight n.nkind with
      | Ok _ -> ()
      | Error e -> failwith ("replay mknod: " ^ e))
    shape;
  h

(* Replay the op stream into a fresh hierarchy, timing each call from
   [mark] on (earlier ops only rebuild the state the measured slice
   starts from).  A schedule that does not return the recorded leaf is a
   mismatch: the stream (or the replay) does not reproduce the kernel's
   decisions. *)
let replay ~calib ~mark shape ops =
  let h = fresh_hierarchy shape in
  let ns = Array.make 4 0 and calls = Array.make 4 0 in
  let mism = ref 0 and depth = ref 0 in
  (try
     for i = 0 to op_count ops - 1 do
       let code = ops.buf.(2 * i) in
       let node = code lsr 3 and kind = code land 3 in
       let t0 = now_ns () in
       if kind = op_schedule then begin
         let got = H.schedule_id h in
         if i >= mark then depth := !depth + H.depth h node;
         if got <> node then incr mism
       end
       else if kind = op_update then
         H.update_ns h ~leaf:node ~service_ns:ops.buf.((2 * i) + 1)
           ~leaf_runnable:(code land 4 <> 0)
       else if kind = op_setrun then H.setrun h node
       else H.sleep h node;
       if i >= mark then begin
         ns.(kind) <- ns.(kind) + Int.max 0 (now_ns () - t0 - calib);
         calls.(kind) <- calls.(kind) + 1
       end
     done
   with Invalid_argument _ | Failure _ -> incr mism);
  {
    schedule_ns = ns.(op_schedule);
    schedule_calls = calls.(op_schedule);
    update_ns = ns.(op_update);
    update_calls = calls.(op_update);
    setrun_sleep_ns = ns.(op_setrun) + ns.(op_sleep);
    setrun_sleep_calls = calls.(op_setrun) + calls.(op_sleep);
    mismatches = !mism;
    depth_sum = !depth;
  }

let replay_ns r = r.schedule_ns + r.update_ns + r.setrun_sleep_ns
let replay_calls r = r.schedule_calls + r.update_calls + r.setrun_sleep_calls
