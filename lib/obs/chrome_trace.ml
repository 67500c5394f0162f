(* Chrome trace_event JSON exporter (chrome://tracing, Perfetto).

   Format reference: the Trace Event Format doc — a JSON object with a
   "traceEvents" array of {name, cat, ph, ts, pid, tid, ...} records,
   ts/dur in *microseconds*.  We emit:

   - "M" metadata: process_name per registered system, thread_name per
     named lane;
   - "X" complete events: dispatch..quantum-end pairs matched per
     (pid, tid) become one slice on the thread's lane, irq-begin
     carries its duration directly;
   - "i" instant events (thread scope) for everything else, payload in
     "args".

   Off the record path: free to allocate (whitelisted from the
   obs-alloc lint rule). *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | ch when Char.code ch < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char buf ch)
    s;
  Buffer.contents buf

let us_of_ns ns = float_of_int ns /. 1e3

(* Which lane (Chrome tid) an event renders on. *)
let lane_of ~code ~a ~b =
  let module T = Trace in
  if code = T.ev_pick then T.node_lane a
  else if code = T.ev_tag_update then T.node_lane b
  else if
    code = T.ev_node_setrun || code = T.ev_node_sleep || code = T.ev_mknod
    || code = T.ev_rmnod
  then T.node_lane b
  else if code = T.ev_node_donate || code = T.ev_node_revoke then T.node_lane a
  else if
    code = T.ev_leaf_enqueue || code = T.ev_leaf_dequeue
    || code = T.ev_leaf_pick || code = T.ev_leaf_charge
  then T.node_lane a
  else if code = T.ev_irq_begin || code = T.ev_irq_end then T.irq_lane
  else if code = T.ev_cpu_run || code = T.ev_cpu_idle then T.cpu_lane a
  else a (* thread lifecycle events: a = tid; migrate renders on a's lane *)

let export t =
  let buf = Buffer.create 8192 in
  let first = ref true in
  let item s =
    if !first then first := false else Buffer.add_string buf ",\n";
    Buffer.add_string buf s
  in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  (* Metadata: process and thread names. *)
  for pid = 1 to Trace.sys_count t do
    item
      (Printf.sprintf
         "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
         pid
         (json_escape (Trace.sys_label t pid)));
    item
      (Printf.sprintf
         "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"interrupts\"}}"
         pid Trace.irq_lane)
  done;
  for i = 0 to Trace.lane_count t - 1 do
    item
      (Printf.sprintf
         "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
         (Trace.lane_pid t i) (Trace.lane_id t i)
         (json_escape (Trace.lane_name t i)))
  done;
  (* Events.  Open dispatches keyed by (pid, tid); open per-CPU slices
     (multiprocessor kernels pair cpu-run with cpu-idle) keyed by
     (pid, cpu). *)
  let open_dispatch : (int * int, int * int * int) Hashtbl.t =
    Hashtbl.create 64
  in
  let open_cpu : (int * int, int * int * int) Hashtbl.t = Hashtbl.create 8 in
  let r = Trace.ring t in
  for i = 0 to Ring.length r - 1 do
    let code = Ring.code r i in
    let time = Ring.time r i in
    let pid = Ring.pid r i in
    let a = Ring.a r i and b = Ring.b r i in
    let c = Ring.c r i and d = Ring.d r i in
    let x = Ring.x r i and y = Ring.y r i in
    let module T = Trace in
    if code = T.ev_dispatch then
      (* Slice opens here; closed by the matching quantum-end. *)
      Hashtbl.replace open_dispatch (pid, a) (time, b, c)
    else if code = T.ev_quantum_end then begin
      (match Hashtbl.find_opt open_dispatch (pid, a) with
      | Some (t0, leaf, quantum) ->
        Hashtbl.remove open_dispatch (pid, a);
        item
          (Printf.sprintf
             "{\"name\":\"run\",\"cat\":\"sched\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"leaf\":%d,\"quantum_ns\":%d,\"service_ns\":%d,\"disposition\":%d}}"
             (us_of_ns t0)
             (us_of_ns (time - t0))
             pid a leaf quantum c d)
      | None ->
        (* Opening dispatch was overwritten in the ring: degrade to an
           instant so the event is not lost. *)
        item
          (Printf.sprintf
             "{\"name\":\"quantum-end\",\"cat\":\"sched\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"leaf\":%d,\"service_ns\":%d,\"disposition\":%d}}"
             (us_of_ns time) pid a b c d))
    end
    else if code = T.ev_cpu_run then
      Hashtbl.replace open_cpu (pid, a) (time, b, c)
    else if code = T.ev_cpu_idle then begin
      match Hashtbl.find_opt open_cpu (pid, a) with
      | Some (t0, tid, leaf) ->
        Hashtbl.remove open_cpu (pid, a);
        item
          (Printf.sprintf
             "{\"name\":\"run\",\"cat\":\"cpu\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"thread\":%d,\"leaf\":%d,\"service_ns\":%d}}"
             (us_of_ns t0)
             (us_of_ns (time - t0))
             pid (T.cpu_lane a) tid leaf c)
      | None ->
        item
          (Printf.sprintf
             "{\"name\":\"cpu-idle\",\"cat\":\"cpu\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"thread\":%d,\"service_ns\":%d}}"
             (us_of_ns time) pid (T.cpu_lane a) b c)
    end
    else if code = T.ev_irq_begin then
      item
        (Printf.sprintf
           "{\"name\":\"irq\",\"cat\":\"irq\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"extended\":%d}}"
           (us_of_ns time) (us_of_ns c) pid T.irq_lane a)
    else
      item
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"sched\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"a\":%d,\"b\":%d,\"c\":%d,\"d\":%d,\"x\":%d,\"y\":%d}}"
           (T.code_name code) (us_of_ns time) pid
           (lane_of ~code ~a ~b)
           a b c d x y)
  done;
  (* Dispatches still open at the end of the trace become "B" begin
     events — Perfetto renders them as unfinished slices.  Sorted for
     output determinism. *)
  let leftovers =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) open_dispatch []
    |> List.sort (fun ((p1, t1), _) ((p2, t2), _) ->
           if p1 <> p2 then Int.compare p1 p2 else Int.compare t1 t2)
  in
  List.iter
    (fun ((pid, tid), (t0, leaf, quantum)) ->
      item
        (Printf.sprintf
           "{\"name\":\"run\",\"cat\":\"sched\",\"ph\":\"B\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"leaf\":%d,\"quantum_ns\":%d}}"
           (us_of_ns t0) pid tid leaf quantum))
    leftovers;
  let cpu_leftovers =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) open_cpu []
    |> List.sort (fun ((p1, c1), _) ((p2, c2), _) ->
           if p1 <> p2 then Int.compare p1 p2 else Int.compare c1 c2)
  in
  List.iter
    (fun ((pid, cid), (t0, tid, leaf)) ->
      item
        (Printf.sprintf
           "{\"name\":\"run\",\"cat\":\"cpu\",\"ph\":\"B\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"thread\":%d,\"leaf\":%d}}"
           (us_of_ns t0) pid (Trace.cpu_lane cid) tid leaf))
    cpu_leftovers;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf
