(* Compact deterministic text export of a trace — the golden-trace
   format (test/golden/*.trace) and the `hsfq_sim trace --text` output.

   Off the record path: free to allocate (whitelisted from the
   obs-alloc lint rule). *)

let lane_label t ~pid ~lane =
  let n = Trace.lane_count t in
  let found = ref "" in
  for i = 0 to n - 1 do
    if Trace.lane_pid t i = pid && Trace.lane_id t i = lane then
      found := Trace.lane_name t i
  done;
  !found

let dump t =
  let buf = Buffer.create 4096 in
  let r = Trace.ring t in
  Printf.bprintf buf "# hsfq-trace v1\n";
  Printf.bprintf buf "# capacity %d recorded %d total %d\n" (Ring.capacity r)
    (Ring.length r) (Ring.total r);
  for pid = 1 to Trace.sys_count t do
    Printf.bprintf buf "# sys %d %S\n" pid (Trace.sys_label t pid)
  done;
  for i = 0 to Trace.lane_count t - 1 do
    Printf.bprintf buf "# lane %d %d %S\n" (Trace.lane_pid t i)
      (Trace.lane_id t i) (Trace.lane_name t i)
  done;
  Printf.bprintf buf "# seq time_ns pid event a b c d x y\n";
  let base = Ring.total r - Ring.length r in
  for i = 0 to Ring.length r - 1 do
    Printf.bprintf buf "%d %d %d %s %d %d %d %d %d %d\n" (base + i)
      (Ring.time r i) (Ring.pid r i)
      (Trace.code_name (Ring.code r i))
      (Ring.a r i) (Ring.b r i) (Ring.c r i) (Ring.d r i) (Ring.x r i)
      (Ring.y r i)
  done;
  Buffer.contents buf

let metrics_report t =
  let buf = Buffer.create 1024 in
  for pid = 1 to Trace.sys_count t do
    let m = Trace.sys_metrics t pid in
    Printf.bprintf buf "== metrics: sys %d (%s) ==\n" pid
      (Trace.sys_label t pid);
    Printf.bprintf buf "%-6s %-16s %12s %8s %9s %12s %6s\n" "node" "name"
      "service-ms" "quanta" "preempts" "vt-lag" "waits";
    for node = 0 to Metrics.node_count m - 1 do
      if Metrics.active m ~node then begin
        let name = lane_label t ~pid ~lane:(Trace.node_lane node) in
        let waits =
          match Metrics.wait_histogram m ~node with
          | None -> 0
          | Some h -> Hsfq_engine.Histogram.count h
        in
        Printf.bprintf buf "%-6d %-16s %12.3f %8d %9d %12d %6d\n" node name
          (float_of_int (Metrics.service m ~node) /. 1e6)
          (Metrics.quanta m ~node)
          (Metrics.preemptions m ~node)
          (Metrics.vt_lag m ~node)
          waits
      end
    done
  done;
  Buffer.contents buf
