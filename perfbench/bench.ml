(* The repository benchmark.

     bench.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   Runs one workload in this single process for about [--seconds] of
   host time, checks the simulation's outputs, and prints one JSON object
   as the last line of standard output:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
   With [--trace 0] the metrics are the end-to-end ones; with
   [--trace 1] they are the per-layer ones (see METHOD.md). *)

module K = Hsfq_kernel.Kernel
module S = Scenario
module L = Layers
module M = Measure
module Inv = Hsfq_check.Invariant

(* ------------------------------------------------------------------ *)
(* Correctness gate                                                    *)

type gate = { mutable attempted : int; mutable failed : int }

let check g label ok =
  g.attempted <- g.attempted + 1;
  if not ok then begin
    g.failed <- g.failed + 1;
    Printf.eprintf "check FAILED: %s\n%!" label
  end

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* Simulation digest: exact counters that a speed-only change must     *)
(* leave bit-identical for a given workload and seed.                  *)

type digest = { events : int; dispatches : int; threads : int }

let mix h x = (h lxor x) * 0x100000001b3 land max_int

let digest_of (s : S.t) =
  let k = s.sys.k in
  let dispatches, threads =
    List.fold_left
      (fun (d, h) tid ->
        let n = K.dispatch_count k tid in
        (d + n, mix (mix h (K.cpu_time k tid)) n))
      (0, 0x4bf29ce484222325)
      (K.tids k)
  in
  { events = S.events s; dispatches; threads }

(* ------------------------------------------------------------------ *)
(* Scheduling-quality numbers (simulated time: exact per seed)         *)

let latency_p99_ms (s : S.t) =
  let xs =
    Array.concat
      (List.map
         (fun tid -> Hsfq_engine.Series.values (K.latency_series s.sys.k tid))
         s.latency_tids)
  in
  if Array.length xs = 0 then 0.
  else Hsfq_engine.Stats.percentile xs 99. /. 1e6

let share_window = function
  | S.Video_server -> Hsfq_engine.Time.seconds 1
  | S.Deep_tree | S.Timer_churn -> Hsfq_engine.Time.milliseconds 100

(* Mean over fixed windows of |CPU(a)/CPU(b) / target - 1|, in percent. *)
let share_error_pct (s : S.t) =
  let width = share_window s.kind in
  let group tids =
    List.fold_left
      (fun acc tid ->
        let b =
          Hsfq_engine.Series.bucket_sum (K.cpu_series s.sys.k tid) ~width
            ~until:s.quality_horizon
        in
        match acc with
        | None -> Some b
        | Some a -> Some (Array.mapi (fun i x -> x +. b.(i)) a))
      None tids
    |> Option.value ~default:[||]
  in
  let a = group s.group_a and b = group s.group_b in
  let sum = ref 0. and n = ref 0 in
  Array.iteri
    (fun i bi ->
      if bi > 0. then begin
        sum := !sum +. Float.abs ((a.(i) /. bi /. s.target_ratio) -. 1.);
        incr n
      end)
    b;
  if !n = 0 then 0. else 100. *. !sum /. float_of_int !n

(* ------------------------------------------------------------------ *)
(* End-of-run correctness checks on one simulated system               *)

let audit_clean (s : S.t) =
  let sink = Inv.create ~policy:Inv.Collect () in
  Hsfq_check.Kernel_audit.check (Hsfq_check.Kernel_audit.create sink)
    (K.dump s.sys.k);
  Inv.count sink = 0

(* CPU time is conserved exactly:
     sum cpu_time + idle + interrupt + overhead = elapsed x cpus.
   The kernel books interrupt and dispatch overhead when they start and
   thread CPU when a slice ends, so the identity holds only at a
   quiescent instant.  Drain the system (every workload blocks at its
   next action boundary), then step until a step in which the CPU sat
   idle throughout, and compare there, exactly. *)
let conserved (p : L.probe) (s : S.t) =
  let k = s.sys.k in
  let booked () =
    List.fold_left (fun acc tid -> acc + K.cpu_time k tid) 0 (K.tids k)
    + K.idle_time k + K.interrupt_time k + K.overhead_time k
  in
  p.draining <- true;
  let t =
    ref (Hsfq_engine.Time.add s.quality_horizon (Hsfq_engine.Time.seconds 2))
  in
  K.run_until k !t;
  let step = 7_013 in
  let rec go n idle =
    if n = 0 then false
    else begin
      t := !t + step;
      K.run_until k !t;
      let idle' = K.idle_time k in
      if idle' - idle = step then booked () = !t * K.cpus k else go (n - 1) idle'
    end
  in
  go 100_000 (K.idle_time k)

(* The correctness rep: an untimed run with the probe installed (for
   the hierarchy op counts of the digest and for the drain).  The digest
   is taken at the measured horizon, which the timed reps must
   reproduce; the run then goes on to the quality horizon for the
   simulated-time metrics and the audits. *)
type checked = {
  digest : digest;
  op_counts : int array;
  latency_p99_ms : float;
  share_error_pct : float;
}

let checked_rep g kind ~seed =
  let p = L.create_probe ~calib:0 ~record_ops:false in
  let s = S.build ~hooks:(L.hooks p) kind ~seed in
  S.run_measured s;
  let digest = digest_of s and op_counts = Array.copy p.counts in
  K.run_until s.sys.k s.quality_horizon;
  check g "kernel audit clean at the horizon" (audit_clean s);
  check g "events fired" (S.events s > 0);
  let c =
    {
      digest;
      op_counts;
      latency_p99_ms = latency_p99_ms s;
      share_error_pct = share_error_pct s;
    }
  in
  check g "CPU time conserved exactly" (conserved p s);
  c

let print_digest name seed c =
  let d = c.digest in
  Printf.printf
    "digest workload=%s seed=%d events=%d dispatches=%d hier_setrun=%d \
     hier_sleep=%d hier_schedule=%d hier_update=%d threads=%016x\n"
    name seed d.events d.dispatches c.op_counts.(L.op_setrun)
    c.op_counts.(L.op_sleep) c.op_counts.(L.op_schedule)
    c.op_counts.(L.op_update) d.threads

(* ------------------------------------------------------------------ *)
(* One untraced rep: set-up (build + warm-up) and the measured slice   *)

type rep = {
  setup_ns : int;
  wall_ns : int;
  ev : int;  (** events in the measured slice *)
  minor_words : float;
  minor_gcs : int;
  major_gcs : int;
  promoted : float;
  rep_digest : digest;
  ring_total : int;  (** tracepoints emitted in the measured slice *)
}

let timed_rep ?obs kind ~seed =
  Gc.full_major ();
  let t0 = M.now_ns () in
  let s =
    match obs with
    | None -> S.build kind ~seed
    | Some tr -> Hsfq_experiments.Common.with_obs tr (fun () -> S.build kind ~seed)
  in
  let t1 = M.now_ns () in
  let ring () =
    match obs with
    | None -> 0
    | Some tr -> Hsfq_obs.Ring.total (Hsfq_obs.Trace.ring tr)
  in
  let r0 = ring () in
  let e0 = S.events s in
  let g0 = Gc.quick_stat () in
  let t2 = M.now_ns () in
  S.run_measured s;
  let t3 = M.now_ns () in
  let g1 = Gc.quick_stat () in
  Printf.eprintf "rep setup_ms=%.3f wall_ms=%.3f events=%d\n%!"
    (float_of_int (t1 - t0) /. 1e6)
    (float_of_int (t3 - t2) /. 1e6)
    (S.events s - e0);
  {
    setup_ns = t1 - t0;
    wall_ns = t3 - t2;
    ev = S.events s - e0;
    minor_words = g1.minor_words -. g0.minor_words;
    minor_gcs = g1.minor_collections - g0.minor_collections;
    major_gcs = g1.major_collections - g0.major_collections;
    promoted = g1.promoted_words -. g0.promoted_words;
    rep_digest = digest_of s;
    ring_total = ring () - r0;
  }

let same_digest a b = a.events = b.events && a.dispatches = b.dispatches && a.threads = b.threads

(* ------------------------------------------------------------------ *)
(* Metric output                                                       *)

let end_to_end_units =
  [
    ("events_per_s", "1/s");
    ("wall_s", "s");
    ("setup_s", "s");
    ("minor_words_per_event", "words");
    ("peak_heap_mb", "MB");
    ("sched_latency_p99_ms", "ms");
    ("share_error_pct", "%");
  ]

let per_layer_units =
  [
    ("check_fail_ratio", "ratio");
    ("hierarchy.ops_per_event", "count");
    ("hierarchy.schedule_ns", "ns");
    ("hierarchy.update_ns", "ns");
    ("hierarchy.setrun_sleep_ns", "ns");
    ("hierarchy.share", "ratio");
    ("hierarchy.mean_depth", "levels");
    ("hierarchy.replay_mismatches", "count");
    ("leaf.calls_per_event", "count");
    ("leaf.select_ns", "ns");
    ("leaf.charge_ns", "ns");
    ("leaf.enqueue_dequeue_ns", "ns");
    ("leaf.share", "ratio");
    ("workload.calls_per_event", "count");
    ("workload.ns_per_call", "ns");
    ("workload.share", "ratio");
    ("kernel.dispatches", "count");
    ("kernel.events_per_dispatch", "count");
    ("kernel.self_ns_per_event", "ns");
    ("kernel.self_share", "ratio");
    ("event_queue.events", "count");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.promoted_words_per_event", "words");
    ("obs.disabled_overhead_pct", "%");
    ("obs.ring_events_per_event", "count");
    ("trace.overhead_pct", "%");
  ]
  @ List.map (fun id -> ("suite." ^ id ^ "_s", "s")) Suite.timed_ids
  @ [ ("suite.checks", "count") ]

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Every listed metric is printed; a layer a workload does not exercise
   reads 0. *)
let emit g units values =
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.value (List.assoc_opt name values) ~default:0. in
        let v = if Float.is_finite v then v else 0. in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
          unit)
      units
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (g.failed = 0) g.attempted g.failed
    (String.concat ", " metrics)

(* ------------------------------------------------------------------ *)
(* Simulated workloads                                                 *)

(* Host timings are in seconds of the nominal host (see [Reference]):
   the run's best rep against the run's fastest reference pass.  The
   peak heap is read after one untimed rep, before any reference pass
   has run. *)
let sim_end_to_end g kind ~seed ~seconds =
  ignore (timed_rep kind ~seed);
  let heap = M.peak_heap_mb () in
  let until = M.deadline ~seconds 0.85 in
  let reps, ref_ns =
    Reference.interleaved ~steps:Reference.nominal_steps
      ~reps_until:(M.reps_until ~until ~min:3 ~max:500)
      (fun () -> timed_rep kind ~seed)
  in
  let c = checked_rep g kind ~seed in
  List.iter
    (fun r -> check g "timed rep reproduces the checked simulation" (same_digest r.rep_digest c.digest))
    reps;
  print_digest (S.name_of kind) seed c;
  let nominal sel = Reference.nominal_secs (M.best (List.map (fun r -> M.secs (sel r)) reps)) ref_ns in
  let wall = nominal (fun r -> r.wall_ns) in
  [
    ("events_per_s", float_of_int (List.hd reps).ev /. wall);
    ("wall_s", wall);
    ("setup_s", nominal (fun r -> r.setup_ns));
    ( "minor_words_per_event",
      M.median (List.map (fun r -> r.minor_words /. float_of_int r.ev) reps) );
    ("peak_heap_mb", heap);
    ("sched_latency_p99_ms", c.latency_p99_ms);
    ("share_error_pct", c.share_error_pct);
  ]

(* One traced rep: probe installed, spans of the measured slice only,
   then the hierarchy op stream replayed into a fresh structure. *)
type traced = {
  t_wall_ns : int;
  t_ev : int;
  leaf_ns : int;
  leaf_calls : int;
  select_ns : float;
  charge_ns : float;
  enq_ns : float;
  wl_ns : int;
  wl_calls : int;
  dispatches : int;
  rp : L.replay;
}

let traced_rep ~calib kind ~seed =
  Gc.full_major ();
  let p = L.create_probe ~calib ~record_ops:true in
  let s = S.build ~hooks:(L.hooks p) kind ~seed in
  L.reset_spans p;
  let mark = L.op_count p.ops in
  let e0 = S.events s in
  let t0 = M.now_ns () in
  S.run_measured s;
  let t1 = M.now_ns () in
  let rp = L.replay ~calib ~mark s.shape p.ops in
  {
    t_wall_ns = t1 - t0;
    t_ev = S.events s - e0;
    leaf_ns = L.leaf_ns p;
    leaf_calls = L.leaf_calls p;
    select_ns = L.per_call p L.b_select;
    charge_ns = L.per_call p L.b_charge;
    enq_ns = L.per_call p L.b_enq;
    wl_ns = p.ns.(L.b_workload);
    wl_calls = p.calls.(L.b_workload);
    dispatches = p.calls.(L.b_select);
    rp;
  }

(* Reps come in triples (detached, tracer disabled, traced), so drift of
   the shared host hits all three alike; every overhead and share is a
   per-triple ratio against the detached rep, then the median is taken.
   Shares are of the untraced wall time: kernel self time is what the
   leaf, workload and hierarchy spans leave of it, and what the wrappers
   add on top is trace overhead. *)
let sim_per_layer g kind ~seed ~seconds =
  let calib = L.calibrate () in
  let until = M.deadline ~seconds 0.8 in
  let triples =
    M.reps_until ~until ~min:3 ~max:200 (fun () ->
        let d = timed_rep kind ~seed in
        let o = timed_rep ~obs:(Hsfq_obs.Trace.create ~enabled:false ()) kind ~seed in
        (d, o, traced_rep ~calib kind ~seed))
  in
  let enabled = timed_rep ~obs:(Hsfq_obs.Trace.create ~enabled:true ()) kind ~seed in
  let c = checked_rep g kind ~seed in
  print_digest (S.name_of kind) seed c;
  List.iter
    (fun (d, o, t) ->
      check g "detached rep reproduces the checked simulation"
        (same_digest d.rep_digest c.digest);
      check g "tracer-disabled rep reproduces the checked simulation"
        (same_digest o.rep_digest c.digest);
      check g "hierarchy replay picks the recorded leaf at every step"
        (t.rp.mismatches = 0);
      check g "traced rep fires the checked event count" (t.t_ev = d.ev))
    triples;
  check g "tracer-enabled rep reproduces the checked simulation"
    (same_digest enabled.rep_digest c.digest);
  let d0, _, _ = List.hd triples in
  let ev = float_of_int d0.ev in
  let med f = M.median (List.map f triples) in
  let best f = M.best (List.map (fun (_, _, t) -> f t) triples) in
  let of_wall ns = med (fun (d, _, t) -> float_of_int (ns t) /. float_of_int d.wall_ns) in
  let leaf = of_wall (fun t -> t.leaf_ns) in
  let wl = of_wall (fun t -> t.wl_ns) in
  let hier = of_wall (fun t -> L.replay_ns t.rp) in
  let self = 1. -. leaf -. wl -. hier in
  (* Self time is the residual, so the shares sum to the untraced wall
     by construction; what can fail is the residual going negative. *)
  check g "attributed layer time fits inside the untraced wall time" (self >= 0.);
  let per_call ns calls = best (fun t -> ratio (ns t) (calls t)) in
  let wall_ratio f = med (fun (d, o, t) -> f o t /. float_of_int d.wall_ns) in
  let _, _, t0 = List.hd triples in
  let dispatches = float_of_int t0.dispatches in
  [
    ("hierarchy.ops_per_event", float_of_int (L.replay_calls t0.rp) /. ev);
    ("hierarchy.schedule_ns", per_call (fun t -> t.rp.schedule_ns) (fun t -> t.rp.schedule_calls));
    ("hierarchy.update_ns", per_call (fun t -> t.rp.update_ns) (fun t -> t.rp.update_calls));
    ( "hierarchy.setrun_sleep_ns",
      per_call (fun t -> t.rp.setrun_sleep_ns) (fun t -> t.rp.setrun_sleep_calls) );
    ("hierarchy.share", hier);
    ("hierarchy.mean_depth", ratio t0.rp.depth_sum t0.rp.schedule_calls);
    ( "hierarchy.replay_mismatches",
      float_of_int (List.fold_left (fun a (_, _, t) -> a + t.rp.mismatches) 0 triples) );
    ("leaf.calls_per_event", float_of_int t0.leaf_calls /. ev);
    ("leaf.select_ns", best (fun t -> t.select_ns));
    ("leaf.charge_ns", best (fun t -> t.charge_ns));
    ("leaf.enqueue_dequeue_ns", best (fun t -> t.enq_ns));
    ("leaf.share", leaf);
    ("workload.calls_per_event", float_of_int t0.wl_calls /. ev);
    ("workload.ns_per_call", per_call (fun t -> t.wl_ns) (fun t -> t.wl_calls));
    ("workload.share", wl);
    ("kernel.dispatches", dispatches);
    ("kernel.events_per_dispatch", ev /. dispatches);
    ("kernel.self_ns_per_event", self *. med (fun (d, _, _) -> float_of_int d.wall_ns) /. ev);
    ("kernel.self_share", self);
    ("event_queue.events", ev);
    ("gc.minor_collections", med (fun (d, _, _) -> float_of_int d.minor_gcs));
    ("gc.major_collections", med (fun (d, _, _) -> float_of_int d.major_gcs));
    ("gc.promoted_words_per_event", med (fun (d, _, _) -> d.promoted /. ev));
    ("obs.disabled_overhead_pct", 100. *. (wall_ratio (fun o _ -> float_of_int o.wall_ns) -. 1.));
    ("obs.ring_events_per_event", float_of_int enabled.ring_total /. ev);
    ("trace.overhead_pct", 100. *. (wall_ratio (fun _ t -> float_of_int t.t_wall_ns) -. 1.));
  ]

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 25 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " video-server | deep-tree | timer-churn | paper-suite");
      ("--seed", Arg.Set_int seed, " seed of every workload PRNG (default 1)");
      ("--seconds", Arg.Set_int seconds, " host seconds to measure for (default 25)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload <name> [--seed n] [--seconds s] [--trace 0|1]";
  let g = { attempted = 0; failed = 0 } in
  let seconds = Int.max 1 !seconds in
  let values, units =
    match (S.of_name !workload, !trace) with
    | Some kind, 0 -> (sim_end_to_end g kind ~seed:!seed ~seconds, end_to_end_units)
    | Some kind, 1 -> (sim_per_layer g kind ~seed:!seed ~seconds, per_layer_units)
    | None, (0 | 1) when !workload = "paper-suite" ->
      (Suite.run ~check:(check g) ~seed:!seed ~seconds ~trace:(!trace = 1),
       if !trace = 1 then per_layer_units else end_to_end_units)
    | _ ->
      prerr_endline "bench: unknown --workload or --trace";
      exit 2
  in
  List.iter (fun (name, v) -> check g ("finite " ^ name) (Float.is_finite v)) values;
  let values =
    if !trace = 1 then ("check_fail_ratio", ratio g.failed g.attempted) :: values
    else values
  in
  emit g units values
