(* The full benchmark harness.

   Part 1 regenerates every table/figure of the paper's evaluation (plus
   the extension experiments) and verifies the shape checks — the rows
   printed here are the ones EXPERIMENTS.md records against the paper.

   Part 2 micro-benchmarks the scheduling primitives with Bechamel: the
   paper's §3 cost claim is that an SFQ scheduling decision is one
   addition + one division + an O(log Q) priority-queue operation, and
   that hierarchical dispatch adds only a per-level constant.  Each
   benchmark is measured against two instances — wall-clock nanoseconds
   and minor-heap words allocated — because the flat-array hot path
   claims *both* a small constant and steady-state allocation freedom.

   Part 3 times the parallel sweep (Par.sweep on the domain pool)
   against the serial run on multi-second fan-outs — two torture seed
   sweeps and the full experiment suite.  The verdicts of every run are
   compared on the spot: a speedup that changed the answer is a bug, not
   a result.  A configuration that does not beat serial is printed and
   left out of the JSON (the sweeps gate would fail on it); the full
   story lives in doc/PERFORMANCE.md.

   Parts 4-6 drive the full dispatch path (sim_speed), the churn scaling
   of the core structures (scale) and the CPU-set kernel (smp).

   Every part yields rows of Bench_rows' one schema, written to
   BENCH_sched.json (override with --json PATH) and gated by
   hsfq_bench_diff; the smokes check their toy-size rows against the
   same gate table.  The before/after history lives in
   doc/PERFORMANCE.md.

   Modes:
     (default)      figures + Bechamel micro-benchmarks + sweeps + JSON
     --smoke        figures + one hand-rolled iteration of every micro
                    benchmark (no Bechamel quota) and a 2-seed sweep
                    determinism check — the @bench-smoke dune alias runs
                    this so the harness cannot bit-rot
     --micro-only   skip Parts 1 and 3 (used when iterating on the hot
                    path, and by @bench-diff)
     --sim-speed-smoke / --scale-smoke / --smp-smoke
                    Parts 4 / 5 / 6 at toy size against the gate table *)

open Bechamel
open Toolkit
module E = Hsfq_experiments
module Core = Hsfq_core
module Sched = Hsfq_sched
module Engine = Hsfq_engine
module Par = Hsfq_par.Par
module T = Hsfq_torture.Torture
module Obs = Hsfq_obs
module Rows = Bench_rows

let banner title =
  print_endline "\n==================================================================";
  Printf.printf " %s\n" title;
  print_endline "=================================================================="

(* One part of the full run: its banner, its rows, their table. *)
let part title measure =
  banner title;
  let rows = measure () in
  Rows.print rows;
  rows

(* A smoke: toy-size rows against the same gate table the diff runs. *)
let gate_smoke label rows =
  Rows.print rows;
  match Rows.violations rows with
  | [] -> Printf.printf "%s smoke PASSED.\n" label
  | fs ->
    List.iter (fun f -> prerr_endline ("FAIL " ^ Rows.describe f)) fs;
    exit 1

let row section name counters samples = { Rows.section; name; counters; samples }

(* ------------------------------------------------------------------ *)
(* Part 1: figure regeneration                                         *)
(* ------------------------------------------------------------------ *)

let regenerate_figures () =
  banner "Part 1: regeneration of every figure in the paper's evaluation";
  let failures = ref [] in
  List.iter
    (fun (e : E.Registry.entry) ->
      Printf.printf "\n=== %s: %s ===\n" e.id e.title;
      Printf.printf "  paper: %s\n" e.paper_claim;
      let checks = e.execute ~quiet:false in
      E.Common.print_checks checks;
      if not (E.Common.all_ok checks) then failures := e.id :: !failures)
    E.Registry.all;
  (match !failures with
  | [] -> print_endline "\nAll experiment shape checks PASSED."
  | l ->
    Printf.printf "\nFAILING experiments: %s\n" (String.concat ", " (List.rev l)));
  !failures = []

(* ------------------------------------------------------------------ *)
(* Part 2: micro-benchmarks                                            *)
(* ------------------------------------------------------------------ *)

(* Each micro benchmark is a named closure over a preloaded scheduler, so
   the Bechamel run and the --smoke sanity pass exercise the same code. *)
type micro = { group : string; name : string; fn : unit -> unit }

(* One select+charge scheduling decision on a fair scheduler preloaded
   with [q] runnable clients. *)
let fair_decision_micro (module F : Sched.Scheduler_intf.FAIR) ~group ~q =
  let t = F.create ~rng:(Engine.Prng.create 5) () in
  for i = 0 to q - 1 do
    F.arrive t ~id:i ~weight:((1 + (i mod 4)) * Sched.Vtime.unit)
  done;
  {
    group;
    name = Printf.sprintf "%s/Q=%d" F.algorithm_name q;
    fn =
      (fun () ->
        let id = F.select_id t in
        if id < 0 then invalid_arg "bench: empty ready set";
        F.charge t ~id ~service:20_000_000 ~runnable:true);
  }

let sfq_decision_micro ~q =
  let t = Core.Sfq.create () in
  for i = 0 to q - 1 do
    Core.Sfq.arrive t ~id:i ~weight:((1 + (i mod 4)) * Sched.Vtime.unit)
  done;
  {
    group = "sfq-scaling";
    name = Printf.sprintf "sfq/Q=%d" q;
    fn =
      (fun () ->
        let id = Core.Sfq.select_id t in
        if id < 0 then invalid_arg "bench: empty ready set";
        Core.Sfq.charge t ~id ~service:20_000_000 ~runnable:true);
  }

(* A full hierarchical scheduling decision (schedule + update) through a
   chain of [depth] intermediate nodes with a fan-out of 4 leaves.
   [~audited] attaches the always-on invariant audit
   (Hsfq_check.Hierarchy_audit), so that row prices the audit's
   per-decision cost on the same structure. *)
let hierarchy_decision_micro ?(audited = false) ~depth () =
  let h = Core.Hierarchy.create () in
  if audited then
    Hsfq_check.Hierarchy_audit.attach
      (Hsfq_check.Invariant.create ~policy:Raise ())
      h;
  let parent = ref Core.Hierarchy.root in
  for i = 1 to depth do
    match
      Core.Hierarchy.mknod h ~name:(Printf.sprintf "mid%d" i) ~parent:!parent
        ~weight:1. Core.Hierarchy.Internal
    with
    | Ok id -> parent := id
    | Error e -> invalid_arg e
  done;
  let leaves =
    List.init 4 (fun i ->
        match
          Core.Hierarchy.mknod h ~name:(Printf.sprintf "leaf%d" i)
            ~parent:!parent ~weight:(float_of_int (i + 1)) Core.Hierarchy.Leaf
        with
        | Ok id -> id
        | Error e -> invalid_arg e)
  in
  List.iter (fun leaf -> Core.Hierarchy.setrun h leaf) leaves;
  {
    group = "hierarchy";
    name =
      Printf.sprintf "hierarchy%s/depth=%d"
        (if audited then "-audited" else "")
        depth;
    fn =
      (* The sentinel-id protocol the kernel dispatch loop actually uses
         (schedule_id/update_ns), so the figure reflects the hot path. *)
      (fun () ->
        let leaf = Core.Hierarchy.schedule_id h in
        if leaf < 0 then invalid_arg "bench: no runnable leaf";
        Core.Hierarchy.update_ns h ~leaf ~service_ns:20_000_000
          ~leaf_runnable:true);
  }

(* Tracepoint overhead: the hottest sfq/hierarchy decision micros with a
   tracer attached but disabled (the acceptance gate: within 5% of the
   bare hot path above) and attached + enabled (the cost of actually
   recording into the ring). *)
let obs_sfq_micro ~q ~enabled =
  let t = Core.Sfq.create () in
  let tr = Obs.Trace.create ~capacity:4096 ~enabled () in
  let s = Obs.Trace.register_sys tr ~label:"bench" in
  Core.Sfq.set_obs t (Some s) ~node:0;
  for i = 0 to q - 1 do
    Core.Sfq.arrive t ~id:i ~weight:((1 + (i mod 4)) * Sched.Vtime.unit)
  done;
  {
    group = "obs";
    name =
      Printf.sprintf "sfq-traced-%s/Q=%d" (if enabled then "on" else "off") q;
    fn =
      (fun () ->
        let id = Core.Sfq.select_id t in
        if id < 0 then invalid_arg "bench: empty ready set";
        Core.Sfq.charge t ~id ~service:20_000_000 ~runnable:true);
  }

let obs_hierarchy_micro ~depth ~enabled =
  let h = Core.Hierarchy.create () in
  let tr = Obs.Trace.create ~capacity:4096 ~enabled () in
  let s = Obs.Trace.register_sys tr ~label:"bench" in
  let parent = ref Core.Hierarchy.root in
  for i = 1 to depth do
    match
      Core.Hierarchy.mknod h ~name:(Printf.sprintf "mid%d" i) ~parent:!parent
        ~weight:1. Core.Hierarchy.Internal
    with
    | Ok id -> parent := id
    | Error e -> invalid_arg e
  done;
  let leaves =
    List.init 4 (fun i ->
        match
          Core.Hierarchy.mknod h ~name:(Printf.sprintf "leaf%d" i)
            ~parent:!parent ~weight:(float_of_int (i + 1)) Core.Hierarchy.Leaf
        with
        | Ok id -> id
        | Error e -> invalid_arg e)
  in
  Core.Hierarchy.attach_obs h (Some s);
  List.iter (fun leaf -> Core.Hierarchy.setrun h leaf) leaves;
  {
    group = "obs";
    name =
      Printf.sprintf "hierarchy-traced-%s/depth=%d"
        (if enabled then "on" else "off")
        depth;
    fn =
      (fun () ->
        let leaf = Core.Hierarchy.schedule_id h in
        if leaf < 0 then invalid_arg "bench: no runnable leaf";
        Core.Hierarchy.update_ns h ~leaf ~service_ns:20_000_000
          ~leaf_runnable:true);
  }

(* SVR4 TS select+charge on a preloaded run queue. *)
let svr4_decision_micro ~q =
  let t = Sched.Svr4.create () in
  for i = 0 to q - 1 do
    Sched.Svr4.add t ~id:i Sched.Svr4.Ts
  done;
  {
    group = "svr4";
    name = Printf.sprintf "svr4-ts/Q=%d" q;
    fn =
      (fun () ->
        let id = Sched.Svr4.select_id t in
        if id < 0 then invalid_arg "bench: empty run queue";
        Sched.Svr4.charge t ~id ~service:(Engine.Time.milliseconds 10)
          ~runnable:true);
  }

(* Runnable-propagation walk (hsfq_setrun + hsfq_sleep) through a deep
   chain — the cost the paper's Section 4 walk-up optimization bounds. *)
let setrun_sleep_micro ~depth =
  let h = Core.Hierarchy.create () in
  let parent = ref Core.Hierarchy.root in
  for i = 1 to depth do
    match
      Core.Hierarchy.mknod h ~name:(Printf.sprintf "m%d" i) ~parent:!parent
        ~weight:1. Core.Hierarchy.Internal
    with
    | Ok id -> parent := id
    | Error e -> invalid_arg e
  done;
  let leaf =
    match
      Core.Hierarchy.mknod h ~name:"leaf" ~parent:!parent ~weight:1.
        Core.Hierarchy.Leaf
    with
    | Ok id -> id
    | Error e -> invalid_arg e
  in
  {
    group = "propagation";
    name = Printf.sprintf "setrun+sleep/depth=%d" depth;
    fn =
      (fun () ->
        Core.Hierarchy.setrun h leaf;
        Core.Hierarchy.sleep h leaf);
  }

(* The priority-queue substrate every scheduler runs on: push n keys
   into a persistent [Keyed_heap] and pop them all back out, via the
   installed-validator entry points the schedulers use on their hot
   paths.  The heap's arrays are warm after the first iteration, so
   this measures the steady-state flat-array cost, not allocation. *)
let keyed_heap_micro ~n =
  let rng = Engine.Prng.create 3 in
  let keys = Array.init n (fun _ -> Engine.Prng.int rng 1_000_000_000) in
  let h = Sched.Keyed_heap.create () in
  Sched.Keyed_heap.set_validator h (fun ~id:_ ~gen:_ -> true);
  {
    group = "substrate";
    name = Printf.sprintf "keyed-heap/push+pop n=%d" n;
    fn =
      (fun () ->
        for i = 0 to n - 1 do
          Sched.Keyed_heap.push h ~key:keys.(i) ~gen:0 ~id:i
        done;
        while Sched.Keyed_heap.pop_valid h >= 0 do
          ()
        done);
  }

(* Event-queue churn: arm n timers, disarm half, drain — the simulation
   substrate every experiment runs on.  The queue and its timers persist
   across iterations so the steady state (warm arrays) is what gets
   measured, mirroring a long-running simulation.  The drain loop is
   top-level: a local one would allocate its closure per iteration. *)
let rec drain_queue q =
  if Engine.Event_queue.take_until q ~horizon:max_int >= 0 then drain_queue q

let event_queue_micro ~n =
  let q = Engine.Event_queue.create () in
  let timers = Array.init n (fun _ -> Engine.Event_queue.timer q ignore) in
  {
    group = "substrate";
    name = Printf.sprintf "event-queue/churn n=%d" n;
    fn =
      (fun () ->
        for i = 0 to n - 1 do
          let tm = timers.(i) in
          Engine.Event_queue.arm q tm ~at:((i * 7919) mod n);
          if i mod 2 = 0 then Engine.Event_queue.disarm q tm
        done;
        drain_queue q);
  }

(* Hold model: at a steady size, pop the minimum and push it straight
   back at its key plus a PRNG increment, one operation per call. This
   is the pop-then-push shape of SFQ's select -> charge cycle and of a
   timer re-armed as it fires, which the push+pop and churn micros
   (fill, then drain) never take. *)
let hold_increments () =
  let rng = Engine.Prng.create 5 in
  Array.init 1024 (fun _ -> 1 + Engine.Prng.int rng 1000)

let keyed_heap_hold_micro ~n =
  let incs = hold_increments () and i = ref 0 in
  let h = Sched.Keyed_heap.create () in
  Sched.Keyed_heap.set_validator h (fun ~id:_ ~gen:_ -> true);
  for id = 0 to n - 1 do
    Sched.Keyed_heap.push h ~key:incs.(id land 1023) ~gen:0 ~id
  done;
  {
    group = "substrate";
    name = Printf.sprintf "keyed-heap/hold n=%d" n;
    fn =
      (fun () ->
        let id = Sched.Keyed_heap.pop_valid h in
        incr i;
        Sched.Keyed_heap.push h
          ~key:(Sched.Keyed_heap.last_key h + incs.(!i land 1023))
          ~gen:0 ~id);
  }

let event_queue_hold_micro ~n =
  let incs = hold_increments () and i = ref 0 and fired = ref 0 in
  let q = Engine.Event_queue.create () in
  let timers = Array.init n (fun k -> Engine.Event_queue.timer q (fun () -> fired := k)) in
  Array.iteri (fun k tm -> Engine.Event_queue.arm q tm ~at:incs.(k)) timers;
  {
    group = "substrate";
    name = Printf.sprintf "event-queue/hold n=%d" n;
    fn =
      (fun () ->
        let at = Engine.Event_queue.take_until q ~horizon:max_int in
        (Engine.Event_queue.taken q) ();
        incr i;
        Engine.Event_queue.arm q timers.(!fired) ~at:(at + incs.(!i land 1023)));
  }

let all_micros () =
  let qs = [ 2; 8; 32; 128; 512 ] in
  List.concat
    [
      List.map (fun q -> sfq_decision_micro ~q) qs;
      List.map
        (fun m -> fair_decision_micro m ~group:"baselines-Q8" ~q:8)
        [
          (module Sched.Wfq : Sched.Scheduler_intf.FAIR);
          (module Sched.Scfq);
          (module Sched.Fqs);
          (module Sched.Stride);
          (module Sched.Eevdf);
          (module Sched.Lottery);
          (module Sched.Round_robin);
        ];
      List.map (fun d -> hierarchy_decision_micro ~depth:d ()) [ 1; 4; 16; 32 ];
      [ hierarchy_decision_micro ~audited:true ~depth:4 () ];
      [
        obs_sfq_micro ~q:512 ~enabled:false;
        obs_sfq_micro ~q:512 ~enabled:true;
        obs_hierarchy_micro ~depth:16 ~enabled:false;
        obs_hierarchy_micro ~depth:16 ~enabled:true;
      ];
      [ svr4_decision_micro ~q:8 ];
      List.map (fun d -> setrun_sleep_micro ~depth:d) [ 1; 16 ];
      [
        keyed_heap_micro ~n:256;
        keyed_heap_hold_micro ~n:256;
        event_queue_micro ~n:256;
        event_queue_hold_micro ~n:16;
      ];
    ]

(* ------------------------------------------------------------------ *)
(* Part 3: serial vs domain-pool wall-clock on the big fan-outs.        *)
(* ------------------------------------------------------------------ *)

(* Per-worker nursery size for the parallel runs (words): the measured
   sweet spot for allocation-heavy torture sweeps on this box — fewer
   minor collections buys more than the extra cache footprint costs.
   This is the knob --minor-heap exposes on the CLI; the serial baseline
   deliberately runs at the runtime default, because "parallel sweep as
   you'd actually invoke it vs serial as you'd actually invoke it" is
   the comparison the sweeps gate defends. *)
let sweep_minor_heap = 4_000_000

(* The historical parallel inversion was stop-the-world minor GC, so the
   sweeps section records GC pressure next to the timings.  The count
   rides back with each task result: a worker domain's collections are
   only partially visible to the caller's [Gc] counters (shared global
   counters), while [counted f] works identically in the calling domain
   and a pool domain. *)
let counted f x =
  let c0 = (Gc.quick_stat ()).Gc.minor_collections in
  let r = f x in
  (r, (Gc.quick_stat ()).Gc.minor_collections - c0)

let measure ?minor_heap ~jobs ~tasks f =
  let t0 = Unix.gettimeofday () in
  let out = Par.sweep ?minor_heap ~jobs ~tasks (counted f) in
  let dt = Unix.gettimeofday () -. t0 in
  let gcs = Array.fold_left (fun acc (_, c) -> acc + c) 0 out in
  (Array.map fst out, dt, gcs)

(* Measure [f] over [tasks] once serially (runtime-default nursery, no
   pool) and once on the domain pool at [jobs] workers with
   [sweep_minor_heap]-word nurseries, comparing results with [equal].
   Two rows, "NAME/serial" and "NAME/parallel", one wall-clock sample
   each. *)
let measure_sweep ~name ~jobs ~tasks ~equal f =
  let serial, serial_s, serial_gcs = measure ~jobs:1 ~tasks f in
  let par, parallel_s, parallel_gcs =
    measure ~minor_heap:sweep_minor_heap ~jobs ~tasks f
  in
  if not (equal serial par) then
    failwith (Printf.sprintf "bench: %s verdicts differ on the domain pool" name);
  let run leaf jobs s gcs =
    row "sweeps" (name ^ "/" ^ leaf)
      [ ("jobs", float_of_int jobs); ("minor_collections", float_of_int gcs) ]
      [ s ]
  in
  [ run "serial" 1 serial_s serial_gcs; run "parallel" jobs parallel_s parallel_gcs ]

(* Torture seed sweep: [seeds] independent lifecycle-stress runs.  Many
   short seeds rather than a few long ones: fan-out wins come from
   volume, and 10k+ seeds is the coverage ROADMAP asks the torture rig
   to sustain. *)
let torture_sweep ~jobs ~seeds ~ops =
  let seed_arr = Array.init seeds (fun i -> i + 1) in
  let cfg = T.config ~ops ~audit_period:1 1 in
  let equal a b =
    Array.for_all2
      (fun x y ->
        String.equal (T.outcome_summary x) (T.outcome_summary y)
        && Bool.equal (T.failed x) (T.failed y))
      a b
  in
  measure_sweep
    ~name:(Printf.sprintf "torture/seeds=%d ops=%d" seeds ops)
    ~jobs ~tasks:seed_arr ~equal
    (fun seed -> T.run { cfg with T.seed })

(* Full experiment suite: every figure computed once. *)
let experiments_sweep ~jobs =
  let tasks = Array.of_list E.Registry.all in
  measure_sweep ~name:"experiments/all" ~jobs ~tasks
    ~equal:(Array.for_all2 Bool.equal)
    (fun (e : E.Registry.entry) -> E.Common.all_ok (e.compute ()).checks)

let run_sweeps () =
  part "Part 3: parallel sweeps, serial vs the domain pool" @@ fun () ->
  (* At least two workers, even on a single-core box: a 1-vs-1 "sweep"
     would measure nothing.  On one core the pool is expected to lose
     (oversubscription + stop-the-world rendezvous); the JSON keeps only
     configurations that actually beat serial. *)
  let jobs = Int.max 2 (Par.default_jobs ()) in
  (* Two torture shapes: breadth (10k+ short seeds, the scale ROADMAP
     asks the rig to sustain) and depth (few long seeds, where
     per-worker nursery sizing pays). *)
  let rows =
    List.concat
      [
        torture_sweep ~jobs ~seeds:10_240 ~ops:120;
        torture_sweep ~jobs ~seeds:16 ~ops:20_000;
        experiments_sweep ~jobs;
      ]
  in
  let losers =
    List.concat_map (fun (f : Rows.failure) -> f.names) (Rows.violations rows)
  in
  List.iter
    (Printf.printf "note: dropping sweep row %S (parallel did not beat serial)\n")
    losers;
  List.filter
    (fun (r : Rows.row) -> not (List.exists (String.equal r.name) losers))
    rows

(* ------------------------------------------------------------------ *)
(* Part 4: end-to-end sim-speed — the full dispatch path (Kernel       *)
(* quantum loop -> Hierarchy -> Sfq -> Event_queue).  Its counters     *)
(* only: perfbench/ makes the end-to-end timing claim.                 *)
(* ------------------------------------------------------------------ *)

module K = Hsfq_kernel.Kernel
module LS = Hsfq_kernel.Leaf_sched
module IS = Hsfq_kernel.Interrupt_source
module W = Hsfq_workload

let interactive_thread (sys : E.Common.sys) ~leaf ~sfq ~name ~mean_think ~burst
    ~seed =
  let wl, _ = W.Interactive.make ~mean_think ~burst ~seed () in
  let tid = K.spawn sys.k ~name ~leaf wl in
  LS.Sfq_leaf.add sfq ~tid ~weight:1.;
  K.start sys.k tid

(* Each call advances the simulation by one [slice_ms] slice and returns
   the cumulative event count, so the harness can warm up on the first
   slice (arrays grown, free lists filled) and time the rest. *)
let slice_runner (sys : E.Common.sys) ~slice_ms =
  let horizon = ref Engine.Time.zero in
  fun () ->
    horizon := Engine.Time.add !horizon (Engine.Time.milliseconds slice_ms);
    K.run_until sys.k !horizon;
    Engine.Sim.steps sys.sim

(* fig1/fig4-style: MPEG decoders plus interactive foreground, two SFQ
   leaves — the paper's video-server mix. *)
let ss_mpeg ~slice_ms () =
  let sys : E.Common.sys = E.Common.make_sys ~audit:false () in
  let leaf, sfq =
    E.Common.sfq_leaf sys ~parent:Core.Hierarchy.root ~name:"video" ~weight:3.
      ()
  in
  for i = 0 to 3 do
    ignore
      (E.Common.mpeg_thread sys ~leaf ~sfq ~name:(Printf.sprintf "mpeg%d" i)
         ~weight:1. ())
  done;
  let ileaf, isfq =
    E.Common.sfq_leaf sys ~parent:Core.Hierarchy.root ~name:"interactive"
      ~weight:1. ()
  in
  for i = 0 to 1 do
    interactive_thread sys ~leaf:ileaf ~sfq:isfq ~name:(Printf.sprintf "x%d" i)
      ~mean_think:(Engine.Time.milliseconds 20) ~burst:(Engine.Time.milliseconds 1)
      ~seed:(7 + i)
  done;
  slice_runner sys ~slice_ms

(* fig5-style: Dhrystone threads under SVR4 time-sharing with daemons
   and interrupt load — the "unmodified kernel" workload. *)
let ss_ts ~slice_ms () =
  let sys : E.Common.sys = E.Common.make_sys ~audit:false () in
  let leaf, svr4 =
    E.Common.svr4_leaf sys ~parent:Core.Hierarchy.root ~name:"ts" ~weight:1. ()
  in
  for i = 0 to 4 do
    ignore
      (E.Common.dhrystone_ts_thread sys ~leaf ~svr4
         ~name:(Printf.sprintf "dhry%d" i)
         ~loop_cost:(Engine.Time.microseconds 500))
  done;
  ignore
    (E.Common.background_daemons sys ~leaf ~svr4 ~n:3
       ~mean_think:(Engine.Time.milliseconds 300)
       ~burst:(Engine.Time.milliseconds 20) ~seed:31);
  K.add_interrupt_source sys.k
    (IS.Periodic
       { period = Engine.Time.milliseconds 10; cost = Engine.Time.microseconds 100 });
  K.add_interrupt_source sys.k
    (IS.Poisson
       { rate_hz = 200.; mean_cost = Engine.Time.microseconds 150; seed = 99 });
  slice_runner sys ~slice_ms

(* torture-style timer churn: many short-burst interactive threads plus
   a 1 kHz interrupt — wake timers, quantum timers and cancellations
   dominate, which is exactly the event-queue churn path. *)
let ss_churn ~slice_ms () =
  let sys : E.Common.sys = E.Common.make_sys ~audit:false () in
  let leaf, sfq =
    E.Common.sfq_leaf sys ~parent:Core.Hierarchy.root ~name:"churn" ~weight:1.
      ()
  in
  for i = 0 to 31 do
    interactive_thread sys ~leaf ~sfq ~name:(Printf.sprintf "i%d" i)
      ~mean_think:(Engine.Time.milliseconds 2)
      ~burst:(Engine.Time.microseconds 300) ~seed:(100 + i)
  done;
  K.add_interrupt_source sys.k
    (IS.Periodic
       { period = Engine.Time.milliseconds 1; cost = Engine.Time.microseconds 20 });
  slice_runner sys ~slice_ms

(* Per-scenario slice sizes chosen so each of ten measured slices runs
   ~10^5 events; the [scale] divisor shrinks them for the smoke pass. *)
let sim_speed_scenarios ~scale =
  let ms base = Int.max 1 (base / scale) in
  [
    ("mpeg+interactive", ss_mpeg ~slice_ms:(ms 60_000));
    ("svr4-ts+irq", ss_ts ~slice_ms:(ms 12_000));
    ("timer-churn", ss_churn ~slice_ms:(ms 3_000));
  ]

let minor_collections () = (Gc.quick_stat ()).Gc.minor_collections

(* The measured-slice helper behind the sim_speed and smp rows.  [run]
   advances the simulation one slice and returns the cumulative event
   count.  The first slice warms the system (arrays grown, free lists
   filled, workload state reached) and is excluded; each of the
   [slices] further slices gives one ns/event sample.  Event counts are
   deterministic (seeded workloads); minor words are read around each
   slice only, so the timer's own boxed floats never count. *)
let measure_slices ~slices run =
  let e0 = run () in
  let samples = Array.make slices 0. and words = Array.make 1 0. in
  let e = ref e0 in
  Gc.full_major ();
  let c0 = minor_collections () in
  for i = 0 to slices - 1 do
    let t0 = Unix.gettimeofday () in
    let w0 = Gc.minor_words () in
    let e1 = run () in
    words.(0) <- words.(0) +. (Gc.minor_words () -. w0);
    samples.(i) <- (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int (e1 - !e);
    e := e1
  done;
  let events = float_of_int (!e - e0) in
  ( [
      ("events", events);
      ("minor_words_per_event", words.(0) /. events);
      ("minor_collections", float_of_int (minor_collections () - c0));
    ],
    Array.to_list samples )

let sim_speed_rows ~scale ~slices () =
  List.map
    (fun (name, setup) ->
      row "sim_speed" name (fst (measure_slices ~slices (setup ()))) [])
    (sim_speed_scenarios ~scale)

(* ------------------------------------------------------------------ *)
(* Part 5: scale — churn scaling of the core scheduling structures at  *)
(* Q = 10^4 / 10^5 / 10^6 live clients.                                *)
(* ------------------------------------------------------------------ *)

(* Each row drives one structure through a churn mix, then times
   select+charge decisions at the resulting population and records the
   deterministic footprint (array lengths + bucket counts, never GC
   sampling — so the numbers are bit-stable across machines and the
   diff tool can hard-gate them):

     steady     build Q, then a full turnover (Q x depart+re-arrive at
                constant population) — the free-list recycling path;
     arrival    build Q from empty — the growth path;
     departure  build Q, then depart down to Q/8 — the shrink path;
                occupancy-triggered compaction must fire (live falls
                below cap/4) and provably release the columns, the id
                map, and the ready heap.

   Bench_rows' gate table states what the rows must show: steady
   ns/decision across consecutive decades grows no faster than a
   generous log2 bound, every mix's peak footprint stays within 2x of
   the steady-state footprint at the same Q, and the departure row's
   end footprint comes in well below steady (the reclaim proof).
   Timings are hand-rolled rather than Bechamel: one Gc.full_major and
   a few measured chunks keep a Q=10^6 row affordable. *)

let scale_decisions = 100_000

(* [n] decisions in five timed chunks: five ns/decision samples, and
   minor words per decision read around the chunks only. *)
let time_decisions ~n fn =
  let chunks = 5 in
  let samples = Array.make chunks 0. and words = Array.make 1 0. in
  Gc.full_major ();
  for c = 0 to chunks - 1 do
    let t0 = Unix.gettimeofday () in
    let w0 = Gc.minor_words () in
    for _ = 1 to n / chunks do
      fn ()
    done;
    words.(0) <- words.(0) +. (Gc.minor_words () -. w0);
    samples.(c) <- (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int (n / chunks)
  done;
  (Array.to_list samples, words.(0) /. float_of_int n)

(* [peak]: the max footprint observed at phase boundaries; [end_words]:
   the footprint after the churn and decision phases. *)
let scale_row name ~live ~peak ~end_words (samples, words) =
  row "scale" name
    [
      ("live", float_of_int live);
      ("minor_words_per_decision", words);
      ("peak_footprint_words", float_of_int peak);
      ("end_footprint_words", float_of_int end_words);
    ]
    samples

let sfq_scale_row ~q ~decisions mix =
  let t = Core.Sfq.create () in
  let arrive i =
    Core.Sfq.arrive t ~id:i ~weight:((1 + (i mod 4)) * Sched.Vtime.unit)
  in
  let peak = ref 0 in
  let sample () = peak := Int.max !peak (Core.Sfq.footprint_words t) in
  let mix_name, live =
    match mix with
    | `Steady ->
      for i = 0 to q - 1 do
        arrive i
      done;
      sample ();
      for i = 0 to q - 1 do
        Core.Sfq.depart t ~id:i;
        arrive i
      done;
      sample ();
      ("steady", q)
    | `Arrival ->
      let stride = Int.max 1 (q / 8) in
      for i = 0 to q - 1 do
        arrive i;
        if (i + 1) mod stride = 0 then sample ()
      done;
      ("arrival", q)
    | `Departure ->
      for i = 0 to q - 1 do
        arrive i
      done;
      sample ();
      let keep = Int.max 64 (q / 8) in
      for i = 0 to q - keep - 1 do
        Core.Sfq.depart t ~id:i
      done;
      sample ();
      ("departure", keep)
  in
  let timed =
    time_decisions ~n:decisions (fun () ->
        let id = Core.Sfq.select_id t in
        if id < 0 then invalid_arg "scale: empty ready set";
        Core.Sfq.charge t ~id ~service:20_000_000 ~runnable:true)
  in
  let end_words = Core.Sfq.footprint_words t in
  sample ();
  scale_row (Printf.sprintf "sfq-%s/Q=%d" mix_name q) ~live ~peak:!peak ~end_words timed

(* Hierarchy churn at N total nodes: a two-level tree (N/1024 groups,
   leaves spread round-robin), retire-and-recreate 7/8 of the leaves —
   each group's child SFQ and by_name table, the node array and the id
   pool all shrink and regrow — then time full schedule+update
   decisions through the rebuilt tree. *)
let hierarchy_scale_row ~n ~decisions =
  let h = Core.Hierarchy.create () in
  let ngroups = Int.max 4 (n / 1024) in
  let mknod ~name ~parent kind =
    match Core.Hierarchy.mknod h ~name ~parent ~weight:1. kind with
    | Ok id -> id
    | Error e -> invalid_arg e
  in
  let groups =
    Array.init ngroups (fun g ->
        mknod ~name:(Printf.sprintf "g%d" g) ~parent:Core.Hierarchy.root
          Core.Hierarchy.Internal)
  in
  let nleaves = n - ngroups in
  Array.iter
    (fun g -> Core.Hierarchy.reserve_children h g ((nleaves / ngroups) + 1))
    groups;
  let leaves =
    Array.init nleaves (fun i ->
        mknod ~name:(Printf.sprintf "l%d" i)
          ~parent:groups.(i mod ngroups)
          Core.Hierarchy.Leaf)
  in
  (* A fixed small runnable set: the decision cost under test is the
     walk through giant internal nodes, not the size of the ready set. *)
  for i = 0 to Int.min 63 (nleaves - 1) do
    Core.Hierarchy.setrun h leaves.(i)
  done;
  let peak = ref 0 in
  let sample () = peak := Int.max !peak (Core.Hierarchy.footprint_words h) in
  sample ();
  let first_gone = Int.max 64 (nleaves / 8) in
  for i = first_gone to nleaves - 1 do
    match Core.Hierarchy.rmnod h leaves.(i) with
    | Ok () -> ()
    | Error e -> invalid_arg e
  done;
  sample ();
  for i = first_gone to nleaves - 1 do
    ignore
      (mknod ~name:(Printf.sprintf "r%d" i)
         ~parent:groups.(i mod ngroups)
         Core.Hierarchy.Leaf)
  done;
  sample ();
  let timed =
    time_decisions ~n:decisions (fun () ->
        let leaf = Core.Hierarchy.schedule_id h in
        if leaf < 0 then invalid_arg "scale: no runnable leaf";
        Core.Hierarchy.update_ns h ~leaf ~service_ns:20_000_000
          ~leaf_runnable:true)
  in
  let end_words = Core.Hierarchy.footprint_words h in
  sample ();
  scale_row (Printf.sprintf "hierarchy-churn/N=%d" n) ~live:n ~peak:!peak ~end_words timed

let scale_rows ~qs ~hierarchy_ns ~decisions () =
  List.concat
    [
      List.concat_map
        (fun q ->
          List.map
            (fun mix -> sfq_scale_row ~q ~decisions mix)
            [ `Steady; `Arrival; `Departure ])
        qs;
      List.map (fun n -> hierarchy_scale_row ~n ~decisions) hierarchy_ns;
    ]

(* Inter-group move churn at scale: a prepopulated 100k-leaf hierarchy
   (leaves spread across all groups), a few dozen running threads, then
   a pure [hsfq_move] storm retargeting them across thousands of
   distinct leaves — replayed through the torture driver so the
   periodic full audits (donation-ledger coherence, leaf membership,
   runnable-enqueued) judge every intermediate state.  The storm must
   end audit-clean, and the structure footprint must come back to the
   storm-free baseline: a move is a retarget, not an allocation, so
   churning threads across the tree may not permanently grow the
   scheduling structures. *)
let run_move_storm_smoke () =
  let leaves = 100_000 in
  let nthreads = 48 in
  let moves = 4_000 in
  let cfg =
    T.config ~audit_period:1_000 ~max_leaves:leaves ~max_spawns:nthreads
      ~prepopulate:leaves 7
  in
  let spawns =
    List.concat
      (List.init nthreads (fun i ->
           [
             T.Spawn
               {
                 leaf = i * 2099 mod leaves;
                 weight = 1 + (i mod 4);
                 profile = i mod 3;
               };
             T.Start i;
           ]))
  in
  let advance = T.Advance (Engine.Time.milliseconds 5) in
  let storm =
    List.init moves (fun i ->
        T.Move { th = i mod nthreads; leaf = i * 7919 mod leaves })
  in
  let base = T.replay cfg (spawns @ [ advance; advance ]) in
  let stormed = T.replay cfg (spawns @ [ advance ] @ storm @ [ advance ]) in
  if T.failed base then
    failwith
      (Printf.sprintf "move storm: baseline replay failed: %s"
         (T.outcome_summary base));
  if T.failed stormed then
    failwith
      (Printf.sprintf
         "move storm: audits failed under inter-group move churn: %s"
         (T.outcome_summary stormed));
  if
    stormed.T.footprint_words
    > base.T.footprint_words + (base.T.footprint_words / 8)
  then
    failwith
      (Printf.sprintf
         "move storm: footprint grew from %d to %d words — move churn \
          must not permanently grow the scheduling structures"
         base.T.footprint_words stormed.T.footprint_words);
  Printf.printf
    "move storm ok: %d leaves, %d moves, footprint %d -> %d words\n" leaves
    moves base.T.footprint_words stormed.T.footprint_words

(* --scale-smoke: the same mixes at a toy Q against the gate table — the
   compaction machinery must actually fire and reclaim.  Part of
   `make check` via the @scale-smoke alias, so a change that silently
   stops releasing memory under departure churn fails CI rather than
   only drifting a committed number. *)
let run_scale_smoke () =
  run_move_storm_smoke ();
  gate_smoke "scale" (scale_rows ~qs:[ 4096 ] ~hierarchy_ns:[ 2048 ] ~decisions:2_000 ())

(* ------------------------------------------------------------------ *)
(* Part 6: smp — the dispatch engine on a simulated CPU set.           *)
(* ------------------------------------------------------------------ *)

(* One deterministic dispatch-heavy workload per CPU count: P hog
   classes keep the CPU set saturated while 4P short-burst interactive
   classes constantly wake into it, so the idle-claim / migration path
   runs on a large fraction of dispatches.  The simulated event and
   migration counts are deterministic (seeded workloads, fixed
   migration cost), which is what lets hsfq_bench_diff gate them
   exactly; only the wall clock is machine noise. *)
let smp_cpu_counts = [ 1; 2; 4; 8 ]

let smp_setup ~cpus ~slice_ms () =
  let sys : E.Common.sys = E.Common.make_sys ~audit:false ~cpus () in
  for g = 0 to cpus - 1 do
    let leaf, sfq =
      E.Common.sfq_leaf sys ~parent:Core.Hierarchy.root
        ~name:(Printf.sprintf "hog%d" g) ~weight:1. ()
    in
    ignore
      (E.Common.dhrystone_thread sys ~leaf ~sfq
         ~name:(Printf.sprintf "hog%d" g) ~weight:1.
         ~loop_cost:(Engine.Time.microseconds 500))
  done;
  for g = 0 to (4 * cpus) - 1 do
    let leaf, sfq =
      E.Common.sfq_leaf sys ~parent:Core.Hierarchy.root
        ~name:(Printf.sprintf "ia%d" g) ~weight:1. ()
    in
    interactive_thread sys ~leaf ~sfq ~name:(Printf.sprintf "ia%d" g)
      ~mean_think:(Engine.Time.milliseconds 2)
      ~burst:(Engine.Time.microseconds 300) ~seed:(200 + g)
  done;
  (sys, slice_runner sys ~slice_ms)

let smp_rows ~slices ~slice_ms () =
  List.map
    (fun cpus ->
      let sys, run = smp_setup ~cpus ~slice_ms () in
      let counters, samples = measure_slices ~slices run in
      row "smp"
        (Printf.sprintf "smp-dispatch/P=%d" cpus)
        (counters @ [ ("migrations", float_of_int (K.migrations sys.k)) ])
        samples)
    smp_cpu_counts

(* ------------------------------------------------------------------ *)
(* Bechamel run: ns/decision and minor words/decision per benchmark.   *)
(* ------------------------------------------------------------------ *)

(* Toolkit.Instance.minor_allocated reads [Gc.quick_stat], which on
   OCaml 5 only advances at collection boundaries — low-allocation
   benchmarks would read as zero between minor GCs. [Gc.minor_words]
   reads the domain's allocation pointer and is exact, so register a
   precise measure instead. *)
module Minor_words = struct
  type witness = unit

  let label () = "minor-words"
  let unit () = "mnw"
  let make () = ()
  let load () = ()
  let unload () = ()
  let get () = Gc.minor_words ()
end

let minor_words : Measure.witness =
  Measure.instance (module Minor_words) (Measure.register (module Minor_words))

let micro_tests micros =
  let groups =
    List.fold_left
      (fun acc m ->
        if List.mem_assoc m.group acc then acc else acc @ [ (m.group, ()) ])
      [] micros
  in
  Test.make_grouped ~name:"hsfq"
    (List.map
       (fun (g, ()) ->
         Test.make_grouped ~name:g
           (List.filter_map
              (fun m ->
                if String.equal m.group g then
                  Some (Test.make ~name:m.name (Staged.stage m.fn))
                else None)
              micros))
       groups)

let estimates_of witness raw =
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols witness raw in
  let out = Hashtbl.create 32 in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Hashtbl.replace out name est
      | _ -> ())
    results;
  out

(* Strip Bechamel's group prefix ("hsfq/sfq-scaling/sfq/Q=512" ->
   "sfq/Q=512") by removing the two leading groups; benchmark names
   themselves may contain '/'. *)
let display_name name =
  match String.index_opt name '/' with
  | None -> name
  | Some i -> (
    match String.index_from_opt name (i + 1) '/' with
    | None -> name
    | Some j -> String.sub name (j + 1) (String.length name - j - 1))

let run_micro () =
  part "Part 2: micro-benchmarks (ns and minor words per decision)" @@ fun () ->
  (* A 0.25 s quota leaves ~10% run-to-run jitter on this box, enough to
     swamp the 5% traced-off acceptance gate; 1 s keeps the OLS fit
     within a couple of percent across runs. *)
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 1.0) ~kde:None () in
  let instances = [ Instance.monotonic_clock; minor_words ] in
  let raw = Benchmark.all cfg instances (micro_tests (all_micros ())) in
  let words = estimates_of minor_words raw in
  Hashtbl.fold
    (fun name est acc ->
      let w =
        match Hashtbl.find_opt words name with Some w -> w | None -> 0.
      in
      row "benchmarks" (display_name name) [ ("minor_words_per_decision", w) ] [ est ]
      :: acc)
    (estimates_of Instance.monotonic_clock raw)
    []
  |> List.sort (fun (a : Rows.row) b -> String.compare a.name b.name)

(* --smoke: every micro closure must run without raising — one iteration,
   no Bechamel quota, so `make check` can afford it. *)
let run_smoke () =
  banner "Part 2 (smoke): one iteration of every micro-benchmark";
  List.iter
    (fun m ->
      m.fn ();
      Printf.printf "  ok %s/%s\n" m.group m.name)
    (all_micros ());
  (* One cheap pass through the Par.sweep path: 2 torture seeds, serial
     vs 2 domains, verdicts compared inside. *)
  ignore (torture_sweep ~jobs:2 ~seeds:2 ~ops:1_000);
  print_endline "  ok sweep/torture determinism (serial vs domain pool)";
  print_endline "bench smoke PASSED."

let () =
  let smoke = ref false in
  let micro_only = ref false in
  let sim_speed_smoke = ref false in
  let scale_smoke = ref false in
  let smp_smoke = ref false in
  let json_path = ref "BENCH_sched.json" in
  let spec =
    [
      ("--smoke", Arg.Set smoke, " figures + 1-iteration micro sanity pass");
      ("--micro-only", Arg.Set micro_only, " skip figure regeneration");
      ( "--sim-speed-smoke",
        Arg.Set sim_speed_smoke,
        " tiny end-to-end workloads against the event + allocation gates" );
      ( "--scale-smoke",
        Arg.Set scale_smoke,
        " toy-Q churn mixes against the compaction/footprint gates" );
      ( "--smp-smoke",
        Arg.Set smp_smoke,
        " shrunk P=1..8 dispatch workloads against the migration/cost gates" );
      ( "--json",
        Arg.Set_string json_path,
        "PATH output path for benchmark estimates (default BENCH_sched.json)" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "bench/main.exe [--smoke] [--sim-speed-smoke] [--scale-smoke] \
     [--smp-smoke] [--micro-only] [--json PATH]";
  if !sim_speed_smoke then gate_smoke "sim-speed" (sim_speed_rows ~scale:100 ~slices:2 ())
  else if !scale_smoke then run_scale_smoke ()
  else if !smp_smoke then gate_smoke "smp" (smp_rows ~slices:2 ~slice_ms:40 ())
  else begin
    let ok = if !micro_only then true else regenerate_figures () in
    if !smoke then run_smoke ()
    else begin
      let sweeps = if !micro_only then [] else run_sweeps () in
      (* The sim_speed, scale and smp rows ride along on --micro-only
         too: their counters are deterministic, so the @bench-diff fresh
         run can gate them against the committed baseline. *)
      let sim_speed =
        part "Part 4: end-to-end sim-speed (full dispatch path)"
          (sim_speed_rows ~scale:1 ~slices:10)
      in
      let scale =
        part "Part 5: scale — churn mixes at Q = 10^4 / 10^5 / 10^6"
          (scale_rows
             ~qs:[ 10_000; 100_000; 1_000_000 ]
             ~hierarchy_ns:[ 10_000; 100_000 ] ~decisions:scale_decisions)
      in
      let smp =
        part "Part 6: smp — per-CPU dispatch over P = 1 / 2 / 4 / 8"
          (smp_rows ~slices:5 ~slice_ms:400)
      in
      let micros = run_micro () in
      Rows.write !json_path (micros @ sim_speed @ scale @ smp @ sweeps)
    end;
    if not ok then exit 1
  end
