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
   sweeps and the full experiment suite — and records serial/parallel
   wall-clock under the JSON's "sweeps" section.  The verdicts of every run are compared on
   the spot: a speedup that changed the answer is a bug, not a result.
   Only rows with a measured speedup above 1.0x are written to the JSON
   (hsfq_bench_diff hard-gates the sweeps section, higher-is-better);
   losing configurations are printed and dropped, and the full story
   lives in doc/PERFORMANCE.md.

   Results are emitted to BENCH_sched.json (override with --json PATH)
   so the performance trajectory is recorded across PRs; the before/after
   history lives in doc/PERFORMANCE.md.

   Modes:
     (default)      figures + Bechamel micro-benchmarks + sweeps + JSON
     --smoke        figures + one hand-rolled iteration of every micro
                    benchmark (no Bechamel quota) and a 2-seed sweep
                    determinism check — the @bench-smoke dune alias runs
                    this so the harness cannot bit-rot
     --micro-only   skip Parts 1 and 3 (used when iterating on the hot
                    path) *)

open Bechamel
open Toolkit
module E = Hsfq_experiments
module Core = Hsfq_core
module Sched = Hsfq_sched
module Engine = Hsfq_engine
module Par = Hsfq_par.Par
module T = Hsfq_torture.Torture
module Obs = Hsfq_obs

(* ------------------------------------------------------------------ *)
(* Part 1: figure regeneration                                         *)
(* ------------------------------------------------------------------ *)

let regenerate_figures () =
  print_endline "==================================================================";
  print_endline " Part 1: regeneration of every figure in the paper's evaluation";
  print_endline "==================================================================";
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

type sweep_row = {
  sweep_name : string;
  jobs : int;
  serial_s : float;
  parallel_s : float;
  serial_minor_gcs : int;
  parallel_minor_gcs : int;
}

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
   [sweep_minor_heap]-word nurseries, comparing results with [equal]. *)
let measure_sweep ~name ~jobs ~tasks ~equal f =
  let serial, serial_s, serial_minor_gcs = measure ~jobs:1 ~tasks f in
  let par, parallel_s, parallel_minor_gcs =
    measure ~minor_heap:sweep_minor_heap ~jobs ~tasks f
  in
  if not (equal serial par) then
    failwith (Printf.sprintf "bench: %s verdicts differ on the domain pool" name);
  {
    sweep_name = name;
    jobs;
    serial_s;
    parallel_s;
    serial_minor_gcs;
    parallel_minor_gcs;
  }

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

let print_sweeps rows =
  let t =
    Engine.Table.create
      [ "sweep"; "jobs"; "serial s"; "parallel s"; "speedup"; "minor GCs (s/p)" ]
  in
  List.iter
    (fun r ->
      Engine.Table.row t
        [
          r.sweep_name;
          string_of_int r.jobs;
          Printf.sprintf "%.2f" r.serial_s;
          Printf.sprintf "%.2f" r.parallel_s;
          Printf.sprintf "%.2fx" (r.serial_s /. r.parallel_s);
          Printf.sprintf "%d/%d" r.serial_minor_gcs r.parallel_minor_gcs;
        ])
    rows;
  Engine.Table.print t

let run_sweeps () =
  print_endline "\n==================================================================";
  print_endline " Part 3: parallel sweeps, serial vs the domain pool";
  print_endline "==================================================================";
  (* At least two workers, even on a single-core box: a 1-vs-1 "sweep"
     would measure nothing.  On one core the pool is expected to lose
     (oversubscription + stop-the-world rendezvous); the JSON keeps only
     configurations that actually beat serial. *)
  let jobs = Int.max 2 (Par.default_jobs ()) in
  (* Two torture shapes: breadth (10k+ short seeds, the scale ROADMAP
     asks the rig to sustain) and depth (few long seeds, where
     per-worker nursery sizing pays). *)
  let torture_breadth = torture_sweep ~jobs ~seeds:10_240 ~ops:120 in
  let torture_depth = torture_sweep ~jobs ~seeds:16 ~ops:20_000 in
  let rows = [ torture_breadth; torture_depth; experiments_sweep ~jobs ] in
  print_sweeps rows;
  rows

(* ------------------------------------------------------------------ *)
(* Part 4: end-to-end sim-speed — events/sec through the full dispatch *)
(* path (Kernel quantum loop -> Hierarchy -> Sfq -> Event_queue).      *)
(* ------------------------------------------------------------------ *)

module K = Hsfq_kernel.Kernel
module LS = Hsfq_kernel.Leaf_sched
module IS = Hsfq_kernel.Interrupt_source
module W = Hsfq_workload

type sim_speed_row = {
  ss_name : string;
  events : int;
  ss_wall_s : float;
  events_per_sec : float;
  words_per_event : float;
  ss_minor_gcs : int;
}

(* Allocation ceiling asserted by --smp-smoke, in minor words per fired
   event. *)
let smp_words_budget = 48.

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

(* Per-scenario slice sizes chosen so ten measured slices run long
   enough (~10^5 events each) for a stable events/sec estimate; the
   [scale] divisor shrinks them for the smoke pass.

   The third field is the --sim-speed-smoke ceiling in minor words per
   fired event: about 1.2x the value the smoke measures in the default
   (dev, -opaque) profile, where it is 11.49 / 5.12 / 9.09.  Minor-word
   counts are deterministic for a given build, so the ceiling can be
   tight: per-wake closures in the kernel cycle (+7 words/event on
   timer-churn) fail it.  What remains is the workloads' own actions
   and samples, float boxing at -opaque call boundaries, and sample
   series growth that a smoke-sized run does not amortize.  The release
   profile measures lower and passes the same ceilings. *)
let sim_speed_scenarios ~scale =
  let ms base = Int.max 1 (base / scale) in
  [
    ("mpeg+interactive", ss_mpeg ~slice_ms:(ms 60_000), 13.8);
    ("svr4-ts+irq", ss_ts ~slice_ms:(ms 12_000), 6.2);
    ("timer-churn", ss_churn ~slice_ms:(ms 3_000), 10.9);
  ]

(* Simulated event counts are deterministic (seeded workloads), so only
   the wall clock is noisy.  The first slice warms the system (arrays
   grown, free lists filled, workload state reached) and is excluded;
   the measured region is [slices] further slices of simulated time. *)
let measure_sim_speed ~slices (name, setup, _) =
  let run = setup () in
  let e0 = run () in
  Gc.full_major ();
  let c0 = (Gc.quick_stat ()).Gc.minor_collections in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let e1 = ref e0 in
  for _ = 1 to slices do
    e1 := run ()
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  let c1 = (Gc.quick_stat ()).Gc.minor_collections in
  let events = !e1 - e0 in
  {
    ss_name = name;
    events;
    ss_wall_s = dt;
    events_per_sec = float_of_int events /. dt;
    words_per_event = words /. float_of_int events;
    ss_minor_gcs = c1 - c0;
  }

let print_sim_speed rows =
  let t =
    Engine.Table.create
      [ "workload"; "events"; "wall s"; "events/sec"; "words/event"; "minor GCs" ]
  in
  List.iter
    (fun r ->
      Engine.Table.row t
        [
          r.ss_name;
          string_of_int r.events;
          Printf.sprintf "%.3f" r.ss_wall_s;
          Printf.sprintf "%.0f" r.events_per_sec;
          Printf.sprintf "%.3f" r.words_per_event;
          string_of_int r.ss_minor_gcs;
        ])
    rows;
  Engine.Table.print t

let run_sim_speed () =
  print_endline "\n==================================================================";
  print_endline " Part 4: end-to-end sim-speed (events/sec, full dispatch path)";
  print_endline "==================================================================";
  let rows =
    List.map (measure_sim_speed ~slices:10) (sim_speed_scenarios ~scale:1)
  in
  print_sim_speed rows;
  rows

(* --sim-speed-smoke: tiny workloads, hard assertions — events actually
   fire and the dispatch path holds its steady-state allocation budget.
   Part of `make check`, so a regression that reintroduces per-event
   allocation fails CI rather than only drifting a number. *)
let run_sim_speed_smoke () =
  let scenarios = sim_speed_scenarios ~scale:100 in
  let rows = List.map (measure_sim_speed ~slices:2) scenarios in
  print_sim_speed rows;
  List.iter2
    (fun (_, _, ceiling) r ->
      if r.events <= 0 || not (r.events_per_sec > 0.) then
        failwith (Printf.sprintf "sim-speed smoke: %s fired no events" r.ss_name);
      if r.words_per_event > ceiling then
        failwith
          (Printf.sprintf
             "sim-speed smoke: %s allocates %.2f minor words/event, over its \
              %.1f-word ceiling"
             r.ss_name r.words_per_event ceiling))
    scenarios rows;
  print_endline "sim-speed smoke PASSED."

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

   hsfq_bench_diff hard-gates the resulting JSON section: steady
   ns/decision across consecutive decades must grow no faster than a
   generous log2 bound, every mix's peak footprint must stay within 2x
   of the steady-state footprint at the same Q, and the departure row's
   end footprint must come in well below steady (the reclaim proof).
   Timings are hand-rolled rather than Bechamel: one Gc.full_major and
   a single measured loop keeps a Q=10^6 row affordable. *)

type scale_row = {
  sc_name : string;
  sc_live : int;  (* live clients while decisions were timed *)
  sc_ns : float;
  sc_words : float;
  sc_peak_words : int;  (* max footprint observed at phase boundaries *)
  sc_end_words : int;  (* footprint after churn + decision phases *)
}

let scale_decisions = 100_000

let time_decisions ~n fn =
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    fn ()
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  (dt *. 1e9 /. float_of_int n, words /. float_of_int n)

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
  let ns, words =
    time_decisions ~n:decisions (fun () ->
        let id = Core.Sfq.select_id t in
        if id < 0 then invalid_arg "scale: empty ready set";
        Core.Sfq.charge t ~id ~service:20_000_000 ~runnable:true)
  in
  let end_words = Core.Sfq.footprint_words t in
  sample ();
  {
    sc_name = Printf.sprintf "sfq-%s/Q=%d" mix_name q;
    sc_live = live;
    sc_ns = ns;
    sc_words = words;
    sc_peak_words = !peak;
    sc_end_words = end_words;
  }

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
  let ns, words =
    time_decisions ~n:decisions (fun () ->
        let leaf = Core.Hierarchy.schedule_id h in
        if leaf < 0 then invalid_arg "scale: no runnable leaf";
        Core.Hierarchy.update_ns h ~leaf ~service_ns:20_000_000
          ~leaf_runnable:true)
  in
  let end_words = Core.Hierarchy.footprint_words h in
  sample ();
  {
    sc_name = Printf.sprintf "hierarchy-churn/N=%d" n;
    sc_live = n;
    sc_ns = ns;
    sc_words = words;
    sc_peak_words = !peak;
    sc_end_words = end_words;
  }

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

let print_scale rows =
  let t =
    Engine.Table.create
      [ "scale row"; "live"; "ns/decision"; "words/dec"; "peak words"; "end words" ]
  in
  List.iter
    (fun r ->
      Engine.Table.row t
        [
          r.sc_name;
          string_of_int r.sc_live;
          Printf.sprintf "%.1f" r.sc_ns;
          Printf.sprintf "%.2f" r.sc_words;
          string_of_int r.sc_peak_words;
          string_of_int r.sc_end_words;
        ])
    rows;
  Engine.Table.print t

let run_scale () =
  print_endline "\n==================================================================";
  print_endline " Part 5: scale — churn mixes at Q = 10^4 / 10^5 / 10^6";
  print_endline "==================================================================";
  let rows =
    scale_rows
      ~qs:[ 10_000; 100_000; 1_000_000 ]
      ~hierarchy_ns:[ 10_000; 100_000 ] ~decisions:scale_decisions ()
  in
  print_scale rows;
  rows

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

(* --scale-smoke: the same mixes at a toy Q with hard assertions — the
   compaction machinery must actually fire and reclaim.  Part of
   `make check` via the @scale-smoke alias, so a change that silently
   stops releasing memory under departure churn fails CI rather than
   only drifting a committed number. *)
let run_scale_smoke () =
  let q = 4096 in
  let rows =
    scale_rows ~qs:[ q ] ~hierarchy_ns:[ 2048 ] ~decisions:2_000 ()
  in
  print_scale rows;
  let find name =
    match List.find_opt (fun r -> String.equal r.sc_name name) rows with
    | Some r -> r
    | None -> failwith (Printf.sprintf "scale smoke: missing row %s" name)
  in
  let steady = find (Printf.sprintf "sfq-steady/Q=%d" q) in
  let departure = find (Printf.sprintf "sfq-departure/Q=%d" q) in
  List.iter
    (fun r ->
      if not (r.sc_ns > 0.) then
        failwith (Printf.sprintf "scale smoke: %s timed nothing" r.sc_name);
      if r.sc_words > 16. then
        failwith
          (Printf.sprintf
             "scale smoke: %s allocates %.1f minor words/decision on the \
              steady decision path"
             r.sc_name r.sc_words);
      if String.length r.sc_name >= 4 && String.equal (String.sub r.sc_name 0 4) "sfq-"
         && r.sc_peak_words > 2 * steady.sc_end_words
      then
        failwith
          (Printf.sprintf
             "scale smoke: %s peak footprint %d words exceeds 2x the \
              steady-state %d"
             r.sc_name r.sc_peak_words steady.sc_end_words))
    rows;
  if 4 * departure.sc_end_words > 3 * steady.sc_end_words then
    failwith
      (Printf.sprintf
         "scale smoke: departure-heavy footprint %d words not reclaimed \
          (steady is %d — compaction should have released the columns)"
         departure.sc_end_words steady.sc_end_words);
  run_move_storm_smoke ();
  print_endline "scale smoke PASSED."

(* ------------------------------------------------------------------ *)
(* Part 6: smp — the dispatch engine on a simulated CPU set.           *)
(* ------------------------------------------------------------------ *)

(* One deterministic dispatch-heavy workload per CPU count: P hog
   classes keep the CPU set saturated while 4P short-burst interactive
   classes constantly wake into it, so the idle-claim / migration path
   runs on a large fraction of dispatches.  The simulated event and
   migration counts are deterministic (seeded workloads, fixed
   migration cost), which is what lets hsfq_bench_diff hard-gate them;
   only the wall clock is machine noise. *)
type smp_row = {
  smp_name : string;
  smp_cpus : int;
  smp_events : int;  (* deterministic *)
  smp_wall_s : float;
  smp_ns_per_event : float;
  smp_words_per_event : float;
  smp_migrations : int;  (* deterministic *)
}

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

let measure_smp ~slices ~slice_ms cpus =
  let sys, run = smp_setup ~cpus ~slice_ms () in
  let e0 = run () in
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let e1 = ref e0 in
  for _ = 1 to slices do
    e1 := run ()
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  let events = !e1 - e0 in
  {
    smp_name = Printf.sprintf "smp-dispatch/P=%d" cpus;
    smp_cpus = cpus;
    smp_events = events;
    smp_wall_s = dt;
    smp_ns_per_event = dt *. 1e9 /. float_of_int events;
    smp_words_per_event = words /. float_of_int events;
    smp_migrations = K.migrations sys.k;
  }

let print_smp rows =
  let t =
    Engine.Table.create
      [ "workload"; "cpus"; "events"; "wall s"; "ns/event"; "words/event"; "migrations" ]
  in
  List.iter
    (fun r ->
      Engine.Table.row t
        [
          r.smp_name;
          string_of_int r.smp_cpus;
          string_of_int r.smp_events;
          Printf.sprintf "%.3f" r.smp_wall_s;
          Printf.sprintf "%.1f" r.smp_ns_per_event;
          Printf.sprintf "%.2f" r.smp_words_per_event;
          string_of_int r.smp_migrations;
        ])
    rows;
  Engine.Table.print t

let run_smp () =
  print_endline "\n==================================================================";
  print_endline " Part 6: smp — per-CPU dispatch over P = 1 / 2 / 4 / 8";
  print_endline "==================================================================";
  let rows = List.map (measure_smp ~slices:5 ~slice_ms:400) smp_cpu_counts in
  print_smp rows;
  rows

(* --smp-smoke: the same workloads shrunk, with the structural claims
   as hard assertions — P=1 never migrates, P>1 storms actually
   migrate, per-event cost does not blow up with P, and the dispatch
   path holds the allocation budget on every CPU count.  Part of
   `make check` via the @smp-smoke dune alias. *)
let run_smp_smoke () =
  let rows = List.map (measure_smp ~slices:2 ~slice_ms:40) smp_cpu_counts in
  print_smp rows;
  let find p = List.find (fun r -> r.smp_cpus = p) rows in
  let p1 = find 1 in
  if p1.smp_migrations <> 0 then
    failwith
      (Printf.sprintf "smp smoke: P=1 recorded %d migrations (must be 0)"
         p1.smp_migrations);
  List.iter
    (fun r ->
      if r.smp_events <= 0 then
        failwith (Printf.sprintf "smp smoke: %s fired no events" r.smp_name);
      if r.smp_cpus > 1 && r.smp_migrations <= 0 then
        failwith
          (Printf.sprintf
             "smp smoke: %s never migrated — the idle-claim path is dead"
             r.smp_name);
      if r.smp_words_per_event > smp_words_budget then
        failwith
          (Printf.sprintf
             "smp smoke: %s allocates %.1f minor words/event, over the \
              %.0f-word budget"
             r.smp_name r.smp_words_per_event smp_words_budget);
      (* Machine-relative: P-CPU bookkeeping may not multiply the
         per-event dispatch cost.  3x leaves headroom for the extra
         per-CPU accounting while catching an accidental O(P) scan. *)
      if r.smp_ns_per_event > 3. *. p1.smp_ns_per_event then
        failwith
          (Printf.sprintf
             "smp smoke: %s costs %.0f ns/event vs %.0f at P=1 — per-CPU \
              dispatch must not blow up the per-event cost"
             r.smp_name r.smp_ns_per_event p1.smp_ns_per_event))
    rows;
  print_endline "smp smoke PASSED."

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

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json ~path ~sweeps ~sim_speed ~scale ~smp rows =
  let n = List.length rows in
  (* The sweeps section is a hard gate in hsfq_bench_diff (speedup < 1x
     fails the diff), so only configurations that actually beat serial
     are recorded; losing ones are reported here and documented in
     doc/PERFORMANCE.md rather than committed as a standing failure. *)
  let losers, sweeps =
    List.partition (fun r -> r.serial_s /. r.parallel_s <= 1.0) sweeps
  in
  List.iter
    (fun r ->
      Printf.printf
        "note: dropping sweep row %S (%.2fx <= 1x — slower than serial, \
         not committed to the gated sweeps section)\n"
        r.sweep_name (r.serial_s /. r.parallel_s))
    losers;
  let nsweeps = List.length sweeps in
  let nspeed = List.length sim_speed in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc "{\n";
      Printf.fprintf oc "  \"schema\": \"hsfq-bench/1\",\n";
      Printf.fprintf oc "  \"unit\": { \"time\": \"ns/decision\", \"alloc\": \"minor words/decision\" },\n";
      Printf.fprintf oc "  \"benchmarks\": {\n";
      List.iteri
        (fun i (name, ns, words) ->
          Printf.fprintf oc
            "    \"%s\": { \"ns_per_decision\": %.3f, \"minor_words_per_decision\": %.3f }%s\n"
            (json_escape name) ns words
            (if i = n - 1 then "" else ","))
        rows;
      Printf.fprintf oc "  },\n";
      (* End-to-end throughput of the full dispatch path; field names
         are disjoint from "benchmarks" so hsfq_bench_diff's line
         parser can tell the sections apart without nesting state. *)
      Printf.fprintf oc "  \"sim_speed\": {\n";
      List.iteri
        (fun i r ->
          Printf.fprintf oc
            "    \"%s\": { \"events\": %d, \"wall_s\": %.3f, \
             \"events_per_sec\": %.0f, \"minor_words_per_event\": %.3f, \
             \"minor_collections\": %d }%s\n"
            (json_escape r.ss_name) r.events r.ss_wall_s r.events_per_sec
            r.words_per_event r.ss_minor_gcs
            (if i = nspeed - 1 then "" else ","))
        sim_speed;
      Printf.fprintf oc "  },\n";
      (* Churn-scaling rows; every field carries a "scale_" prefix so
         hsfq_bench_diff's line parser (which matches `"key":` with the
         leading quote) can never mistake one for a micro row. The
         footprints are deterministic, which is what lets the diff tool
         hard-gate them. *)
      let nscale = List.length scale in
      Printf.fprintf oc "  \"scale\": {\n";
      List.iteri
        (fun i r ->
          Printf.fprintf oc
            "    \"%s\": { \"scale_live\": %d, \"scale_ns_per_decision\": \
             %.3f, \"scale_minor_words_per_decision\": %.3f, \
             \"scale_peak_footprint_words\": %d, \
             \"scale_end_footprint_words\": %d }%s\n"
            (json_escape r.sc_name) r.sc_live r.sc_ns r.sc_words
            r.sc_peak_words r.sc_end_words
            (if i = nscale - 1 then "" else ","))
        scale;
      Printf.fprintf oc "  },\n";
      (* Multiprocessor dispatch rows; the "smp_" prefix keeps the line
         parser honest, as with "scale_".  Event and migration counts
         are deterministic (seeded workloads over simulated time), so
         hsfq_bench_diff hard-gates them; ns/event is machine noise and
         only gated relative to the same file's P=1 row. *)
      let nsmp = List.length smp in
      Printf.fprintf oc "  \"smp\": {\n";
      List.iteri
        (fun i r ->
          Printf.fprintf oc
            "    \"%s\": { \"smp_cpus\": %d, \"smp_events\": %d, \
             \"smp_wall_s\": %.3f, \"smp_ns_per_event\": %.3f, \
             \"smp_minor_words_per_event\": %.3f, \"smp_migrations\": %d }%s\n"
            (json_escape r.smp_name) r.smp_cpus r.smp_events r.smp_wall_s
            r.smp_ns_per_event r.smp_words_per_event r.smp_migrations
            (if i = nsmp - 1 then "" else ","))
        smp;
      Printf.fprintf oc "  },\n";
      (* Wall-clock of the Par.sweep fan-outs; key names deliberately
         share no fields with "benchmarks" so hsfq_bench_diff's line
         parser never mistakes a sweep row for a micro-benchmark. *)
      Printf.fprintf oc "  \"sweeps\": {\n";
      List.iteri
        (fun i r ->
          Printf.fprintf oc
            "    \"%s\": { \"jobs\": %d, \"serial_wall_s\": %.3f, \
             \"parallel_wall_s\": %.3f, \"speedup\": %.3f, \
             \"serial_minor_collections\": %d, \
             \"parallel_minor_collections\": %d }%s\n"
            (json_escape r.sweep_name) r.jobs r.serial_s r.parallel_s
            (r.serial_s /. r.parallel_s)
            r.serial_minor_gcs r.parallel_minor_gcs
            (if i = nsweeps - 1 then "" else ","))
        sweeps;
      Printf.fprintf oc "  }\n";
      Printf.fprintf oc "}\n");
  Printf.printf
    "\nwrote %s (%d benchmarks, %d sim-speed rows, %d scale rows, %d smp rows, \
     %d sweeps)\n"
    path n nspeed (List.length scale) (List.length smp) nsweeps

let run_micro ~json_path ~sweeps ~sim_speed ~scale ~smp =
  print_endline "\n==================================================================";
  print_endline " Part 2: micro-benchmarks (ns and minor words per decision)";
  print_endline "==================================================================";
  let micros = all_micros () in
  (* A 0.25 s quota leaves ~10% run-to-run jitter on this box, enough to
     swamp the 5% traced-off acceptance gate; 1 s keeps the OLS fit
     within a couple of percent across runs. *)
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 1.0) ~kde:None () in
  let instances = [ Instance.monotonic_clock; minor_words ] in
  let raw = Benchmark.all cfg instances (micro_tests micros) in
  let ns = estimates_of Instance.monotonic_clock raw in
  let words = estimates_of minor_words raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name est ->
      let w =
        match Hashtbl.find_opt words name with Some w -> w | None -> 0.
      in
      rows := (display_name name, est, w) :: !rows)
    ns;
  let rows =
    List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) !rows
  in
  let t =
    Engine.Table.create [ "benchmark"; "ns/decision"; "minor words/decision" ]
  in
  List.iter
    (fun (name, est, w) ->
      Engine.Table.row t
        [ name; Printf.sprintf "%.1f" est; Printf.sprintf "%.2f" w ])
    rows;
  Engine.Table.print t;
  write_json ~path:json_path ~sweeps ~sim_speed ~scale ~smp rows

(* --smoke: every micro closure must run without raising — one iteration,
   no Bechamel quota, so `make check` can afford it. *)
let run_smoke () =
  print_endline "\n==================================================================";
  print_endline " Part 2 (smoke): one iteration of every micro-benchmark";
  print_endline "==================================================================";
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
  let sim_speed_only = ref false in
  let scale_smoke = ref false in
  let smp_smoke = ref false in
  let json_path = ref "BENCH_sched.json" in
  let spec =
    [
      ("--smoke", Arg.Set smoke, " figures + 1-iteration micro sanity pass");
      ("--micro-only", Arg.Set micro_only, " skip figure regeneration");
      ( "--sim-speed-smoke",
        Arg.Set sim_speed_smoke,
        " tiny end-to-end workloads with hard events/sec + allocation asserts" );
      ( "--sim-speed-only",
        Arg.Set sim_speed_only,
        " run only the full-size sim-speed workloads (no JSON)" );
      ( "--scale-smoke",
        Arg.Set scale_smoke,
        " toy-Q churn mixes with hard compaction/footprint asserts" );
      ( "--smp-smoke",
        Arg.Set smp_smoke,
        " shrunk P=1..8 dispatch workloads with hard migration/cost asserts" );
      ( "--json",
        Arg.Set_string json_path,
        "PATH output path for benchmark estimates (default BENCH_sched.json)" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "bench/main.exe [--smoke] [--sim-speed-smoke] [--scale-smoke] \
     [--smp-smoke] [--micro-only] [--json PATH]";
  if !sim_speed_smoke then run_sim_speed_smoke ()
  else if !sim_speed_only then ignore (run_sim_speed ())
  else if !scale_smoke then run_scale_smoke ()
  else if !smp_smoke then run_smp_smoke ()
  else begin
    let ok = if !micro_only then true else regenerate_figures () in
    if !smoke then run_smoke ()
    else begin
      let sweeps = if !micro_only then [] else run_sweeps () in
      let sim_speed = run_sim_speed () in
      (* The scale and smp rows ride along on --micro-only too: their
         footprints / event counts are deterministic, so the @bench-diff
         fresh run can hard-gate them against the committed baseline. *)
      let scale = run_scale () in
      let smp = run_smp () in
      run_micro ~json_path:!json_path ~sweeps ~sim_speed ~scale ~smp
    end;
    if not ok then exit 1
  end
