(* Integration tests for the leaf-class adapters under the kernel:
   SVR4, EDF, GPS-clock, and Fair_leaf-wrapped baselines each driving
   real threads inside the scheduling structure. *)

open Hsfq_engine
open Hsfq_core
open Hsfq_kernel
module W = Workload_intf

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let zero_cost =
  { Kernel.default_config with context_switch_cost = 0; sched_cost_per_level = 0 }

let base ?(config = zero_cost) () =
  let sim = Sim.create () in
  let hier = Hierarchy.create () in
  let k = Kernel.create ~config sim hier in
  (sim, hier, k)

let mk_leaf hier name =
  match Hierarchy.mknod hier ~name ~parent:Hierarchy.root ~weight:1. Hierarchy.Leaf with
  | Ok id -> id
  | Error e -> failwith e

(* ------------------------------ SVR4 ---------------------------------- *)

let test_svr4_leaf_runs_ts_threads () =
  let _, hier, k = base ~config:{ zero_cost with default_quantum = Time.seconds 1 } () in
  let leaf = mk_leaf hier "svr4" in
  let lf, h = Leaf_sched.Svr4_leaf.make () in
  Kernel.install_leaf k leaf lf;
  let spawn name =
    let tid = Kernel.spawn k ~name ~leaf (W.forever_compute (Time.seconds 10)) in
    Leaf_sched.Svr4_leaf.add h ~tid Hsfq_sched.Svr4.Ts;
    Kernel.start k tid;
    tid
  in
  let a = spawn "a" and b = spawn "b" in
  Kernel.run_until k (Time.seconds 4);
  (* Equal-priority CPU hogs end up sharing roughly equally over a long
     run (dispatch-table cycling notwithstanding). *)
  let ca = Kernel.cpu_time k a and cb = Kernel.cpu_time k b in
  (* Up to one 200 ms prio-0 quantum may still be in flight at the
     horizon. *)
  check_bool "fully used" true
    (Time.seconds 4 - (ca + cb) <= Time.milliseconds 200);
  check_bool "both in the same ballpark" true
    (float_of_int (Int.min ca cb) /. float_of_int (Int.max ca cb) > 0.5)

let test_svr4_leaf_rt_preempts_in_kernel () =
  let _, hier, k = base () in
  let leaf = mk_leaf hier "svr4" in
  let lf, h = Leaf_sched.Svr4_leaf.make () in
  Kernel.install_leaf k leaf lf;
  let ts = Kernel.spawn k ~name:"ts" ~leaf (W.forever_compute (Time.seconds 10)) in
  Leaf_sched.Svr4_leaf.add h ~tid:ts Hsfq_sched.Svr4.Ts;
  Kernel.start k ts;
  let wl, c =
    Hsfq_workload.Periodic.make ~period:(Time.milliseconds 40)
      ~cost:(Time.milliseconds 2) ~phase:(Time.milliseconds 13) ()
  in
  let rt = Kernel.spawn k ~name:"rt" ~leaf wl in
  Leaf_sched.Svr4_leaf.add h ~tid:rt (Hsfq_sched.Svr4.Rt 5);
  Kernel.start k rt;
  Kernel.run_until k (Time.seconds 2);
  check_int "no RT misses" 0 (Hsfq_workload.Periodic.misses c);
  check_bool "RT wakeups preempt TS immediately" true
    (int_of_float (Stats.max_value (Kernel.latency_stats k rt)) <= 1)

(* ------------------------------- EDF ---------------------------------- *)

let test_edf_leaf_meets_feasible_deadlines () =
  let _, hier, k = base () in
  let leaf = mk_leaf hier "edf" in
  let lf, h = Leaf_sched.Edf_leaf.make ~quantum:(Time.milliseconds 5) () in
  Kernel.install_leaf k leaf lf;
  (* Two periodic tasks, total utilization 0.75 — EDF-feasible. *)
  let spawn name ~period ~cost =
    let wl, c = Hsfq_workload.Periodic.make ~period ~cost () in
    let tid = Kernel.spawn k ~name ~leaf wl in
    Leaf_sched.Edf_leaf.add h ~tid ~relative_deadline:period;
    Kernel.start k tid;
    c
  in
  let c1 = spawn "t1" ~period:(Time.milliseconds 40) ~cost:(Time.milliseconds 10) in
  let c2 = spawn "t2" ~period:(Time.milliseconds 100) ~cost:(Time.milliseconds 50) in
  Kernel.run_until k (Time.seconds 4);
  check_int "t1 misses" 0 (Hsfq_workload.Periodic.misses c1);
  check_int "t2 misses" 0 (Hsfq_workload.Periodic.misses c2);
  check_bool "both ran many rounds" true
    (Hsfq_workload.Periodic.completed c1 > 90
    && Hsfq_workload.Periodic.completed c2 > 35)

(* --------------------------- GPS adapters ----------------------------- *)

let test_gps_leaf_proportional_at_full_capacity () =
  let _, hier, k = base () in
  let leaf = mk_leaf hier "wfq-rt" in
  let lf, h =
    Leaf_sched.Gps_leaf.make ~order:Hsfq_sched.Gps_vt.Finish_tags
      ~quantum:(Time.milliseconds 20) ()
  in
  Kernel.install_leaf k leaf lf;
  let spawn name w =
    let tid = Kernel.spawn k ~name ~leaf (W.forever_compute (Time.seconds 100)) in
    Leaf_sched.Gps_leaf.add h ~tid ~weight:w;
    Kernel.start k tid;
    tid
  in
  let a = spawn "a" 1. and b = spawn "b" 3. in
  Kernel.run_until k (Time.seconds 4);
  (* With the full CPU (no sibling fluctuation) wfq-rt is weight-fair. *)
  let ratio = float_of_int (Kernel.cpu_time k b) /. float_of_int (Kernel.cpu_time k a) in
  check_bool "1:3 at full capacity" true (Float.abs (ratio -. 3.) < 0.1)

(* --------------------------- Fair_leaf -------------------------------- *)

module Stride_leaf = Leaf_sched.Fair_leaf (Hsfq_sched.Stride)

let test_fair_leaf_stride_in_kernel () =
  let _, hier, k = base () in
  let leaf = mk_leaf hier "stride" in
  let lf, h = Stride_leaf.make ~quantum:(Time.milliseconds 10) () in
  Kernel.install_leaf k leaf lf;
  let spawn name w =
    let tid = Kernel.spawn k ~name ~leaf (W.forever_compute (Time.seconds 100)) in
    Stride_leaf.add h ~tid ~weight:w;
    Kernel.start k tid;
    tid
  in
  let a = spawn "a" 2. and b = spawn "b" 5. in
  Kernel.run_until k (Time.seconds 2);
  let ratio = float_of_int (Kernel.cpu_time k b) /. float_of_int (Kernel.cpu_time k a) in
  check_bool "2:5 stride split" true (Float.abs (ratio -. 2.5) < 0.1);
  (* set_weight reshapes the allocation going forward. *)
  Stride_leaf.set_weight h ~tid:a ~weight:5.;
  let a0 = Kernel.cpu_time k a and b0 = Kernel.cpu_time k b in
  Kernel.run_until k (Time.seconds 4);
  let da = Kernel.cpu_time k a - a0 and db = Kernel.cpu_time k b - b0 in
  check_bool "equal after reweight" true
    (Float.abs ((float_of_int db /. float_of_int da) -. 1.) < 0.1)

(* --------------------- mixed classes in one tree ---------------------- *)

let test_three_heterogeneous_leaves () =
  (* SFQ + SVR4 + EDF leaves under one root, weights 2:1:1 — each class
     gets its node share while scheduling internally its own way. *)
  let _, hier, k = base () in
  let mk name w =
    match Hierarchy.mknod hier ~name ~parent:Hierarchy.root ~weight:w Hierarchy.Leaf with
    | Ok id -> id
    | Error e -> failwith e
  in
  let l_sfq = mk "sfq" 2. and l_svr4 = mk "svr4" 1. and l_edf = mk "edf" 1. in
  let lf1, sfq = Leaf_sched.Sfq_leaf.make () in
  let lf2, svr4 = Leaf_sched.Svr4_leaf.make () in
  let lf3, edf = Leaf_sched.Edf_leaf.make ~quantum:(Time.milliseconds 5) () in
  Kernel.install_leaf k l_sfq lf1;
  Kernel.install_leaf k l_svr4 lf2;
  Kernel.install_leaf k l_edf lf3;
  let t1 = Kernel.spawn k ~name:"s" ~leaf:l_sfq (W.forever_compute (Time.seconds 100)) in
  Leaf_sched.Sfq_leaf.add sfq ~tid:t1 ~weight:1.;
  Kernel.start k t1;
  let t2 = Kernel.spawn k ~name:"v" ~leaf:l_svr4 (W.forever_compute (Time.seconds 100)) in
  Leaf_sched.Svr4_leaf.add svr4 ~tid:t2 Hsfq_sched.Svr4.Ts;
  Kernel.start k t2;
  let t3 = Kernel.spawn k ~name:"e" ~leaf:l_edf (W.forever_compute (Time.seconds 100)) in
  Leaf_sched.Edf_leaf.add edf ~tid:t3 ~relative_deadline:(Time.milliseconds 50);
  Kernel.start k t3;
  Kernel.run_until k (Time.seconds 4);
  let c1 = Kernel.cpu_time k t1 and c2 = Kernel.cpu_time k t2 and c3 = Kernel.cpu_time k t3 in
  check_int "node shares 2:1:1 — sfq half" (Time.seconds 2) c1;
  check_int "svr4 quarter" (Time.seconds 1) c2;
  check_int "edf quarter" (Time.seconds 1) c3

(* ------------------------------- SFQ ---------------------------------- *)

(* A member is an SFQ client from [add] on, so its weight can be
   re-administered before it first runs, and the first wake charges at
   the new weight: F = S + l·unit/w with S = v = 0. *)
let test_sfq_leaf_set_weight_before_first_run () =
  let lf, h = Leaf_sched.Sfq_leaf.make () in
  Leaf_sched.Sfq_leaf.add h ~tid:7 ~weight:1.0;
  Leaf_sched.Sfq_leaf.set_weight h ~tid:7 ~weight:2.0;
  let sfq = Leaf_sched.Sfq_leaf.sfq h in
  check_bool "admitted blocked" false (Sfq.is_runnable sfq ~id:7);
  lf.enqueue ~now:0 7;
  check_int "selected" 7 (lf.select_id ~now:0);
  lf.charge ~now:0 7 ~service:(Time.milliseconds 10) ~runnable:false;
  check_int "weight 2.0" (2 * Hsfq_sched.Vtime.unit) (Sfq.weight sfq ~id:7);
  check_int "finish tag at weight 2.0" (Time.milliseconds 5) (Sfq.finish_tag sfq ~id:7)

(* The leaf holds no weights of its own: a detached member is gone from
   the SFQ, and a second [add] re-admits it. *)
let test_sfq_leaf_detach_readmit () =
  let lf, h = Leaf_sched.Sfq_leaf.make () in
  let sfq = Leaf_sched.Sfq_leaf.sfq h in
  Leaf_sched.Sfq_leaf.add h ~tid:3 ~weight:1.0;
  Alcotest.check_raises "duplicate add"
    (Invalid_argument "Sfq.admit: client 3 already known") (fun () ->
      Leaf_sched.Sfq_leaf.add h ~tid:3 ~weight:1.0);
  lf.detach 3;
  check_bool "departed" false (Sfq.mem sfq ~id:3);
  Alcotest.check_raises "wake after detach" (Invalid_argument "Sfq: unknown client 3")
    (fun () -> lf.enqueue ~now:0 3);
  Leaf_sched.Sfq_leaf.add h ~tid:3 ~weight:4.0;
  lf.enqueue ~now:0 3;
  check_int "backlogged" 1 (lf.backlogged ());
  check_int "re-admitted weight" (4 * Hsfq_sched.Vtime.unit) (Sfq.weight sfq ~id:3)

let () =
  Alcotest.run "leaf-adapters"
    [
      ( "sfq",
        [
          Alcotest.test_case "set_weight before the first run" `Quick
            test_sfq_leaf_set_weight_before_first_run;
          Alcotest.test_case "detach and re-admit" `Quick test_sfq_leaf_detach_readmit;
        ] );
      ( "svr4",
        [
          Alcotest.test_case "TS threads share" `Quick test_svr4_leaf_runs_ts_threads;
          Alcotest.test_case "RT preempts in kernel" `Quick
            test_svr4_leaf_rt_preempts_in_kernel;
        ] );
      ( "edf",
        [
          Alcotest.test_case "feasible set meets deadlines" `Quick
            test_edf_leaf_meets_feasible_deadlines;
        ] );
      ( "gps",
        [
          Alcotest.test_case "wfq-rt proportional at full capacity" `Quick
            test_gps_leaf_proportional_at_full_capacity;
        ] );
      ( "fair-leaf",
        [
          Alcotest.test_case "stride under the kernel" `Quick
            test_fair_leaf_stride_in_kernel;
        ] );
      ( "heterogeneous",
        [
          Alcotest.test_case "three classes, one tree" `Quick
            test_three_heterogeneous_leaves;
        ] );
    ]
