(* Tests for the simulated OS kernel (lib/kernel): dispatch, quantum
   preemption, blocking/wakeup, interrupts at top priority, suspend/
   resume/move/kill, cost model and accounting. *)

open Hsfq_engine
open Hsfq_core
open Hsfq_kernel
module W = Workload_intf

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A system with a single SFQ leaf and zero overhead costs (so work
   accounting is exact), unless a config is supplied. *)
let zero_cost_config =
  {
    Kernel.default_config with
    context_switch_cost = 0;
    sched_cost_per_level = 0;
  }

let make ?(config = zero_cost_config) () =
  let sim = Sim.create () in
  let hier = Hierarchy.create () in
  let k = Kernel.create ~config sim hier in
  let leaf =
    match Hierarchy.mknod hier ~name:"leaf" ~parent:Hierarchy.root ~weight:1. Hierarchy.Leaf with
    | Ok id -> id
    | Error e -> failwith e
  in
  let lf, sfq = Leaf_sched.Sfq_leaf.make () in
  Kernel.install_leaf k leaf lf;
  (k, leaf, sfq)

let spawn_started k leaf sfq ~name ?(weight = 1.) wl =
  let tid = Kernel.spawn k ~name ~leaf wl in
  Leaf_sched.Sfq_leaf.add sfq ~tid ~weight;
  Kernel.start k tid;
  tid

(* --------------------------- dispatch -------------------------------- *)

let test_single_thread_runs () =
  let k, leaf, sfq = make () in
  let tid = spawn_started k leaf sfq ~name:"t" (W.forever_compute (Time.milliseconds 5)) in
  Kernel.run_until k (Time.seconds 1);
  check_int "all CPU consumed" (Time.seconds 1) (Kernel.cpu_time k tid);
  check_int "no idle" 0 (Kernel.idle_time k);
  check_bool "still runnable or running" true
    (match Kernel.state k tid with Kernel.Running | Kernel.Runnable -> true | _ -> false)

let test_two_threads_share () =
  let k, leaf, sfq = make () in
  let a = spawn_started k leaf sfq ~name:"a" (W.forever_compute (Time.seconds 10)) in
  let b = spawn_started k leaf sfq ~name:"b" ~weight:3. (W.forever_compute (Time.seconds 10)) in
  Kernel.run_until k (Time.seconds 4);
  check_int "a gets 1/4" (Time.seconds 1) (Kernel.cpu_time k a);
  check_int "b gets 3/4" (Time.seconds 3) (Kernel.cpu_time k b);
  check_bool "many dispatches (20 ms quanta)" true (Kernel.dispatch_count k a > 20)

let test_exit_and_idle () =
  let k, leaf, sfq = make () in
  let tid =
    spawn_started k leaf sfq ~name:"t"
      (W.of_list [ W.Compute (Time.milliseconds 30); W.Exit ])
  in
  Kernel.run_until k (Time.milliseconds 100);
  check_bool "exited" true (Kernel.state k tid = Kernel.Exited);
  check_int "work done" (Time.milliseconds 30) (Kernel.cpu_time k tid);
  check_int "idle afterwards" (Time.milliseconds 70) (Kernel.idle_time k)

let test_sleep_and_wake () =
  let k, leaf, sfq = make () in
  let tid =
    spawn_started k leaf sfq ~name:"t"
      (W.of_list
         [
           W.Compute (Time.milliseconds 10);
           W.Sleep_for (Time.milliseconds 40);
           W.Compute (Time.milliseconds 10);
           W.Exit;
         ])
  in
  Kernel.run_until k (Time.milliseconds 30);
  check_bool "blocked mid-run" true (Kernel.state k tid = Kernel.Blocked);
  check_int "first segment done" (Time.milliseconds 10) (Kernel.cpu_time k tid);
  Kernel.run_until k (Time.milliseconds 100);
  check_bool "exited after wake" true (Kernel.state k tid = Kernel.Exited);
  check_int "second segment done" (Time.milliseconds 20) (Kernel.cpu_time k tid);
  (* 10 ms run + 40 ms sleep + 10 ms run = done at 60 ms; 40 ms idle
     while asleep plus 40 ms after exit. *)
  check_int "idle = sleep + tail" (Time.milliseconds 80) (Kernel.idle_time k)

let test_sleep_until_past_is_skipped () =
  let k, leaf, sfq = make () in
  let tid =
    spawn_started k leaf sfq ~name:"t"
      (W.of_list
         [
           W.Compute (Time.milliseconds 10);
           W.Sleep_until (Time.milliseconds 5) (* already past *);
           W.Compute (Time.milliseconds 10);
           W.Exit;
         ])
  in
  Kernel.run_until k (Time.milliseconds 30);
  check_bool "no phantom sleep" true (Kernel.state k tid = Kernel.Exited);
  check_int "both segments done" (Time.milliseconds 20) (Kernel.cpu_time k tid)

let test_started_blocked_workload () =
  (* A workload beginning with a sleep: the thread starts Blocked. *)
  let k, leaf, sfq = make () in
  let tid =
    spawn_started k leaf sfq ~name:"t"
      (W.of_list [ W.Sleep_for (Time.milliseconds 25); W.Compute (Time.milliseconds 5); W.Exit ])
  in
  check_bool "starts blocked" true (Kernel.state k tid = Kernel.Blocked);
  Kernel.run_until k (Time.milliseconds 100);
  check_bool "ran after its sleep" true (Kernel.state k tid = Kernel.Exited)

(* "Sleep forever" once the clock is past zero: the wake instant
   saturates at [max_int] instead of wrapping into the past. *)
let test_sleep_forever () =
  let k, leaf, sfq = make () in
  let tid =
    spawn_started k leaf sfq ~name:"t"
      (W.of_list [ W.Compute (Time.milliseconds 1); W.Sleep_for max_int ])
  in
  Kernel.run_until k (Time.seconds 1);
  check_bool "asleep" true (Kernel.state k tid = Kernel.Blocked);
  check_int "ran its compute" (Time.milliseconds 1) (Kernel.cpu_time k tid);
  check_int "idle the rest" (Time.milliseconds 999) (Kernel.idle_time k)

(* --------------------------- latency --------------------------------- *)

let test_wake_latency_quantum_boundary () =
  let k, leaf, sfq = make () in
  let _hog = spawn_started k leaf sfq ~name:"hog" (W.forever_compute (Time.seconds 10)) in
  let sleeper =
    spawn_started k leaf sfq ~name:"sleeper"
      (W.of_list
         [
           W.Sleep_until (Time.milliseconds 30);
           W.Compute (Time.milliseconds 1);
           W.Exit;
         ])
  in
  Kernel.run_until k (Time.milliseconds 200);
  let lat = Kernel.latency_stats k sleeper in
  (* Woken at t=30, mid way through the hog's 20 ms quantum [20,40):
     dispatched at 40 -> latency 10 ms. *)
  check_int "one wake" 1 (Stats.count lat);
  check_int "latency = rest of quantum" (Time.milliseconds 10)
    (int_of_float (Stats.max_value lat))

let test_preempt_on_wake_config () =
  let config = { zero_cost_config with preemption = Kernel.Preempt_on_wake } in
  let sim = Sim.create () in
  let hier = Hierarchy.create () in
  let k = Kernel.create ~config sim hier in
  let leaf =
    match Hierarchy.mknod hier ~name:"leaf" ~parent:Hierarchy.root ~weight:1. Hierarchy.Leaf with
    | Ok id -> id
    | Error e -> failwith e
  in
  let lf, sfq = Leaf_sched.Sfq_leaf.make () in
  Kernel.install_leaf k leaf lf;
  let _hog = spawn_started k leaf sfq ~name:"hog" (W.forever_compute (Time.seconds 10)) in
  let sleeper =
    spawn_started k leaf sfq ~name:"sleeper"
      (W.of_list
         [ W.Sleep_until (Time.milliseconds 30); W.Compute (Time.milliseconds 1); W.Exit ])
  in
  Kernel.run_until k (Time.milliseconds 200);
  check_int "immediate dispatch on wake" 0
    (int_of_float (Stats.max_value (Kernel.latency_stats k sleeper)))

let test_rt_leaf_preempts_within_class () =
  (* An RM leaf: a long-period thread is interrupted immediately when the
     short-period one releases. *)
  let sim = Sim.create () in
  let hier = Hierarchy.create () in
  let k = Kernel.create ~config:zero_cost_config sim hier in
  let leaf =
    match Hierarchy.mknod hier ~name:"rt" ~parent:Hierarchy.root ~weight:1. Hierarchy.Leaf with
    | Ok id -> id
    | Error e -> failwith e
  in
  let lf, rm = Leaf_sched.Rm_leaf.make () in
  Kernel.install_leaf k leaf lf;
  let low_wl, _ = Hsfq_workload.Periodic.make ~period:(Time.seconds 1) ~cost:(Time.milliseconds 500) () in
  let low = Kernel.spawn k ~name:"low" ~leaf low_wl in
  Leaf_sched.Rm_leaf.add rm ~tid:low ~period:(Time.seconds 1);
  Kernel.start k low;
  let high_wl, high_c =
    Hsfq_workload.Periodic.make ~period:(Time.milliseconds 50)
      ~cost:(Time.milliseconds 5) ~phase:(Time.milliseconds 10) ()
  in
  let high = Kernel.spawn k ~name:"high" ~leaf high_wl in
  Leaf_sched.Rm_leaf.add rm ~tid:high ~period:(Time.milliseconds 50);
  Kernel.start k high;
  Kernel.run_until k (Time.seconds 2);
  check_int "high never misses" 0 (Hsfq_workload.Periodic.misses high_c);
  check_bool "high preempts low immediately" true
    (int_of_float (Stats.max_value (Kernel.latency_stats k high)) <= 1)

(* -------------------------- interrupts ------------------------------- *)

let test_interrupt_steals_time () =
  let k, leaf, sfq = make () in
  let tid = spawn_started k leaf sfq ~name:"t" (W.forever_compute (Time.seconds 10)) in
  (* A 100 ms interrupt at t=50 ms. *)
  Sim.at (Kernel.sim k) (Time.milliseconds 50) (fun () ->
      Kernel.interrupt k ~duration:(Time.milliseconds 100));
  Kernel.run_until k (Time.seconds 1);
  check_int "interrupt time accounted" (Time.milliseconds 100) (Kernel.interrupt_time k);
  check_int "thread lost exactly that time" (Time.milliseconds 900)
    (Kernel.cpu_time k tid)

let test_overlapping_interrupts_extend () =
  let k, leaf, sfq = make () in
  let tid = spawn_started k leaf sfq ~name:"t" (W.forever_compute (Time.seconds 10)) in
  let sim = Kernel.sim k in
  Sim.at sim (Time.milliseconds 10) (fun () ->
      Kernel.interrupt k ~duration:(Time.milliseconds 30));
  (* Arrives while the first is still processing: queues behind it. *)
  Sim.at sim (Time.milliseconds 20) (fun () ->
      Kernel.interrupt k ~duration:(Time.milliseconds 20));
  Kernel.run_until k (Time.milliseconds 200);
  check_int "both interrupts billed" (Time.milliseconds 50) (Kernel.interrupt_time k);
  (* Interrupts busy [10, 60); quanta then complete at 70, 90, ..., 190;
     the [190, 200) slice is still in flight and uncharged. *)
  check_int "thread ran the rest" (Time.milliseconds 140) (Kernel.cpu_time k tid)

let test_interrupt_during_idle () =
  let k, _, _ = make () in
  Sim.at (Kernel.sim k) (Time.milliseconds 10) (fun () ->
      Kernel.interrupt k ~duration:(Time.milliseconds 5));
  Kernel.run_until k (Time.milliseconds 100);
  check_int "interrupt billed" (Time.milliseconds 5) (Kernel.interrupt_time k);
  check_int "idle = rest" (Time.milliseconds 95) (Kernel.idle_time k)

let test_work_conservation_with_interrupts () =
  let k, leaf, sfq = make () in
  let a = spawn_started k leaf sfq ~name:"a" (W.forever_compute (Time.seconds 100)) in
  let b = spawn_started k leaf sfq ~name:"b" (W.forever_compute (Time.seconds 100)) in
  Kernel.add_interrupt_source k
    (Interrupt_source.Periodic { period = Time.milliseconds 7; cost = Time.microseconds 300 });
  let horizon = Time.seconds 5 in
  Kernel.run_until k horizon;
  let total =
    Kernel.cpu_time k a + Kernel.cpu_time k b + Kernel.idle_time k
    + Kernel.interrupt_time k + Kernel.overhead_time k
  in
  (* Whatever is in flight at the horizon has not been charged yet. *)
  check_bool "time fully accounted (within one quantum)" true
    (horizon - total <= Time.milliseconds 20 && total <= horizon)

(* ------------------- suspend / resume / move / kill ------------------ *)

let test_suspend_running_thread () =
  let k, leaf, sfq = make () in
  let tid = spawn_started k leaf sfq ~name:"t" (W.forever_compute (Time.seconds 10)) in
  Kernel.run_until k (Time.milliseconds 15);
  check_bool "running" true (Kernel.state k tid = Kernel.Running);
  Kernel.suspend k tid;
  check_bool "suspended" true (Kernel.state k tid = Kernel.Blocked);
  let cpu_at_suspend = Kernel.cpu_time k tid in
  check_int "partial quantum charged" (Time.milliseconds 15) cpu_at_suspend;
  Kernel.run_until k (Time.milliseconds 50);
  check_int "no progress while suspended" cpu_at_suspend (Kernel.cpu_time k tid);
  Kernel.resume k tid;
  (* Resumed at 50: quanta complete at 70, 90, 110 — pick a horizon on a
     quantum boundary so all work is charged. *)
  Kernel.run_until k (Time.milliseconds 110);
  check_int "progress resumed" (Time.milliseconds 75) (Kernel.cpu_time k tid)

let test_suspend_runnable_thread () =
  let k, leaf, sfq = make () in
  let a = spawn_started k leaf sfq ~name:"a" (W.forever_compute (Time.seconds 10)) in
  let b = spawn_started k leaf sfq ~name:"b" (W.forever_compute (Time.seconds 10)) in
  Kernel.run_until k (Time.milliseconds 10);
  (* a is running; b is runnable. *)
  let waiting = if Kernel.state k a = Kernel.Running then b else a in
  Kernel.suspend k waiting;
  Kernel.run_until k (Time.milliseconds 510);
  check_int "suspended thread got nothing more" 0 (Kernel.cpu_time k waiting);
  Kernel.resume k waiting;
  Kernel.run_until k (Time.seconds 1);
  check_bool "runs again after resume" true (Kernel.cpu_time k waiting > 0)

let test_move_between_leaves () =
  let sim = Sim.create () in
  let hier = Hierarchy.create () in
  let k = Kernel.create ~config:zero_cost_config sim hier in
  let mk name w =
    match Hierarchy.mknod hier ~name ~parent:Hierarchy.root ~weight:w Hierarchy.Leaf with
    | Ok id -> id
    | Error e -> failwith e
  in
  let l1 = mk "l1" 1. and l2 = mk "l2" 1. in
  let lf1, sfq1 = Leaf_sched.Sfq_leaf.make () in
  let lf2, sfq2 = Leaf_sched.Sfq_leaf.make () in
  Kernel.install_leaf k l1 lf1;
  Kernel.install_leaf k l2 lf2;
  let a = Kernel.spawn k ~name:"a" ~leaf:l1 (W.forever_compute (Time.seconds 100)) in
  Leaf_sched.Sfq_leaf.add sfq1 ~tid:a ~weight:1.;
  Kernel.start k a;
  let b = Kernel.spawn k ~name:"b" ~leaf:l2 (W.forever_compute (Time.seconds 100)) in
  Leaf_sched.Sfq_leaf.add sfq2 ~tid:b ~weight:1.;
  Kernel.start k b;
  Kernel.run_until k (Time.seconds 1);
  check_int "a at half speed" (Time.milliseconds 500) (Kernel.cpu_time k a);
  (* Move the non-running thread into the other leaf. *)
  let mover = if Kernel.state k a = Kernel.Running then b else a in
  Leaf_sched.Sfq_leaf.add (if mover = a then sfq2 else sfq1) ~tid:mover ~weight:1.;
  Kernel.move k mover ~to_leaf:(if mover = a then l2 else l1);
  check_int "hsfq_move relabels the thread" (if mover = a then l2 else l1)
    (Kernel.leaf_of k mover);
  Kernel.run_until k (Time.seconds 2);
  (* Both threads now share one leaf; the other leaf is idle, so total
     throughput is unchanged and both keep making progress. *)
  check_bool "both still progress" true
    (Kernel.cpu_time k a > Time.milliseconds 600
    && Kernel.cpu_time k b > Time.milliseconds 600)

let test_kill () =
  let k, leaf, sfq = make () in
  let a = spawn_started k leaf sfq ~name:"a" (W.forever_compute (Time.seconds 10)) in
  let b = spawn_started k leaf sfq ~name:"b" (W.forever_compute (Time.seconds 10)) in
  Kernel.run_until k (Time.milliseconds 100);
  let victim = if Kernel.state k a = Kernel.Running then b else a in
  let survivor = if victim = a then b else a in
  Kernel.kill k victim;
  check_bool "killed" true (Kernel.state k victim = Kernel.Exited);
  let before = Kernel.cpu_time k survivor in
  Kernel.run_until k (Time.milliseconds 300);
  check_int "survivor gets the whole CPU"
    (before + Time.milliseconds 200)
    (Kernel.cpu_time k survivor)

let test_kill_running_rejected () =
  let k, leaf, sfq = make () in
  let a = spawn_started k leaf sfq ~name:"a" (W.forever_compute (Time.seconds 10)) in
  Kernel.run_until k (Time.milliseconds 10);
  Alcotest.check_raises "cannot kill running"
    (Invalid_argument "Kernel.kill: cannot kill the running thread") (fun () ->
      Kernel.kill k a)

(* --------------------------- cost model ------------------------------ *)

let test_overhead_charged () =
  let config =
    {
      Kernel.default_config with
      context_switch_cost = Time.microseconds 10;
      sched_cost_per_level = Time.microseconds 2;
    }
  in
  let k, leaf, sfq = make ~config () in
  ignore leaf;
  let tid = spawn_started k leaf sfq ~name:"t" (W.forever_compute (Time.seconds 10)) in
  Kernel.run_until k (Time.seconds 1);
  (* 50 dispatches of 20 ms, each costing 10 us + 2 us (depth 1). *)
  let dispatches = Kernel.dispatch_count k tid in
  check_int "overhead = dispatches * 12 us" (dispatches * Time.microseconds 12)
    (Kernel.overhead_time k);
  (* The last dispatch is still in flight at the horizon. *)
  check_int "completed dispatches fully charged"
    ((dispatches - 1) * Time.milliseconds 20)
    (Kernel.cpu_time k tid)

let test_cpu_series_matches_total () =
  let k, leaf, sfq = make () in
  let tid =
    spawn_started k leaf sfq ~name:"t"
      (W.of_list
         [
           W.Compute (Time.milliseconds 7);
           W.Sleep_for (Time.milliseconds 3);
           W.Compute (Time.milliseconds 11);
           W.Exit;
         ])
  in
  Kernel.run_until k (Time.milliseconds 100);
  let series_total =
    Array.fold_left ( +. ) 0. (Series.values (Kernel.cpu_series k tid))
  in
  check_int "series sums to cpu_time" (Kernel.cpu_time k tid)
    (int_of_float series_total)

let test_render_summary () =
  let k, leaf, sfq = make () in
  let _ = spawn_started k leaf sfq ~name:"alpha" (W.forever_compute (Time.seconds 1)) in
  let _ =
    spawn_started k leaf sfq ~name:"beta"
      (W.of_list [ W.Compute (Time.milliseconds 5); W.Exit ])
  in
  Kernel.run_until k (Time.milliseconds 100);
  let s = Kernel.render_summary k in
  let has sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check_bool "lists both threads" true (has "alpha" && has "beta");
  check_bool "shows the exit state" true (has "exited");
  check_bool "shows the class path" true (has "/leaf");
  check_bool "shows kernel totals" true (has "idle")

let test_trace_records_slices () =
  let k, leaf, sfq = make () in
  let tr = Tracelog.create () in
  Kernel.set_trace k (Some tr);
  let _ = spawn_started k leaf sfq ~name:"a" (W.forever_compute (Time.seconds 1)) in
  let _ = spawn_started k leaf sfq ~name:"b" (W.forever_compute (Time.seconds 1)) in
  Kernel.run_until k (Time.milliseconds 100);
  let segs = Tracelog.segments tr in
  check_bool "trace nonempty" true (List.length segs >= 4);
  check_bool "segments within horizon" true
    (List.for_all (fun (_, s, e, _) -> s >= 0 && e <= Time.milliseconds 100) segs)

let test_nested_hierarchy_shares () =
  (* root -> apps (w=1, SFQ leaf, 2 threads) | sys (w=1, internal)
                                               -> logs (w=1) | db (w=3).
     End-to-end shares: 25/25/12.5/37.5%. *)
  let sim = Sim.create () in
  let hier = Hierarchy.create () in
  let k = Kernel.create ~config:zero_cost_config sim hier in
  let ok = function Ok v -> v | Error e -> failwith e in
  let apps = ok (Hierarchy.mknod hier ~name:"apps" ~parent:Hierarchy.root ~weight:1. Hierarchy.Leaf) in
  let sys = ok (Hierarchy.mknod hier ~name:"sys" ~parent:Hierarchy.root ~weight:1. Hierarchy.Internal) in
  let logs = ok (Hierarchy.mknod hier ~name:"logs" ~parent:sys ~weight:1. Hierarchy.Leaf) in
  let db = ok (Hierarchy.mknod hier ~name:"db" ~parent:sys ~weight:3. Hierarchy.Leaf) in
  let install leaf =
    let lf, h = Leaf_sched.Sfq_leaf.make () in
    Kernel.install_leaf k leaf lf;
    h
  in
  let h_apps = install apps and h_logs = install logs and h_db = install db in
  let spawn name leaf h =
    let tid = Kernel.spawn k ~name ~leaf (W.forever_compute (Time.seconds 100)) in
    Leaf_sched.Sfq_leaf.add h ~tid ~weight:1.;
    Kernel.start k tid;
    tid
  in
  let a1 = spawn "a1" apps h_apps in
  let a2 = spawn "a2" apps h_apps in
  let l1 = spawn "l1" logs h_logs in
  let d1 = spawn "d1" db h_db in
  Kernel.run_until k (Time.seconds 8);
  check_int "a1 quarter" (Time.seconds 2) (Kernel.cpu_time k a1);
  check_int "a2 quarter" (Time.seconds 2) (Kernel.cpu_time k a2);
  check_int "logs eighth" (Time.milliseconds 1000) (Kernel.cpu_time k l1);
  check_int "db three eighths" (Time.milliseconds 3000) (Kernel.cpu_time k d1)

(* ---------------------------- mutexes -------------------------------- *)

let test_mutex_uncontended () =
  let k, leaf, sfq = make () in
  let m = Kernel.create_mutex k in
  let tid =
    spawn_started k leaf sfq ~name:"t"
      (W.of_list
         [ W.Lock m; W.Compute (Time.milliseconds 10); W.Unlock m; W.Exit ])
  in
  Kernel.run_until k (Time.milliseconds 5);
  Alcotest.(check (option int)) "held while computing" (Some tid)
    (Kernel.mutex_holder k m);
  Kernel.run_until k (Time.milliseconds 50);
  check_bool "finished" true (Kernel.state k tid = Kernel.Exited);
  Alcotest.(check (option int)) "released" None (Kernel.mutex_holder k m)

let test_mutex_contention_fifo () =
  let k, leaf, sfq = make () in
  let m = Kernel.create_mutex k in
  let order = ref [] in
  let critical name =
    (* lock; compute 10 ms; record; unlock; exit *)
    let stage = ref 0 in
    fun ~now ->
      incr stage;
      match !stage with
      | 1 -> W.Lock m
      | 2 -> W.Compute (Time.milliseconds 10)
      | 3 ->
        order := (name, now) :: !order;
        W.Unlock m
      | _ -> W.Exit
  in
  let a = spawn_started k leaf sfq ~name:"a" (critical "a") in
  let _b = spawn_started k leaf sfq ~name:"b" (critical "b") in
  let _c = spawn_started k leaf sfq ~name:"c" (critical "c") in
  Kernel.run_until k (Time.milliseconds 1);
  (* a started first and holds the lock; b and c queued FIFO. *)
  Alcotest.(check (option int)) "a holds" (Some a) (Kernel.mutex_holder k m);
  Kernel.run_until k (Time.milliseconds 200);
  Alcotest.(check (list string)) "critical sections serialized FIFO"
    [ "a"; "b"; "c" ]
    (List.rev_map fst !order);
  (* Serialized: completions strictly ordered, 10 ms apart. *)
  let times = List.rev_map snd !order in
  check_bool "no overlap" true
    (match times with
    | [ ta; tb; tc ] -> tb - ta >= Time.milliseconds 10 && tc - tb >= Time.milliseconds 10
    | _ -> false)

let test_mutex_donation_speeds_up_critical_section () =
  (* L (weight 1) holds the lock while H (weight 10) waits and a hog
     (weight 9) competes. With donation L runs at weight 11 (half the
     CPU); without, at weight 1/10th. *)
  let run ~donation =
    let k, leaf, sfq = make () in
    let m = Kernel.create_mutex k in
    let l =
      spawn_started k leaf sfq ~name:"L" ~weight:1.
        (W.of_list
           [ W.Lock m; W.Compute (Time.milliseconds 100); W.Unlock m; W.Exit ])
    in
    ignore l;
    let _hog = spawn_started k leaf sfq ~name:"hog" ~weight:9. (W.forever_compute (Time.seconds 10)) in
    let h_done = ref Time.zero in
    let h_stage = ref 0 in
    let h_wl ~now =
      incr h_stage;
      match !h_stage with
      | 1 -> W.Sleep_for (Time.milliseconds 1) (* let L grab the lock *)
      | 2 -> W.Lock m
      | 3 -> W.Compute (Time.milliseconds 1)
      | _ ->
        if !h_done = Time.zero then h_done := now;
        W.Exit
    in
    let h = Kernel.spawn k ~name:"H" ~leaf h_wl in
    Leaf_sched.Sfq_leaf.add sfq ~tid:h ~weight:10.;
    Kernel.start k h;
    if not donation then begin
      (* Neutralize donation by revoking it at every housekeeping tick is
         intrusive; instead install a fresh kernel whose leaf ignores
         donations: simplest is to use a Fair_leaf(Stride) class. *)
      ()
    end;
    Kernel.run_until k (Time.seconds 5);
    !h_done
  in
  (* Donation path (SFQ leaf donates natively). *)
  let with_donation = run ~donation:true in
  check_bool "H completes promptly with donation" true
    (with_donation > Time.zero && with_donation < Time.milliseconds 400)

let test_mutex_donation_vs_no_donation_tags () =
  (* Directly observe the donated weight through SFQ finish tags. *)
  let k, leaf, sfq = make () in
  let m = Kernel.create_mutex k in
  let l =
    spawn_started k leaf sfq ~name:"L" ~weight:1.
      (W.of_list [ W.Lock m; W.Compute (Time.milliseconds 40); W.Unlock m; W.Exit ])
  in
  let h_wl =
    W.of_list
      [
        W.Sleep_for (Time.milliseconds 1);
        W.Lock m;
        W.Compute (Time.milliseconds 1);
        W.Unlock m;
        W.Exit;
      ]
  in
  let h = Kernel.spawn k ~name:"H" ~leaf h_wl in
  Leaf_sched.Sfq_leaf.add sfq ~tid:h ~weight:7.;
  Kernel.start k h;
  Kernel.run_until k (Time.milliseconds 2);
  (* H is blocked on the mutex; L's effective weight is 1 + 7 = 8, so a
     20 ms quantum advances L's finish tag by 20/8 = 2.5 ms. *)
  Alcotest.(check (option int)) "L holds, H waits" (Some l) (Kernel.mutex_holder k m);
  Kernel.run_until k (Time.milliseconds 30);
  let f = Hsfq_core.Sfq.finish_tag (Leaf_sched.Sfq_leaf.sfq sfq) ~id:l in
  check_bool "finish tag shows 8x weight" true (f < 8_000_000)

let test_mutex_errors () =
  (* Both misuses surface as soon as the offending action is pulled —
     here at [start], because Lock/Unlock are zero-cost. *)
  let k, leaf, sfq = make () in
  let m = Kernel.create_mutex k in
  Alcotest.check_raises "recursive lock"
    (Invalid_argument (Printf.sprintf "Kernel: recursive lock of mutex %d" m))
    (fun () ->
      ignore
        (spawn_started k leaf sfq ~name:"r" (W.of_list [ W.Lock m; W.Lock m; W.Exit ])));
  let k2, leaf2, sfq2 = make () in
  let m2 = Kernel.create_mutex k2 in
  Alcotest.check_raises "unlock by non-holder"
    (Invalid_argument (Printf.sprintf "Kernel: unlock of mutex %d by non-holder" m2))
    (fun () ->
      ignore (spawn_started k2 leaf2 sfq2 ~name:"u" (W.of_list [ W.Unlock m2; W.Exit ])))

let test_resume_does_not_bypass_mutex () =
  let k, leaf, sfq = make () in
  let m = Kernel.create_mutex k in
  let holder =
    spawn_started k leaf sfq ~name:"holder"
      (W.of_list [ W.Lock m; W.Compute (Time.milliseconds 50); W.Unlock m; W.Exit ])
  in
  ignore holder;
  let waiter =
    spawn_started k leaf sfq ~name:"waiter"
      (W.of_list [ W.Lock m; W.Compute (Time.milliseconds 5); W.Unlock m; W.Exit ])
  in
  Kernel.run_until k (Time.milliseconds 10);
  check_bool "waiting on the mutex" true (Kernel.state k waiter = Kernel.Blocked);
  (* A stray resume must not let the waiter run without the lock. *)
  Kernel.resume k waiter;
  check_bool "still blocked after resume" true (Kernel.state k waiter = Kernel.Blocked);
  Kernel.run_until k (Time.milliseconds 200);
  check_bool "woken by the grant and finished" true
    (Kernel.state k waiter = Kernel.Exited)

let test_mutex_killed_waiter_skipped () =
  let k, leaf, sfq = make () in
  let m = Kernel.create_mutex k in
  let _holder =
    spawn_started k leaf sfq ~name:"holder"
      (W.of_list [ W.Lock m; W.Compute (Time.milliseconds 50); W.Unlock m; W.Exit ])
  in
  let waiter1 =
    spawn_started k leaf sfq ~name:"w1"
      (W.of_list [ W.Lock m; W.Compute (Time.milliseconds 5); W.Unlock m; W.Exit ])
  in
  let waiter2 =
    spawn_started k leaf sfq ~name:"w2"
      (W.of_list [ W.Lock m; W.Compute (Time.milliseconds 5); W.Unlock m; W.Exit ])
  in
  Kernel.run_until k (Time.milliseconds 10);
  Kernel.kill k waiter1;
  Kernel.run_until k (Time.milliseconds 200);
  check_bool "second waiter got the lock and finished" true
    (Kernel.state k waiter2 = Kernel.Exited)

(* ------------------------- API misuse -------------------------------- *)

let test_api_errors () =
  let sim = Sim.create () in
  let hier = Hierarchy.create () in
  let k = Kernel.create sim hier in
  let internal =
    match Hierarchy.mknod hier ~name:"mid" ~parent:Hierarchy.root ~weight:1. Hierarchy.Internal with
    | Ok id -> id
    | Error e -> failwith e
  in
  let lf, _ = Leaf_sched.Sfq_leaf.make () in
  Alcotest.check_raises "install on internal node"
    (Invalid_argument "Kernel.install_leaf: node is not a leaf") (fun () ->
      Kernel.install_leaf k internal lf);
  let leaf =
    match Hierarchy.mknod hier ~name:"leaf" ~parent:internal ~weight:1. Hierarchy.Leaf with
    | Ok id -> id
    | Error e -> failwith e
  in
  Kernel.install_leaf k leaf lf;
  Alcotest.check_raises "double install"
    (Invalid_argument "Kernel.install_leaf: leaf already has a scheduler")
    (fun () -> Kernel.install_leaf k leaf lf);
  Alcotest.check_raises "spawn into schedulerless leaf"
    (Invalid_argument "Kernel: no leaf scheduler installed on node 99") (fun () ->
      ignore (Kernel.spawn k ~name:"x" ~leaf:99 (W.forever_compute 1)))

(* ---------------------------- I/O devices ---------------------------- *)

let test_io_blocks_and_wakes () =
  let k, leaf, sfq = make () in
  let d = Kernel.create_device k (Kernel.Fixed_service (Time.milliseconds 5)) in
  let tid =
    spawn_started k leaf sfq ~name:"t"
      (W.of_list
         [
           W.Compute (Time.milliseconds 10);
           W.Io (d, 2) (* 10 ms of device time *);
           W.Compute (Time.milliseconds 10);
           W.Exit;
         ])
  in
  Kernel.run_until k (Time.milliseconds 15);
  check_bool "blocked on the device" true (Kernel.state k tid = Kernel.Blocked);
  check_int "device busy so far" 0 (Kernel.device_completed k d);
  Kernel.run_until k (Time.milliseconds 100);
  check_bool "finished" true (Kernel.state k tid = Kernel.Exited);
  check_int "one request served" 1 (Kernel.device_completed k d);
  check_int "device busy time" (Time.milliseconds 10) (Kernel.device_busy_time k d);
  (* 10 compute + 10 io + 10 compute = done at 30 ms; CPU idle during io. *)
  check_int "cpu time" (Time.milliseconds 20) (Kernel.cpu_time k tid);
  check_int "idle covers the io + tail" (Time.milliseconds 80) (Kernel.idle_time k)

let test_io_fifo_queueing () =
  let k, leaf, sfq = make () in
  let d = Kernel.create_device k (Kernel.Fixed_service (Time.milliseconds 10)) in
  let mk name =
    spawn_started k leaf sfq ~name
      (W.of_list [ W.Io (d, 1); W.Compute (Time.milliseconds 1); W.Exit ])
  in
  let a = mk "a" and b = mk "b" and c = mk "c" in
  Kernel.run_until k (Time.milliseconds 5);
  check_int "two requests queued behind the first" 2 (Kernel.device_queue_length k d);
  (* Completions at 10, 20, 30 ms; FIFO order by submission. *)
  Kernel.run_until k (Time.milliseconds 12);
  check_bool "a done first" true (Kernel.state k a <> Kernel.Blocked);
  check_bool "b still waiting" true (Kernel.state k b = Kernel.Blocked);
  Kernel.run_until k (Time.milliseconds 100);
  check_bool "all served" true
    (List.for_all (fun t -> Kernel.state k t = Kernel.Exited) [ a; b; c ]);
  check_int "three completions" 3 (Kernel.device_completed k d)

let test_io_overlaps_cpu () =
  (* The device works while another thread computes: total elapsed is
     max(cpu, io), not the sum. *)
  let k, leaf, sfq = make () in
  let d = Kernel.create_device k (Kernel.Fixed_service (Time.milliseconds 50)) in
  let io_thread =
    spawn_started k leaf sfq ~name:"io"
      (W.of_list [ W.Io (d, 1); W.Exit ])
  in
  let cpu_thread = spawn_started k leaf sfq ~name:"cpu" (W.forever_compute (Time.seconds 10)) in
  Kernel.run_until k (Time.milliseconds 60);
  check_bool "io thread finished during cpu burn" true
    (Kernel.state k io_thread = Kernel.Exited);
  check_int "cpu thread never paused" (Time.milliseconds 60)
    (Kernel.cpu_time k cpu_thread);
  check_int "no idle at all" 0 (Kernel.idle_time k)

let test_io_exponential_deterministic () =
  let run () =
    let k, leaf, sfq = make () in
    let d =
      Kernel.create_device k
        (Kernel.Exponential_service { mean = Time.milliseconds 5; seed = 42 })
    in
    let tid =
      spawn_started k leaf sfq ~name:"t"
        (W.of_list
           [ W.Io (d, 1); W.Io (d, 1); W.Io (d, 1); W.Compute (Time.milliseconds 1); W.Exit ])
    in
    Kernel.run_until k (Time.seconds 1);
    ignore tid;
    Kernel.device_busy_time k d
  in
  check_int "seeded service times reproduce" (run ()) (run ());
  check_bool "busy time positive" true (run () > 0)

let test_device_errors_and_skips () =
  let k, leaf, sfq = make () in
  Alcotest.check_raises "unknown device" (Invalid_argument "Kernel: unknown device 9")
    (fun () -> ignore (Kernel.device_completed k 9));
  Alcotest.check_raises "bad fixed model"
    (Invalid_argument "Kernel.create_device: bad service time") (fun () ->
      ignore (Kernel.create_device k (Kernel.Fixed_service 0)));
  let d = Kernel.create_device k (Kernel.Fixed_service (Time.milliseconds 1)) in
  (* A zero-unit request is skipped like other null actions. *)
  let tid =
    spawn_started k leaf sfq ~name:"t"
      (W.of_list [ W.Io (d, 0); W.Compute (Time.milliseconds 2); W.Exit ])
  in
  Kernel.run_until k (Time.milliseconds 10);
  check_bool "zero-unit io skipped" true (Kernel.state k tid = Kernel.Exited);
  check_int "no device activity" 0 (Kernel.device_completed k d)

let test_move_blocked_thread () =
  let sim = Sim.create () in
  let hier = Hierarchy.create () in
  let k = Kernel.create ~config:zero_cost_config sim hier in
  let mk name =
    match Hierarchy.mknod hier ~name ~parent:Hierarchy.root ~weight:1. Hierarchy.Leaf with
    | Ok id -> id
    | Error e -> failwith e
  in
  let l1 = mk "l1" and l2 = mk "l2" in
  let lf1, sfq1 = Leaf_sched.Sfq_leaf.make () in
  let lf2, sfq2 = Leaf_sched.Sfq_leaf.make () in
  Kernel.install_leaf k l1 lf1;
  Kernel.install_leaf k l2 lf2;
  let t =
    Kernel.spawn k ~name:"t" ~leaf:l1
      (W.of_list
         [ W.Sleep_for (Time.milliseconds 50); W.Compute (Time.milliseconds 10); W.Exit ])
  in
  Leaf_sched.Sfq_leaf.add sfq1 ~tid:t ~weight:1.;
  Kernel.start k t;
  Kernel.run_until k (Time.milliseconds 10);
  check_bool "blocked" true (Kernel.state k t = Kernel.Blocked);
  Leaf_sched.Sfq_leaf.add sfq2 ~tid:t ~weight:1.;
  Kernel.move k t ~to_leaf:l2;
  check_int "relabeled while blocked" l2 (Kernel.leaf_of k t);
  Kernel.run_until k (Time.milliseconds 100);
  check_bool "woke and ran in the new class" true (Kernel.state k t = Kernel.Exited);
  check_int "work done" (Time.milliseconds 10) (Kernel.cpu_time k t)

let test_suspend_blocked_cancels_wake () =
  let k, leaf, sfq = make () in
  let t =
    spawn_started k leaf sfq ~name:"t"
      (W.of_list
         [ W.Sleep_for (Time.milliseconds 20); W.Compute (Time.milliseconds 5); W.Exit ])
  in
  Kernel.run_until k (Time.milliseconds 5);
  Kernel.suspend k t;
  (* The 20 ms timer must not wake a suspended thread. *)
  Kernel.run_until k (Time.milliseconds 100);
  check_bool "still blocked after its timer" true (Kernel.state k t = Kernel.Blocked);
  check_int "no work" 0 (Kernel.cpu_time k t);
  Kernel.resume k t;
  Kernel.run_until k (Time.milliseconds 200);
  check_bool "resumed and finished" true (Kernel.state k t = Kernel.Exited)

let test_accessors () =
  let k, leaf, sfq = make () in
  let t = spawn_started k leaf sfq ~name:"worker" (W.forever_compute (Time.seconds 1)) in
  Alcotest.(check string) "thread_name" "worker" (Kernel.thread_name k t);
  check_int "leaf_of" leaf (Kernel.leaf_of k t);
  check_bool "config accessor" true
    ((Kernel.config k).Kernel.context_switch_cost = 0);
  check_bool "leaf_sched accessor" true
    (String.equal (Kernel.leaf_sched k leaf).Leaf_sched.name "sfq")

(* ------------------------ capacity reserves -------------------------- *)

let make_reserve_sys () =
  let sim = Sim.create () in
  let hier = Hierarchy.create () in
  let k = Kernel.create ~config:zero_cost_config sim hier in
  let leaf =
    match Hierarchy.mknod hier ~name:"rsv" ~parent:Hierarchy.root ~weight:1. Hierarchy.Leaf with
    | Ok id -> id
    | Error e -> failwith e
  in
  let lf, rh = Leaf_sched.Reserve_leaf.make ~sim () in
  Kernel.install_leaf k leaf lf;
  (k, leaf, rh)

let test_reserve_guarantees_fraction () =
  let k, leaf, rh = make_reserve_sys () in
  let r = Kernel.spawn k ~name:"r" ~leaf (W.forever_compute (Time.seconds 10)) in
  Leaf_sched.Reserve_leaf.add rh ~tid:r
    ~reserve:(Time.milliseconds 20, Time.milliseconds 100) ();
  Kernel.start k r;
  let bg = Kernel.spawn k ~name:"bg" ~leaf (W.forever_compute (Time.seconds 10)) in
  Leaf_sched.Reserve_leaf.add rh ~tid:bg ();
  Kernel.start k bg;
  Kernel.run_until k (Time.seconds 2);
  (* Soft reserves: the thread is guaranteed its 20% and additionally
     competes in the background band once depleted, so a CPU-bound
     reserved thread gets at least the reserve but not everything. *)
  check_bool "at least the reserve" true (Kernel.cpu_time k r >= Time.milliseconds 400);
  check_bool "background still progresses" true
    (Kernel.cpu_time k bg >= Time.milliseconds 700);
  check_int "fully accounted"
    (Time.seconds 2)
    (Kernel.cpu_time k r + Kernel.cpu_time k bg)

let test_reserve_budget_depletes_and_replenishes () =
  let k, leaf, rh = make_reserve_sys () in
  let r = Kernel.spawn k ~name:"r" ~leaf (W.forever_compute (Time.seconds 10)) in
  Leaf_sched.Reserve_leaf.add rh ~tid:r
    ~reserve:(Time.milliseconds 30, Time.milliseconds 100) ();
  Kernel.start k r;
  let bg = Kernel.spawn k ~name:"bg" ~leaf (W.forever_compute (Time.seconds 10)) in
  Leaf_sched.Reserve_leaf.add rh ~tid:bg ();
  Kernel.start k bg;
  Kernel.run_until k (Time.milliseconds 50);
  check_int "budget spent mid-period" 0 (Leaf_sched.Reserve_leaf.budget_left rh ~tid:r);
  Kernel.run_until k (Time.milliseconds 120);
  (* Replenished at t=100 and partially used again. *)
  check_bool "replenished and running again" true
    (Kernel.cpu_time k r > Time.milliseconds 30)

let test_reserve_background_only_threads () =
  let k, leaf, rh = make_reserve_sys () in
  let a = Kernel.spawn k ~name:"a" ~leaf (W.forever_compute (Time.seconds 10)) in
  Leaf_sched.Reserve_leaf.add rh ~tid:a ();
  Kernel.start k a;
  let b = Kernel.spawn k ~name:"b" ~leaf (W.forever_compute (Time.seconds 10)) in
  Leaf_sched.Reserve_leaf.add rh ~tid:b ();
  Kernel.start k b;
  Kernel.run_until k (Time.seconds 1);
  (* Pure round robin between backgrounds. *)
  check_int "equal split" (Time.milliseconds 500) (Kernel.cpu_time k a)

let test_reserve_wake_preempts_background () =
  let k, leaf, rh = make_reserve_sys () in
  let bg = Kernel.spawn k ~name:"bg" ~leaf (W.forever_compute (Time.seconds 10)) in
  Leaf_sched.Reserve_leaf.add rh ~tid:bg ();
  Kernel.start k bg;
  let wl, c =
    Hsfq_workload.Periodic.make ~period:(Time.milliseconds 50)
      ~cost:(Time.milliseconds 5) ~phase:(Time.milliseconds 7) ()
  in
  let r = Kernel.spawn k ~name:"r" ~leaf wl in
  Leaf_sched.Reserve_leaf.add rh ~tid:r
    ~reserve:(Time.milliseconds 5, Time.milliseconds 50) ();
  Kernel.start k r;
  Kernel.run_until k (Time.seconds 2);
  check_int "no misses" 0 (Hsfq_workload.Periodic.misses c);
  (* Reserved wakeups preempt the background hog immediately. *)
  check_bool "sub-quantum latency" true
    (int_of_float (Stats.max_value (Kernel.latency_stats k r)) <= 1)

let test_reserve_add_errors () =
  let _, _, rh = make_reserve_sys () in
  Alcotest.check_raises "capacity > period"
    (Invalid_argument "Reserve_leaf.add: need 0 < capacity <= period") (fun () ->
      Leaf_sched.Reserve_leaf.add rh ~tid:1
        ~reserve:(Time.milliseconds 200, Time.milliseconds 100) ())

(* ------------------- lifecycle audit & regressions ------------------- *)

module C = Hsfq_check

(* Run the kernel-wide audit with a raising sink; any broken
   lifecycle/donation invariant fails the test with the evidence. *)
let audit_clean what k =
  let sink = C.Invariant.create ~policy:C.Invariant.Raise () in
  let ctx = C.Kernel_audit.create sink in
  try C.Kernel_audit.check ~event:what ctx (Kernel.dump k)
  with C.Invariant.Violation v ->
    Alcotest.failf "%s: %s" what (C.Invariant.violation_to_string v)

(* The [wake-handle] audit rule under timers: a sleeper's wake timer is
   armed exactly while it sleeps unsuspended, so suspending or killing a
   sleeper must leave the timer disarmed, and the timer must not fire
   later. *)
let test_sleeper_wake_timer_disarmed () =
  let k, leaf, sfq = make () in
  let sleeper () =
    spawn_started k leaf sfq ~name:"s"
      (W.of_list
         [ W.Sleep_for (Time.milliseconds 20); W.Compute (Time.milliseconds 5); W.Exit ])
  in
  let wake_armed tid =
    List.exists
      (fun (tv : C.Kernel_audit.thread_view) -> tv.tid = tid && tv.wake_armed)
      (Kernel.dump k).threads
  in
  let a = sleeper () and b = sleeper () in
  Kernel.run_until k (Time.milliseconds 5);
  check_bool "sleeping: timer armed" true (wake_armed a && wake_armed b);
  Kernel.suspend k a;
  check_bool "suspended: timer disarmed" false (wake_armed a);
  Kernel.kill k b;
  check_bool "killed: timer disarmed" false (wake_armed b);
  audit_clean "suspend and kill of sleepers" k;
  Kernel.run_until k (Time.milliseconds 100);
  check_bool "suspended sleeper stays blocked" true (Kernel.state k a = Kernel.Blocked);
  check_bool "killed sleeper stays exited" true (Kernel.state k b = Kernel.Exited);
  check_int "neither ran" 0 (Kernel.cpu_time k a + Kernel.cpu_time k b);
  Kernel.resume k a;
  check_bool "resumed: runnable, timer still disarmed" false (wake_armed a);
  Kernel.run_until k (Time.milliseconds 200);
  check_bool "resumed sleeper finished" true (Kernel.state k a = Kernel.Exited);
  audit_clean "after resume" k

(* A two-leaf system for the move/donation tests. *)
let make2 () =
  let sim = Sim.create () in
  let hier = Hierarchy.create () in
  let k = Kernel.create ~config:zero_cost_config sim hier in
  let mk name =
    match Hierarchy.mknod hier ~name ~parent:Hierarchy.root ~weight:1. Hierarchy.Leaf with
    | Ok id -> id
    | Error e -> failwith e
  in
  let l1 = mk "l1" and l2 = mk "l2" in
  let lf1, sfq1 = Leaf_sched.Sfq_leaf.make () in
  let lf2, sfq2 = Leaf_sched.Sfq_leaf.make () in
  Kernel.install_leaf k l1 lf1;
  Kernel.install_leaf k l2 lf2;
  (k, l1, sfq1, l2, sfq2)

(* Killing a waiter parked mid-queue must drop its queue entry and revoke
   its donation on the spot; a stale entry used to crash the grant path
   (donating on behalf of a departed client) when the holder released. *)
let test_kill_middle_waiter () =
  let k, leaf, sfq = make () in
  let m = Kernel.create_mutex k in
  let cs ms =
    W.of_list [ W.Lock m; W.Compute (Time.milliseconds ms); W.Unlock m; W.Exit ]
  in
  let _holder = spawn_started k leaf sfq ~name:"holder" (cs 50) in
  let w1 = spawn_started k leaf sfq ~name:"w1" (cs 5) in
  let w2 = spawn_started k leaf sfq ~name:"w2" (cs 5) in
  let w3 = spawn_started k leaf sfq ~name:"w3" (cs 5) in
  Kernel.run_until k (Time.milliseconds 10);
  check_bool "w2 queued" true (Kernel.state k w2 = Kernel.Blocked);
  Kernel.kill k w2;
  audit_clean "after killing the middle waiter" k;
  let h = Leaf_sched.Sfq_leaf.sfq sfq in
  check_bool "ledger no longer counts w2" true
    (List.for_all (fun (b, _, _) -> b <> w2) (Sfq.donations h));
  Kernel.run_until k (Time.milliseconds 300);
  check_bool "surviving waiters finished" true
    (Kernel.state k w1 = Kernel.Exited && Kernel.state k w3 = Kernel.Exited);
  Alcotest.(check (option int)) "mutex free" None (Kernel.mutex_holder k m);
  audit_clean "after drain" k

(* Killing a holder must hand the lock to the next live waiter; it used
   to leave the mutex owned by an Exited thread, stranding the queue. *)
let test_kill_holder_hands_off () =
  let k, leaf, sfq = make () in
  let m = Kernel.create_mutex k in
  let holder =
    spawn_started k leaf sfq ~name:"holder"
      (W.of_list
         [ W.Lock m; W.Sleep_for (Time.milliseconds 100); W.Unlock m; W.Exit ])
  in
  let waiter =
    spawn_started k leaf sfq ~name:"waiter"
      (W.of_list [ W.Lock m; W.Compute (Time.milliseconds 5); W.Unlock m; W.Exit ])
  in
  Kernel.run_until k (Time.milliseconds 10);
  check_bool "holder asleep with the lock" true
    (Kernel.state k holder = Kernel.Blocked);
  Alcotest.(check (option int)) "held" (Some holder) (Kernel.mutex_holder k m);
  Kernel.kill k holder;
  audit_clean "after killing the holder" k;
  check_bool "not owned by a corpse" true (Kernel.mutex_holder k m <> Some holder);
  Kernel.run_until k (Time.milliseconds 300);
  check_bool "waiter got the lock and finished" true
    (Kernel.state k waiter = Kernel.Exited);
  Alcotest.(check (option int)) "free at the end" None (Kernel.mutex_holder k m);
  audit_clean "after drain" k

(* Moving a blocked waiter across leaves must migrate its donation: into
   the holder's leaf it appears, out of it it is revoked. *)
let test_move_waiter_donation_follows () =
  let k, l1, sfq1, l2, sfq2 = make2 () in
  let m = Kernel.create_mutex k in
  let holder =
    Kernel.spawn k ~name:"holder" ~leaf:l1
      (W.of_list
         [ W.Lock m; W.Compute (Time.milliseconds 300); W.Unlock m; W.Exit ])
  in
  Leaf_sched.Sfq_leaf.add sfq1 ~tid:holder ~weight:2.;
  Kernel.start k holder;
  let waiter =
    Kernel.spawn k ~name:"waiter" ~leaf:l2
      (W.of_list [ W.Lock m; W.Compute (Time.milliseconds 5); W.Unlock m; W.Exit ])
  in
  Leaf_sched.Sfq_leaf.add sfq2 ~tid:waiter ~weight:3.;
  Kernel.start k waiter;
  Kernel.run_until k (Time.milliseconds 5);
  check_bool "waiter parked on the mutex" true
    (Kernel.state k waiter = Kernel.Blocked);
  let h1 = Leaf_sched.Sfq_leaf.sfq sfq1 in
  check_bool "no cross-leaf donation" true
    (Sfq.effective_weight_of h1 ~id:holder = 2 * Hsfq_sched.Vtime.unit);
  Leaf_sched.Sfq_leaf.add sfq1 ~tid:waiter ~weight:3.;
  Kernel.move k waiter ~to_leaf:l1;
  audit_clean "after moving the waiter in" k;
  check_bool "waiter's weight donated to the holder" true
    (Sfq.effective_weight_of h1 ~id:holder = 5 * Hsfq_sched.Vtime.unit);
  Leaf_sched.Sfq_leaf.add sfq2 ~tid:waiter ~weight:3.;
  Kernel.move k waiter ~to_leaf:l2;
  audit_clean "after moving the waiter back out" k;
  check_bool "donation revoked on the way out" true
    (Sfq.effective_weight_of h1 ~id:holder = 2 * Hsfq_sched.Vtime.unit);
  Kernel.run_until k (Time.seconds 1);
  check_bool "both finish" true
    (Kernel.state k holder = Kernel.Exited
    && Kernel.state k waiter = Kernel.Exited)

(* A mutex grant arriving while the grantee is suspended must be banked
   for resume, not delivered — a suspended thread must never run. *)
let test_suspended_waiter_grant_banked () =
  let k, leaf, sfq = make () in
  let m = Kernel.create_mutex k in
  let _holder =
    spawn_started k leaf sfq ~name:"holder"
      (W.of_list
         [ W.Lock m; W.Compute (Time.milliseconds 20); W.Unlock m; W.Exit ])
  in
  let waiter =
    spawn_started k leaf sfq ~name:"waiter"
      (W.of_list [ W.Lock m; W.Compute (Time.milliseconds 5); W.Unlock m; W.Exit ])
  in
  Kernel.run_until k (Time.milliseconds 10);
  check_bool "waiter parked" true (Kernel.state k waiter = Kernel.Blocked);
  Kernel.suspend k waiter;
  Kernel.run_until k (Time.milliseconds 100);
  Alcotest.(check (option int)) "grant landed while suspended" (Some waiter)
    (Kernel.mutex_holder k m);
  check_bool "still parked" true (Kernel.state k waiter = Kernel.Blocked);
  check_int "no CPU while suspended" 0 (Kernel.cpu_time k waiter);
  audit_clean "suspended grantee" k;
  Kernel.resume k waiter;
  Kernel.run_until k (Time.milliseconds 300);
  check_bool "finished after resume" true (Kernel.state k waiter = Kernel.Exited);
  Alcotest.(check (option int)) "free" None (Kernel.mutex_holder k m)

(* Same for an I/O completion. *)
let test_suspended_io_completion_banked () =
  let k, leaf, sfq = make () in
  let d = Kernel.create_device k (Kernel.Fixed_service (Time.milliseconds 30)) in
  let t =
    spawn_started k leaf sfq ~name:"t"
      (W.of_list [ W.Io (d, 1); W.Compute (Time.milliseconds 5); W.Exit ])
  in
  Kernel.run_until k (Time.milliseconds 5);
  check_bool "blocked on the device" true (Kernel.state k t = Kernel.Blocked);
  Kernel.suspend k t;
  Kernel.run_until k (Time.milliseconds 100);
  check_int "completion banked, no CPU" 0 (Kernel.cpu_time k t);
  check_bool "still parked" true (Kernel.state k t = Kernel.Blocked);
  audit_clean "suspended io waiter" k;
  Kernel.resume k t;
  Kernel.run_until k (Time.milliseconds 200);
  check_bool "finished after resume" true (Kernel.state k t = Kernel.Exited)

(* {kill, move, suspend, resume} x every non-running state, each cell on
   a fresh two-leaf system, audited right after the operation and again
   once the system settles. *)
let test_lifecycle_matrix () =
  let states =
    [ "created"; "runnable"; "blocked-sleep"; "blocked-mutex"; "blocked-io" ]
  in
  let ops = [ "kill"; "move"; "suspend"; "resume" ] in
  let cell state op =
    let name = Printf.sprintf "%s x %s" op state in
    let k, l1, sfq1, l2, sfq2 = make2 () in
    let m = Kernel.create_mutex k in
    let d = Kernel.create_device k (Kernel.Fixed_service (Time.milliseconds 30)) in
    let spawn1 ?(run = true) wl =
      let tid = Kernel.spawn k ~name:"t" ~leaf:l1 wl in
      Leaf_sched.Sfq_leaf.add sfq1 ~tid ~weight:1.;
      if run then Kernel.start k tid;
      tid
    in
    let target =
      match state with
      | "created" -> spawn1 ~run:false (W.forever_compute (Time.seconds 1))
      | "runnable" ->
        let hog =
          Kernel.spawn k ~name:"hog" ~leaf:l1 (W.forever_compute (Time.seconds 10))
        in
        Leaf_sched.Sfq_leaf.add sfq1 ~tid:hog ~weight:1.;
        Kernel.start k hog;
        Kernel.run_until k (Time.milliseconds 1);
        spawn1 (W.forever_compute (Time.seconds 1))
      | "blocked-sleep" ->
        spawn1
          (W.of_list
             [
               W.Sleep_for (Time.milliseconds 50);
               W.Compute (Time.milliseconds 5);
               W.Exit;
             ])
      | "blocked-mutex" ->
        let holder =
          Kernel.spawn k ~name:"holder" ~leaf:l1
            (W.of_list
               [ W.Lock m; W.Compute (Time.milliseconds 40); W.Unlock m; W.Exit ])
        in
        Leaf_sched.Sfq_leaf.add sfq1 ~tid:holder ~weight:1.;
        Kernel.start k holder;
        spawn1
          (W.of_list
             [ W.Lock m; W.Compute (Time.milliseconds 5); W.Unlock m; W.Exit ])
      | "blocked-io" ->
        spawn1 (W.of_list [ W.Io (d, 1); W.Compute (Time.milliseconds 5); W.Exit ])
      | _ -> assert false
    in
    let expected =
      match state with
      | "created" -> Kernel.Created
      | "runnable" -> Kernel.Runnable
      | _ -> Kernel.Blocked
    in
    check_bool (name ^ ": precondition") true (Kernel.state k target = expected);
    (match op with
    | "kill" -> Kernel.kill k target
    | "move" ->
      Leaf_sched.Sfq_leaf.add sfq2 ~tid:target ~weight:1.;
      Kernel.move k target ~to_leaf:l2
    | "suspend" -> Kernel.suspend k target
    | "resume" -> Kernel.resume k target (* not suspended: a no-op *)
    | _ -> assert false);
    audit_clean (name ^ ": after op") k;
    (match op with
    | "kill" ->
      check_bool (name ^ ": exited") true (Kernel.state k target = Kernel.Exited)
    | "move" -> check_int (name ^ ": relabeled") l2 (Kernel.leaf_of k target)
    | _ -> ());
    Kernel.run_until k (Time.milliseconds 400);
    audit_clean (name ^ ": settled") k;
    if op = "suspend" then
      check_int (name ^ ": no cpu while suspended") 0 (Kernel.cpu_time k target)
  in
  List.iter (fun s -> List.iter (cell s) ops) states

(* Guardrails on the new surface: same-leaf moves are no-ops and the
   running thread cannot be moved. *)
let test_move_validation () =
  let k, l1, sfq1, _, _ = make2 () in
  let t = Kernel.spawn k ~name:"t" ~leaf:l1 (W.forever_compute (Time.seconds 1)) in
  Leaf_sched.Sfq_leaf.add sfq1 ~tid:t ~weight:1.;
  Kernel.start k t;
  Kernel.run_until k (Time.milliseconds 5);
  check_bool "running" true (Kernel.state k t = Kernel.Running);
  Alcotest.check_raises "cannot move the running thread"
    (Invalid_argument "Kernel.move: cannot move the running thread") (fun () ->
      Kernel.move k t ~to_leaf:l1);
  Kernel.suspend k t;
  Kernel.move k t ~to_leaf:l1;
  check_int "same-leaf move is a no-op" l1 (Kernel.leaf_of k t);
  audit_clean "after same-leaf move" k

(* ------------------------- stress property --------------------------- *)

(* Random scripted workloads across two leaves; whatever the interleaving
   of computing, sleeping, and exiting, the kernel's accounting must stay
   conservative and thread states consistent. *)
let prop_random_scenarios =
  QCheck.Test.make ~name:"random workloads: accounting conserved" ~count:60
    QCheck.(
      list_of_size (Gen.int_range 1 6)
        (list_of_size (Gen.int_range 1 12)
           (pair (int_range 1 30) (int_bound 2))))
    (fun scripts ->
      let sim = Sim.create () in
      let hier = Hierarchy.create () in
      let k = Kernel.create ~config:zero_cost_config sim hier in
      let mk name w =
        match
          Hierarchy.mknod hier ~name ~parent:Hierarchy.root ~weight:w Hierarchy.Leaf
        with
        | Ok id -> id
        | Error e -> failwith e
      in
      let l1 = mk "l1" 1. and l2 = mk "l2" 2. in
      let lf1, sfq1 = Leaf_sched.Sfq_leaf.make () in
      let lf2, sfq2 = Leaf_sched.Sfq_leaf.make () in
      Kernel.install_leaf k l1 lf1;
      Kernel.install_leaf k l2 lf2;
      let tids =
        List.mapi
          (fun i script ->
            let actions =
              List.map
                (fun (ms, kind) ->
                  match kind with
                  | 0 -> W.Compute (Time.milliseconds ms)
                  | 1 -> W.Sleep_for (Time.milliseconds ms)
                  | _ -> W.Compute (Time.milliseconds (ms / 2 + 1)))
                script
            in
            let leaf, sfq = if i mod 2 = 0 then (l1, sfq1) else (l2, sfq2) in
            let tid =
              Kernel.spawn k ~name:(Printf.sprintf "t%d" i) ~leaf
                (W.of_list actions)
            in
            Leaf_sched.Sfq_leaf.add sfq ~tid ~weight:(1. +. float_of_int (i mod 3));
            Kernel.start k tid;
            tid)
          scripts
      in
      let horizon = Time.seconds 2 in
      Kernel.run_until k horizon;
      let total_cpu = List.fold_left (fun a tid -> a + Kernel.cpu_time k tid) 0 tids in
      let accounted = total_cpu + Kernel.idle_time k in
      (* Scripts are at most 6 x 30 ms of compute + sleeps < 2 s, so every
         thread must have exited; all time must be accounted (no overheads
         or interrupts in this config, and nothing still in flight). *)
      List.for_all (fun tid -> Kernel.state k tid = Kernel.Exited) tids
      && accounted = horizon
      && List.for_all
           (fun tid ->
             let series_total =
               Array.fold_left ( +. ) 0. (Series.values (Kernel.cpu_series k tid))
             in
             int_of_float series_total = Kernel.cpu_time k tid)
           tids)

(* Random contention on one mutex: any number of threads looping
   lock/compute/unlock must serialize without deadlock, and the mutex
   must be free once everyone exits. *)
let prop_mutex_serialization =
  QCheck.Test.make ~name:"mutex chains serialize and terminate" ~count:40
    QCheck.(pair (int_range 2 6) (list_of_size (Gen.int_range 1 5) (int_range 1 8)))
    (fun (nthreads, cs_lens) ->
      let k, leaf, sfq = make () in
      let m = Kernel.create_mutex k in
      let tids =
        List.init nthreads (fun i ->
            let sections =
              List.concat_map
                (fun ms ->
                  [ W.Lock m; W.Compute (Time.milliseconds ms); W.Unlock m ])
                cs_lens
            in
            let tid =
              Kernel.spawn k
                ~name:(Printf.sprintf "t%d" i)
                ~leaf
                (W.of_list (sections @ [ W.Exit ]))
            in
            Leaf_sched.Sfq_leaf.add sfq ~tid ~weight:(1. +. float_of_int i);
            Kernel.start k tid;
            tid)
      in
      (* Total critical-section demand is at most 6*5*8 ms = 240 ms. *)
      Kernel.run_until k (Time.seconds 2);
      List.for_all (fun tid -> Kernel.state k tid = Kernel.Exited) tids
      && Kernel.mutex_holder k m = None)

(* --------------------------- multiprocessor -------------------------- *)

(* A CPU-set system with [n] single-thread-friendly leaves directly
   under the root.  The dispatch protocol grants at most one CPU per
   root subtree, so parallelism across CPUs requires distinct leaves. *)
let make_mp ?(config = zero_cost_config) ~cpus n =
  let sim = Sim.create () in
  let hier = Hierarchy.create () in
  let k = Kernel.create ~config ~cpus sim hier in
  let leaves =
    List.init n (fun i ->
        let name = Printf.sprintf "l%d" i in
        let leaf =
          match
            Hierarchy.mknod hier ~name ~parent:Hierarchy.root ~weight:1.
              Hierarchy.Leaf
          with
          | Ok id -> id
          | Error e -> failwith e
        in
        let lf, sfq = Leaf_sched.Sfq_leaf.make () in
        Kernel.install_leaf k leaf lf;
        (leaf, sfq))
  in
  (k, leaves)

let test_mp_accessors_and_dump () =
  let k, leaves = make_mp ~cpus:2 2 in
  let tids =
    List.mapi
      (fun i (leaf, sfq) ->
        spawn_started k leaf sfq ~name:(Printf.sprintf "hog%d" i)
          (W.forever_compute (Time.seconds 10)))
      leaves
  in
  Kernel.run_until k (Time.milliseconds 5);
  check_int "cpu set size" 2 (Kernel.cpus k);
  List.iter
    (fun tid ->
      check_bool "hog is Running" true (Kernel.state k tid = Kernel.Running))
    tids;
  let cpus_in_use = List.filter_map (fun tid -> Kernel.running_on k tid) tids in
  check_int "both hogs dispatched" 2 (List.length cpus_in_use);
  check_bool "on distinct CPUs" true
    (List.sort_uniq Int.compare cpus_in_use = [ 0; 1 ]);
  (* running_tid is the inverse of running_on, and last_cpu_of tracks
     the live dispatch while a thread is on a CPU. *)
  List.iter
    (fun tid ->
      match Kernel.running_on k tid with
      | None -> Alcotest.fail "running hog has no CPU"
      | Some c ->
        Alcotest.(check (option int))
          "running_tid inverts running_on" (Some tid)
          (Kernel.running_tid k ~cpu:c);
        Alcotest.(check (option int))
          "last_cpu_of matches the live dispatch" (Some c)
          (Kernel.last_cpu_of k tid))
    tids;
  let view = Kernel.dump k in
  check_int "dump lists one dispatch per CPU" 2
    (List.length view.Hsfq_check.Kernel_audit.running);
  check_bool "dump pairs are (cpu, tid)" true
    (List.for_all
       (fun (c, tid) -> Kernel.running_tid k ~cpu:c = Some tid)
       view.Hsfq_check.Kernel_audit.running);
  audit_clean "two hogs on two CPUs" k

let test_mp_parallel_throughput () =
  let k, leaves = make_mp ~cpus:2 2 in
  let tids =
    List.mapi
      (fun i (leaf, sfq) ->
        spawn_started k leaf sfq ~name:(Printf.sprintf "hog%d" i)
          (W.forever_compute (Time.seconds 10)))
      leaves
  in
  Kernel.run_until k (Time.seconds 1);
  (* Two always-runnable subtrees over two CPUs: true parallelism, so
     each hog gets the whole horizon — double the single-CPU total. *)
  List.iter
    (fun tid ->
      check_int "full horizon each" (Time.seconds 1) (Kernel.cpu_time k tid))
    tids;
  check_int "no idle on cpu 0" 0 (Kernel.cpu_idle_time k 0);
  check_int "no idle on cpu 1" 0 (Kernel.cpu_idle_time k 1);
  check_int "aggregate idle is the sum" 0 (Kernel.idle_time k);
  check_int "pinned hogs never migrate" 0 (Kernel.migrations k);
  audit_clean "parallel throughput" k

let test_mp_migration_cost_accounting () =
  (* Zero context-switch and per-level costs but a real migration cost:
     the only overhead the kernel can charge is migration_cost per
     migrating dispatch, so the aggregate overhead must equal
     migrations x migration_cost exactly. *)
  let config =
    { zero_cost_config with migration_cost = Time.microseconds 100 }
  in
  let k, leaves = make_mp ~config ~cpus:2 3 in
  ignore
    (List.mapi
       (fun i (leaf, sfq) ->
         spawn_started k leaf sfq ~name:(Printf.sprintf "hog%d" i)
           (W.forever_compute (Time.seconds 10)))
       leaves);
  Kernel.run_until k (Time.seconds 1);
  let m = Kernel.migrations k in
  check_bool "three subtrees over two CPUs migrate" true (m > 0);
  check_int "overhead = migrations x cost" (m * Time.microseconds 100)
    (Kernel.overhead_time k);
  check_int "per-CPU migrations sum to the aggregate" m
    (Kernel.cpu_migrations k 0 + Kernel.cpu_migrations k 1);
  check_int "per-CPU overhead sums to the aggregate"
    (Kernel.overhead_time k)
    (Kernel.cpu_overhead_time k 0 + Kernel.cpu_overhead_time k 1);
  audit_clean "migration accounting" k

let test_mp_cross_cpu_suspend_kill () =
  let k, leaves = make_mp ~cpus:2 2 in
  let tids =
    List.mapi
      (fun i (leaf, sfq) ->
        spawn_started k leaf sfq ~name:(Printf.sprintf "hog%d" i)
          (W.forever_compute (Time.seconds 10)))
      leaves
  in
  Kernel.run_until k (Time.milliseconds 5);
  (* Pick the hog running on CPU 1 and take it down from "outside":
     suspend un-dispatches a Running thread wherever it is, after which
     kill is legal. *)
  let victim =
    match Kernel.running_tid k ~cpu:1 with
    | Some tid -> tid
    | None -> Alcotest.fail "no thread on cpu 1"
  in
  let survivor = List.find (fun t -> t <> victim) tids in
  Kernel.suspend k victim;
  check_bool "victim un-dispatched" true (Kernel.running_on k victim = None);
  check_bool "victim suspended" true (Kernel.is_suspended k victim);
  audit_clean "after cross-CPU suspend" k;
  Kernel.kill k victim;
  check_bool "victim exited" true (Kernel.state k victim = Kernel.Exited);
  audit_clean "after cross-CPU kill" k;
  let before = Kernel.cpu_time k survivor in
  (* Past the next quantum boundary, so the survivor's service has been
     charged (cpu_time only moves at charge points). *)
  Kernel.run_until k (Time.milliseconds 100);
  check_bool "survivor keeps running" true (Kernel.cpu_time k survivor > before)

let test_mp_interrupt_on_cpu () =
  let k, leaves = make_mp ~cpus:2 2 in
  let tids =
    List.mapi
      (fun i (leaf, sfq) ->
        spawn_started k leaf sfq ~name:(Printf.sprintf "hog%d" i)
          (W.forever_compute (Time.seconds 10)))
      leaves
  in
  Sim.at (Kernel.sim k) (Time.milliseconds 50) (fun () ->
         Kernel.interrupt_on k ~cpu:1 ~duration:(Time.milliseconds 100));
  Kernel.run_until k (Time.seconds 1);
  check_int "cpu 1 charged" (Time.milliseconds 100)
    (Kernel.cpu_interrupt_time k 1);
  check_int "cpu 0 untouched" 0 (Kernel.cpu_interrupt_time k 0);
  check_int "aggregate is the sum" (Time.milliseconds 100)
    (Kernel.interrupt_time k);
  (* The stolen time comes out of whichever hog cpu 1 was serving. *)
  let total =
    List.fold_left (fun a tid -> a + Kernel.cpu_time k tid) 0 tids
  in
  check_int "work conservation across the set"
    (2 * Time.seconds 1) (total + Kernel.interrupt_time k);
  audit_clean "per-CPU interrupt" k

(* ----------------------- interrupt path golden ------------------------ *)

(* The interrupt path end to end, pinned exactly: a long Compute thread
   and an interactive thread, each in its own SFQ leaf (so at P=2 both
   CPUs run threads), while a 10 ms periodic
   source (CPU 0) and a 200 Hz Poisson source (the last CPU) pause
   whatever runs. Dispatch overhead is inflated to 300 us + 50 us per
   level so that interrupts often land inside it, where a pause must
   carry the unspent overhead over to the resumed slice. Every number
   below is a deterministic function of the event order, so any change
   to how interrupts, slice completions or wakes are queued shows up
   here. *)
let interrupt_path_golden ~cpus =
  let sim = Sim.create () in
  let hier = Hierarchy.create () in
  let config =
    {
      Kernel.default_config with
      context_switch_cost = Time.microseconds 300;
      sched_cost_per_level = Time.microseconds 50;
    }
  in
  let k = Kernel.create ~config ~cpus sim hier in
  let leaf name =
    match
      Hierarchy.mknod hier ~name ~parent:Hierarchy.root ~weight:1.
        Hierarchy.Leaf
    with
    | Ok id ->
      let lf, sfq = Leaf_sched.Sfq_leaf.make () in
      Kernel.install_leaf k id lf;
      (id, sfq)
    | Error e -> failwith e
  in
  let batch, batch_sfq = leaf "batch" in
  let hog =
    spawn_started k batch batch_sfq ~name:"hog"
      (W.forever_compute (Time.seconds 10))
  in
  let wl, _ =
    Hsfq_workload.Interactive.make ~mean_think:(Time.milliseconds 15)
      ~burst:(Time.milliseconds 2) ~seed:11 ()
  in
  let inter, inter_sfq = leaf "interactive" in
  let ia = spawn_started k inter inter_sfq ~name:"interactive" wl in
  Kernel.add_interrupt_source k
    (Interrupt_source.Periodic
       { period = Time.milliseconds 10; cost = Time.microseconds 50 });
  Kernel.add_interrupt_source k ~cpu:(cpus - 1)
    (Interrupt_source.Poisson
       { rate_hz = 200.; mean_cost = Time.microseconds 30; seed = 5 });
  Kernel.run_until k (Time.seconds 3);
  audit_clean "interrupt path golden" k;
  [
    ("events", Sim.steps sim);
    ("hog dispatches", Kernel.dispatch_count k hog);
    ("interactive dispatches", Kernel.dispatch_count k ia);
    ("hog cpu_time", Kernel.cpu_time k hog);
    ("interactive cpu_time", Kernel.cpu_time k ia);
    ("interrupt_time", Kernel.interrupt_time k);
    ("overhead_time", Kernel.overhead_time k);
    ("idle_time", Kernel.idle_time k);
  ]

let check_golden ~cpus expected =
  let got = interrupt_path_golden ~cpus in
  Alcotest.(check (list (pair string int)))
    (Printf.sprintf "P=%d interrupt path" cpus)
    expected got

let test_interrupt_path_golden_p1 () =
  check_golden ~cpus:1
    [
      ("events", 2_104);
      ("hog dispatches", 136);
      ("interactive dispatches", 87);
      ("hog cpu_time", 2_700_000_000);
      ("interactive cpu_time", 174_000_000);
      ("interrupt_time", 33_130_148);
      ("overhead_time", 78_050_000);
      ("idle_time", 0);
    ]

let test_interrupt_path_golden_p2 () =
  check_golden ~cpus:2
    [
      ("events", 2_253);
      ("hog dispatches", 147);
      ("interactive dispatches", 156);
      ("hog cpu_time", 2_920_000_000);
      ("interactive cpu_time", 312_000_000);
      ("interrupt_time", 33_130_148);
      ("overhead_time", 106_050_000);
      ("idle_time", 2_615_269_852);
    ]

(* ------------------------- allocation ------------------------------- *)

(* The steady-state P=1 cycle (wake -> dispatch -> interrupt pause/resume
   -> slice completion -> sleep) allocates nothing of its own. The
   workloads here return preallocated actions, so the only words left
   are the float samples the kernel records per dispatch (boxed at the
   [Series]/[Stats] call under [-opaque], unboxed where inlined).
   Per-wake closures or boxed sleep targets push it past the ceiling. *)
let kernel_cycle_words_ceiling = 4.0

let test_cycle_minor_words () =
  let k, leaf, sfq = make ~config:Kernel.default_config () in
  for i = 0 to 31 do
    let burst = W.Compute (Time.microseconds 300) in
    let think = W.Sleep_for (Time.microseconds (2_000 + (37 * i))) in
    let thinking = ref true in
    let wl ~now:_ =
      thinking := not !thinking;
      if !thinking then think else burst
    in
    ignore (spawn_started k leaf sfq ~name:(Printf.sprintf "i%d" i) wl)
  done;
  Kernel.add_interrupt_source k
       (Interrupt_source.Periodic
          { period = Time.milliseconds 1; cost = Time.microseconds 20 });
  let sim = Kernel.sim k in
  (* Warm up until the per-thread sample series outgrow the minor heap
     (their doubling is amortized, not per event). *)
  Kernel.run_until k (Time.seconds 5);
  let e0 = Sim.steps sim and w0 = Gc.minor_words () in
  Kernel.run_until k (Time.seconds 8);
  let words = Gc.minor_words () -. w0 and events = Sim.steps sim - e0 in
  check_bool "events fired" true (events > 10_000);
  let per_event = words /. float_of_int events in
  if per_event > kernel_cycle_words_ceiling then
    Alcotest.failf "kernel cycle allocates %.2f minor words/event (ceiling %.1f)"
      per_event kernel_cycle_words_ceiling

let () =
  Alcotest.run "kernel"
    [
      ( "dispatch",
        [
          Alcotest.test_case "single thread" `Quick test_single_thread_runs;
          Alcotest.test_case "weighted sharing" `Quick test_two_threads_share;
          Alcotest.test_case "exit and idle accounting" `Quick test_exit_and_idle;
          Alcotest.test_case "sleep and wake" `Quick test_sleep_and_wake;
          Alcotest.test_case "past sleep_until skipped" `Quick
            test_sleep_until_past_is_skipped;
          Alcotest.test_case "workload starting blocked" `Quick
            test_started_blocked_workload;
          Alcotest.test_case "sleep forever" `Quick test_sleep_forever;
        ] );
      ( "latency & preemption",
        [
          Alcotest.test_case "quantum-boundary latency" `Quick
            test_wake_latency_quantum_boundary;
          Alcotest.test_case "preempt-on-wake config" `Quick
            test_preempt_on_wake_config;
          Alcotest.test_case "RT leaf preempts within class" `Quick
            test_rt_leaf_preempts_within_class;
        ] );
      ( "interrupts",
        [
          Alcotest.test_case "steals time at top priority" `Quick
            test_interrupt_steals_time;
          Alcotest.test_case "overlapping interrupts extend" `Quick
            test_overlapping_interrupts_extend;
          Alcotest.test_case "interrupt during idle" `Quick test_interrupt_during_idle;
          Alcotest.test_case "work conservation under load" `Quick
            test_work_conservation_with_interrupts;
        ] );
      ( "thread control",
        [
          Alcotest.test_case "suspend running thread" `Quick
            test_suspend_running_thread;
          Alcotest.test_case "suspend runnable thread" `Quick
            test_suspend_runnable_thread;
          Alcotest.test_case "move between leaves" `Quick test_move_between_leaves;
          Alcotest.test_case "kill" `Quick test_kill;
          Alcotest.test_case "kill running rejected" `Quick test_kill_running_rejected;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "overhead cost model" `Quick test_overhead_charged;
          Alcotest.test_case "cpu series totals" `Quick test_cpu_series_matches_total;
          Alcotest.test_case "trace records slices" `Quick test_trace_records_slices;
          Alcotest.test_case "summary rendering" `Quick test_render_summary;
        ] );
      ( "mutexes",
        [
          Alcotest.test_case "uncontended lock" `Quick test_mutex_uncontended;
          Alcotest.test_case "FIFO contention" `Quick test_mutex_contention_fifo;
          Alcotest.test_case "donation bounds inversion" `Quick
            test_mutex_donation_speeds_up_critical_section;
          Alcotest.test_case "donation visible in tags" `Quick
            test_mutex_donation_vs_no_donation_tags;
          Alcotest.test_case "lock errors" `Quick test_mutex_errors;
          Alcotest.test_case "killed waiter skipped" `Quick
            test_mutex_killed_waiter_skipped;
          Alcotest.test_case "resume cannot bypass a mutex" `Quick
            test_resume_does_not_bypass_mutex;
        ] );
      ("api", [ Alcotest.test_case "misuse errors" `Quick test_api_errors ]);
      ( "io devices",
        [
          Alcotest.test_case "block and wake" `Quick test_io_blocks_and_wakes;
          Alcotest.test_case "FIFO queueing" `Quick test_io_fifo_queueing;
          Alcotest.test_case "device overlaps CPU" `Quick test_io_overlaps_cpu;
          Alcotest.test_case "exponential model deterministic" `Quick
            test_io_exponential_deterministic;
          Alcotest.test_case "errors and zero-unit skips" `Quick
            test_device_errors_and_skips;
        ] );
      ( "nested hierarchy",
        [
          Alcotest.test_case "two-level end-to-end shares" `Quick
            test_nested_hierarchy_shares;
        ] );
      ( "thread control extras",
        [
          Alcotest.test_case "move blocked thread" `Quick test_move_blocked_thread;
          Alcotest.test_case "suspend cancels wake timer" `Quick
            test_suspend_blocked_cancels_wake;
          Alcotest.test_case "sleeper wake timer disarmed" `Quick
            test_sleeper_wake_timer_disarmed;
          Alcotest.test_case "accessors" `Quick test_accessors;
        ] );
      ( "capacity reserves",
        [
          Alcotest.test_case "guaranteed fraction" `Quick
            test_reserve_guarantees_fraction;
          Alcotest.test_case "deplete and replenish" `Quick
            test_reserve_budget_depletes_and_replenishes;
          Alcotest.test_case "background round robin" `Quick
            test_reserve_background_only_threads;
          Alcotest.test_case "reserved wake preempts" `Quick
            test_reserve_wake_preempts_background;
          Alcotest.test_case "add validation" `Quick test_reserve_add_errors;
        ] );
      ( "lifecycle regressions",
        [
          Alcotest.test_case "kill mid-queue waiter" `Quick test_kill_middle_waiter;
          Alcotest.test_case "kill holder hands off" `Quick
            test_kill_holder_hands_off;
          Alcotest.test_case "move migrates donation" `Quick
            test_move_waiter_donation_follows;
          Alcotest.test_case "suspended grant banked" `Quick
            test_suspended_waiter_grant_banked;
          Alcotest.test_case "suspended io completion banked" `Quick
            test_suspended_io_completion_banked;
          Alcotest.test_case "lifecycle matrix" `Quick test_lifecycle_matrix;
          Alcotest.test_case "move validation" `Quick test_move_validation;
        ] );
      ( "multiprocessor",
        [
          Alcotest.test_case "accessors and dump view" `Quick
            test_mp_accessors_and_dump;
          Alcotest.test_case "parallel throughput" `Quick
            test_mp_parallel_throughput;
          Alcotest.test_case "migration cost accounting" `Quick
            test_mp_migration_cost_accounting;
          Alcotest.test_case "cross-CPU suspend and kill" `Quick
            test_mp_cross_cpu_suspend_kill;
          Alcotest.test_case "per-CPU interrupt" `Quick
            test_mp_interrupt_on_cpu;
        ] );
      ( "interrupt path",
        [
          Alcotest.test_case "golden P=1" `Quick test_interrupt_path_golden_p1;
          Alcotest.test_case "golden P=2" `Quick test_interrupt_path_golden_p2;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "steady P=1 cycle minor words" `Quick
            test_cycle_minor_words;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_random_scenarios;
          QCheck_alcotest.to_alcotest prop_mutex_serialization;
        ] );
    ]
