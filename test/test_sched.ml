(* Tests for the scheduler substrate (lib/sched): the related-work
   baselines behind the common FAIR interface, the real-time leaf
   schedulers (EDF, RM), and the SVR4 TS/RT model. *)

open Hsfq_sched

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let u = Hsfq_sched.Vtime.unit
let check_float = Alcotest.(check (float 1e-9))

(* ------------------- generic FAIR battery ---------------------------- *)

(* Shares of two always-backlogged clients with weights 1 and 3 after
   many unit quanta. *)
let measured_ratio (module F : Scheduler_intf.FAIR) ~rounds =
  let t = F.create ~rng:(Hsfq_engine.Prng.create 11) ~quantum_hint:10 () in
  F.arrive t ~id:1 ~weight:u;
  F.arrive t ~id:2 ~weight:(3 * u);
  let work = [| 0; 0 |] in
  for _ = 1 to rounds do
    match F.select_id t with
    | -1 -> Alcotest.fail "work conservation violated"
    | id ->
      F.charge t ~id ~service:10 ~runnable:true;
      work.(id - 1) <- work.(id - 1) + 10
  done;
  float_of_int work.(1) /. float_of_int work.(0)

let fair_battery name (module F : Scheduler_intf.FAIR) =
  let basic () =
    let t = F.create ~rng:(Hsfq_engine.Prng.create 1) () in
    check_int "empty backlog" 0 (F.backlogged t);
    check_int "empty select" (-1) (F.select_id t);
    F.arrive t ~id:7 ~weight:(2 * u);
    F.arrive t ~id:7 ~weight:(5 * u);
    check_int "arrive idempotent" 1 (F.backlogged t);
    (match F.select_id t with
    | 7 -> F.charge t ~id:7 ~service:1 ~runnable:false
    | _ -> Alcotest.fail "expected client 7");
    check_int "blocked" 0 (F.backlogged t);
    F.arrive t ~id:7 ~weight:(2 * u);
    check_int "woke" 1 (F.backlogged t);
    F.depart t ~id:7;
    check_int "departed" 0 (F.backlogged t)
  in
  let conservation () =
    let t = F.create ~rng:(Hsfq_engine.Prng.create 2) () in
    for i = 1 to 4 do
      F.arrive t ~id:i ~weight:(i * u)
    done;
    for _ = 1 to 200 do
      match F.select_id t with
      | -1 -> Alcotest.fail "no selection with backlog"
      | id -> F.charge t ~id ~service:5 ~runnable:true
    done;
    check_int "all still backlogged" 4 (F.backlogged t)
  in
  [
    Alcotest.test_case (name ^ " lifecycle") `Quick basic;
    Alcotest.test_case (name ^ " work conservation") `Quick conservation;
  ]

(* Departing the client in service is refused, as Sfq does: the depart
   raises with nothing changed, so the matching charge still goes
   through and the next selection works. *)
let depart_in_service_rejected (module F : Scheduler_intf.FAIR) =
  let name = F.algorithm_name in
  let t = F.create ~rng:(Hsfq_engine.Prng.create 3) () in
  F.arrive t ~id:1 ~weight:u;
  F.arrive t ~id:2 ~weight:(2 * u);
  let id = F.select_id t in
  check_bool (name ^ ": a client is selected") true (id = 1 || id = 2);
  (match F.depart t ~id with
  | () -> Alcotest.failf "%s: depart of the in-service client accepted" name
  | exception Invalid_argument _ -> ());
  check_int (name ^ ": nothing departed") 2 (F.backlogged t);
  F.charge t ~id ~service:10 ~runnable:true;
  let next = F.select_id t in
  check_bool (name ^ ": next selection") true (next = 1 || next = 2);
  F.charge t ~id:next ~service:10 ~runnable:true;
  F.depart t ~id;
  check_int (name ^ ": depart after charge") 1 (F.backlogged t)

let test_depart_in_service_rejected () =
  List.iter depart_in_service_rejected
    ([ (module Wfq); (module Scfq); (module Fqs); (module Stride);
       (module Lottery); (module Eevdf); (module Round_robin);
       (module Hsfq_core.Sfq); (module Hsfq_check.Audited.Make (Wfq)) ]
      : (module Scheduler_intf.FAIR) list)

let test_proportional name (module F : Scheduler_intf.FAIR) ~tol () =
  let r = measured_ratio (module F) ~rounds:8000 in
  check_bool
    (Printf.sprintf "%s ratio ~3 (got %.3f)" name r)
    true
    (Float.abs (r -. 3.) < tol)

(* ----------------------- algorithm-specifics ------------------------- *)

let test_wfq_overcharges_short_quanta () =
  (* The §6 drawback: WFQ charges the assumed quantum, so a client that
     blocks early (uses 0.2 of its assumed 1.0) loses its fair share. *)
  let t = Wfq.create ~quantum_hint:10 () in
  Wfq.arrive t ~id:1 ~weight:(1 * u);
  Wfq.arrive t ~id:2 ~weight:(1 * u);
  let work = [| 0; 0 |] in
  for _ = 1 to 600 do
    match Wfq.select_id t with
    | 1 ->
      Wfq.charge t ~id:1 ~service:10 ~runnable:true;
      work.(0) <- work.(0) + 10
    | 2 ->
      (* Blocks immediately after a short burst, returns right away. *)
      Wfq.charge t ~id:2 ~service:2 ~runnable:false;
      work.(1) <- work.(1) + 2;
      Wfq.arrive t ~id:2 ~weight:(1 * u)
    | _ -> Alcotest.fail "selection expected"
  done;
  check_bool "short-quantum client far below its half" true
    (float_of_int work.(1) /. float_of_int work.(0) < 0.4)

let test_fqs_charges_actual_length () =
  (* FQS fixes the WFQ problem: the same bursty client keeps pace. *)
  let t = Fqs.create () in
  Fqs.arrive t ~id:1 ~weight:(1 * u);
  Fqs.arrive t ~id:2 ~weight:(1 * u);
  let work = [| 0; 0 |] in
  for _ = 1 to 600 do
    match Fqs.select_id t with
    | 1 ->
      Fqs.charge t ~id:1 ~service:10 ~runnable:true;
      work.(0) <- work.(0) + 10
    | 2 ->
      Fqs.charge t ~id:2 ~service:2 ~runnable:false;
      work.(1) <- work.(1) + 2;
      Fqs.arrive t ~id:2 ~weight:(1 * u)
    | _ -> Alcotest.fail "selection expected"
  done;
  (* The bursty client is demand-limited, but per unit of virtual time it
     is not penalized: it runs 5x as often as the hog. *)
  check_bool "bursty client runs much more often under FQS" true
    (float_of_int work.(1) /. float_of_int work.(0) > 0.8)

let test_scfq_virtual_time_is_finish_tag () =
  let t = Scfq.create ~quantum_hint:2 () in
  Scfq.arrive t ~id:1 ~weight:(1 * u);
  (match Scfq.select_id t with
  | 1 -> ()
  | _ -> Alcotest.fail "client 1");
  (* F = max(v=0, 0) + 2/1 = 2 — v(t) is the in-service finish tag. *)
  check_int "v = finish of in-service" 2 (Scfq.virtual_time t);
  Scfq.charge t ~id:1 ~service:2 ~runnable:true

let test_stride_deterministic_sequence () =
  let t = Stride.create () in
  Stride.arrive t ~id:1 ~weight:(1 * u);
  Stride.arrive t ~id:2 ~weight:(3 * u);
  let seq =
    List.init 8 (fun _ ->
        match Stride.select_id t with
        | -1 -> Alcotest.fail "selection"
        | id ->
          Stride.charge t ~id ~service:1 ~runnable:true;
          id)
  in
  (* Passes: c1 strides 1, c2 strides 1/3 — c2 runs 3 of every 4. *)
  check_int "client 1 runs twice in 8" 2
    (List.length (List.filter (fun i -> i = 1) seq))

let test_stride_remain_preserved () =
  let t = Stride.create () in
  Stride.arrive t ~id:1 ~weight:(1 * u);
  Stride.arrive t ~id:2 ~weight:(1 * u);
  (* Let 1 run ahead, then block it mid-stride; on wake it must not be
     owed the whole sleep. *)
  (match Stride.select_id t with
  | -1 -> Alcotest.fail "sel"
  | id -> Stride.charge t ~id ~service:4 ~runnable:(id <> 1));
  for _ = 1 to 10 do
    match Stride.select_id t with
    | -1 -> Alcotest.fail "sel"
    | id -> Stride.charge t ~id ~service:1 ~runnable:true
  done;
  Stride.arrive t ~id:1 ~weight:(1 * u);
  let counts = [| 0; 0 |] in
  for _ = 1 to 100 do
    match Stride.select_id t with
    | -1 -> Alcotest.fail "sel"
    | id ->
      Stride.charge t ~id ~service:1 ~runnable:true;
      counts.(id - 1) <- counts.(id - 1) + 1
  done;
  check_bool "no catch-up flood after wake" true
    (abs (counts.(0) - counts.(1)) <= 6)

let test_lottery_statistical_ratio () =
  let r = measured_ratio (module Lottery) ~rounds:30_000 in
  check_bool (Printf.sprintf "lottery ratio ~3 (got %.2f)" r) true
    (Float.abs (r -. 3.) < 0.25)

let test_lottery_deterministic_under_seed () =
  let run () =
    let t = Lottery.create ~rng:(Hsfq_engine.Prng.create 77) () in
    Lottery.arrive t ~id:1 ~weight:(1 * u);
    Lottery.arrive t ~id:2 ~weight:(2 * u);
    List.init 50 (fun _ ->
        match Lottery.select_id t with
        | -1 -> 0
        | id ->
          Lottery.charge t ~id ~service:1 ~runnable:true;
          id)
  in
  Alcotest.(check (list int)) "same seed, same draws" (run ()) (run ())

let test_eevdf_eligibility () =
  let t = Eevdf.create ~quantum_hint:10 () in
  Eevdf.arrive t ~id:1 ~weight:(1 * u);
  Eevdf.arrive t ~id:2 ~weight:(1 * u);
  (* Client 1 runs a big quantum: its eligible time moves far ahead, so
     client 2 must run the next several quanta. *)
  (match Eevdf.select_id t with
  | -1 -> Alcotest.fail "sel"
  | id -> Eevdf.charge t ~id ~service:4 ~runnable:true);
  let next3 =
    List.init 3 (fun _ ->
        match Eevdf.select_id t with
        | -1 -> 0
        | id ->
          Eevdf.charge t ~id ~service:1 ~runnable:true;
          id)
  in
  check_bool "lagging client catches up" true (List.for_all (fun i -> i = 2) next3)

let test_round_robin_ignores_weights () =
  let t = Round_robin.create () in
  Round_robin.arrive t ~id:1 ~weight:(1 * u);
  Round_robin.arrive t ~id:2 ~weight:(100 * u);
  let seq =
    List.init 6 (fun _ ->
        match Round_robin.select_id t with
        | -1 -> 0
        | id ->
          Round_robin.charge t ~id ~service:1 ~runnable:true;
          id)
  in
  Alcotest.(check (list int)) "alternates regardless of weight"
    [ 1; 2; 1; 2; 1; 2 ] seq

(* ------------------------- GPS real-time clock ----------------------- *)

let ms = Hsfq_engine.Time.milliseconds

let test_gps_vt_advances_with_wall_time () =
  let t = Gps_vt.create ~order:Gps_vt.Finish_tags ~quantum_hint:10 () in
  Gps_vt.arrive t ~now:0 ~id:1 ~weight:(2 * u);
  (* 10 ns of wall time at capacity 1 with total weight 2: v += 5. *)
  check_int "v tracks wall clock" 5 (Gps_vt.virtual_time t ~now:10);
  (* While nothing is backlogged the clock stands still. *)
  (match Gps_vt.select_id t ~now:10 with
  | 1 -> Gps_vt.charge t ~now:12 ~id:1 ~service:2 ~runnable:false
  | _ -> Alcotest.fail "select");
  let v = Gps_vt.virtual_time t ~now:12 in
  check_int "idle clock frozen" v (Gps_vt.virtual_time t ~now:1000)

let test_gps_vt_proportional_at_full_capacity () =
  (* With steady full-capacity service, both orders are weight-fair. *)
  List.iter
    (fun order ->
      let t = Gps_vt.create ~order ~quantum_hint:(ms 20) () in
      Gps_vt.arrive t ~now:0 ~id:1 ~weight:(1 * u);
      Gps_vt.arrive t ~now:0 ~id:2 ~weight:(3 * u);
      let now = ref 0 and work = [| 0; 0 |] in
      for _ = 1 to 4000 do
        match Gps_vt.select_id t ~now:!now with
        | -1 -> Alcotest.fail "work conservation"
        | id ->
          now := !now + ms 20;
          work.(id - 1) <- work.(id - 1) + ms 20;
          Gps_vt.charge t ~now:!now ~id ~service:(ms 20) ~runnable:true
      done;
      let ratio = float_of_int work.(1) /. float_of_int work.(0) in
      check_bool "ratio ~3 at full capacity" true (Float.abs (ratio -. 3.) < 0.05))
    [ Gps_vt.Finish_tags; Gps_vt.Start_tags ]

let test_gps_vt_unfair_at_reduced_capacity () =
  (* Serve only every other quantum (50% capacity): v races ahead of the
     delivered service and the allocation collapses toward round-robin. *)
  let t =
    Gps_vt.create ~order:Gps_vt.Finish_tags ~quantum_hint:(ms 20) ()
  in
  Gps_vt.arrive t ~now:0 ~id:1 ~weight:(1 * u);
  Gps_vt.arrive t ~now:0 ~id:2 ~weight:(3 * u);
  let now = ref 0 and work = [| 0; 0 |] in
  for _ = 1 to 2000 do
    match Gps_vt.select_id t ~now:!now with
    | -1 -> Alcotest.fail "work conservation"
    | id ->
      (* each 20 ms of service takes 40 ms of wall time *)
      now := !now + (2 * ms 20);
      work.(id - 1) <- work.(id - 1) + ms 20;
      Gps_vt.charge t ~now:!now ~id ~service:(ms 20) ~runnable:true
  done;
  let ratio = float_of_int work.(1) /. float_of_int work.(0) in
  (* Full capacity gives 3.0; at half capacity the 1:3 weights visibly
     erode (2.0 here; longer starvation bursts erode further — xfair). *)
  check_bool
    (Printf.sprintf "weights eroded toward equal shares (ratio %.2f)" ratio)
    true (ratio < 2.5)

let test_gps_vt_admin () =
  let t = Gps_vt.create ~order:Gps_vt.Start_tags ~quantum_hint:10 () in
  Gps_vt.arrive t ~now:0 ~id:1 ~weight:(1 * u);
  Gps_vt.arrive t ~now:0 ~id:2 ~weight:(1 * u);
  check_int "backlogged" 2 (Gps_vt.backlogged t);
  Gps_vt.set_weight t ~id:2 ~weight:(4 * u);
  (match Gps_vt.select_id t ~now:0 with
  | -1 -> Alcotest.fail "sel"
  | id -> Gps_vt.charge t ~now:(ms 1) ~id ~service:10 ~runnable:false);
  check_int "one left" 1 (Gps_vt.backlogged t);
  Gps_vt.depart t ~id:1;
  Gps_vt.depart t ~id:2;
  check_int "empty" 0 (Gps_vt.backlogged t);
  Alcotest.check_raises "unknown after depart"
    (Invalid_argument "Gps_vt: unknown client 1") (fun () ->
      Gps_vt.set_weight t ~id:1 ~weight:(1 * u))

(* ------------------------------ EDF ---------------------------------- *)

let test_edf_ordering () =
  let t = Edf.create () in
  Edf.release t ~id:1 ~deadline:30;
  Edf.release t ~id:2 ~deadline:10;
  Edf.release t ~id:3 ~deadline:20;
  check_int "earliest deadline" 2 (Edf.select_id t);
  Edf.withdraw t ~id:2;
  check_int "next earliest" 3 (Edf.select_id t);
  check_int "backlog" 2 (Edf.backlogged t);
  Alcotest.(check (option int)) "deadline_of" (Some 30)
    (Edf.deadline_of t ~id:1);
  Alcotest.(check (option int)) "withdrawn has none" None
    (Edf.deadline_of t ~id:2)

let test_edf_rerelease_updates () =
  let t = Edf.create () in
  Edf.release t ~id:1 ~deadline:50;
  Edf.release t ~id:2 ~deadline:40;
  Edf.release t ~id:1 ~deadline:10;
  check_int "re-release re-orders" 1 (Edf.select_id t)

let test_edf_fifo_ties () =
  let t = Edf.create () in
  Edf.release t ~id:5 ~deadline:10;
  Edf.release t ~id:3 ~deadline:10;
  check_int "FIFO among equal deadlines" 5 (Edf.select_id t)

(* ------------------------------- RM ---------------------------------- *)

let test_rm_priority_order () =
  let t = Rm.create () in
  Rm.register t ~id:1 ~period:100.;
  Rm.register t ~id:2 ~period:20.;
  Rm.register t ~id:3 ~period:50.;
  check_int "nothing ready" (-1) (Rm.select_id t);
  Rm.wake t ~id:1;
  Rm.wake t ~id:3;
  check_int "shortest ready period" 3 (Rm.select_id t);
  Rm.wake t ~id:2;
  check_int "new shortest" 2 (Rm.select_id t);
  Rm.block t ~id:2;
  check_int "back to 3" 3 (Rm.select_id t);
  check_bool "higher_priority" true (Rm.higher_priority t 2 ~than:1);
  check_bool "not higher" false (Rm.higher_priority t 1 ~than:3)

let test_rm_tie_by_registration () =
  let t = Rm.create () in
  Rm.register t ~id:9 ~period:10.;
  Rm.register t ~id:4 ~period:10.;
  Rm.wake t ~id:9;
  Rm.wake t ~id:4;
  check_int "registration order breaks ties" 9 (Rm.select_id t);
  check_bool "tie: earlier registration wins" true (Rm.higher_priority t 9 ~than:4)

let test_rm_unregister () =
  let t = Rm.create () in
  Rm.register t ~id:1 ~period:10.;
  Rm.wake t ~id:1;
  Rm.unregister t ~id:1;
  check_int "gone" 0 (Rm.backlogged t);
  Alcotest.(check (option (float 0.))) "no period" None (Rm.period_of t ~id:1)

(* ------------------------------ SVR4 --------------------------------- *)

let tick = Hsfq_engine.Time.milliseconds 10

let test_svr4_ts_quantum_expiry_demotes () =
  let t = Svr4.create () in
  Svr4.add t ~id:1 Svr4.Ts;
  check_int "initial user priority" 29 (Svr4.prio_of t ~id:1);
  let q = Svr4.quantum_of t ~id:1 in
  check_int "prio-29 quantum = 12 ticks" (12 * tick) q;
  (match Svr4.select_id t with
  | 1 -> Svr4.charge t ~id:1 ~service:q ~runnable:true
  | _ -> Alcotest.fail "select");
  check_int "tqexp demotion" 19 (Svr4.prio_of t ~id:1)

let test_svr4_partial_use_keeps_priority () =
  let t = Svr4.create () in
  Svr4.add t ~id:1 Svr4.Ts;
  (match Svr4.select_id t with
  | 1 -> Svr4.charge t ~id:1 ~service:tick ~runnable:true
  | _ -> Alcotest.fail "select");
  check_int "no demotion before expiry" 29 (Svr4.prio_of t ~id:1);
  check_int "remaining quantum shrank" (11 * tick) (Svr4.quantum_of t ~id:1)

let test_svr4_sleep_return_boost () =
  let t = Svr4.create () in
  Svr4.add t ~id:1 Svr4.Ts;
  (match Svr4.select_id t with
  | 1 -> Svr4.charge t ~id:1 ~service:tick ~runnable:false
  | _ -> Alcotest.fail "select");
  Svr4.wake t ~id:1;
  check_int "slpret boost" 54 (Svr4.prio_of t ~id:1)

let test_svr4_wake_without_boost () =
  let t = Svr4.create () in
  Svr4.add t ~id:1 Svr4.Ts;
  Svr4.block t ~id:1;
  Svr4.wake ~boost:false t ~id:1;
  check_int "admission wake keeps priority" 29 (Svr4.prio_of t ~id:1)

let test_svr4_starvation_boost () =
  let t = Svr4.create () in
  Svr4.add t ~id:1 Svr4.Ts;
  Svr4.add t ~id:2 Svr4.Ts;
  (* 1 runs; 2 waits through a second_tick: maxwait 0 -> lwait boost
     (prio 29's lwait is 50 + 29/6 = 54). *)
  (match Svr4.select_id t with
  | 1 -> Svr4.charge t ~id:1 ~service:tick ~runnable:true
  | _ -> Alcotest.fail "expected 1 first (FIFO)");
  Svr4.second_tick t;
  check_int "waiting thread boosted to lwait" 54 (Svr4.prio_of t ~id:2);
  (* A freshly added prio-29 thread must lose to the boosted ones. *)
  Svr4.add t ~id:3 Svr4.Ts;
  match Svr4.select_id t with
  | id when id >= 0 && id <> 3 -> Svr4.charge t ~id ~service:tick ~runnable:true
  | _ -> Alcotest.fail "boosted thread should be selected first"

let test_svr4_tick_accounting_overcharges () =
  let t = Svr4.create () (* tick accounting on *) in
  Svr4.add t ~id:1 Svr4.Ts;
  let q = Svr4.quantum_of t ~id:1 in
  (* Twelve 1 ms slices are billed as twelve full ticks: the quantum is
     exhausted after 12 runs even though only 12 ms of CPU were used. *)
  let runs = ref 0 in
  while Svr4.prio_of t ~id:1 = 29 && !runs < 100 do
    (match Svr4.select_id t with
    | 1 -> Svr4.charge t ~id:1 ~service:(Hsfq_engine.Time.milliseconds 1) ~runnable:true
    | _ -> Alcotest.fail "select");
    incr runs
  done;
  check_int "overcharged: expired after quantum_ticks short runs" (q / tick) !runs

let test_svr4_exact_accounting () =
  let t = Svr4.create ~tick_accounting:false () in
  Svr4.add t ~id:1 Svr4.Ts;
  for _ = 1 to 12 do
    match Svr4.select_id t with
    | 1 -> Svr4.charge t ~id:1 ~service:(Hsfq_engine.Time.milliseconds 1) ~runnable:true
    | _ -> Alcotest.fail "select"
  done;
  check_int "12 ms of exact use never expires a 120 ms quantum" 29
    (Svr4.prio_of t ~id:1)

let test_svr4_rt_above_ts () =
  let t = Svr4.create () in
  Svr4.add t ~id:1 Svr4.Ts;
  Svr4.add t ~id:2 (Svr4.Rt 3);
  Svr4.add t ~id:3 (Svr4.Rt 7);
  check_int "highest RT first" 3 (Svr4.select_id t);
  Svr4.charge t ~id:3 ~service:tick ~runnable:false;
  check_int "then lower RT" 2 (Svr4.select_id t);
  Svr4.charge t ~id:2 ~service:tick ~runnable:false;
  check_int "then TS" 1 (Svr4.select_id t);
  Svr4.charge t ~id:1 ~service:tick ~runnable:true;
  check_bool "RT preempts TS" true (Svr4.preempts t ~waker:2 ~running:1);
  check_bool "higher RT preempts lower" true (Svr4.preempts t ~waker:3 ~running:2);
  check_bool "TS never preempts" false (Svr4.preempts t ~waker:1 ~running:2)

let test_svr4_rt_fifo_within_priority () =
  let t = Svr4.create () in
  Svr4.add t ~id:1 (Svr4.Rt 5);
  Svr4.add t ~id:2 (Svr4.Rt 5);
  check_int "FIFO within RT priority" 1 (Svr4.select_id t);
  Svr4.charge t ~id:1 ~service:(Svr4.quantum_of t ~id:1) ~runnable:true;
  check_int "round robin after full quantum" 2
    (Svr4.select_id t);
  Svr4.charge t ~id:2 ~service:tick ~runnable:true

let test_svr4_remove_and_errors () =
  let t = Svr4.create () in
  Svr4.add t ~id:1 Svr4.Ts;
  check_bool "is_rt false" false (Svr4.is_rt t ~id:1);
  Svr4.remove t ~id:1;
  check_int "removed" 0 (Svr4.backlogged t);
  Alcotest.check_raises "unknown thread" (Invalid_argument "Svr4: unknown thread 1")
    (fun () -> ignore (Svr4.prio_of t ~id:1));
  Alcotest.check_raises "duplicate add" (Invalid_argument "Svr4.add: duplicate id")
    (fun () ->
      Svr4.add t ~id:2 Svr4.Ts;
      Svr4.add t ~id:2 Svr4.Ts)

let test_svr4_default_table_shape () =
  let table = Svr4.default_table () in
  check_int "60 levels" 60 (Array.length table);
  check_bool "low prio has long quanta" true
    (table.(0).Svr4.quantum_ticks > table.(59).Svr4.quantum_ticks);
  Array.iteri
    (fun p row ->
      check_bool "tqexp demotes" true (row.Svr4.tqexp <= p);
      check_bool "slpret boosts" true (row.Svr4.slpret >= 50);
      check_bool "lwait boosts" true (row.Svr4.lwait >= 50))
    table

let test_svr4_custom_maxwait () =
  (* With maxwait = 2, a waiting thread is boosted only after the third
     housekeeping tick. *)
  let table =
    Array.map (fun r -> { r with Svr4.maxwait_s = 2 }) (Svr4.default_table ())
  in
  let t = Svr4.create ~table () in
  Svr4.add t ~id:1 Svr4.Ts;
  Svr4.add t ~id:2 Svr4.Ts;
  (match Svr4.select_id t with
  | 1 -> Svr4.charge t ~id:1 ~service:tick ~runnable:true
  | _ -> Alcotest.fail "select");
  Svr4.second_tick t;
  check_int "no boost after 1 tick" 29 (Svr4.prio_of t ~id:2);
  Svr4.second_tick t;
  check_int "no boost after 2 ticks" 29 (Svr4.prio_of t ~id:2);
  Svr4.second_tick t;
  check_int "boosted after exceeding maxwait" 54 (Svr4.prio_of t ~id:2)

let test_svr4_table_round_trip () =
  let t = Svr4.default_table () in
  match Svr4.table_of_string (Svr4.table_to_string t) with
  | Ok t' -> check_bool "round trip" true (t = t')
  | Error e -> Alcotest.failf "round trip failed: %s" e

let test_svr4_table_parse_errors () =
  let expect_error what text =
    match Svr4.table_of_string text with
    | Ok _ -> Alcotest.failf "%s: expected a parse error" what
    | Error _ -> ()
  in
  expect_error "too few rows" "10 0 50 0 50\n";
  expect_error "bad arity" (String.concat "" (List.init 60 (fun _ -> "1 2 3\n")));
  expect_error "non-integers" (String.concat "" (List.init 60 (fun _ -> "a b c d e\n")));
  expect_error "priority out of range"
    (String.concat "" (List.init 60 (fun _ -> "10 0 99 0 50\n")));
  expect_error "zero quantum"
    (String.concat "" (List.init 60 (fun _ -> "0 0 50 0 50\n")));
  (* Comments and blank lines are fine. *)
  let good =
    "# header\n\n" ^ String.concat "" (List.init 60 (fun _ -> "10 0 50 0 50 # row\n"))
  in
  match Svr4.table_of_string good with
  | Ok t -> check_int "parsed rows" 60 (Array.length t)
  | Error e -> Alcotest.failf "should parse: %s" e

(* --------------------------- keyed heap ------------------------------- *)

let test_keyed_heap_lazy_invalidation () =
  let h = Keyed_heap.create () in
  let gens = Hashtbl.create 4 in
  Keyed_heap.set_validator h (fun ~id ~gen -> Hashtbl.find_opt gens id = Some gen);
  let push id key =
    let g = 1 + Option.value ~default:0 (Hashtbl.find_opt gens id) in
    Hashtbl.replace gens id g;
    Keyed_heap.push h ~key ~gen:g ~id
  in
  push 1 5;
  push 2 3;
  push 1 1; (* re-keys client 1; the old (5) entry is now stale *)
  check_int "client 1 first" 1 (Keyed_heap.pop_valid h);
  check_int "fresh key" 1 (Keyed_heap.last_key h);
  check_int "then client 2" 2 (Keyed_heap.pop_valid h);
  (* Only the stale entry remains. *)
  check_int "stale entry skipped" (-1) (Keyed_heap.pop_valid h)

let test_keyed_heap_fifo_ties () =
  let h = Keyed_heap.create () in
  Keyed_heap.set_validator h (fun ~id:_ ~gen:_ -> true);
  Keyed_heap.push h ~key:7 ~gen:0 ~id:10;
  Keyed_heap.push h ~key:7 ~gen:0 ~id:20;
  check_int "FIFO tie: first push wins" 10 (Keyed_heap.peek_valid h);
  check_int "peeked key" 7 (Keyed_heap.peeked_key h);
  check_int "pop 10" 10 (Keyed_heap.pop_valid h);
  check_int "pop 20" 20 (Keyed_heap.pop_valid h)

(* Lazy deletion's backstop: once reported-stale entries outnumber live
   ones (and the heap is non-trivially sized), the next push compacts in
   place — and the survivors still pop in exact key order. *)
let test_keyed_heap_compaction () =
  let h = Keyed_heap.create () in
  let live = Hashtbl.create 16 in
  Keyed_heap.set_validator h (fun ~id ~gen ->
      Hashtbl.find_opt live id = Some gen);
  for id = 0 to 99 do
    Hashtbl.replace live id 1;
    Keyed_heap.push h ~key:(2 * id) ~gen:1 ~id
  done;
  check_int "size before" 100 (Keyed_heap.size h);
  for id = 10 to 99 do
    Hashtbl.remove live id;
    Keyed_heap.invalidate h
  done;
  check_int "stale reported" 90 (Keyed_heap.stale_bound h);
  (* 2 * 90 > 100 and size >= 64: this push must compact first. *)
  Hashtbl.replace live 100 1;
  Keyed_heap.push h ~key:201 ~gen:1 ~id:100;
  check_int "compacted down to live entries" 11 (Keyed_heap.size h);
  check_int "stale counter reset" 0 (Keyed_heap.stale_bound h);
  for id = 0 to 9 do
    check_int "pop order after compaction" id (Keyed_heap.pop_valid h);
    check_int "popped key" (2 * id) (Keyed_heap.last_key h)
  done;
  check_int "late pushed entry survives" 100 (Keyed_heap.pop_valid h);
  check_int "drained" (-1) (Keyed_heap.pop_valid h)

(* The compaction trigger counts queued entries only: right after a
   pop, 63 entries with 33 reported stale are below the 64-entry floor,
   so the push that follows must not compact. *)
let test_keyed_heap_pop_then_push_threshold () =
  let h = Keyed_heap.create () in
  let live = Array.make 64 true in
  Keyed_heap.set_validator h (fun ~id ~gen:_ -> live.(id));
  for id = 0 to 63 do
    Keyed_heap.push h ~key:id ~gen:0 ~id
  done;
  check_int "pop the minimum" 0 (Keyed_heap.pop_valid h);
  check_int "size after pop" 63 (Keyed_heap.size h);
  for id = 31 to 63 do
    live.(id) <- false;
    Keyed_heap.invalidate h
  done;
  Keyed_heap.push h ~key:100 ~gen:0 ~id:0;
  check_int "no compaction below 64 entries" 64 (Keyed_heap.size h);
  check_int "stale still reported" 33 (Keyed_heap.stale_bound h);
  for id = 1 to 30 do
    check_int "pop order" id (Keyed_heap.pop_valid h)
  done;
  check_int "pushed entry last" 0 (Keyed_heap.pop_valid h);
  check_int "drained" (-1) (Keyed_heap.pop_valid h)

(* A heap drained far below its high-water mark must release the backing
   arrays (the same quarter-occupancy trigger as compaction, checked on
   pops too), and the survivors must still pop in exact key order through
   the shrunk store. *)
let test_keyed_heap_capacity_release () =
  let h = Keyed_heap.create () in
  Keyed_heap.set_validator h (fun ~id:_ ~gen:_ -> true);
  for id = 0 to 2047 do
    Keyed_heap.push h ~key:id ~gen:1 ~id
  done;
  let cap_full = Keyed_heap.capacity h in
  check_bool "capacity covers the burst" true (cap_full >= 2048);
  for expect = 0 to 2047 - 100 do
    check_int "drain order" expect (Keyed_heap.pop_valid h)
  done;
  check_int "live entries" 100 (Keyed_heap.size h);
  check_bool "capacity released" true (Keyed_heap.capacity h < cap_full);
  check_bool "capacity covers survivors" true
    (Keyed_heap.capacity h >= Keyed_heap.size h);
  for expect = 2047 - 99 to 2047 do
    check_int "survivors in key order" expect (Keyed_heap.pop_valid h)
  done;
  check_int "drained" (-1) (Keyed_heap.pop_valid h)

(* remap_ids: rewriting queued ids through an old->new map (the owner's
   compaction move) must preserve keys, heap order and FIFO tie-breaks
   exactly; ids outside the map or mapped negative are untouched. *)
let test_keyed_heap_remap_preserves_order () =
  let pop_all h =
    let out = ref [] in
    let rec go () =
      let id = Keyed_heap.pop_valid h in
      if id >= 0 then begin
        out := (Keyed_heap.last_key h, id) :: !out;
        go ()
      end
      else List.rev !out
    in
    go ()
  in
  let keys = [| 8; 2; 6; 2; 4; 2; 8; 1 |] in
  let fill () =
    let h = Keyed_heap.create () in
    Keyed_heap.set_validator h (fun ~id:_ ~gen:_ -> true);
    Array.iteri (fun id key -> Keyed_heap.push h ~key ~gen:0 ~id) keys;
    h
  in
  let baseline = pop_all (fill ()) in
  let remapped = fill () in
  (* Even ids move to id + 100; odd ids are left alone (map = -1), and
     id 7's slot is outside the map entirely. *)
  let map = Array.init 7 (fun i -> if i mod 2 = 0 then i + 100 else -1) in
  Keyed_heap.remap_ids remapped map;
  let expected =
    List.map
      (fun (k, id) -> (k, if id < 7 && id mod 2 = 0 then id + 100 else id))
      baseline
  in
  Alcotest.(check (list (pair int int)))
    "same keys and order, ids rewritten" expected (pop_all remapped)

(* Naive-oracle differential: random push/pop/peek/invalidate/remap/
   compact sequences run in lockstep against a sorted list of
   (key, seq, gen, id), where seq counts pushes and so orders ties FIFO.
   Clients own one generation each, drawn from a global counter as the
   schedulers' are, so an entry is valid iff its gen is its client's
   current one and a remapped stale entry stays stale. A push for a
   client with a valid queued entry reports the old one stale, as
   [Sfq] does; [Bump] reports it or not (under-reporting is allowed).
   [Cycle] is the SFQ select -> charge shape: pop, then push the same
   client back at a later key. Bursts cross the 64-entry compaction
   threshold. The oracle models the documented compaction rule, so the
   popped and peeked ids, [last_key], [peeked_key] and [size] are
   compared after every op. *)
type kh_op =
  | Push of int * int (* client, key *)
  | Burst of int * int (* n pushes, key salt *)
  | Pop
  | Cycle of int (* key increment *)
  | Peek
  | Bump of int * bool (* client, reported *)
  | Remap of int (* rotation of the client ids *)
  | Compact

let kh_clients = 128

let show_kh_op = function
  | Push (c, k) -> Printf.sprintf "Push (%d, %d)" c k
  | Burst (n, salt) -> Printf.sprintf "Burst (%d, %d)" n salt
  | Pop -> "Pop"
  | Cycle d -> Printf.sprintf "Cycle %d" d
  | Peek -> "Peek"
  | Bump (c, r) -> Printf.sprintf "Bump (%d, %b)" c r
  | Remap r -> Printf.sprintf "Remap %d" r
  | Compact -> "Compact"

let gen_kh_op =
  QCheck.Gen.(
    let client = int_bound (kh_clients - 1) in
    frequency
      [
        (6, map2 (fun c k -> Push (c, k)) client (int_bound 999));
        (1, map2 (fun n salt -> Burst (n, salt)) (int_range 1 200) (int_bound 999));
        (5, return Pop);
        (6, map (fun d -> Cycle d) (int_bound 99));
        (2, return Peek);
        (4, map2 (fun c r -> Bump (c, r)) client bool);
        (1, map (fun r -> Remap r) (int_range 1 (kh_clients - 1)));
        (1, return Compact);
      ])

let prop_keyed_heap_matches_oracle =
  QCheck.Test.make ~name:"keyed heap matches a sorted-list oracle" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_kh_op ops))
       QCheck.Gen.(list_size (int_range 1 80) gen_kh_op))
    (fun ops ->
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let h = Keyed_heap.create () in
      let gens = Array.make kh_clients 0 and next_gen = ref 1 in
      Keyed_heap.set_validator h (fun ~id ~gen -> gens.(id) = gen);
      (* The oracle: every queued entry as (key, seq, gen, id) sorted on
         (key, seq), and the reported-stale count. *)
      let entries = ref [] and stale = ref 0 and seq = ref 0 in
      let last = ref 0 and peeked = ref 0 in
      let valid (_, _, g, id) = gens.(id) = g in
      let order (a, i, _, _) (b, j, _, _) =
        if a <> b then Int.compare a b else Int.compare i j
      in
      let queued c = List.exists (fun ((_, _, _, id) as e) -> id = c && valid e) !entries in
      let bump c ~reported =
        let was = queued c in
        gens.(c) <- !next_gen;
        incr next_gen;
        if was && reported then begin
          Keyed_heap.invalidate h;
          incr stale
        end
      in
      let drop_invalid () =
        entries := List.filter valid !entries;
        stale := 0
      in
      let push c key =
        bump c ~reported:true;
        let n = List.length !entries in
        if n >= 64 && 2 * !stale > n then drop_invalid ();
        Keyed_heap.push h ~key ~gen:gens.(c) ~id:c;
        entries := List.merge order !entries [ (key, !seq, gens.(c), c) ];
        incr seq
      in
      (* Drop the stale prefix; the first valid entry or [None]. *)
      let rec surface () =
        match !entries with
        | [] -> None
        | e :: rest when not (valid e) ->
          entries := rest;
          if !stale > 0 then decr stale;
          surface ()
        | e :: _ -> Some e
      in
      let pop () =
        let got = Keyed_heap.pop_valid h in
        match surface () with
        | Some (key, _, _, id) ->
          entries := List.tl !entries;
          last := key;
          if got <> id then fail "pop_valid: got %d, oracle %d" got id;
          Some (key, id)
        | None ->
          if got <> -1 then fail "pop_valid: got %d, oracle empty" got;
          None
      in
      let step = function
        | Push (c, key) -> push c key
        | Burst (n, salt) ->
          for i = 0 to n - 1 do
            push ((salt + (i * 37)) mod kh_clients) ((salt + (i * 7919)) mod 1000)
          done
        | Pop -> ignore (pop ())
        | Cycle d -> (
          match pop () with Some (key, id) -> push id (key + d) | None -> ())
        | Peek -> (
          let got = Keyed_heap.peek_valid h in
          match surface () with
          | Some (key, _, _, id) ->
            peeked := key;
            if got <> id then fail "peek_valid: got %d, oracle %d" got id
          | None -> if got <> -1 then fail "peek_valid: got %d, oracle empty" got)
        | Bump (c, reported) -> bump c ~reported
        | Remap r ->
          let map = Array.init kh_clients (fun i -> (i + r) mod kh_clients) in
          let old = Array.copy gens in
          Array.iteri (fun i g -> gens.(map.(i)) <- g) old;
          Keyed_heap.remap_ids h map;
          entries := List.map (fun (k, s, g, id) -> (k, s, g, map.(id))) !entries
        | Compact ->
          Keyed_heap.compact h;
          drop_invalid ()
      in
      List.iter
        (fun op ->
          step op;
          let what = show_kh_op op in
          if Keyed_heap.size h <> List.length !entries then
            fail "after %s: size %d, oracle %d" what (Keyed_heap.size h)
              (List.length !entries);
          if Keyed_heap.last_key h <> !last then
            fail "after %s: last_key %d, oracle %d" what (Keyed_heap.last_key h) !last;
          if Keyed_heap.peeked_key h <> !peeked then
            fail "after %s: peeked_key %d, oracle %d" what (Keyed_heap.peeked_key h)
              !peeked;
          if Keyed_heap.stale_bound h <> !stale then
            fail "after %s: stale_bound %d, oracle %d" what (Keyed_heap.stale_bound h)
              !stale)
        ops;
      true)

(* ------------------------ interrupt sources --------------------------- *)

let test_interrupt_source_math () =
  let open Hsfq_kernel.Interrupt_source in
  let p = Periodic { period = Hsfq_engine.Time.milliseconds 10; cost = Hsfq_engine.Time.microseconds 100 } in
  Alcotest.(check (float 1e-9)) "periodic utilization" 0.01 (utilization p);
  check_int "periodic burstiness = cost" (Hsfq_engine.Time.microseconds 100) (fc_burstiness p);
  let q = Poisson { rate_hz = 100.; mean_cost = Hsfq_engine.Time.microseconds 500; seed = 1 } in
  Alcotest.(check (float 1e-9)) "poisson utilization" 0.05 (utilization q);
  check_bool "poisson burstiness envelope > periodic" true
    (fc_burstiness q > Hsfq_engine.Time.microseconds 500)

let test_interrupt_source_fires () =
  let open Hsfq_engine in
  let sim = Sim.create () in
  let count = ref 0 and total = ref 0 in
  Hsfq_kernel.Interrupt_source.start
    (Hsfq_kernel.Interrupt_source.Periodic
       { period = Time.milliseconds 10; cost = Time.microseconds 200 })
    ~sim
    ~fire:(fun ~duration ->
      incr count;
      total := !total + duration);
  Sim.run_until sim (Time.milliseconds 100);
  check_int "ten arrivals in 100 ms" 10 !count;
  check_int "costs accumulate" (Time.milliseconds 2) !total

(* ----------------------- max-min fairness oracle ---------------------- *)

module MM = Hsfq_check.Maxmin

let mm_ok ~capacity t rates =
  match MM.check ~capacity t ~rates with
  | Ok () -> ()
  | Error e -> Alcotest.failf "max-min criteria violated: %s" e

let test_maxmin_hand_examples () =
  (* No saturation: pure weight proportion. *)
  let t =
    MM.group ~weight:1.
      [ MM.leaf ~weight:1. ~demand:10. (); MM.leaf ~weight:3. ~demand:10. () ]
  in
  let r = MM.allocate ~capacity:4. t in
  check_float "1:3 light" 1. r.(0);
  check_float "1:3 heavy" 3. r.(1);
  mm_ok ~capacity:4. t r;
  (* A saturated sibling's surplus is redistributed. *)
  let t =
    MM.group ~weight:1.
      [ MM.leaf ~weight:1. ~demand:0.5 (); MM.leaf ~weight:1. ~demand:10. () ]
  in
  let r = MM.allocate ~capacity:2. t in
  check_float "saturated gets its demand" 0.5 r.(0);
  check_float "sibling absorbs the surplus" 1.5 r.(1);
  mm_ok ~capacity:2. t r;
  (* The per-subtree 1-CPU cap (the root claim discipline): at capacity
     8 every capped class gets exactly one CPU, whatever its weight. *)
  let t =
    MM.group ~weight:1.
      (List.init 8 (fun i ->
           MM.leaf ~cap:1.
             ~weight:(float_of_int (1 + (i mod 4)))
             ~demand:1. ()))
  in
  let r = MM.allocate ~capacity:8. t in
  Array.iter (fun x -> check_float "cap binds" 1. x) r;
  mm_ok ~capacity:8. t r;
  (* Hierarchical: a cap on the group, not its leaves. *)
  let t =
    MM.group ~weight:1.
      [
        MM.group ~cap:1. ~weight:4.
          [ MM.leaf ~weight:1. ~demand:2. (); MM.leaf ~weight:1. ~demand:2. () ];
        MM.leaf ~weight:1. ~demand:4. ();
      ]
  in
  let r = MM.allocate ~capacity:3. t in
  check_float "capped group leaf a" 0.5 r.(0);
  check_float "capped group leaf b" 0.5 r.(1);
  check_float "uncapped sibling takes the rest" 2. r.(2);
  mm_ok ~capacity:3. t r

(* The checker is independent of the allocator: it must reject vectors
   that merely sum correctly but violate the bottleneck condition or
   work conservation. *)
let test_maxmin_check_rejects () =
  let t =
    MM.group ~weight:1.
      [ MM.leaf ~weight:1. ~demand:10. (); MM.leaf ~weight:1. ~demand:10. () ]
  in
  (match MM.check ~capacity:2. t ~rates:[| 1.5; 0.5 |] with
  | Ok () -> Alcotest.fail "unbalanced vector accepted"
  | Error _ -> ());
  (match MM.check ~capacity:2. t ~rates:[| 0.5; 0.5 |] with
  | Ok () -> Alcotest.fail "non-work-conserving vector accepted"
  | Error _ -> ());
  (match MM.check ~capacity:2. t ~rates:[| 1. |] with
  | Ok () -> Alcotest.fail "short vector accepted"
  | Error _ -> ());
  mm_ok ~capacity:2. t [| 1.; 1. |]

(* 10^5 leaves: the O(k log k) water-filling pass and the O(n) checker
   must agree at the million-client scale the structures target. *)
let test_maxmin_large_tree () =
  let groups = 100 and per = 1000 in
  let t =
    MM.group ~weight:1.
      (List.init groups (fun g ->
           MM.group
             ~weight:(float_of_int (1 + (g mod 7)))
             (List.init per (fun i ->
                  MM.leaf
                    ~weight:(float_of_int (1 + (i mod 5)))
                    ~demand:(float_of_int (i mod 3) /. 2.)
                    ()))))
  in
  let r = MM.allocate ~capacity:64. t in
  check_int "one rate per leaf" (groups * per) (Array.length r);
  check_bool "within capacity" true (MM.total r <= 64. +. 1e-6);
  mm_ok ~capacity:64. t r

let maxmin_tree_gen =
  let open QCheck.Gen in
  let weight = map (fun i -> float_of_int i /. 4.) (int_range 1 40) in
  let demand = map (fun i -> float_of_int i /. 8.) (int_range 0 80) in
  let cap =
    frequency
      [
        (3, return infinity);
        (1, map (fun i -> float_of_int i /. 4.) (int_range 1 20));
      ]
  in
  let leaf_g =
    map3 (fun w d c -> MM.leaf ~cap:c ~weight:w ~demand:d ()) weight demand cap
  in
  let rec node depth =
    if depth = 0 then leaf_g
    else
      frequency
        [
          (1, leaf_g);
          ( 2,
            int_range 1 6 >>= fun n ->
            list_repeat n (node (depth - 1)) >>= fun ch ->
            map2 (fun w c -> MM.group ~cap:c ~weight:w ch) weight cap );
        ]
  in
  node 3

let prop_maxmin_allocate_passes_check =
  QCheck.Test.make ~name:"maxmin: allocate satisfies the max-min criteria"
    ~count:200
    QCheck.(make Gen.(pair maxmin_tree_gen (int_range 0 64)))
    (fun (tree, cap4) ->
      let capacity = float_of_int cap4 /. 4. in
      let r = MM.allocate ~capacity tree in
      match MM.check ~capacity tree ~rates:r with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_reportf "capacity %g: %s" capacity e)

(* Wide two-level trees at Q = 10^4 leaves, seeded deterministically. *)
let prop_maxmin_wide_trees =
  QCheck.Test.make ~name:"maxmin: 10^4-leaf wide trees pass" ~count:5
    QCheck.(int_range 0 1000)
    (fun seed ->
      let t =
        MM.group ~weight:1.
          (List.init 100 (fun g ->
               MM.group
                 ~weight:(float_of_int (1 + ((g + seed) mod 9)))
                 (List.init 100 (fun i ->
                      MM.leaf
                        ~weight:(float_of_int (1 + ((i * 7) + seed) mod 6))
                        ~demand:(float_of_int (((i + (g * 3) + seed) mod 16)) /. 4.)
                        ()))))
      in
      let capacity = float_of_int (1 + (seed mod 128)) in
      match MM.check ~capacity t ~rates:(MM.allocate ~capacity t) with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_reportf "seed %d: %s" seed e)

(* The oracle against the real thing: singleton backlogged classes under
   the root on a P-CPU kernel; observed service shares must track the
   hierarchical max-min allocation with the per-subtree 1-CPU cap. *)
let smp_observed_shares ~cpus ~weights ~seconds =
  let open Hsfq_engine in
  let open Hsfq_kernel in
  let sim = Sim.create () in
  let hier = Hsfq_core.Hierarchy.create () in
  let k = Kernel.create ~cpus sim hier in
  let tids =
    List.mapi
      (fun i w ->
        let leaf =
          match
            Hsfq_core.Hierarchy.mknod hier
              ~name:(Printf.sprintf "c%d" i)
              ~parent:Hsfq_core.Hierarchy.root ~weight:w Hsfq_core.Hierarchy.Leaf
          with
          | Ok id -> id
          | Error e -> failwith e
        in
        let lf, sfq = Leaf_sched.Sfq_leaf.make () in
        Kernel.install_leaf k leaf lf;
        let tid =
          Kernel.spawn k
            ~name:(Printf.sprintf "t%d" i)
            ~leaf
            (Workload_intf.forever_compute (Time.seconds 10))
        in
        Leaf_sched.Sfq_leaf.add sfq ~tid ~weight:1.;
        Kernel.start k tid;
        tid)
      weights
  in
  Kernel.run_until k (Time.seconds seconds);
  let service = List.map (fun tid -> float_of_int (Kernel.cpu_time k tid)) tids in
  let total = List.fold_left ( +. ) 0. service in
  List.map (fun s -> s /. total) service

let prop_maxmin_matches_smp_dispatch =
  QCheck.Test.make ~name:"maxmin: P>1 dispatch tracks the capped oracle"
    ~count:6
    QCheck.(
      pair (oneofl [ 2; 4 ]) (list_of_size Gen.(int_range 4 6) (int_range 1 4)))
    (fun (cpus, ws) ->
      (* The shrinker walks weights toward 0 and the list toward empty;
         both leave the scenario's domain. *)
      QCheck.assume (List.length ws >= cpus && List.for_all (fun w -> w > 0) ws);
      let weights = List.map float_of_int ws in
      let shares = smp_observed_shares ~cpus ~weights ~seconds:2 in
      let tree =
        MM.group ~weight:1.
          (List.map (fun w -> MM.leaf ~cap:1. ~weight:w ~demand:1. ()) weights)
      in
      let rates = MM.allocate ~capacity:(float_of_int cpus) tree in
      let total = MM.total rates in
      List.for_all2
        (fun s r ->
          let expect = r /. total in
          if Float.abs (s -. expect) < 0.05 then true
          else
            QCheck.Test.fail_reportf
              "cpus=%d weights=[%s]: share %.3f vs oracle %.3f" cpus
              (String.concat ";" (List.map string_of_int ws))
              s expect)
        shares (Array.to_list rates))

(* ----------------------------- runner -------------------------------- *)

let () =
  Alcotest.run "sched"
    [
      ("wfq battery", fair_battery "wfq" (module Wfq));
      ("scfq battery", fair_battery "scfq" (module Scfq));
      ("fqs battery", fair_battery "fqs" (module Fqs));
      ("stride battery", fair_battery "stride" (module Stride));
      ("lottery battery", fair_battery "lottery" (module Lottery));
      ("eevdf battery", fair_battery "eevdf" (module Eevdf));
      ("round-robin battery", fair_battery "rr" (module Round_robin));
      ( "fair protocol",
        [
          Alcotest.test_case "depart of the in-service client rejected" `Quick
            test_depart_in_service_rejected;
        ] );
      ( "proportionality",
        [
          Alcotest.test_case "wfq 1:3" `Quick
            (test_proportional "wfq" (module Wfq) ~tol:0.05);
          Alcotest.test_case "scfq 1:3" `Quick
            (test_proportional "scfq" (module Scfq) ~tol:0.05);
          Alcotest.test_case "fqs 1:3" `Quick
            (test_proportional "fqs" (module Fqs) ~tol:0.05);
          Alcotest.test_case "stride 1:3" `Quick
            (test_proportional "stride" (module Stride) ~tol:0.05);
          Alcotest.test_case "eevdf 1:3" `Quick
            (test_proportional "eevdf" (module Eevdf) ~tol:0.05);
        ] );
      ( "algorithm specifics",
        [
          Alcotest.test_case "wfq overcharges early blockers" `Quick
            test_wfq_overcharges_short_quanta;
          Alcotest.test_case "fqs charges actual lengths" `Quick
            test_fqs_charges_actual_length;
          Alcotest.test_case "scfq virtual time" `Quick
            test_scfq_virtual_time_is_finish_tag;
          Alcotest.test_case "stride deterministic sequence" `Quick
            test_stride_deterministic_sequence;
          Alcotest.test_case "stride remain across sleep" `Quick
            test_stride_remain_preserved;
          Alcotest.test_case "lottery statistical ratio" `Slow
            test_lottery_statistical_ratio;
          Alcotest.test_case "lottery seed determinism" `Quick
            test_lottery_deterministic_under_seed;
          Alcotest.test_case "eevdf eligibility gating" `Quick test_eevdf_eligibility;
          Alcotest.test_case "round robin ignores weights" `Quick
            test_round_robin_ignores_weights;
        ] );
      ( "gps-rt-clock",
        [
          Alcotest.test_case "wall-clock virtual time" `Quick
            test_gps_vt_advances_with_wall_time;
          Alcotest.test_case "fair at full capacity" `Quick
            test_gps_vt_proportional_at_full_capacity;
          Alcotest.test_case "unfair at reduced capacity" `Quick
            test_gps_vt_unfair_at_reduced_capacity;
          Alcotest.test_case "administration" `Quick test_gps_vt_admin;
        ] );
      ( "edf",
        [
          Alcotest.test_case "deadline ordering" `Quick test_edf_ordering;
          Alcotest.test_case "re-release updates deadline" `Quick
            test_edf_rerelease_updates;
          Alcotest.test_case "FIFO ties" `Quick test_edf_fifo_ties;
        ] );
      ( "rm",
        [
          Alcotest.test_case "priority by period" `Quick test_rm_priority_order;
          Alcotest.test_case "registration-order ties" `Quick
            test_rm_tie_by_registration;
          Alcotest.test_case "unregister" `Quick test_rm_unregister;
        ] );
      ( "keyed-heap",
        [
          Alcotest.test_case "lazy invalidation" `Quick
            test_keyed_heap_lazy_invalidation;
          Alcotest.test_case "FIFO ties" `Quick test_keyed_heap_fifo_ties;
          Alcotest.test_case "stale-majority compaction" `Quick
            test_keyed_heap_compaction;
          Alcotest.test_case "pop then push threshold" `Quick
            test_keyed_heap_pop_then_push_threshold;
          Alcotest.test_case "capacity release on drain" `Quick
            test_keyed_heap_capacity_release;
          Alcotest.test_case "remap_ids preserves order" `Quick
            test_keyed_heap_remap_preserves_order;
          QCheck_alcotest.to_alcotest prop_keyed_heap_matches_oracle;
        ] );
      ( "interrupt-source",
        [
          Alcotest.test_case "utilization and burstiness" `Quick
            test_interrupt_source_math;
          Alcotest.test_case "periodic generation" `Quick test_interrupt_source_fires;
        ] );
      ( "maxmin oracle",
        [
          Alcotest.test_case "hand examples" `Quick test_maxmin_hand_examples;
          Alcotest.test_case "checker rejects wrong vectors" `Quick
            test_maxmin_check_rejects;
          Alcotest.test_case "10^5-leaf tree" `Quick test_maxmin_large_tree;
          QCheck_alcotest.to_alcotest prop_maxmin_allocate_passes_check;
          QCheck_alcotest.to_alcotest prop_maxmin_wide_trees;
          QCheck_alcotest.to_alcotest prop_maxmin_matches_smp_dispatch;
        ] );
      ( "svr4",
        [
          Alcotest.test_case "quantum expiry demotes (tqexp)" `Quick
            test_svr4_ts_quantum_expiry_demotes;
          Alcotest.test_case "partial use keeps priority" `Quick
            test_svr4_partial_use_keeps_priority;
          Alcotest.test_case "sleep-return boost (slpret)" `Quick
            test_svr4_sleep_return_boost;
          Alcotest.test_case "admission wake without boost" `Quick
            test_svr4_wake_without_boost;
          Alcotest.test_case "starvation boost (maxwait/lwait)" `Quick
            test_svr4_starvation_boost;
          Alcotest.test_case "tick accounting overcharges" `Quick
            test_svr4_tick_accounting_overcharges;
          Alcotest.test_case "exact accounting does not" `Quick
            test_svr4_exact_accounting;
          Alcotest.test_case "RT above TS, priority order" `Quick test_svr4_rt_above_ts;
          Alcotest.test_case "RT FIFO within a priority" `Quick
            test_svr4_rt_fifo_within_priority;
          Alcotest.test_case "remove and errors" `Quick test_svr4_remove_and_errors;
          Alcotest.test_case "dispatch table shape" `Quick
            test_svr4_default_table_shape;
          Alcotest.test_case "custom maxwait threshold" `Quick
            test_svr4_custom_maxwait;
          Alcotest.test_case "table text round trip" `Quick
            test_svr4_table_round_trip;
          Alcotest.test_case "table parse errors" `Quick
            test_svr4_table_parse_errors;
        ] );
    ]
