open Hsfq_engine
open Hsfq_kernel
open Hsfq_workload
open Common

type result = {
  ts_loops : int array;
  sfq_loops : int array;
  ts_cv : float;
  sfq_cv : float;
  ts_buckets : float array array;
  sfq_buckets : float array array;
  audits : check list;
}

let nthreads = 5
let loop_cost = Time.microseconds 500

let add_interrupt_load sys =
  (* The paper's SPARCstation in multiuser mode: a 10 ms clock interrupt
     plus irregular device interrupts. *)
  Kernel.add_interrupt_source sys.k
    (Interrupt_source.Periodic { period = Time.milliseconds 10; cost = Time.microseconds 100 });
  Kernel.add_interrupt_source sys.k
    (Interrupt_source.Poisson
       { rate_hz = 200.; mean_cost = Time.microseconds 150; seed = 99 })

let buckets_of sys_until counters =
  Array.map
    (fun c ->
      Dhrystone.bucket_loops c ~width:(Time.seconds 5) ~until:sys_until)
    counters

let run_ts ~seconds =
  let config =
    (* "Unmodified kernel": the SVR4 dispatch-table quanta govern; the
       node-level quantum is effectively unbounded. *)
    { Kernel.default_config with default_quantum = Time.seconds 10 }
  in
  let sys = make_sys ~config () in
  let leaf, svr4 =
    svr4_leaf sys ~parent:Hsfq_core.Hierarchy.root ~name:"ts" ~weight:1. ()
  in
  let counters =
    Array.init nthreads (fun i ->
        snd
          (dhrystone_ts_thread sys ~leaf ~svr4
             ~name:(Printf.sprintf "dhry%d" i) ~loop_cost))
  in
  let _ =
    background_daemons sys ~leaf ~svr4 ~n:3 ~mean_think:(Time.milliseconds 300)
      ~burst:(Time.milliseconds 20) ~seed:31
  in
  add_interrupt_load sys;
  let until = Time.seconds seconds in
  Kernel.run_until sys.k until;
  ( Array.map Dhrystone.loops counters,
    buckets_of until counters,
    audit_check sys )

let run_sfq ~seconds =
  let sys = make_sys () in
  let leaf, sfq =
    sfq_leaf sys ~parent:Hsfq_core.Hierarchy.root ~name:"sfq" ~weight:1. ()
  in
  let counters =
    Array.init nthreads (fun i ->
        snd
          (dhrystone_thread sys ~leaf ~sfq ~name:(Printf.sprintf "dhry%d" i)
             ~weight:1. ~loop_cost))
  in
  (* The same background activity, as equal-weight interactive threads. *)
  for i = 0 to 2 do
    let wl, _ =
      Interactive.make ~mean_think:(Time.milliseconds 300)
        ~burst:(Time.milliseconds 20) ~seed:(31 + i) ()
    in
    let tid = Kernel.spawn sys.k ~name:(Printf.sprintf "daemon%d" i) ~leaf wl in
    Leaf_sched.Sfq_leaf.add sfq ~tid ~weight:1.;
    Kernel.start sys.k tid
  done;
  add_interrupt_load sys;
  let until = Time.seconds seconds in
  Kernel.run_until sys.k until;
  ( Array.map Dhrystone.loops counters,
    buckets_of until counters,
    audit_check sys )

let run ?(seconds = 30) () =
  let ts_loops, ts_buckets, ts_audit = run_ts ~seconds in
  let sfq_loops, sfq_buckets, sfq_audit = run_sfq ~seconds in
  {
    ts_loops;
    sfq_loops;
    ts_cv = Stats.cv_of (Array.map float_of_int ts_loops);
    sfq_cv = Stats.cv_of (Array.map float_of_int sfq_loops);
    ts_buckets;
    sfq_buckets;
    audits = [ ts_audit; sfq_audit ];
  }

let checks r =
  [
    check "all TS threads make progress"
      (Array.for_all (fun l -> l > 0) r.ts_loops)
      "min loops %d"
      (Array.fold_left Int.min max_int r.ts_loops);
    check "SFQ throughput is uniform (CV < 2%)" (r.sfq_cv < 0.02) "CV = %.4f"
      r.sfq_cv;
    check "TS throughput varies significantly (CV > 5x SFQ's)"
      (r.ts_cv > 5. *. r.sfq_cv)
      "TS CV = %.4f vs SFQ CV = %.4f" r.ts_cv r.sfq_cv;
  ]
  @ r.audits

let print r =
  print_endline
    "Fig 5 | 5 equal Dhrystone threads: SVR4 time-sharing vs SFQ (loops completed)";
  let t = Table.create [ "scheduler"; "t1"; "t2"; "t3"; "t4"; "t5"; "CV" ] in
  let row name loops cv =
    Table.row t
      (name
       :: (Array.to_list loops |> List.map string_of_int)
      @ [ Printf.sprintf "%.4f" cv ])
  in
  row "SVR4-TS" r.ts_loops r.ts_cv;
  row "SFQ" r.sfq_loops r.sfq_cv;
  Table.print t;
  print_endline "  per-5s loops (thread rows), SVR4-TS then SFQ:";
  Array.iteri
    (fun i b -> Printf.printf "   TS t%d : %s\n" (i + 1)
        (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%5.0f") b))))
    r.ts_buckets;
  Array.iteri
    (fun i b -> Printf.printf "   SFQ t%d: %s\n" (i + 1)
        (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%5.0f") b))))
    r.sfq_buckets
