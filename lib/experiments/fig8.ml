open Hsfq_engine
open Hsfq_kernel
open Hsfq_workload
open Common
module Hierarchy = Hsfq_core.Hierarchy

type result = {
  agg1 : int;
  agg2 : int;
  ratio_overall : float;
  ratio_per_sec : float array;
  svr4_busy_fraction : float;
  iso_sfq_loops : int array;
  iso_svr4_loops : int;
  iso_node_ratio : float;
  audits : check list;
}

let loop_cost = Time.microseconds 500

let run_a ?(seed = 51) ~seconds () =
  let sys = make_sys () in
  let leaf1, sfq1 = sfq_leaf sys ~parent:Hierarchy.root ~name:"SFQ-1" ~weight:2. () in
  let leaf2, sfq2 = sfq_leaf sys ~parent:Hierarchy.root ~name:"SFQ-2" ~weight:6. () in
  let leaf3, svr4 = svr4_leaf sys ~parent:Hierarchy.root ~name:"SVR4" ~weight:1. () in
  let c1 =
    Array.init 2 (fun i ->
        snd
          (dhrystone_thread sys ~leaf:leaf1 ~sfq:sfq1
             ~name:(Printf.sprintf "sfq1-%d" i) ~weight:1. ~loop_cost))
  in
  let c2 =
    Array.init 2 (fun i ->
        snd
          (dhrystone_thread sys ~leaf:leaf2 ~sfq:sfq2
             ~name:(Printf.sprintf "sfq2-%d" i) ~weight:1. ~loop_cost))
  in
  (* "All the other threads in the system" live in the SVR4 node; their
     bursty on/off behaviour makes the bandwidth left to SFQ-1/SFQ-2
     fluctuate over time. *)
  let daemons =
    background_daemons sys ~leaf:leaf3 ~svr4 ~n:4
      ~mean_think:(Time.milliseconds 150) ~burst:(Time.milliseconds 120) ~seed
  in
  let until = Time.seconds seconds in
  Kernel.run_until sys.k until;
  let agg counters = Array.fold_left (fun a c -> a + Dhrystone.loops c) 0 counters in
  let sum_series counters =
    let merged = Series.create () in
    Array.iter
      (fun c ->
        let s = Dhrystone.series c in
        let ts = Series.times s and vs = Series.values s in
        Array.iteri (fun i t -> Series.add merged t vs.(i)) ts)
      counters;
    Series.bucket_sum merged ~width:(Time.seconds 1) ~until
  in
  let b1 = sum_series c1 and b2 = sum_series c2 in
  let ratio_per_sec =
    Array.init (Array.length b1) (fun i -> if b1.(i) = 0. then 0. else b2.(i) /. b1.(i))
  in
  let svr4_cpu =
    List.fold_left (fun acc tid -> acc + Kernel.cpu_time sys.k tid) 0 daemons
  in
  ( agg c1,
    agg c2,
    ratio_per_sec,
    float_of_int svr4_cpu /. float_of_int until,
    audit_check sys )

let run_b ~seconds =
  let sys = make_sys () in
  let leaf1, sfq1 = sfq_leaf sys ~parent:Hierarchy.root ~name:"SFQ-1" ~weight:1. () in
  let leaf2, svr4 = svr4_leaf sys ~parent:Hierarchy.root ~name:"SVR4" ~weight:1. () in
  let c1 =
    Array.init 2 (fun i ->
        snd
          (dhrystone_thread sys ~leaf:leaf1 ~sfq:sfq1
             ~name:(Printf.sprintf "sfq1-%d" i) ~weight:1. ~loop_cost))
  in
  let _, c2 = dhrystone_ts_thread sys ~leaf:leaf2 ~svr4 ~name:"ts-0" ~loop_cost in
  Kernel.run_until sys.k (Time.seconds seconds);
  let sfq_loops = Array.map Dhrystone.loops c1 in
  let svr4_loops = Dhrystone.loops c2 in
  let agg1 = Array.fold_left ( + ) 0 sfq_loops in
  ( sfq_loops,
    svr4_loops,
    float_of_int agg1 /. float_of_int svr4_loops,
    audit_check sys )

let run ?(seconds = 30) ?seed () =
  let agg1, agg2, ratio_per_sec, busy, audit_a = run_a ?seed ~seconds () in
  let iso_sfq_loops, iso_svr4_loops, iso_node_ratio, audit_b = run_b ~seconds in
  {
    agg1;
    agg2;
    ratio_overall = float_of_int agg2 /. float_of_int agg1;
    ratio_per_sec;
    svr4_busy_fraction = busy;
    iso_sfq_loops;
    iso_svr4_loops;
    iso_node_ratio;
    audits = [ audit_a; audit_b ];
  }

let checks r =
  let per_sec_ok =
    Array.for_all (fun x -> x > 2.5 && x < 3.5) r.ratio_per_sec
  in
  [
    check "SFQ-2:SFQ-1 aggregate throughput ~ 3:1 (weights 6:2)"
      (Float.abs (r.ratio_overall -. 3.) < 0.15)
      "ratio = %.3f" r.ratio_overall;
    check "ratio holds per second despite SVR4 fluctuation" per_sec_ok
      "per-second ratio within [2.5, 3.5] for all %d windows"
      (Array.length r.ratio_per_sec);
    check "SVR4 background load really fluctuates (busy 5-80%)"
      (r.svr4_busy_fraction > 0.05 && r.svr4_busy_fraction < 0.8)
      "busy fraction = %.2f" r.svr4_busy_fraction;
    check "isolation: SFQ-1 and SVR4 nodes get equal throughput (+-3%)"
      (Float.abs (r.iso_node_ratio -. 1.) < 0.03)
      "node ratio = %.3f" r.iso_node_ratio;
    check "isolation: every thread makes progress"
      (Array.for_all (fun l -> l > 0) r.iso_sfq_loops && r.iso_svr4_loops > 0)
      "sfq threads %s, svr4 thread %d"
      (String.concat "/" (Array.to_list (Array.map string_of_int r.iso_sfq_loops)))
      r.iso_svr4_loops;
  ]
  @ r.audits

let print r =
  print_endline
    "Fig 8a | aggregate throughput of SFQ-1 (w=2) and SFQ-2 (w=6) under fluctuating SVR4 load";
  Printf.printf "  SFQ-1 total loops %d, SFQ-2 total loops %d, ratio %.3f (expect 3.0)\n"
    r.agg1 r.agg2 r.ratio_overall;
  Printf.printf "  SVR4 node busy fraction: %.2f\n" r.svr4_busy_fraction;
  Printf.printf "  per-second SFQ-2/SFQ-1 ratio: %s\n"
    (String.concat " "
       (Array.to_list (Array.map (Printf.sprintf "%.2f") r.ratio_per_sec)));
  print_endline
    "Fig 8b | heterogeneous leaves, equal node weights: SFQ-1 (2 threads) vs SVR4 (1 thread)";
  Printf.printf
    "  SFQ-1 threads: %s loops; SVR4 thread: %d loops; node ratio %.3f (expect 1.0)\n"
    (String.concat ", " (Array.to_list (Array.map string_of_int r.iso_sfq_loops)))
    r.iso_svr4_loops r.iso_node_ratio
