open Hsfq_engine
open Hsfq_kernel
open Hsfq_workload
open Common
module Hierarchy = Hsfq_core.Hierarchy

type phase = { from_s : int; to_s : int; expected : float; measured : float }

type result = {
  t1_per_sec : float array;
  t2_per_sec : float array;
  phases : phase list;
  audit : check;
}

let seconds = 26
let loop_cost = Time.microseconds 500

let run () =
  let sys = make_sys () in
  let leaf, sfq = sfq_leaf sys ~parent:Hierarchy.root ~name:"SFQ-1" ~weight:1. () in
  let t1, c1 =
    dhrystone_thread sys ~leaf ~sfq ~name:"thread1" ~weight:4. ~loop_cost
  in
  let t2, c2 =
    dhrystone_thread sys ~leaf ~sfq ~name:"thread2" ~weight:4. ~loop_cost
  in
  (* The paper's schedule of weight changes and sleep/resume. *)
  let at s f = Sim.at sys.sim (Time.seconds s) f in
  at 4 (fun () -> Leaf_sched.Sfq_leaf.set_weight sfq ~tid:t2 ~weight:2.);
  at 6 (fun () -> Kernel.suspend sys.k t1);
  at 9 (fun () -> Kernel.resume sys.k t1);
  at 12 (fun () -> Leaf_sched.Sfq_leaf.set_weight sfq ~tid:t1 ~weight:8.);
  at 16 (fun () -> Leaf_sched.Sfq_leaf.set_weight sfq ~tid:t2 ~weight:4.);
  at 22 (fun () -> Leaf_sched.Sfq_leaf.set_weight sfq ~tid:t1 ~weight:4.);
  let until = Time.seconds seconds in
  Kernel.run_until sys.k until;
  let b c = Dhrystone.bucket_loops c ~width:(Time.seconds 1) ~until in
  let t1_per_sec = b c1 and t2_per_sec = b c2 in
  let phase from_s to_s expected =
    (* Average over whole seconds strictly inside the phase, avoiding the
       boundary windows that straddle a change. *)
    let lo = from_s + 1 and hi = to_s - 1 in
    let lo, hi = if lo > hi then (from_s, to_s - 1) else (lo, hi) in
    let vals =
      List.init (hi - lo + 1) (fun i ->
          let s = lo + i in
          if t2_per_sec.(s) = 0. then 0. else t1_per_sec.(s) /. t2_per_sec.(s))
    in
    let measured = List.fold_left ( +. ) 0. vals /. float_of_int (List.length vals) in
    { from_s; to_s; expected; measured }
  in
  let phases =
    [
      phase 0 4 1.0;
      phase 4 6 2.0;
      phase 6 9 0.0;
      phase 9 12 2.0;
      phase 12 16 4.0;
      phase 16 22 2.0;
      phase 22 26 1.0;
    ]
  in
  { t1_per_sec; t2_per_sec; phases; audit = audit_check sys }

let checks r =
  r.audit
  :: List.map
    (fun p ->
      let ok =
        if p.expected = 0. then p.measured = 0.
        else Float.abs (p.measured -. p.expected) /. p.expected < 0.12
      in
      check
        (Printf.sprintf "ratio tracks %.0f:%.0f over [%d,%d) s"
           (if p.expected = 0. then 0. else p.expected *. 2.)
           2. p.from_s p.to_s)
        ok "expected %.1f measured %.2f" p.expected p.measured)
    r.phases

let print r =
  print_endline
    "Fig 11 | dynamic weight changes: per-second loops of thread1 / thread2 and ratio";
  let t = Table.create [ "second"; "thread1"; "thread2"; "ratio" ] in
  Array.iteri
    (fun i v1 ->
      let v2 = r.t2_per_sec.(i) in
      Table.row t
        [
          string_of_int i;
          Printf.sprintf "%.0f" v1;
          Printf.sprintf "%.0f" v2;
          (if v2 = 0. then "-" else Printf.sprintf "%.2f" (v1 /. v2));
        ])
    r.t1_per_sec;
  Table.print t;
  List.iter
    (fun p ->
      Printf.printf "  phase [%2d,%2d)s expected ratio %.1f measured %.2f\n"
        p.from_s p.to_s p.expected p.measured)
    r.phases
