open Hsfq_engine
open Hsfq_core
open Hsfq_kernel
open Hsfq_workload

type sys = {
  sim : Sim.t;
  hier : Hierarchy.t;
  k : Kernel.t;
  audit : Hsfq_check.Invariant.sink option;
  obs : Hsfq_obs.Trace.sys option;
}

(* Ambient tracer, set by [with_obs] around an experiment run.  The key
   is domain-local (Domain.DLS), so parallel sweeps (Par.sweep) can run
   one traced experiment per worker domain without sharing a tracer —
   which is also what keeps traced runs byte-identical across --jobs. *)
let obs_key : Hsfq_obs.Trace.t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let ambient_obs () = Domain.DLS.get obs_key

let with_obs tr f =
  let prev = Domain.DLS.get obs_key in
  Domain.DLS.set obs_key (Some tr);
  Fun.protect ~finally:(fun () -> Domain.DLS.set obs_key prev) f

let make_sys ?config ?cpus ?(audit = true) ?(obs_label = "sys") () =
  let sim = Sim.create () in
  let hier = Hierarchy.create () in
  let k = Kernel.create ?config ?cpus sim hier in
  (* Collect-policy sink: experiments run to completion and report the
     audit verdict as an ordinary check instead of dying mid-figure. *)
  let sink =
    if audit then begin
      let s = Hsfq_check.Invariant.create ~policy:Collect () in
      Hsfq_check.Hierarchy_audit.attach s hier;
      Some s
    end
    else None
  in
  (* When an ambient tracer is installed, register this system as one
     trace process and wire the tracepoint sink through every layer. *)
  let obs =
    match ambient_obs () with
    | None -> None
    | Some tr ->
      let s = Hsfq_obs.Trace.register_sys tr ~label:obs_label in
      Hierarchy.attach_obs hier (Some s);
      Kernel.set_obs k (Some s);
      Some s
  in
  { sim; hier; k; audit = sink; obs }

(* Leaf schedulers pick up the tracepoint decorator when the system is
   being observed. *)
let maybe_traced sys ~node lf =
  match sys.obs with
  | None -> lf
  | Some s -> Leaf_sched.traced ~sys:s ~node lf

let must where = function
  | Ok v -> v
  | Error e -> invalid_arg (Printf.sprintf "%s: %s" where e)

let internal sys ~parent ~name ~weight =
  must "internal"
    (Hierarchy.mknod sys.hier ~name ~parent ~weight Hierarchy.Internal)

let sfq_leaf sys ~parent ~name ~weight ?quantum () =
  let id =
    must "sfq_leaf" (Hierarchy.mknod sys.hier ~name ~parent ~weight Hierarchy.Leaf)
  in
  let lf, h =
    Leaf_sched.Sfq_leaf.make ?quantum ?audit:sys.audit ~audit_label:name ()
  in
  Kernel.install_leaf sys.k id (maybe_traced sys ~node:id lf);
  (id, h)

let svr4_leaf sys ~parent ~name ~weight ?table ?tick_accounting ?rt_quantum () =
  let id =
    must "svr4_leaf" (Hierarchy.mknod sys.hier ~name ~parent ~weight Hierarchy.Leaf)
  in
  let lf, h = Leaf_sched.Svr4_leaf.make ?table ?tick_accounting ?rt_quantum () in
  Kernel.install_leaf sys.k id (maybe_traced sys ~node:id lf);
  (id, h)

let edf_leaf sys ~parent ~name ~weight ?quantum () =
  let id =
    must "edf_leaf" (Hierarchy.mknod sys.hier ~name ~parent ~weight Hierarchy.Leaf)
  in
  let lf, h = Leaf_sched.Edf_leaf.make ?quantum () in
  Kernel.install_leaf sys.k id (maybe_traced sys ~node:id lf);
  (id, h)

let dhrystone_thread sys ~leaf ~sfq ~name ~weight ~loop_cost =
  let wl, counter = Dhrystone.make ~loop_cost () in
  let tid = Kernel.spawn sys.k ~name ~leaf wl in
  Leaf_sched.Sfq_leaf.add sfq ~tid ~weight;
  Kernel.start sys.k tid;
  (tid, counter)

let dhrystone_ts_thread sys ~leaf ~svr4 ~name ~loop_cost =
  let wl, counter = Dhrystone.make ~loop_cost () in
  let tid = Kernel.spawn sys.k ~name ~leaf wl in
  Leaf_sched.Svr4_leaf.add svr4 ~tid Hsfq_sched.Svr4.Ts;
  Kernel.start sys.k tid;
  (tid, counter)

let mpeg_thread sys ~leaf ~sfq ~name ~weight ?(params = Mpeg.default_params)
    ?paced () =
  let wl, counter = Mpeg.decoder params ?paced () in
  let tid = Kernel.spawn sys.k ~name ~leaf wl in
  Leaf_sched.Sfq_leaf.add sfq ~tid ~weight;
  Kernel.start sys.k tid;
  (tid, counter)

let periodic_rt_thread sys ~leaf ~svr4 ~name ~rt_prio ~period ~cost =
  let wl, counter = Periodic.make ~period ~cost () in
  let tid = Kernel.spawn sys.k ~name ~leaf wl in
  Leaf_sched.Svr4_leaf.add svr4 ~tid (Hsfq_sched.Svr4.Rt rt_prio);
  Kernel.start sys.k tid;
  (tid, counter)

let background_daemons sys ~leaf ~svr4 ~n ~mean_think ~burst ~seed =
  List.init n (fun i ->
      let wl, _ = Interactive.make ~mean_think ~burst ~seed:(seed + i) () in
      let tid =
        Kernel.spawn sys.k ~name:(Printf.sprintf "daemon%d" i) ~leaf wl
      in
      Leaf_sched.Svr4_leaf.add svr4 ~tid Hsfq_sched.Svr4.Ts;
      Kernel.start sys.k tid;
      tid)

type check = { label : string; ok : bool; detail : string }

let check label ok fmt = Printf.ksprintf (fun detail -> { label; ok; detail }) fmt

let audit_check sys =
  match sys.audit with
  | None -> check "invariant audit" true "disabled for this run"
  | Some sink ->
    (* Final quiescent sweep on top of the per-transition hooks. *)
    Hsfq_check.Hierarchy_audit.check_all sink sys.hier;
    check "invariant audit"
      (Hsfq_check.Invariant.count sink = 0)
      "%s"
      (Hsfq_check.Invariant.summary sink)

let merge_audits label cs =
  match List.find_opt (fun c -> not c.ok) cs with
  | Some bad -> { bad with label }
  | None -> check label true "%d runs clean" (List.length cs)

let print_checks checks =
  List.iter
    (fun c ->
      Printf.printf "  [%s] %-40s %s\n" (if c.ok then "PASS" else "FAIL") c.label
        c.detail)
    checks

let all_ok checks = List.for_all (fun c -> c.ok) checks
