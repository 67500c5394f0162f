(* The three simulated systems the benchmark drives, each built from one
   seed.  Every leaf scheduler and every workload closure a scenario
   hands to the kernel goes through [hooks], so the harness can wrap
   them from outside without touching the library. *)

open Hsfq_engine
module K = Hsfq_kernel.Kernel
module LS = Hsfq_kernel.Leaf_sched
module H = Hsfq_core.Hierarchy
module C = Hsfq_experiments.Common
module W = Hsfq_workload
module WI = Hsfq_kernel.Workload_intf

type kind = Video_server | Deep_tree | Timer_churn

type hooks = {
  leaf : hier:H.t -> node:H.id -> LS.t -> LS.t;
  workload : WI.t -> WI.t;
}

let no_hooks = { leaf = (fun ~hier:_ ~node:_ lf -> lf); workload = Fun.id }

(* One [mknod] call, kept so a replay can rebuild the same structure
   (same ids, same weights) in a fresh hierarchy. *)
type node_spec = { name : string; parent : H.id; weight : float; nkind : H.kind }

type t = {
  kind : kind;
  sys : C.sys;
  shape : node_spec list;  (** in creation order *)
  horizon : Time.t;  (** end of the measured slice *)
  quality_horizon : Time.t;  (** end of the correctness rep *)
  latency_tids : int list;  (** the latency-sensitive threads *)
  group_a : int list;
  group_b : int list;
  target_ratio : float;  (** expected CPU ratio of group a to group b *)
}

(* Fixed simulated horizons.  A timed rep runs the measured slice, sized
   to about 0.2 s of host time, so a run holds many reps.  The correctness
   rep continues to the longer quality horizon, so the simulated-time
   metrics (latency percentile, windowed share error) rest on enough
   samples to be steady across seeds. *)
let warmup_of = function
  | Video_server -> Time.seconds 20
  | Deep_tree -> Time.seconds 1
  | Timer_churn -> Time.seconds 2

let measured_of = function
  | Video_server -> Time.seconds 600
  | Deep_tree -> Time.seconds 20
  | Timer_churn -> Time.seconds 50

let quality_of kind = 10 * measured_of kind

let name_of = function
  | Video_server -> "video-server"
  | Deep_tree -> "deep-tree"
  | Timer_churn -> "timer-churn"

let of_name = function
  | "video-server" -> Some Video_server
  | "deep-tree" -> Some Deep_tree
  | "timer-churn" -> Some Timer_churn
  | _ -> None

(* Every PRNG seed of a scenario derives from the one benchmark seed. *)
let sub seed k = (seed * 1_000_003) + k

type builder = {
  bsys : C.sys;
  hooks : hooks;
  mutable nodes : node_spec list;  (** reversed *)
}

let mknod b ~name ~parent ~weight nkind =
  match H.mknod b.bsys.hier ~name ~parent ~weight nkind with
  | Ok id ->
    b.nodes <- { name; parent; weight; nkind } :: b.nodes;
    id
  | Error e -> invalid_arg ("perfbench: mknod " ^ name ^ ": " ^ e)

let install b ~node lf =
  let lf =
    match b.bsys.obs with None -> lf | Some s -> LS.traced ~sys:s ~node lf
  in
  K.install_leaf b.bsys.k node (b.hooks.leaf ~hier:b.bsys.hier ~node lf)

let sfq_leaf b ~parent ~name ~weight =
  let node = mknod b ~name ~parent ~weight H.Leaf in
  let lf, h = LS.Sfq_leaf.make () in
  install b ~node lf;
  (node, h)

let spawn b ~leaf ~name wl register =
  let tid = K.spawn b.bsys.k ~name ~leaf (b.hooks.workload wl) in
  register tid;
  K.start b.bsys.k tid;
  tid

let sfq_thread b ~leaf ~sfq ~name ~weight wl =
  spawn b ~leaf ~name wl (fun tid -> LS.Sfq_leaf.add sfq ~tid ~weight)

let ms = Time.milliseconds
let us = Time.microseconds

(* root -> video (SFQ, w=3: four unpaced MPEG decoders),
           interactive (SFQ, w=1: two interactive threads),
           ts (SVR4 TS, w=1: Dhrystone plus three daemons);
   a 10 ms periodic and a 200 Hz Poisson interrupt. *)
let video_server b ~seed =
  let video, vsfq = sfq_leaf b ~parent:H.root ~name:"video" ~weight:3. in
  let mpegs =
    List.init 4 (fun i ->
        let wl, _ =
          W.Mpeg.decoder { W.Mpeg.default_params with seed = sub seed i } ()
        in
        sfq_thread b ~leaf:video ~sfq:vsfq ~name:(Printf.sprintf "mpeg%d" i)
          ~weight:1. wl)
  in
  let inter, isfq = sfq_leaf b ~parent:H.root ~name:"interactive" ~weight:1. in
  let interactive =
    List.init 2 (fun i ->
        let wl, _ =
          W.Interactive.make ~mean_think:(ms 20) ~burst:(ms 1)
            ~seed:(sub seed (10 + i)) ()
        in
        sfq_thread b ~leaf:inter ~sfq:isfq ~name:(Printf.sprintf "x%d" i)
          ~weight:1. wl)
  in
  let ts = mknod b ~name:"ts" ~parent:H.root ~weight:1. H.Leaf in
  let lf, svr4 = LS.Svr4_leaf.make () in
  install b ~node:ts lf;
  let ts_thread name wl =
    spawn b ~leaf:ts ~name wl (fun tid ->
        LS.Svr4_leaf.add svr4 ~tid Hsfq_sched.Svr4.Ts)
  in
  let dhry = ts_thread "dhry" (fst (W.Dhrystone.make ~loop_cost:(us 500) ())) in
  let daemons =
    List.init 3 (fun i ->
        ts_thread (Printf.sprintf "daemon%d" i)
          (fst
             (W.Interactive.make ~mean_think:(ms 300) ~burst:(ms 20)
                ~seed:(sub seed (20 + i)) ())))
  in
  let k = b.bsys.k in
  K.add_interrupt_source k
    (Hsfq_kernel.Interrupt_source.Periodic { period = ms 10; cost = us 100 });
  K.add_interrupt_source k
    (Hsfq_kernel.Interrupt_source.Poisson
       { rate_hz = 200.; mean_cost = us 150; seed = sub seed 30 });
  (interactive, mpegs, dhry :: daemons, 3.)

(* A 4-ary tree of depth 4: 256 SFQ leaves (weights 1-3), each running
   one jittered on/off thread (200 us on, 50 ms off). *)
let deep_tree b ~seed =
  let leaf_no = ref 0 in
  let rec grow ~parent ~depth ~path =
    List.concat
      (List.init 4 (fun i ->
           let name = Printf.sprintf "%s%d" path i in
           if depth = 4 then begin
             let n = !leaf_no in
             incr leaf_no;
             let leaf, sfq =
               sfq_leaf b ~parent ~name ~weight:(float_of_int (1 + (n mod 3)))
             in
             let wl, _ =
               W.Onoff.make ~on:(us 200) ~off:(ms 50) ~jitter:true
                 ~seed:(sub seed n) ()
             in
             [ sfq_thread b ~leaf ~sfq ~name:("t" ^ name) ~weight:1. wl ]
           end
           else begin
             let node = mknod b ~name ~parent ~weight:1. H.Internal in
             grow ~parent:node ~depth:(depth + 1) ~path:(name ^ ".")
           end))
  in
  let tids = grow ~parent:H.root ~depth:1 ~path:"n" in
  (* root child 0 holds the first 64 leaves, child 1 the next 64 *)
  let a = List.filteri (fun i _ -> i < 64) tids in
  let bb = List.filteri (fun i _ -> i >= 64 && i < 128) tids in
  (tids, a, bb, 1.)

(* One SFQ leaf, 32 interactive threads (2 ms think, 300 us bursts) and
   a 1 kHz interrupt. *)
let timer_churn b ~seed =
  let leaf, sfq = sfq_leaf b ~parent:H.root ~name:"churn" ~weight:1. in
  let tids =
    List.init 32 (fun i ->
        let wl, _ =
          W.Interactive.make ~mean_think:(ms 2) ~burst:(us 300)
            ~seed:(sub seed i) ()
        in
        sfq_thread b ~leaf ~sfq ~name:(Printf.sprintf "i%d" i) ~weight:1. wl)
  in
  K.add_interrupt_source b.bsys.k
    (Hsfq_kernel.Interrupt_source.Periodic { period = ms 1; cost = us 20 });
  let a = List.filteri (fun i _ -> i < 16) tids in
  let bb = List.filteri (fun i _ -> i >= 16) tids in
  (tids, a, bb, 1.)

(* Build the system (under the ambient tracer, if any) and run the
   warm-up slice. *)
let build ?(hooks = no_hooks) kind ~seed =
  let sys = C.make_sys ~audit:false () in
  let b = { bsys = sys; hooks; nodes = [] } in
  let latency_tids, group_a, group_b, target_ratio =
    match kind with
    | Video_server -> video_server b ~seed
    | Deep_tree -> deep_tree b ~seed
    | Timer_churn -> timer_churn b ~seed
  in
  let warmup = warmup_of kind in
  K.run_until sys.k warmup;
  {
    kind;
    sys;
    shape = List.rev b.nodes;
    horizon = Time.add warmup (measured_of kind);
    quality_horizon = Time.add warmup (quality_of kind);
    latency_tids;
    group_a;
    group_b;
    target_ratio;
  }

let run_measured t = K.run_until t.sys.k t.horizon
let events t = Sim.steps t.sys.sim
