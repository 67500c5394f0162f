open Hsfq_engine
open Hsfq_kernel
open Hsfq_workload
open Common
module Manager = Hsfq_qos.Manager

type admission_event = {
  at_s : int;
  decoder : int;
  outcome : [ `Admitted | `Rejected_then_grown | `Rejected ];
}

type result = {
  events : admission_event list;
  admitted : int;
  fps : float array;
  hard_misses : int;
  hard_rounds : int;
  best_effort_loops : int;
  final_soft_share : float;
  late_frames : int;
  total_frames : int;
  audit : check;
}

(* A light clip (~5% of the CPU per decoder at 30 fps). *)
let clip = { Mpeg.default_params with base_cost = Time.milliseconds 2 }
let nominal_fps = 30.

let run ?(seconds = 30) () =
  let sys = make_sys () in
  let m = Manager.create sys.hier in
  (* Class schedulers: RM for hard real-time, SFQ for soft real-time. *)
  let hard_sched, rm = Leaf_sched.Rm_leaf.make ~quantum:(Time.milliseconds 5) () in
  Kernel.install_leaf sys.k (Manager.hard_node m) hard_sched;
  let soft_sched, soft_sfq =
    Leaf_sched.Sfq_leaf.make ?audit:sys.audit ~audit_label:"soft" ()
  in
  Kernel.install_leaf sys.k (Manager.soft_node m) soft_sched;
  (* The hard-RT control loop, admitted through the manager. *)
  (match Manager.request_hard m ~name:"control" ~cost:0.002 ~period:0.04 with
  | Error e -> invalid_arg ("xqos: control admission failed: " ^ e)
  | Ok _ -> ());
  let ctl_wl, ctl =
    Periodic.make ~period:(Time.milliseconds 40) ~cost:(Time.milliseconds 2) ()
  in
  let ctl_tid = Kernel.spawn sys.k ~name:"control" ~leaf:(Manager.hard_node m) ctl_wl in
  Leaf_sched.Rm_leaf.add rm ~tid:ctl_tid ~period:(Time.milliseconds 40);
  Kernel.start sys.k ctl_tid;
  (* Two best-effort users with CPU hogs. *)
  let be_counter user =
    match Manager.request_best_effort m ~user with
    | Error e -> invalid_arg e
    | Ok g ->
      let lf, sfq = Leaf_sched.Sfq_leaf.make ?audit:sys.audit ~audit_label:user () in
      Kernel.install_leaf sys.k g.Manager.node lf;
      let wl, c = Dhrystone.make ~loop_cost:(Time.microseconds 500) () in
      let tid = Kernel.spawn sys.k ~name:user ~leaf:g.Manager.node wl in
      Leaf_sched.Sfq_leaf.add sfq ~tid ~weight:1.;
      Kernel.start sys.k tid;
      c
  in
  let alice = be_counter "alice" and bob = be_counter "bob" in
  (* The video conference: a decoder asks for soft-RT service every 2 s,
     with demand statistics measured from the clip. *)
  let mean, sigma, period = Mpeg.demand_stats clip ~frames:600 in
  let events = ref [] in
  let admitted = ref [] in
  let spawn_decoder i start_s =
    let wl, c = Mpeg.decoder { clip with seed = 100 + i } ~paced:true () in
    let tid =
      Kernel.spawn sys.k ~name:(Printf.sprintf "dec%d" i)
        ~leaf:(Manager.soft_node m) wl
    in
    Leaf_sched.Sfq_leaf.add soft_sfq ~tid ~weight:1.;
    Kernel.start sys.k tid;
    admitted := (i, start_s, c) :: !admitted
  in
  for i = 1 to 6 do
    let at_s = 2 * i in
    Sim.at sys.sim (Time.seconds at_s) (fun () ->
      let name = Printf.sprintf "dec%d" i in
      let request () = Manager.request_soft m ~name ~mean ~sigma ~period in
      match request () with
      | Ok _ ->
        spawn_decoder i at_s;
        events := { at_s; decoder = i; outcome = `Admitted } :: !events
      | Error _ ->
        (* The paper's policy: grow the soft class and retry. *)
        Manager.grow_soft_for_demand m;
        (match request () with
        | Ok _ ->
          spawn_decoder i at_s;
          events :=
            { at_s; decoder = i; outcome = `Rejected_then_grown } :: !events
        | Error _ ->
          events := { at_s; decoder = i; outcome = `Rejected } :: !events))
  done;
  let until = Time.seconds seconds in
  Kernel.run_until sys.k until;
  let fps =
    List.rev !admitted
    |> List.map (fun (_, start_s, c) ->
           float_of_int (Mpeg.decoded c) /. float_of_int (seconds - start_s))
    |> Array.of_list
  in
  let late =
    List.fold_left (fun acc (_, _, c) -> acc + Mpeg.late_frames c) 0 !admitted
  in
  let total_frames =
    List.fold_left (fun acc (_, _, c) -> acc + Mpeg.decoded c) 0 !admitted
  in

  {
    events = List.rev !events;
    admitted = List.length !admitted;
    fps;
    hard_misses = Periodic.misses ctl;
    hard_rounds = Periodic.completed ctl;
    best_effort_loops = Dhrystone.loops alice + Dhrystone.loops bob;
    final_soft_share = Manager.share_of m (Manager.soft_node m);
    late_frames = late;
    total_frames;
    audit = audit_check sys;
  }

let checks r =
  let grown =
    List.exists (fun e -> e.outcome = `Rejected_then_grown) r.events
  in
  [
    check "most decoders admitted (some only after growth)"
      (r.admitted >= 4 && r.admitted <= 6)
      "%d of 6 admitted" r.admitted;
    check "the growth policy fired at least once" grown "events: %s"
      (String.concat " "
         (List.map
            (fun e ->
              Printf.sprintf "dec%d@%ds=%s" e.decoder e.at_s
                (match e.outcome with
                | `Admitted -> "ok"
                | `Rejected_then_grown -> "grown"
                | `Rejected -> "rejected"))
            r.events));
    check "every admitted decoder holds ~nominal frame rate"
      (Array.for_all (fun f -> f > 0.93 *. nominal_fps) r.fps)
      "fps %s"
      (String.concat "/" (Array.to_list (Array.map (Printf.sprintf "%.1f") r.fps)));
    check "hard-RT control never misses"
      (r.hard_misses = 0 && r.hard_rounds > 700)
      "%d misses in %d rounds" r.hard_misses r.hard_rounds;
    check "best effort keeps progressing" (r.best_effort_loops > 5000)
      "loops = %d" r.best_effort_loops;
    check "soft class share actually grew" (r.final_soft_share > 0.31)
      "share = %.3f" r.final_soft_share;
    (* Occasional frames slip behind a best-effort quantum plus sibling
       decoders; smooth playback needs that fraction to stay small. *)
    check "late frames stay below 5% of all frames"
      (float_of_int r.late_frames < 0.05 *. float_of_int r.total_frames)
      "%d late of %d" r.late_frames r.total_frames;
    r.audit;
  ]

let print r =
  print_endline
    "X-qos | Figure 4 live: admission, placement and dynamic repartitioning";
  List.iter
    (fun e ->
      Printf.printf "  t=%2d s  decoder %d  %s\n" e.at_s e.decoder
        (match e.outcome with
        | `Admitted -> "admitted"
        | `Rejected_then_grown -> "rejected -> class grown -> admitted"
        | `Rejected -> "rejected"))
    r.events;
  Printf.printf "  admitted decoders' fps: %s (nominal %.0f)\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.1f") r.fps)))
    nominal_fps;
  Printf.printf
    "  hard-RT: %d rounds, %d misses; best-effort loops %d; final soft share %.2f\n"
    r.hard_rounds r.hard_misses r.best_effort_loops r.final_soft_share
