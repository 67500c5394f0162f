module Table = Hsfq_engine.Table
module Sfq = Hsfq_check.Audited.Sfq
module Invariant = Hsfq_check.Invariant

type step = {
  time_ms : int;
  thread : string;
  start_tag : int;
  finish_tag : int;
  vt : int;
}

type result = {
  steps : step list;
  work_a_60 : int;
  work_b_60 : int;
  v_during_idle : int; (* -1 = never idle *)
  s_a_rearrival : int; (* -1 = never re-arrived *)
  s_b_rearrival : int;
  work_a_after : int;
  work_b_after : int;
  audit : Common.check;
}

let quantum = 10 (* ms; tags are then in "ms of work / weight" units *)
let unit = Hsfq_sched.Vtime.unit
let a = 1 and b = 2

(* The §3 script: when each thread blocks (at the end of the quantum
   finishing at that time), wakes, and exits. *)
let blocks_at ~thread ~time = (thread = b && time = 60) || (thread = a && time = 90)
let exits_at ~thread ~time = thread = a && time = 150
let wakes = [ (110, a); (115, b) ]
let horizon = 170

let name = function 1 -> "A" | 2 -> "B" | _ -> assert false
let weight = function 1 -> unit | 2 -> 2 * unit | _ -> assert false

let run () =
  (* The worked example doubles as an audit fixture: every transition of
     the replay is checked against the paper's rules. *)
  let sink = Invariant.create ~policy:Collect () in
  let sfq = Sfq.create ~node:"fig3" ~sink () in
  Sfq.arrive sfq ~id:a ~weight:(weight a);
  Sfq.arrive sfq ~id:b ~weight:(weight b);
  let steps = ref [] in
  let work = Hashtbl.create 4 in
  let add_work ~id ~from_ ~until ~lo ~hi =
    (* Credit the quantum [from_, until) clipped to the window [lo, hi). *)
    let got = Int.max 0 (Int.min until hi - Int.max from_ lo) in
    let key = (id, lo) in
    Hashtbl.replace work key (got + Option.value ~default:0 (Hashtbl.find_opt work key))
  in
  let v_idle = ref (-1) in
  let rearrival = Hashtbl.create 4 in
  let t = ref 0 in
  let pending_wakes = ref wakes in
  let process_wakes () =
    let due, later = List.partition (fun (tw, _) -> tw <= !t) !pending_wakes in
    pending_wakes := later;
    List.iter
      (fun (_, id) ->
        Sfq.arrive sfq ~id ~weight:(weight id);
        Hashtbl.replace rearrival id (Sfq.start_tag sfq ~id))
      due
  in
  while !t < horizon do
    process_wakes ();
    match Sfq.select_id sfq with
    | -1 ->
      (* Idle: the paper's rule sets v to the max finish tag. *)
      if !v_idle < 0 then v_idle := Sfq.virtual_time sfq;
      t := !t + quantum
    | id ->
      let s = Sfq.start_tag sfq ~id and v = Sfq.virtual_time sfq in
      let t0 = !t in
      t := !t + quantum;
      let still =
        not (blocks_at ~thread:id ~time:!t || exits_at ~thread:id ~time:!t)
      in
      Sfq.charge sfq ~id ~service:quantum ~runnable:still;
      if exits_at ~thread:id ~time:!t then Sfq.depart sfq ~id;
      let finish =
        (* finish tag just assigned: S + l/w, exact here (w divides
           l·unit) *)
        s + (quantum * unit / weight id)
      in
      steps :=
        { time_ms = t0; thread = name id; start_tag = s; finish_tag = finish; vt = v }
        :: !steps;
      add_work ~id ~from_:t0 ~until:!t ~lo:0 ~hi:60;
      add_work ~id ~from_:t0 ~until:!t ~lo:120 ~hi:150
  done;
  let w id lo = Option.value ~default:0 (Hashtbl.find_opt work (id, lo)) in
  {
    steps = List.rev !steps;
    work_a_60 = w a 0;
    work_b_60 = w b 0;
    v_during_idle = !v_idle;
    s_a_rearrival = Option.value ~default:(-1) (Hashtbl.find_opt rearrival a);
    s_b_rearrival = Option.value ~default:(-1) (Hashtbl.find_opt rearrival b);
    work_a_after = w a 120;
    work_b_after = w b 120;
    audit =
      Common.check "invariant audit" (Invariant.count sink = 0) "%s"
        (Invariant.summary sink);
  }

let checks r =
  [
    Common.check "A receives 20 ms before B blocks at t=60"
      (r.work_a_60 = 20) "A got %d ms" r.work_a_60;
    Common.check "B receives 40 ms before blocking (1:2 with A)"
      (r.work_b_60 = 40) "B got %d ms" r.work_b_60;
    Common.check "v = 50 during the idle period" (r.v_during_idle = 50)
      "v = %.1f" (float_of_int r.v_during_idle);
    Common.check "A re-stamped with S = 50 at t=110" (r.s_a_rearrival = 50)
      "S_A = %.1f" (float_of_int r.s_a_rearrival);
    Common.check "B re-stamped with S = 50 at t=115" (r.s_b_rearrival = 50)
      "S_B = %.1f" (float_of_int r.s_b_rearrival);
    Common.check "allocation returns to 1:2 after re-arrival"
      (r.work_b_after = 2 * r.work_a_after)
      "A %d ms : B %d ms over [120,150)" r.work_a_after r.work_b_after;
    r.audit;
  ]

let render_gantt r =
  let tr = Hsfq_engine.Tracelog.create () in
  List.iter
    (fun s ->
      Hsfq_engine.Tracelog.segment tr ~lane:s.thread
        ~start:(Hsfq_engine.Time.milliseconds s.time_ms)
        ~stop:(Hsfq_engine.Time.milliseconds (s.time_ms + quantum))
        ~label:"q")
    r.steps;
  Hsfq_engine.Tracelog.render_gantt tr
    ~cell:(Hsfq_engine.Time.milliseconds quantum)
    ~until:(Hsfq_engine.Time.milliseconds horizon)

let print r =
  print_endline
    "Fig 3 | SFQ worked example (A w=1, B w=2, 10 ms quanta): tags and virtual time";
  print_string (render_gantt r);
  let t = Table.create [ "t (ms)"; "runs"; "S"; "F after"; "v(t)" ] in
  List.iter
    (fun s ->
      Table.row t
        [
          string_of_int s.time_ms;
          s.thread;
          Printf.sprintf "%.1f" (float_of_int s.start_tag);
          Printf.sprintf "%.1f" (float_of_int s.finish_tag);
          Printf.sprintf "%.1f" (float_of_int s.vt);
        ])
    r.steps;
  Table.print t;
  Printf.printf
    "  [0,60): A=%dms B=%dms; idle v=%.1f; re-arrival S_A=%.1f S_B=%.1f; [120,150): A=%dms B=%dms\n"
    r.work_a_60 r.work_b_60 (float_of_int r.v_during_idle)
    (float_of_int r.s_a_rearrival) (float_of_int r.s_b_rearrival)
    r.work_a_after r.work_b_after
