open Hsfq_engine

type packet = { bits : int; arrived : Time.t }

type flow = {
  weight : int; (* Vtime units *)
  queue : packet Queue.t;
  delivered : Series.t;
  delay : Stats.t;
  mutable delay_list : float list; (* reverse completion order *)
  mutable completion_list : (float * float * float) list;
  mutable dropped : int;
}

(* The chosen FAIR module and the state it created, packed as closures so
   the existential state type never escapes. *)
type sched_ops = {
  s_name : string;
  s_arrive : id:int -> weight:int -> unit;
  s_select : unit -> int; (* -1 = nothing queued *)
  s_charge : id:int -> service:int -> runnable:bool -> unit;
}

type t = {
  sim : Sim.t;
  rate : float; (* bits per ns *)
  sched : sched_ops;
  queue_cap : int;
  flows : (int, flow) Hashtbl.t;
  mutable transmitting : bool;
}

let pack_sched (module F : Hsfq_sched.Scheduler_intf.FAIR) ~quantum_hint =
  let st = F.create ~quantum_hint () in
  {
    s_name = F.algorithm_name;
    s_arrive = (fun ~id ~weight -> F.arrive st ~id ~weight);
    s_select = (fun () -> F.select_id st);
    s_charge = (fun ~id ~service ~runnable -> F.charge st ~id ~service ~runnable);
  }

let create ~sim ~rate_bps
    ?(sched = (module Hsfq_core.Sfq : Hsfq_sched.Scheduler_intf.FAIR))
    ?(quantum_hint_bits = 12_000) ?(queue_cap = 1000) () =
  if rate_bps <= 0. then invalid_arg "Link.create: rate <= 0";
  {
    sim;
    rate = rate_bps /. 1e9;
    sched = pack_sched sched ~quantum_hint:quantum_hint_bits;
    queue_cap;
    flows = Hashtbl.create 8;
    transmitting = false;
  }

let get t id =
  match Hashtbl.find_opt t.flows id with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Link: unknown flow %d" id)

let add_flow t ~id ~weight =
  if Hashtbl.mem t.flows id then invalid_arg "Link.add_flow: duplicate flow";
  Hashtbl.replace t.flows id
    {
      weight = Hsfq_sched.Vtime.weight_of_float weight;
      queue = Queue.create ();
      delivered = Series.create ();
      delay = Stats.create ();
      delay_list = [];
      completion_list = [];
      dropped = 0;
    }

(* Transmit the head packet of the scheduler's chosen flow; on completion
   charge the actual length and continue while backlogged. *)
let rec start_transmission t =
  match t.sched.s_select () with
  | -1 -> t.transmitting <- false
  | id ->
    t.transmitting <- true;
    let f = get t id in
    let pkt = Queue.pop f.queue in
    let duration =
      Int.max 1 (int_of_float (Float.round (float_of_int pkt.bits /. t.rate)))
    in
    Sim.after t.sim duration (fun () ->
      let now = Sim.now t.sim in
      t.sched.s_charge ~id ~service:pkt.bits
        ~runnable:(not (Queue.is_empty f.queue));
      Series.add f.delivered now (float_of_int pkt.bits);
      let d = float_of_int (Time.diff now pkt.arrived) in
      Stats.add f.delay d;
      f.delay_list <- d :: f.delay_list;
      f.completion_list <-
        (float_of_int pkt.arrived, float_of_int now, float_of_int pkt.bits)
        :: f.completion_list;
      start_transmission t)

let enqueue t ~flow ~bits =
  if bits <= 0 then invalid_arg "Link.enqueue: bits <= 0";
  let f = get t flow in
  if Queue.length f.queue >= t.queue_cap then f.dropped <- f.dropped + 1
  else begin
    let was_empty = Queue.is_empty f.queue in
    Queue.push { bits; arrived = Sim.now t.sim } f.queue;
    if was_empty then t.sched.s_arrive ~id:flow ~weight:f.weight;
    if not t.transmitting then start_transmission t
  end

let scheduler_name t = t.sched.s_name

let delivered_bits t ~flow =
  Array.fold_left ( +. ) 0. (Series.values (get t flow).delivered)

let delivered_series t ~flow = (get t flow).delivered
let delay_stats t ~flow = (get t flow).delay
let delays t ~flow = Array.of_list (List.rev (get t flow).delay_list)
let completions t ~flow = Array.of_list (List.rev (get t flow).completion_list)
let drops t ~flow = (get t flow).dropped
let queue_length t ~flow = Queue.length (get t flow).queue
let busy t = t.transmitting
