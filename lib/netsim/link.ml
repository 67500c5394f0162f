open Hsfq_engine

type packet = { bits : int; arrived : Time.t }

type flow = {
  weight : int; (* Vtime units *)
  queue : packet Queue.t;
  delivered : Series.t;
  delay : Stats.t;
  (* Per delivered packet, in completion order, [0, sent): three int
     columns, from which [delays] and [completions] are derived. *)
  mutable arrivals : Time.t array;
  mutable finishes : Time.t array;
  mutable sizes : int array;
  mutable sent : int;
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
      arrivals = [||];
      finishes = [||];
      sizes = [||];
      sent = 0;
      dropped = 0;
    }

(* Doubling growth; the typed loop stores ints without the write
   barrier a polymorphic blit into a major-heap array would run. *)
let widened a n =
  let b = Array.make n 0 in
  for i = 0 to Array.length a - 1 do
    b.(i) <- a.(i)
  done;
  b

let record_sent f pkt now =
  if f.sent >= Array.length f.sizes then begin
    let n = Int.max 64 (2 * f.sent) in
    f.arrivals <- widened f.arrivals n;
    f.finishes <- widened f.finishes n;
    f.sizes <- widened f.sizes n
  end;
  f.arrivals.(f.sent) <- pkt.arrived;
  f.finishes.(f.sent) <- now;
  f.sizes.(f.sent) <- pkt.bits;
  f.sent <- f.sent + 1

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
      Stats.add f.delay (float_of_int (Time.diff now pkt.arrived));
      record_sent f pkt now;
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

let delays t ~flow =
  let f = get t flow in
  Array.init f.sent (fun i ->
      float_of_int (Time.diff f.finishes.(i) f.arrivals.(i)))

let completions t ~flow =
  let f = get t flow in
  Array.init f.sent (fun i ->
      ( float_of_int f.arrivals.(i),
        float_of_int f.finishes.(i),
        float_of_int f.sizes.(i) ))

let drops t ~flow = (get t flow).dropped
let queue_length t ~flow = Queue.length (get t flow).queue
let busy t = t.transmitting
