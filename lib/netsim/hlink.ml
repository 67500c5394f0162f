open Hsfq_engine
module Hierarchy = Hsfq_core.Hierarchy
module Sfq = Hsfq_core.Sfq

type packet = { bits : int; arrived : Time.t }

type flow = {
  leaf : Hierarchy.id;
  weight : int; (* Vtime units *)
  queue : packet Queue.t;
  delivered : Series.t;
  delay : Stats.t;
  mutable dropped : int;
}

type t = {
  sim : Sim.t;
  rate : float; (* bits per ns *)
  hier : Hierarchy.t;
  leaf_scheds : (Hierarchy.id, Sfq.t) Hashtbl.t;
  flows : (int, flow) Hashtbl.t;
  queue_cap : int;
  mutable transmitting : bool;
}

let create ~sim ~rate_bps ?(queue_cap = 1000) () =
  if rate_bps <= 0. then invalid_arg "Hlink.create: rate <= 0";
  {
    sim;
    rate = rate_bps /. 1e9;
    hier = Hierarchy.create ();
    leaf_scheds = Hashtbl.create 8;
    flows = Hashtbl.create 16;
    queue_cap;
    transmitting = false;
  }

let hierarchy t = t.hier

let leaf_sched t leaf =
  match Hashtbl.find_opt t.leaf_scheds leaf with
  | Some s -> s
  | None ->
    (match Hierarchy.kind_of t.hier leaf with
    | Hierarchy.Leaf -> ()
    | Hierarchy.Internal -> invalid_arg "Hlink: node is not a leaf class");
    let s = Sfq.create () in
    Hashtbl.replace t.leaf_scheds leaf s;
    s

let get t flow =
  match Hashtbl.find_opt t.flows flow with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Hlink: unknown flow %d" flow)

let attach_flow t ~leaf ~flow ~weight =
  if Hashtbl.mem t.flows flow then invalid_arg "Hlink.attach_flow: duplicate flow";
  ignore (leaf_sched t leaf);
  Hashtbl.replace t.flows flow
    {
      leaf;
      weight = Hsfq_sched.Vtime.weight_of_float weight;
      queue = Queue.create ();
      delivered = Series.create ();
      delay = Stats.create ();
      dropped = 0;
    }

let rec start_transmission t =
  match Hierarchy.schedule_id t.hier with
  | -1 -> t.transmitting <- false
  | leaf ->
    t.transmitting <- true;
    let sched = leaf_sched t leaf in
    let flow = Sfq.select_id sched in
    if flow < 0 then failwith "Hlink: runnable class with no queued flow";
    let f = get t flow in
    let pkt = Queue.pop f.queue in
    let duration =
      Int.max 1 (int_of_float (Float.round (float_of_int pkt.bits /. t.rate)))
    in
    Sim.after t.sim duration (fun () ->
      let now = Sim.now t.sim in
      Sfq.charge sched ~id:flow ~service:pkt.bits
        ~runnable:(not (Queue.is_empty f.queue));
      Hierarchy.update_ns t.hier ~leaf ~service_ns:pkt.bits
        ~leaf_runnable:(Sfq.backlogged sched > 0);
      Series.add f.delivered now (float_of_int pkt.bits);
      Stats.add f.delay (float_of_int (Time.diff now pkt.arrived));
      start_transmission t)

let enqueue t ~flow ~bits =
  if bits <= 0 then invalid_arg "Hlink.enqueue: bits <= 0";
  let f = get t flow in
  if Queue.length f.queue >= t.queue_cap then f.dropped <- f.dropped + 1
  else begin
    let was_empty = Queue.is_empty f.queue in
    Queue.push { bits; arrived = Sim.now t.sim } f.queue;
    if was_empty then begin
      Sfq.arrive (leaf_sched t f.leaf) ~id:flow ~weight:f.weight;
      if not (Hierarchy.is_runnable t.hier f.leaf) then
        Hierarchy.setrun t.hier f.leaf
    end;
    if not t.transmitting then start_transmission t
  end

let delivered_bits t ~flow =
  Array.fold_left ( +. ) 0. (Series.values (get t flow).delivered)

let delay_stats t ~flow = (get t flow).delay
let drops t ~flow = (get t flow).dropped

let class_delivered_bits t leaf =
  Hashtbl.fold
    (fun _ f acc ->
      if f.leaf = leaf then
        acc +. Array.fold_left ( +. ) 0. (Series.values f.delivered)
      else acc)
    t.flows 0.
