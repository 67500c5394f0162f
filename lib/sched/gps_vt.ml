open Hsfq_engine

type order = Finish_tags | Start_tags

type client = {
  mutable weight : int;
  mutable finish : int; (* finish tag of the last completed quantum *)
  mutable rem : int; (* its {!Vtime} remainder *)
  mutable pend_s : int;
  mutable pend_f : int;
  mutable pend_r : int;
  mutable runnable : bool;
  mutable gen : int;
}

type t = {
  order : order;
  lhat : int;
  clients : (int, client) Hashtbl.t;
  queue : Keyed_heap.t;
  vt : Vtime.clock;
  mutable vt_as_of : Time.t; (* wall instant [vt] corresponds to *)
  mutable total_weight : int;
  mutable nrun : int;
  mutable in_service : int; (* -1 = none *)
}

(* [Hashtbl.find] + exception match (not [find_opt]): the [Some] box of
   a hit would be an allocation per decision. *)
let valid t ~id ~gen =
  match Hashtbl.find t.clients id with
  | c -> c.runnable && c.gen = gen
  | exception Not_found -> false

let create ~order ?(quantum_hint = 20_000_000) () =
  let t =
    {
      order;
      lhat = quantum_hint;
      clients = Hashtbl.create 16;
      queue = Keyed_heap.create ();
      vt = Vtime.clock ();
      vt_as_of = Time.zero;
      total_weight = 0;
      nrun = 0;
      in_service = -1;
    }
  in
  (* Enables compaction once stale entries dominate (see Keyed_heap). *)
  Keyed_heap.set_validator t.queue (valid t);
  t

let get t id =
  match Hashtbl.find t.clients id with
  | c -> c
  | exception Not_found ->
    invalid_arg (Printf.sprintf "Gps_vt: unknown client %d" id)

(* Eq. 12: v grows with wall time at rate 1 / (sum of backlogged
   weights); it stands still while no client is backlogged. *)
let advance_vt t now =
  let dt = Time.diff now t.vt_as_of in
  if dt > 0 then begin
    Vtime.advance t.vt ~service:dt ~weight:t.total_weight;
    t.vt_as_of <- now
  end

(* WFQ's pending finish tag charges the assumed length up front; its
   remainder is committed at [charge]. *)
let enqueue t id c =
  if t.vt.v > c.finish then c.rem <- 0;
  c.pend_s <- Int.max t.vt.v c.finish;
  let step = Vtime.step ~service:t.lhat ~weight:c.weight ~rem:c.rem in
  c.pend_f <- Vtime.add c.pend_s step;
  c.pend_r <- Vtime.carry ~service:t.lhat ~weight:c.weight ~rem:c.rem ~step;
  c.gen <- c.gen + 1;
  let key = match t.order with Finish_tags -> c.pend_f | Start_tags -> c.pend_s in
  Keyed_heap.push t.queue ~key ~gen:c.gen ~id

let arrive t ~now ~id ~weight =
  advance_vt t now;
  match Hashtbl.find_opt t.clients id with
  | Some c ->
    if not c.runnable then begin
      c.runnable <- true;
      t.total_weight <- t.total_weight + c.weight;
      t.nrun <- t.nrun + 1;
      enqueue t id c
    end
  | None ->
    if weight <= 0 then invalid_arg "Gps_vt.arrive: weight <= 0";
    let c =
      { weight; finish = 0; rem = 0; pend_s = 0; pend_f = 0; pend_r = 0;
        runnable = true; gen = 0 }
    in
    Hashtbl.replace t.clients id c;
    t.total_weight <- t.total_weight + c.weight;
    t.nrun <- t.nrun + 1;
    enqueue t id c

let depart t ~id =
  if id >= 0 && id = t.in_service then
    invalid_arg "Gps_vt.depart: client in service";
  match Hashtbl.find_opt t.clients id with
  | None -> ()
  | Some c ->
    if c.runnable then begin
      t.total_weight <- t.total_weight - c.weight;
      t.nrun <- t.nrun - 1;
      Keyed_heap.invalidate t.queue
    end;
    c.gen <- c.gen + 1;
    Hashtbl.remove t.clients id

let set_weight t ~id ~weight =
  if weight <= 0 then invalid_arg "Gps_vt.set_weight: weight <= 0";
  let c = get t id in
  if c.runnable then t.total_weight <- t.total_weight - c.weight + weight;
  c.weight <- weight

let select_id t ~now =
  advance_vt t now;
  if t.in_service >= 0 then
    invalid_arg "select: a selection is already in service";
  let id = Keyed_heap.pop_valid t.queue in
  t.in_service <- id;
  id

let charge t ~now ~id ~service ~runnable =
  if id < 0 || id <> t.in_service then
    invalid_arg "Gps_vt.charge: client not in service";
  advance_vt t now;
  t.in_service <- -1;
  let c = get t id in
  (match t.order with
  | Finish_tags ->
    (* WFQ: the assumed length was charged when the tag was computed. *)
    c.finish <- c.pend_f;
    c.rem <- c.pend_r
  | Start_tags ->
    (* FQS: finish tags use the actual length. *)
    let step = Vtime.step ~service ~weight:c.weight ~rem:c.rem in
    c.rem <- Vtime.carry ~service ~weight:c.weight ~rem:c.rem ~step;
    c.finish <- Vtime.add c.pend_s step);
  if runnable then enqueue t id c
  else begin
    c.runnable <- false;
    t.total_weight <- t.total_weight - c.weight;
    t.nrun <- t.nrun - 1
  end

let backlogged t = t.nrun

let virtual_time t ~now =
  advance_vt t now;
  t.vt.v
