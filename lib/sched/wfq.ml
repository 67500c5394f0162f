let algorithm_name = "wfq"

type client = {
  mutable weight : int;
  mutable finish : int; (* finish tag of the last *completed* quantum *)
  mutable rem : int; (* its {!Vtime} remainder *)
  mutable pend_s : int; (* tags of the pending (queued) quantum *)
  mutable pend_f : int;
  mutable pend_r : int;
  mutable runnable : bool;
  mutable gen : int;
}

type t = {
  clients : (int, client) Hashtbl.t;
  queue : Keyed_heap.t;
  vt : Vtime.clock;
  mutable total_weight : int; (* over runnable clients *)
  mutable nrun : int;
  mutable in_service : int; (* -1 = none *)
  lhat : int; (* assumed quantum length *)
}

(* [Hashtbl.find] + exception match (not [find_opt]): the [Some] box of
   a hit would be an allocation per decision. *)
let valid t ~id ~gen =
  match Hashtbl.find t.clients id with
  | c -> c.runnable && c.gen = gen
  | exception Not_found -> false

let create ?rng:_ ?(quantum_hint = 10_000_000) () =
  let t =
    {
      clients = Hashtbl.create 16;
      queue = Keyed_heap.create ();
      vt = Vtime.clock ();
      total_weight = 0;
      nrun = 0;
      in_service = -1;
      lhat = quantum_hint;
    }
  in
  (* Enables compaction once stale entries dominate (see Keyed_heap). *)
  Keyed_heap.set_validator t.queue (valid t);
  t

let get t id =
  match Hashtbl.find t.clients id with
  | c -> c
  | exception Not_found ->
    invalid_arg (Printf.sprintf "%s: unknown client %d" algorithm_name id)

(* The pending quantum is charged the assumed length up front; its
   remainder is committed with the finish tag at [charge]. *)
let enqueue t id c =
  if t.vt.v > c.finish then c.rem <- 0;
  c.pend_s <- Int.max t.vt.v c.finish;
  let step = Vtime.step ~service:t.lhat ~weight:c.weight ~rem:c.rem in
  c.pend_f <- Vtime.add c.pend_s step;
  c.pend_r <- Vtime.carry ~service:t.lhat ~weight:c.weight ~rem:c.rem ~step;
  c.gen <- c.gen + 1;
  Keyed_heap.push t.queue ~key:c.pend_f ~gen:c.gen ~id

let arrive t ~id ~weight =
  match Hashtbl.find_opt t.clients id with
  | Some c ->
    if not c.runnable then begin
      c.runnable <- true;
      t.total_weight <- t.total_weight + c.weight;
      t.nrun <- t.nrun + 1;
      enqueue t id c
    end
  | None ->
    if weight <= 0 then invalid_arg "Wfq.arrive: weight <= 0";
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
    invalid_arg "Wfq.depart: client in service";
  match Hashtbl.find_opt t.clients id with
  | None -> ()
  | Some c ->
    if c.runnable then begin
      t.total_weight <- t.total_weight - c.weight;
      t.nrun <- t.nrun - 1;
      (* A runnable client (never the one in service) has one queued
         entry; it just went stale. *)
      Keyed_heap.invalidate t.queue
    end;
    c.gen <- c.gen + 1;
    Hashtbl.remove t.clients id

let set_weight t ~id ~weight =
  if weight <= 0 then invalid_arg "Wfq.set_weight: weight <= 0";
  let c = get t id in
  if c.runnable then t.total_weight <- t.total_weight - c.weight + weight;
  c.weight <- weight

let select_id t =
  if t.in_service >= 0 then
    invalid_arg "select: a selection is already in service";
  let id = Keyed_heap.pop_valid t.queue in
  t.in_service <- id;
  id

let charge t ~id ~service ~runnable =
  if id < 0 || id <> t.in_service then
    invalid_arg "Wfq.charge: client not in service";
  t.in_service <- -1;
  let c = get t id in
  (* GPS virtual time advances at rate 1/total weight of the backlogged
     set, which still includes the client we just served. *)
  Vtime.advance t.vt ~service ~weight:t.total_weight;
  (* WFQ charges the assumed length, not the actual one. *)
  c.finish <- c.pend_f;
  c.rem <- c.pend_r;
  if runnable then enqueue t id c
  else begin
    c.runnable <- false;
    t.total_weight <- t.total_weight - c.weight;
    t.nrun <- t.nrun - 1
  end

let backlogged t = t.nrun
let virtual_time t = t.vt.v
