let algorithm_name = "stride"

type client = {
  mutable weight : int;
  mutable pass : int;
  mutable rem : int; (* {!Vtime} remainder of [pass] *)
  mutable remain : int; (* pass - global_pass, saved while blocked *)
  mutable runnable : bool;
  mutable gen : int;
}

type t = {
  clients : (int, client) Hashtbl.t;
  queue : Keyed_heap.t;
  global_pass : Vtime.clock;
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

let create ?rng:_ ?quantum_hint:_ () =
  let t =
    {
      clients = Hashtbl.create 16;
      queue = Keyed_heap.create ();
      global_pass = Vtime.clock ();
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
    invalid_arg (Printf.sprintf "%s: unknown client %d" algorithm_name id)

let enqueue t id c =
  c.gen <- c.gen + 1;
  Keyed_heap.push t.queue ~key:c.pass ~gen:c.gen ~id

let arrive t ~id ~weight =
  match Hashtbl.find_opt t.clients id with
  | Some c ->
    if not c.runnable then begin
      c.runnable <- true;
      if c.remain <= 0 then c.rem <- 0;
      c.pass <- Vtime.add t.global_pass.v (Int.max 0 c.remain);
      t.total_weight <- t.total_weight + c.weight;
      t.nrun <- t.nrun + 1;
      enqueue t id c
    end
  | None ->
    if weight <= 0 then invalid_arg "Stride.arrive: weight <= 0";
    let c =
      { weight; pass = t.global_pass.v; rem = 0; remain = 0; runnable = true;
        gen = 0 }
    in
    Hashtbl.replace t.clients id c;
    t.total_weight <- t.total_weight + c.weight;
    t.nrun <- t.nrun + 1;
    enqueue t id c

let depart t ~id =
  if id >= 0 && id = t.in_service then
    invalid_arg "Stride.depart: client in service";
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
  if weight <= 0 then invalid_arg "Stride.set_weight: weight <= 0";
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
    invalid_arg "Stride.charge: client not in service";
  t.in_service <- -1;
  let c = get t id in
  let step = Vtime.step ~service ~weight:c.weight ~rem:c.rem in
  c.rem <- Vtime.carry ~service ~weight:c.weight ~rem:c.rem ~step;
  c.pass <- Vtime.add c.pass step;
  Vtime.advance t.global_pass ~service ~weight:t.total_weight;
  if runnable then enqueue t id c
  else begin
    c.runnable <- false;
    c.remain <- c.pass - t.global_pass.v;
    t.total_weight <- t.total_weight - c.weight;
    t.nrun <- t.nrun - 1
  end

let backlogged t = t.nrun
let virtual_time t = t.global_pass.v
