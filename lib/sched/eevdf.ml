let algorithm_name = "eevdf"

type client = {
  mutable weight : int;
  mutable ve : int; (* virtual eligible time *)
  mutable rem : int; (* {!Vtime} remainder of [ve] *)
  mutable vd : int; (* virtual deadline *)
  mutable runnable : bool;
  mutable gen : int;
}

type t = {
  clients : (int, client) Hashtbl.t;
  (* Two ready queues with lazy invalidation: clients whose eligible time
     has been reached, keyed by virtual deadline, and not-yet-eligible
     clients keyed by eligible time. [select_id] migrates entries as the
     system virtual time advances. *)
  eligible : Keyed_heap.t;
  future : Keyed_heap.t;
  vt : Vtime.clock;
  mutable tw : int; (* total runnable weight *)
  mutable nrun : int;
  mutable in_service : int; (* -1 = none *)
  q : int;
}

(* [Hashtbl.find] + exception match (not [find_opt]): the validator runs
   for every entry the heaps inspect, and the [Some] box of a successful
   [find_opt] would put an allocation in every pop. *)
let valid t ~id ~gen =
  match Hashtbl.find t.clients id with
  | c -> c.runnable && c.gen = gen
  | exception Not_found -> false

let create ?rng:_ ?(quantum_hint = 10_000_000) () =
  let t =
    {
      clients = Hashtbl.create 16;
      eligible = Keyed_heap.create ();
      future = Keyed_heap.create ();
      vt = Vtime.clock ();
      tw = 0;
      nrun = 0;
      in_service = -1;
      q = quantum_hint;
    }
  in
  (* Enables compaction once stale entries dominate (see Keyed_heap),
     and backs [pop_valid]/[peek_valid]. *)
  Keyed_heap.set_validator t.eligible (valid t);
  Keyed_heap.set_validator t.future (valid t);
  t

let get t id =
  match Hashtbl.find t.clients id with
  | c -> c
  | exception Not_found ->
    invalid_arg (Printf.sprintf "%s: unknown client %d" algorithm_name id)

let deadline t c = Vtime.add c.ve (Vtime.step ~service:t.q ~weight:c.weight ~rem:0)

let enqueue t id c =
  c.gen <- c.gen + 1;
  if c.ve <= t.vt.v then Keyed_heap.push t.eligible ~key:c.vd ~gen:c.gen ~id
  else Keyed_heap.push t.future ~key:c.ve ~gen:c.gen ~id

let arrive t ~id ~weight =
  match Hashtbl.find t.clients id with
  | c ->
    if not c.runnable then begin
      c.runnable <- true;
      (* A waking client resumes no earlier than the current virtual
         time: it must not reclaim service "owed" from its sleep. *)
      if t.vt.v > c.ve then begin
        c.ve <- t.vt.v;
        c.rem <- 0
      end;
      c.vd <- deadline t c;
      t.tw <- t.tw + c.weight;
      t.nrun <- t.nrun + 1;
      enqueue t id c
    end
  | exception Not_found ->
    if weight <= 0 then invalid_arg "Eevdf.arrive: weight <= 0";
    let c = { weight; ve = t.vt.v; rem = 0; vd = 0; runnable = true; gen = 0 } in
    c.vd <- deadline t c;
    Hashtbl.replace t.clients id c;
    t.tw <- t.tw + c.weight;
    t.nrun <- t.nrun + 1;
    enqueue t id c

let depart t ~id =
  if id >= 0 && id = t.in_service then
    invalid_arg "Eevdf.depart: client in service";
  match Hashtbl.find t.clients id with
  | exception Not_found -> ()
  | c ->
    if c.runnable then begin
      t.tw <- t.tw - c.weight;
      t.nrun <- t.nrun - 1;
      (* The queued entry just went stale. Guessing which queue holds it
         from [ve] is only a heuristic (promotion may have moved it);
         a misattributed report merely shifts when each queue compacts. *)
      if c.ve <= t.vt.v then Keyed_heap.invalidate t.eligible
      else Keyed_heap.invalidate t.future
    end;
    c.gen <- c.gen + 1;
    Hashtbl.remove t.clients id

let set_weight t ~id ~weight =
  if weight <= 0 then invalid_arg "Eevdf.set_weight: weight <= 0";
  let c = get t id in
  if c.runnable then t.tw <- t.tw - c.weight + weight;
  c.weight <- weight

(* Move every future client whose eligible time has been reached into the
   eligible queue. *)
let rec promote t =
  let id = Keyed_heap.peek_valid t.future in
  if id >= 0 && Keyed_heap.peeked_key t.future <= t.vt.v then begin
    ignore (Keyed_heap.pop_valid t.future);
    let c = get t id in
    c.gen <- c.gen + 1;
    Keyed_heap.push t.eligible ~key:c.vd ~gen:c.gen ~id;
    promote t
  end

let select_id t =
  if t.in_service >= 0 then
    invalid_arg "select: a selection is already in service";
  if t.nrun = 0 then -1
  else begin
    promote t;
    let id = Keyed_heap.pop_valid t.eligible in
    let id =
      if id >= 0 then id
      else
        (* No eligible client: run the earliest-eligible one (work
           conservation); virtual time will catch up as it is charged. *)
        Keyed_heap.pop_valid t.future
    in
    t.in_service <- id;
    id
  end

let charge t ~id ~service ~runnable =
  if id < 0 || id <> t.in_service then
    invalid_arg "Eevdf.charge: client not in service";
  t.in_service <- -1;
  let c = get t id in
  Vtime.advance t.vt ~service ~weight:t.tw;
  let step = Vtime.step ~service ~weight:c.weight ~rem:c.rem in
  c.rem <- Vtime.carry ~service ~weight:c.weight ~rem:c.rem ~step;
  c.ve <- Vtime.add c.ve step;
  c.vd <- deadline t c;
  if runnable then enqueue t id c
  else begin
    c.runnable <- false;
    t.tw <- t.tw - c.weight;
    t.nrun <- t.nrun - 1
  end

let backlogged t = t.nrun
let virtual_time t = t.vt.v
