let algorithm_name = "round-robin"

type client = { mutable runnable : bool; mutable gen : int }

type t = {
  clients : (int, client) Hashtbl.t;
  ring : Keyed_heap.t; (* key = FIFO sequence, monotonically increasing *)
  mutable next_key : int;
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
      ring = Keyed_heap.create ();
      next_key = 0;
      nrun = 0;
      in_service = -1;
    }
  in
  (* Enables compaction once stale entries dominate (see Keyed_heap). *)
  Keyed_heap.set_validator t.ring (valid t);
  t

let enqueue t id c =
  c.gen <- c.gen + 1;
  t.next_key <- t.next_key + 1;
  Keyed_heap.push t.ring ~key:t.next_key ~gen:c.gen ~id

let arrive t ~id ~weight:_ =
  match Hashtbl.find_opt t.clients id with
  | Some c ->
    if not c.runnable then begin
      c.runnable <- true;
      t.nrun <- t.nrun + 1;
      enqueue t id c
    end
  | None ->
    let c = { runnable = true; gen = 0 } in
    Hashtbl.replace t.clients id c;
    t.nrun <- t.nrun + 1;
    enqueue t id c

let depart t ~id =
  if id >= 0 && id = t.in_service then
    invalid_arg "Round_robin.depart: client in service";
  match Hashtbl.find_opt t.clients id with
  | None -> ()
  | Some c ->
    if c.runnable then begin
      t.nrun <- t.nrun - 1;
      Keyed_heap.invalidate t.ring
    end;
    c.gen <- c.gen + 1;
    Hashtbl.remove t.clients id

let set_weight _ ~id:_ ~weight:_ = ()

let select_id t =
  if t.in_service >= 0 then
    invalid_arg "select: a selection is already in service";
  let id = Keyed_heap.pop_valid t.ring in
  t.in_service <- id;
  id

let charge t ~id ~service:_ ~runnable =
  if id < 0 || id <> t.in_service then
    invalid_arg "Round_robin.charge: client not in service";
  t.in_service <- -1;
  let c =
    match Hashtbl.find t.clients id with
    | c -> c
    | exception Not_found -> invalid_arg "Round_robin.charge: unknown client"
  in
  if runnable then enqueue t id c
  else begin
    c.runnable <- false;
    t.nrun <- t.nrun - 1
  end

let backlogged t = t.nrun
let virtual_time _ = 0
