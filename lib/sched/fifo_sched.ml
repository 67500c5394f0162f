let algorithm_name = "fifo"

type client = { mutable runnable : bool; mutable gen : int; mutable key : int }

type t = {
  clients : (int, client) Hashtbl.t;
  queue : Keyed_heap.t;
  mutable next_key : int;
  mutable nrun : int;
  mutable in_service : int option;
}

let valid t ~id ~gen =
  match Hashtbl.find_opt t.clients id with
  | None -> false
  | Some c -> c.runnable && c.gen = gen

let create ?rng:_ ?quantum_hint:_ () =
  let t =
    {
      clients = Hashtbl.create 16;
      queue = Keyed_heap.create ();
      next_key = 0;
      nrun = 0;
      in_service = None;
    }
  in
  (* Enables compaction once stale entries dominate (see Keyed_heap). *)
  Keyed_heap.set_validator t.queue (valid t);
  t

let enqueue t id c =
  c.gen <- c.gen + 1;
  Keyed_heap.push t.queue ~key:c.key ~gen:c.gen ~id

let arrive t ~id ~weight:_ =
  match Hashtbl.find_opt t.clients id with
  | Some c ->
    if not c.runnable then begin
      c.runnable <- true;
      t.nrun <- t.nrun + 1;
      (* Re-arrival goes to the back of the line. *)
      t.next_key <- t.next_key + 1;
      c.key <- t.next_key;
      enqueue t id c
    end
  | None ->
    t.next_key <- t.next_key + 1;
    let c = { runnable = true; gen = 0; key = t.next_key } in
    Hashtbl.replace t.clients id c;
    t.nrun <- t.nrun + 1;
    enqueue t id c

let depart t ~id =
  match Hashtbl.find_opt t.clients id with
  | None -> ()
  | Some c ->
    if c.runnable then begin
      t.nrun <- t.nrun - 1;
      (match t.in_service with
      | Some s when s = id -> ()
      | _ -> Keyed_heap.invalidate t.queue)
    end;
    c.gen <- c.gen + 1;
    Hashtbl.remove t.clients id

let set_weight _ ~id:_ ~weight:_ = ()

let select t =
  if Option.is_some t.in_service then
    invalid_arg "select: a selection is already in service";
  let id = Keyed_heap.pop_valid t.queue in
  if id < 0 then None
  else begin
    t.in_service <- Some id;
    Some id
  end

let charge t ~id ~service:_ ~runnable =
  (match t.in_service with
  | Some s when s = id -> ()
  | _ -> invalid_arg "Fifo_sched.charge: client not in service");
  t.in_service <- None;
  let c =
    match Hashtbl.find_opt t.clients id with
    | Some c -> c
    | None -> invalid_arg "Fifo_sched.charge: unknown client"
  in
  if runnable then enqueue t id c (* same key: stays at the head *)
  else begin
    c.runnable <- false;
    t.nrun <- t.nrun - 1
  end

let backlogged t = t.nrun
let virtual_time _ = 0
