(* Deliberately naive: a hashtable of boxed records and an O(n) linear
   scan over the runnable set instead of a heap. Every rule is written
   straight from §3 of the paper, with none of the representation tricks
   the optimized Hsfq_core.Sfq uses (dense tables, lazy heap deletion,
   generation counters) — so agreement between the two implementations,
   checked tag-for-tag by the differential property in test/test_sfq.ml,
   pins the optimized hot path to the specification. *)

type client = {
  mutable weight : int;
  mutable donated : int;
  mutable start : int;
  mutable finish : int;
  mutable rem : int; (* carried from the last charge, reset when S = v *)
  mutable runnable : bool;
  mutable seq : int; (* enqueue order, for the FIFO tie-break *)
}

type t = {
  clients : (int, client) Hashtbl.t;
  donations : (int, int * int) Hashtbl.t; (* blocked -> (recipient, amount) *)
  mutable vt : int;
  mutable max_finish : int;
  mutable next_seq : int;
  mutable in_service : int option;
}

let create () =
  {
    clients = Hashtbl.create 16;
    donations = Hashtbl.create 4;
    vt = 0;
    max_finish = 0;
    next_seq = 0;
    in_service = None;
  }

let get t id =
  match Hashtbl.find_opt t.clients id with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Sfq_reference: unknown client %d" id)

let backlogged t =
  Hashtbl.fold (fun _ c n -> if c.runnable then n + 1 else n) t.clients 0

(* §3 rule 2, idle case: v(t) jumps to the maximum finish tag. *)
let note_idle t = if backlogged t = 0 then t.vt <- Int.max t.vt t.max_finish

let enqueue t c =
  c.seq <- t.next_seq;
  t.next_seq <- t.next_seq + 1

let arrive t ~id ~weight =
  if weight <= 0 then invalid_arg "Sfq_reference.arrive: weight <= 0";
  match Hashtbl.find_opt t.clients id with
  | None ->
    let c =
      {
        weight;
        donated = 0;
        start = Int.max t.vt 0;
        finish = 0;
        rem = 0;
        runnable = true;
        seq = 0;
      }
    in
    Hashtbl.replace t.clients id c;
    enqueue t c
  | Some c ->
    if not c.runnable then begin
      c.weight <- weight;
      (* A start tag taken from v(t) restarts the tag stream. *)
      if t.vt > c.finish then c.rem <- 0;
      c.start <- Int.max t.vt c.finish;
      c.runnable <- true;
      enqueue t c
    end

let revoke t ~blocked =
  match Hashtbl.find_opt t.donations blocked with
  | None -> ()
  | Some (recipient, amount) ->
    (match Hashtbl.find_opt t.clients recipient with
    | Some c -> c.donated <- c.donated - amount
    | None -> ());
    Hashtbl.remove t.donations blocked

let depart t ~id =
  if Hashtbl.mem t.clients id then begin
    (match t.in_service with
    | Some s when s = id -> invalid_arg "Sfq_reference.depart: client in service"
    | _ -> ());
    revoke t ~blocked:id;
    Hashtbl.fold
      (fun b (r, _) acc -> if r = id then b :: acc else acc)
      t.donations []
    |> List.iter (fun b -> revoke t ~blocked:b);
    Hashtbl.remove t.clients id;
    note_idle t
  end

let set_weight t ~id ~weight =
  if weight <= 0 then invalid_arg "Sfq_reference.set_weight: weight <= 0";
  (get t id).weight <- weight

(* Linear scan: the runnable client with the least (start tag, enqueue
   sequence) — exactly what the optimized heap pops. *)
let select t =
  (match t.in_service with
  | Some _ -> invalid_arg "Sfq_reference.select: previous selection not charged"
  | None -> ());
  let best =
    Hashtbl.fold
      (fun id c acc ->
        if not c.runnable then acc
        else
          match acc with
          | Some (_, bc) when bc.start < c.start -> acc
          | Some (_, bc) when bc.start = c.start && bc.seq < c.seq -> acc
          | _ -> Some (id, c))
      t.clients None
  in
  match best with
  | None -> None
  | Some (id, c) ->
    t.in_service <- Some id;
    (* §3 rule 2, busy case: v(t) is the start tag in service. *)
    t.vt <- c.start;
    Some id

let charge t ~id ~service ~runnable =
  (match t.in_service with
  | Some s when s = id -> ()
  | _ -> invalid_arg "Sfq_reference.charge: client not in service");
  if service < 0 then invalid_arg "Sfq_reference.charge: negative service";
  t.in_service <- None;
  let c = get t id in
  (* F = S + ⌊(l·unit + r)/w⌋, written out with plain integer division
     (two of them) rather than through Vtime. *)
  let w = c.weight + c.donated in
  let scaled = (service * Hsfq_sched.Vtime.unit) + c.rem in
  c.finish <- c.start + (scaled / w);
  c.rem <- scaled mod w;
  if c.finish > t.max_finish then t.max_finish <- c.finish;
  if runnable then begin
    c.start <- Int.max t.vt c.finish;
    enqueue t c
  end
  else begin
    c.runnable <- false;
    note_idle t
  end

let block t ~id =
  if Hashtbl.mem t.clients id then begin
    (match t.in_service with
    | Some s when s = id -> invalid_arg "Sfq_reference.block: client in service"
    | _ -> ());
    let c = get t id in
    if c.runnable then begin
      c.runnable <- false;
      note_idle t
    end
  end

let donate t ~blocked ~recipient =
  if blocked = recipient then invalid_arg "Sfq_reference.donate: self-donation";
  let b = get t blocked and r = get t recipient in
  revoke t ~blocked;
  r.donated <- r.donated + b.weight;
  Hashtbl.replace t.donations blocked (recipient, b.weight)

let mem t ~id = Hashtbl.mem t.clients id

let start_tag t ~id = (get t id).start
let finish_tag t ~id = (get t id).finish
let is_runnable t ~id = (get t id).runnable
let virtual_time t = t.vt
let max_finish_tag t = t.max_finish
let effective_weight_of t ~id =
  let c = get t id in
  c.weight + c.donated
