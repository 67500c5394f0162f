open Hsfq_engine

let algorithm_name = "lottery"

type client = {
  mutable weight : int;
  mutable runnable : bool;
  mutable slot : int; (* position in the dense ready set; -1 when idle *)
}

type t = {
  clients : (int, client) Hashtbl.t;
  rng : Prng.t;
  (* Dense ready set (SoA): runnable client ids and their weights in
     matching slots, so a draw is one linear pass over a flat int
     array — no hashtable iteration, no closure. *)
  mutable rids : int array;
  mutable rweights : int array;
  mutable tw : int; (* total runnable weight *)
  mutable nrun : int;
  mutable in_service : int; (* -1 = none *)
}

let create ?rng ?quantum_hint:_ () =
  let rng = match rng with Some r -> r | None -> Prng.create 0x10773E in
  {
    clients = Hashtbl.create 16;
    rng;
    rids = [||];
    rweights = [||];
    tw = 0;
    nrun = 0;
    in_service = -1;
  }

let get t id =
  match Hashtbl.find t.clients id with
  | c -> c
  | exception Not_found ->
    invalid_arg (Printf.sprintf "%s: unknown client %d" algorithm_name id)

(* Ready-set membership: append on wake, swap-with-last on block/depart;
   [slot] tracks each runnable client's position so removal is O(1). *)
let ready_add t id c =
  let cap = Array.length t.rids in
  if t.nrun >= cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let ni = Array.make ncap 0 and nw = Array.make ncap 0 in
    Array.blit t.rids 0 ni 0 t.nrun;
    Array.blit t.rweights 0 nw 0 t.nrun;
    t.rids <- ni;
    t.rweights <- nw
  end;
  t.rids.(t.nrun) <- id;
  t.rweights.(t.nrun) <- c.weight;
  c.slot <- t.nrun;
  t.nrun <- t.nrun + 1;
  t.tw <- t.tw + c.weight

let ready_remove t c =
  let s = c.slot in
  let last = t.nrun - 1 in
  if s < last then begin
    let moved = t.rids.(last) in
    t.rids.(s) <- moved;
    t.rweights.(s) <- t.rweights.(last);
    (get t moved).slot <- s
  end;
  c.slot <- -1;
  t.nrun <- last;
  t.tw <- t.tw - c.weight

let arrive t ~id ~weight =
  match Hashtbl.find t.clients id with
  | c ->
    if not c.runnable then begin
      c.runnable <- true;
      ready_add t id c
    end
  | exception Not_found ->
    if weight <= 0 then invalid_arg "Lottery.arrive: weight <= 0";
    let c = { weight; runnable = true; slot = -1 } in
    Hashtbl.replace t.clients id c;
    ready_add t id c

let depart t ~id =
  if id >= 0 && id = t.in_service then
    invalid_arg "Lottery.depart: client in service";
  match Hashtbl.find t.clients id with
  | exception Not_found -> ()
  | c ->
    if c.runnable then ready_remove t c;
    Hashtbl.remove t.clients id

let set_weight t ~id ~weight =
  if weight <= 0 then invalid_arg "Lottery.set_weight: weight <= 0";
  let c = get t id in
  if c.runnable then begin
    t.tw <- t.tw - c.weight + weight;
    t.rweights.(c.slot) <- weight
  end;
  c.weight <- weight

(* The ready slot whose cumulative weight first exceeds [ticket]. *)
let rec winner t ticket i acc =
  let acc = acc + t.rweights.(i) in
  if ticket < acc || i = t.nrun - 1 then t.rids.(i) else winner t ticket (i + 1) acc

let select_id t =
  if t.in_service >= 0 then
    invalid_arg "select: a selection is already in service";
  if t.nrun = 0 then -1
  else begin
    (* Draw a ticket in [0, total_weight) and walk the dense ready set.
       The slot order is arbitrary (swap-removal permutes it) but fixed
       for a given state, and the draw itself is uniform, so the winner
       is distributed proportionally to weights regardless of order.
       Integer tickets are exact: the walk always ends on a winner. *)
    let id = winner t (Prng.int t.rng t.tw) 0 0 in
    t.in_service <- id;
    id
  end

let charge t ~id ~service:_ ~runnable =
  if id < 0 || id <> t.in_service then
    invalid_arg "Lottery.charge: client not in service";
  t.in_service <- -1;
  let c = get t id in
  if not runnable then begin
    c.runnable <- false;
    ready_remove t c
  end

let backlogged t = t.nrun
let virtual_time _ = 0
