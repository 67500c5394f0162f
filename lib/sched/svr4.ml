open Hsfq_engine

type cls = Rt of int | Ts

type row = {
  quantum_ticks : int;
  tqexp : int;
  slpret : int;
  maxwait_s : int;
  lwait : int;
}

let nlevels = 60

let default_table () =
  Array.init nlevels (fun p ->
      let quantum_ticks =
        if p < 10 then 20
        else if p < 20 then 16
        else if p < 30 then 12
        else if p < 40 then 8
        else if p < 50 then 4
        else 2
      in
      {
        quantum_ticks;
        tqexp = Int.max 0 (p - 10);
        slpret = Int.min (nlevels - 1) (50 + (p / 6));
        maxwait_s = 0;
        lwait = Int.min (nlevels - 1) (50 + (p / 6));
      })

let table_of_string text =
  let rows = ref [] and error = ref None and lineno = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> if !error = None then error := Some m) fmt in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         incr lineno;
         if !error = None then begin
           let line =
             match String.index_opt line '#' with
             | Some i -> String.sub line 0 i
             | None -> line
           in
           let fields =
             String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) line)
             |> List.filter (fun f -> f <> "")
           in
           match fields with
           | [] -> ()
           | [ q; tq; sl; mw; lw ] ->
             (match
                ( int_of_string_opt q,
                  int_of_string_opt tq,
                  int_of_string_opt sl,
                  int_of_string_opt mw,
                  int_of_string_opt lw )
              with
             | Some q, Some tq, Some sl, Some mw, Some lw ->
               if q < 1 then fail "line %d: quantum must be positive" !lineno
               else if tq < 0 || tq >= nlevels || sl < 0 || sl >= nlevels
                       || lw < 0 || lw >= nlevels then
                 fail "line %d: priority out of range [0, 59]" !lineno
               else if mw < 0 then fail "line %d: negative maxwait" !lineno
               else
                 rows :=
                   { quantum_ticks = q; tqexp = tq; slpret = sl; maxwait_s = mw; lwait = lw }
                   :: !rows
             | _ -> fail "line %d: expected five integers" !lineno)
           | _ -> fail "line %d: expected five columns" !lineno
         end);
  match !error with
  | Some e -> Error e
  | None ->
    let rows = List.rev !rows in
    if List.length rows <> nlevels then
      Error (Printf.sprintf "expected %d rows, got %d" nlevels (List.length rows))
    else Ok (Array.of_list rows)

let table_to_string table =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "# ts_quantum ts_tqexp ts_slpret ts_maxwait ts_lwait\n";
  Array.iteri
    (fun p row ->
      Buffer.add_string buf
        (Printf.sprintf "%4d %4d %4d %4d %4d   # prio %d\n" row.quantum_ticks
           row.tqexp row.slpret row.maxwait_s row.lwait p))
    table;
  Buffer.contents buf

(* A ring-buffer deque of (id, gen) pairs held in parallel int arrays:
   preempted threads go back to the front of their level, expired and
   newly woken ones to the tail. Flat arrays instead of a functional
   two-list deque keep the per-decision queue traffic allocation-free
   (a cons cell and a tuple per enqueue otherwise). Capacity is a power
   of two so the index wrap is a mask. *)
module Ring = struct
  type t = {
    mutable ids : int array;
    mutable gens : int array;
    mutable head : int; (* index of the first element *)
    mutable len : int;
    mutable last_gen : int; (* gen of the most recently popped entry *)
  }

  let create () =
    { ids = Array.make 8 0; gens = Array.make 8 0; head = 0; len = 0; last_gen = 0 }

  let grow d =
    let cap = Array.length d.ids in
    let ni = Array.make (cap * 2) 0 and ng = Array.make (cap * 2) 0 in
    for i = 0 to d.len - 1 do
      let j = (d.head + i) land (cap - 1) in
      ni.(i) <- d.ids.(j);
      ng.(i) <- d.gens.(j)
    done;
    d.ids <- ni;
    d.gens <- ng;
    d.head <- 0

  let push_back d id gen =
    if d.len = Array.length d.ids then grow d;
    let i = (d.head + d.len) land (Array.length d.ids - 1) in
    d.ids.(i) <- id;
    d.gens.(i) <- gen;
    d.len <- d.len + 1

  let push_front d id gen =
    if d.len = Array.length d.ids then grow d;
    let i = (d.head - 1) land (Array.length d.ids - 1) in
    d.ids.(i) <- id;
    d.gens.(i) <- gen;
    d.head <- i;
    d.len <- d.len + 1

  (* -1 when empty; the popped entry's gen is left in [last_gen]. *)
  let pop_front d =
    if d.len = 0 then -1
    else begin
      let i = d.head in
      d.head <- (i + 1) land (Array.length d.ids - 1);
      d.len <- d.len - 1;
      d.last_gen <- d.gens.(i);
      d.ids.(i)
    end
end

type state = {
  cls : cls;
  mutable prio : int; (* TS: 0..59; RT: the Rt argument *)
  mutable used : Time.span; (* CPU consumed from the current quantum *)
  mutable runnable : bool;
  mutable gen : int; (* invalidates stale queue entries *)
  mutable waited_seconds : int; (* consecutive second_ticks spent waiting *)
}

type t = {
  table : row array;
  tick : Time.span;
  tick_accounting : bool;
  rt_quantum : Time.span;
  threads : (int, state) Hashtbl.t;
  ts_queues : Ring.t array; (* (id, gen) per TS priority *)
  rt_queues : (int, Ring.t) Hashtbl.t; (* per RT priority *)
  mutable rt_prios : int list; (* known RT priorities, descending *)
  mutable nrun : int;
  mutable in_service : int; (* -1 = none *)
}

let create ?table ?(tick = Time.milliseconds 10) ?(tick_accounting = true)
    ?(rt_quantum = Time.milliseconds 25) () =
  let table = match table with Some tb -> tb | None -> default_table () in
  if Array.length table <> nlevels then invalid_arg "Svr4.create: table must have 60 rows";
  {
    table;
    tick;
    tick_accounting;
    rt_quantum;
    threads = Hashtbl.create 16;
    ts_queues = Array.init nlevels (fun _ -> Ring.create ());
    rt_queues = Hashtbl.create 4;
    rt_prios = [];
    nrun = 0;
    in_service = -1;
  }

let get t id =
  match Hashtbl.find t.threads id with
  | s -> s
  | exception Not_found ->
    invalid_arg (Printf.sprintf "Svr4: unknown thread %d" id)

let rt_queue t prio =
  match Hashtbl.find t.rt_queues prio with
  | d -> d
  | exception Not_found ->
    let d = Ring.create () in
    Hashtbl.replace t.rt_queues prio d;
    t.rt_prios <- List.sort (fun a b -> Int.compare b a) (prio :: t.rt_prios);
    d

let enqueue t id s ~front =
  s.gen <- s.gen + 1;
  let d =
    match s.cls with Rt prio -> rt_queue t prio | Ts -> t.ts_queues.(s.prio)
  in
  if front then Ring.push_front d id s.gen else Ring.push_back d id s.gen

let add t ~id ?(prio = 29) cls =
  if Hashtbl.mem t.threads id then invalid_arg "Svr4.add: duplicate id";
  let initial_prio = match cls with Rt p -> p | Ts -> prio in
  if (match cls with Ts -> true | Rt _ -> false)
     && (initial_prio < 0 || initial_prio >= nlevels)
  then invalid_arg "Svr4.add: TS priority out of range";
  let s =
    { cls; prio = initial_prio; used = 0; runnable = true; gen = 0; waited_seconds = 0 }
  in
  Hashtbl.replace t.threads id s;
  t.nrun <- t.nrun + 1;
  enqueue t id s ~front:false

let remove t ~id =
  match Hashtbl.find t.threads id with
  | exception Not_found -> ()
  | s ->
    if s.runnable then t.nrun <- t.nrun - 1;
    s.gen <- s.gen + 1;
    Hashtbl.remove t.threads id

let wake ?(boost = true) t ~id =
  let s = get t id in
  if not s.runnable then begin
    s.runnable <- true;
    s.waited_seconds <- 0;
    (match s.cls with
    | Ts ->
      if boost then s.prio <- t.table.(s.prio).slpret;
      s.used <- 0
    | Rt _ -> ());
    t.nrun <- t.nrun + 1;
    enqueue t id s ~front:false
  end

let block t ~id =
  let s = get t id in
  if s.runnable then begin
    s.runnable <- false;
    s.gen <- s.gen + 1;
    t.nrun <- t.nrun - 1
  end

(* Sentinel-id pop: -1 when the deque has no live entry. Stale entries
   (blocked/departed/requeued threads, detected by gen mismatch) are
   discarded as they surface. *)
let rec pop_valid t d =
  let id = Ring.pop_front d in
  if id < 0 then -1
  else
    match Hashtbl.find t.threads id with
    | s -> if s.runnable && s.gen = d.Ring.last_gen then id else pop_valid t d
    | exception Not_found -> pop_valid t d

(* Top-level scan loops (a nested [let rec] closure in [select_id] would
   allocate per decision). *)
let rec rt_scan t prios =
  match prios with
  | [] -> -1
  | prio :: rest ->
    let id = pop_valid t (rt_queue t prio) in
    if id >= 0 then id else rt_scan t rest

let rec ts_scan t p =
  if p < 0 then -1
  else
    let id = pop_valid t t.ts_queues.(p) in
    if id >= 0 then id else ts_scan t (p - 1)

let select_id t =
  if t.in_service >= 0 then
    invalid_arg "select: a selection is already in service";
  let id =
    let id = rt_scan t t.rt_prios in
    if id >= 0 then id else ts_scan t (nlevels - 1)
  in
  if id >= 0 then (get t id).waited_seconds <- 0;
  t.in_service <- id;
  id

let ts_quantum t s = t.table.(s.prio).quantum_ticks * t.tick

(* SVR4 charges CPU per clock tick: a thread running when the tick fires
   is billed the whole tick. Rounding the service up to tick granularity
   reproduces that overcharging (the source of TS's accounting noise). *)
let account t service =
  if t.tick_accounting then (service + t.tick - 1) / t.tick * t.tick else service

let charge t ~id ~service ~runnable =
  if t.in_service <> id then invalid_arg "Svr4.charge: thread not in service";
  t.in_service <- -1;
  let s = get t id in
  s.used <- s.used + account t service;
  if not runnable then begin
    s.runnable <- false;
    s.gen <- s.gen + 1;
    t.nrun <- t.nrun - 1
  end
  else begin
    match s.cls with
    | Rt _ ->
      if s.used >= t.rt_quantum then s.used <- 0;
      enqueue t id s ~front:false
    | Ts ->
      if s.used >= ts_quantum t s then begin
        s.prio <- t.table.(s.prio).tqexp;
        s.used <- 0;
        enqueue t id s ~front:false
      end
      else enqueue t id s ~front:true
  end

let quantum_of t ~id =
  let s = get t id in
  match s.cls with
  | Rt _ -> Int.max t.tick (t.rt_quantum - s.used)
  | Ts -> Int.max t.tick (ts_quantum t s - s.used)

let preempts t ~waker ~running =
  let w = get t waker and r = get t running in
  match (w.cls, r.cls) with
  | Rt wp, Rt rp -> wp > rp
  | Rt _, Ts -> true
  | Ts, _ -> false

let second_tick t =
  (* Scan in id order for determinism; the id-ordered boost processing is
     itself one of the systematic biases of time sharing. *)
  let ids =
    List.sort Int.compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.threads [])
  in
  List.iter
    (fun id ->
      let s = get t id in
      match s.cls with
      | Rt _ -> ()
      | Ts ->
        if s.runnable then begin
          s.waited_seconds <- s.waited_seconds + 1;
          let r = t.table.(s.prio) in
          if s.waited_seconds > r.maxwait_s then begin
            s.prio <- r.lwait;
            s.used <- 0;
            s.waited_seconds <- 0;
            (* Invalidate the old queue position and requeue at the new
               level, unless the thread is currently on the CPU. *)
            if t.in_service <> id then enqueue t id s ~front:false
          end
        end)
    ids

let prio_of t ~id = (get t id).prio
let is_rt t ~id = match (get t id).cls with Rt _ -> true | Ts -> false
let backlogged t = t.nrun
