open Hsfq_engine

type t = {
  name : string;
  enqueue : now:Time.t -> int -> unit;
  dequeue : now:Time.t -> int -> unit;
  select : now:Time.t -> int option;
  select_id : now:Time.t -> int;
  charge : now:Time.t -> int -> service:Time.span -> runnable:bool -> unit;
  quantum_of : int -> Time.span option;
  quantum_ns_of : int -> Time.span;
  preempts : waker:int -> running:int -> bool;
  backlogged : unit -> int;
  detach : int -> unit;
  second_tick : unit -> unit;
  donate : blocked:int -> recipient:int -> unit;
  revoke : blocked:int -> unit;
  sfq_probe : Hsfq_core.Sfq.t option;
}

let no_donation =
  ((fun ~blocked:_ ~recipient:_ -> ()), fun ~blocked:_ -> ())

(* -1 = "use the kernel default", precomputed once at [make] so
   [quantum_ns_of] is a plain int read. *)
let quantum_ns = function Some q -> q | None -> -1

module Sfq_leaf = struct
  type handle = {
    sfq : Hsfq_core.Sfq.t;
    weights : (int, float) Hashtbl.t;
    quantum : Time.span option;
    audit :
      (Hsfq_check.Invariant.sink * string * Hsfq_check.Sfq_rules.snapshot) option;
        (* sink, node label, and the pre-state buffer every guarded
           operation refills *)
  }

  (* [Hashtbl.find] rather than [find_opt]: enqueue runs once per wake
     and the [Some] wrapper would be its only allocation. *)
  let weight_of h tid =
    try Hashtbl.find h.weights tid
    with Not_found ->
      invalid_arg (Printf.sprintf "Sfq_leaf: unregistered thread %d" tid)

  (* Run [f] on the SFQ; when auditing, capture the pre-state and check
     the transition semantics of [ev f-result] afterwards. *)
  let guarded h ev f =
    match h.audit with
    | None -> f h.sfq
    | Some (sink, node, into) ->
      let pre = Hsfq_check.Sfq_rules.snapshot ~into h.sfq in
      let r = f h.sfq in
      Hsfq_check.Sfq_rules.check_transition ~node sink ~pre h.sfq (ev r);
      r

  let make ?quantum ?audit ?(audit_label = "sfq-leaf") () =
    let sfq = Hsfq_core.Sfq.create () in
    let h =
      {
        sfq;
        weights = Hashtbl.create 8;
        quantum;
        audit =
          Option.map
            (fun sink -> (sink, audit_label, Hsfq_check.Sfq_rules.snapshot sfq))
            audit;
      }
    in
    let module R = Hsfq_check.Sfq_rules in
    (* The audit-off paths below go through the staging cell
       ([arrive_staged]/[charge_staged]) so a dispatch charges no boxed
       floats; auditing snapshots the whole SFQ anyway, so its paths
       keep the plain float calls. *)
    let scell = Hsfq_core.Sfq.stage_cell h.sfq in
    let audited = match h.audit with Some _ -> true | None -> false in
    let arrive tid =
      let weight = weight_of h tid in
      guarded h
        (fun () -> R.Arrive { id = tid; weight })
        (fun s -> Hsfq_core.Sfq.arrive s ~id:tid ~weight)
    in
    let block tid =
      guarded h (fun () -> R.Block tid) (fun s -> Hsfq_core.Sfq.block s ~id:tid)
    in
    let qns = quantum_ns h.quantum in
    let lf =
      {
        name = "sfq";
        enqueue =
          (fun ~now:_ tid ->
            if audited then arrive tid
            else begin
              scell.(0) <- weight_of h tid;
              Hsfq_core.Sfq.arrive_staged h.sfq ~id:tid
            end);
        dequeue = (fun ~now:_ tid -> block tid);
        select =
          (fun ~now:_ -> guarded h (fun r -> R.Select r) Hsfq_core.Sfq.select);
        select_id =
          (fun ~now:_ ->
            if audited then
              match guarded h (fun r -> R.Select r) Hsfq_core.Sfq.select with
              | Some tid -> tid
              | None -> -1
            else Hsfq_core.Sfq.select_id h.sfq);
        charge =
          (fun ~now:_ tid ~service ~runnable ->
            if audited then
              let service = float_of_int service in
              guarded h
                (fun () -> R.Charge { id = tid; service; runnable })
                (fun s -> Hsfq_core.Sfq.charge s ~id:tid ~service ~runnable)
            else begin
              scell.(0) <- float_of_int service;
              Hsfq_core.Sfq.charge_staged h.sfq ~id:tid ~runnable
            end);
        quantum_of = (fun _ -> h.quantum);
        quantum_ns_of = (fun _ -> qns);
        preempts = (fun ~waker:_ ~running:_ -> false);
        backlogged = (fun () -> Hsfq_core.Sfq.backlogged h.sfq);
        detach =
          (fun tid ->
            guarded h
              (fun () -> R.Depart tid)
              (fun s -> Hsfq_core.Sfq.depart s ~id:tid);
            Hashtbl.remove h.weights tid);
        second_tick = (fun () -> ());
        donate =
          (fun ~blocked ~recipient ->
            (* A thread may block on a mutex before its first quantum, in
               which case the SFQ has no record of it yet: register it
               (blocked) so its weight is known for the transfer. *)
            let ensure tid =
              if not (Hsfq_core.Sfq.mem h.sfq ~id:tid) then begin
                arrive tid;
                block tid
              end
            in
            ensure blocked;
            ensure recipient;
            guarded h
              (fun () -> R.Donate { blocked; recipient })
              (fun s -> Hsfq_core.Sfq.donate s ~blocked ~recipient));
        revoke =
          (fun ~blocked ->
            guarded h
              (fun () -> R.Revoke blocked)
              (fun s -> Hsfq_core.Sfq.revoke s ~blocked));
        sfq_probe = Some h.sfq;
      }
    in
    (lf, h)

  let add h ~tid ~weight =
    if weight <= 0. then invalid_arg "Sfq_leaf.add: weight <= 0";
    Hashtbl.replace h.weights tid weight

  let set_weight h ~tid ~weight =
    if weight <= 0. then invalid_arg "Sfq_leaf.set_weight: weight <= 0";
    Hashtbl.replace h.weights tid weight;
    if Hsfq_core.Sfq.is_runnable h.sfq ~id:tid then
      Hsfq_core.Sfq.set_weight h.sfq ~id:tid ~weight
    else
      (* Not currently known to the SFQ or blocked: the new weight takes
         effect at the next enqueue. Update if the client exists. *)
      (try Hsfq_core.Sfq.set_weight h.sfq ~id:tid ~weight with Invalid_argument _ -> ())

  let donate h ~blocked ~recipient = Hsfq_core.Sfq.donate h.sfq ~blocked ~recipient
  let revoke h ~blocked = Hsfq_core.Sfq.revoke h.sfq ~blocked
  let sfq h = h.sfq
end

module Fair_leaf (F : Hsfq_sched.Scheduler_intf.FAIR) = struct
  module A = Hsfq_check.Audited.Make (F)

  type handle = {
    sched : F.t;
    audited : A.t option; (* shares [sched]; checks every transition *)
    weights : (int, float) Hashtbl.t;
    quantum : Time.span option;
  }

  let weight_of h tid =
    match Hashtbl.find_opt h.weights tid with
    | Some w -> w
    | None ->
      invalid_arg (Printf.sprintf "%s leaf: unregistered thread %d" F.algorithm_name tid)

  let make ?rng ?quantum_hint ?quantum ?audit ?(audit_label = F.algorithm_name) () =
    let sched = F.create ?rng ?quantum_hint () in
    let h =
      {
        sched;
        audited =
          Option.map (fun sink -> A.wrap ~node:audit_label ~sink sched) audit;
        weights = Hashtbl.create 8;
        quantum;
      }
    in
    let arrive tid ~weight =
      match h.audited with
      | Some a -> A.arrive a ~id:tid ~weight
      | None -> F.arrive h.sched ~id:tid ~weight
    in
    let depart tid =
      match h.audited with
      | Some a -> A.depart a ~id:tid
      | None -> F.depart h.sched ~id:tid
    in
    let select () =
      match h.audited with Some a -> A.select a | None -> F.select h.sched
    in
    let qns = quantum_ns h.quantum in
    let lf =
      {
        name = F.algorithm_name;
        enqueue = (fun ~now:_ tid -> arrive tid ~weight:(weight_of h tid));
        dequeue = (fun ~now:_ tid -> depart tid);
        select = (fun ~now:_ -> select ());
        select_id =
          (fun ~now:_ ->
            match select () with Some tid -> tid | None -> -1);
        charge =
          (fun ~now:_ tid ~service ~runnable ->
            let service = float_of_int service in
            match h.audited with
            | Some a -> A.charge a ~id:tid ~service ~runnable
            | None -> F.charge h.sched ~id:tid ~service ~runnable);
        quantum_of = (fun _ -> h.quantum);
        quantum_ns_of = (fun _ -> qns);
        preempts = (fun ~waker:_ ~running:_ -> false);
        backlogged = (fun () -> F.backlogged h.sched);
        detach =
          (fun tid ->
            depart tid;
            Hashtbl.remove h.weights tid);
        second_tick = (fun () -> ());
        donate = fst no_donation;
        revoke = snd no_donation;
        sfq_probe = None;
      }
    in
    (lf, h)

  let add h ~tid ~weight =
    if weight <= 0. then invalid_arg "Fair_leaf.add: weight <= 0";
    Hashtbl.replace h.weights tid weight

  let set_weight h ~tid ~weight =
    if weight <= 0. then invalid_arg "Fair_leaf.set_weight: weight <= 0";
    Hashtbl.replace h.weights tid weight;
    try
      match h.audited with
      | Some a -> A.set_weight a ~id:tid ~weight
      | None -> F.set_weight h.sched ~id:tid ~weight
    with Invalid_argument _ -> ()

  let scheduler h = h.sched
end

module Svr4_leaf = struct
  open Hsfq_sched

  type handle = { svr4 : Svr4.t; fresh : (int, unit) Hashtbl.t }

  let make ?table ?tick ?tick_accounting ?rt_quantum () =
    let h =
      {
        svr4 = Svr4.create ?table ?tick ?tick_accounting ?rt_quantum ();
        fresh = Hashtbl.create 8;
      }
    in
    let lf =
      {
        name = "svr4";
        enqueue =
          (fun ~now:_ tid ->
            (* The first enqueue admits the thread without the sleep-return
               boost; subsequent ones are real wakeups. *)
            let boost = not (Hashtbl.mem h.fresh tid) in
            Hashtbl.remove h.fresh tid;
            Svr4.wake ~boost h.svr4 ~id:tid);
        dequeue = (fun ~now:_ tid -> Svr4.block h.svr4 ~id:tid);
        select = (fun ~now:_ -> Svr4.select h.svr4);
        select_id = (fun ~now:_ -> Svr4.select_id h.svr4);
        charge =
          (fun ~now:_ tid ~service ~runnable ->
            Svr4.charge h.svr4 ~id:tid ~service ~runnable);
        quantum_of = (fun tid -> Some (Svr4.quantum_of h.svr4 ~id:tid));
        quantum_ns_of = (fun tid -> Svr4.quantum_of h.svr4 ~id:tid);
        preempts = (fun ~waker ~running -> Svr4.preempts h.svr4 ~waker ~running);
        backlogged = (fun () -> Svr4.backlogged h.svr4);
        detach =
          (fun tid ->
            Svr4.remove h.svr4 ~id:tid;
            Hashtbl.remove h.fresh tid);
        second_tick = (fun () -> Svr4.second_tick h.svr4);
        donate = fst no_donation;
        revoke = snd no_donation;
        sfq_probe = None;
      }
    in
    (lf, h)

  let add h ~tid ?prio cls =
    Svr4.add h.svr4 ~id:tid ?prio cls;
    (* Threads are admitted blocked; the kernel's first enqueue wakes
       them. *)
    Svr4.block h.svr4 ~id:tid;
    Hashtbl.replace h.fresh tid ()

  let svr4 h = h.svr4
end

module Rm_leaf = struct
  open Hsfq_sched

  type handle = { rm : Rm.t; quantum : Time.span option }

  let make ?quantum () =
    let h = { rm = Rm.create (); quantum } in
    let qns = quantum_ns quantum in
    let lf =
      {
        name = "rm";
        enqueue = (fun ~now:_ tid -> Rm.wake h.rm ~id:tid);
        dequeue = (fun ~now:_ tid -> Rm.block h.rm ~id:tid);
        select = (fun ~now:_ -> Rm.select h.rm);
        select_id =
          (fun ~now:_ ->
            match Rm.select h.rm with Some tid -> tid | None -> -1);
        charge =
          (fun ~now:_ tid ~service:_ ~runnable ->
            if not runnable then Rm.block h.rm ~id:tid);
        quantum_of = (fun _ -> h.quantum);
        quantum_ns_of = (fun _ -> qns);
        preempts =
          (fun ~waker ~running -> Rm.higher_priority h.rm waker ~than:running);
        backlogged = (fun () -> Rm.backlogged h.rm);
        detach = (fun tid -> Rm.unregister h.rm ~id:tid);
        second_tick = (fun () -> ());
        donate = fst no_donation;
        revoke = snd no_donation;
        sfq_probe = None;
      }
    in
    (lf, h)

  let add h ~tid ~period =
    Rm.register h.rm ~id:tid ~period:(Time.to_seconds_float period)
end

module Edf_leaf = struct
  open Hsfq_sched

  type handle = {
    edf : Edf.t;
    rel : (int, Time.span) Hashtbl.t;
    quantum : Time.span option;
  }

  let make ?quantum () =
    let h = { edf = Edf.create (); rel = Hashtbl.create 8; quantum } in
    let qns = quantum_ns quantum in
    let lf =
      {
        name = "edf";
        enqueue =
          (fun ~now tid ->
            let d =
              match Hashtbl.find_opt h.rel tid with
              | Some d -> d
              | None -> invalid_arg (Printf.sprintf "Edf_leaf: unregistered thread %d" tid)
            in
            Edf.release h.edf ~id:tid ~deadline:(float_of_int (Time.add now d)));
        dequeue = (fun ~now:_ tid -> Edf.withdraw h.edf ~id:tid);
        select = (fun ~now:_ -> Edf.select h.edf);
        select_id =
          (fun ~now:_ ->
            match Edf.select h.edf with Some tid -> tid | None -> -1);
        charge =
          (fun ~now:_ tid ~service:_ ~runnable ->
            if not runnable then Edf.withdraw h.edf ~id:tid);
        quantum_of = (fun _ -> h.quantum);
        quantum_ns_of = (fun _ -> qns);
        preempts =
          (fun ~waker ~running ->
            match (Edf.deadline_of h.edf ~id:waker, Edf.deadline_of h.edf ~id:running) with
            | Some dw, Some dr -> dw < dr
            | _ -> false);
        backlogged = (fun () -> Edf.backlogged h.edf);
        detach =
          (fun tid ->
            Edf.withdraw h.edf ~id:tid;
            Hashtbl.remove h.rel tid);
        second_tick = (fun () -> ());
        donate = fst no_donation;
        revoke = snd no_donation;
        sfq_probe = None;
      }
    in
    (lf, h)

  let add h ~tid ~relative_deadline = Hashtbl.replace h.rel tid relative_deadline
end

module Gps_leaf = struct
  open Hsfq_sched

  type handle = {
    gps : Gps_vt.t;
    weights : (int, float) Hashtbl.t;
    quantum : Time.span option;
  }

  let weight_of h tid =
    match Hashtbl.find_opt h.weights tid with
    | Some w -> w
    | None -> invalid_arg (Printf.sprintf "Gps_leaf: unregistered thread %d" tid)

  let make ~order ?capacity ?quantum_hint ?quantum () =
    let h =
      {
        gps = Gps_vt.create ~order ?capacity ?quantum_hint ();
        weights = Hashtbl.create 8;
        quantum;
      }
    in
    let qns = quantum_ns quantum in
    let lf =
      {
        name =
          (match order with
          | Gps_vt.Finish_tags -> "wfq-rt"
          | Gps_vt.Start_tags -> "fqs-rt");
        enqueue =
          (fun ~now tid -> Gps_vt.arrive h.gps ~now ~id:tid ~weight:(weight_of h tid));
        dequeue = (fun ~now:_ tid -> Gps_vt.depart h.gps ~id:tid);
        select = (fun ~now -> Gps_vt.select h.gps ~now);
        select_id =
          (fun ~now ->
            match Gps_vt.select h.gps ~now with Some tid -> tid | None -> -1);
        charge =
          (fun ~now tid ~service ~runnable ->
            Gps_vt.charge h.gps ~now ~id:tid ~service:(float_of_int service) ~runnable);
        quantum_of = (fun _ -> h.quantum);
        quantum_ns_of = (fun _ -> qns);
        preempts = (fun ~waker:_ ~running:_ -> false);
        backlogged = (fun () -> Gps_vt.backlogged h.gps);
        detach =
          (fun tid ->
            Gps_vt.depart h.gps ~id:tid;
            Hashtbl.remove h.weights tid);
        second_tick = (fun () -> ());
        donate = fst no_donation;
        revoke = snd no_donation;
        sfq_probe = None;
      }
    in
    (lf, h)

  let add h ~tid ~weight =
    if weight <= 0. then invalid_arg "Gps_leaf.add: weight <= 0";
    Hashtbl.replace h.weights tid weight
end

module Reserve_leaf = struct
  type member = {
    capacity : Time.span; (* 0 = background-only *)
    mutable budget : Time.span;
    mutable runnable : bool;
  }

  type handle = {
    sim : Sim.t;
    members : (int, member) Hashtbl.t;
    mutable order : int list; (* FIFO dispatch order, rotated on charge *)
  }

  let get h tid =
    match Hashtbl.find_opt h.members tid with
    | Some m -> m
    | None -> invalid_arg (Printf.sprintf "Reserve_leaf: unregistered thread %d" tid)

  let reserved m = m.capacity > 0 && m.budget > 0

  (* First runnable reserved thread in FIFO order, else first runnable. *)
  let pick h =
    let candidates = List.filter (fun tid -> (get h tid).runnable) h.order in
    match List.find_opt (fun tid -> reserved (get h tid)) candidates with
    | Some tid -> Some tid
    | None -> (match candidates with [] -> None | tid :: _ -> Some tid)

  let rotate h tid = h.order <- List.filter (fun x -> x <> tid) h.order @ [ tid ]

  let make ~sim () =
    let h = { sim; members = Hashtbl.create 8; order = [] } in
    let lf =
      {
        name = "reserve";
        enqueue = (fun ~now:_ tid -> (get h tid).runnable <- true);
        dequeue = (fun ~now:_ tid -> (get h tid).runnable <- false);
        select = (fun ~now:_ -> pick h);
        select_id =
          (fun ~now:_ -> match pick h with Some tid -> tid | None -> -1);
        charge =
          (fun ~now:_ tid ~service ~runnable ->
            let m = get h tid in
            if m.capacity > 0 then m.budget <- Int.max 0 (m.budget - service);
            m.runnable <- runnable;
            rotate h tid);
        quantum_of =
          (fun tid ->
            let m = get h tid in
            if reserved m then Some m.budget else None);
        quantum_ns_of =
          (fun tid ->
            let m = get h tid in
            if reserved m then m.budget else -1);
        preempts =
          (fun ~waker ~running ->
            reserved (get h waker) && not (reserved (get h running)));
        backlogged =
          (fun () ->
            List.length (List.filter (fun tid -> (get h tid).runnable) h.order));
        detach =
          (fun tid ->
            Hashtbl.remove h.members tid;
            h.order <- List.filter (fun x -> x <> tid) h.order);
        second_tick = (fun () -> ());
        donate = fst no_donation;
        revoke = snd no_donation;
        sfq_probe = None;
      }
    in
    (lf, h)

  let add h ~tid ?reserve () =
    if Hashtbl.mem h.members tid then invalid_arg "Reserve_leaf.add: duplicate";
    (match reserve with
    | Some (c, p) when c <= 0 || p <= 0 || c > p ->
      invalid_arg "Reserve_leaf.add: need 0 < capacity <= period"
    | _ -> ());
    let capacity = match reserve with Some (c, _) -> c | None -> 0 in
    let m = { capacity; budget = capacity; runnable = false } in
    Hashtbl.replace h.members tid m;
    h.order <- h.order @ [ tid ];
    match reserve with
    | None -> ()
    | Some (_, period) ->
      let rec replenish () =
        (* The thread may have exited; replenishing a ghost is harmless
           and the chain stops once it is detached. *)
        match Hashtbl.find_opt h.members tid with
        | None -> ()
        | Some m ->
          m.budget <- m.capacity;
          Sim.after h.sim period replenish
      in
      Sim.after h.sim period replenish

  let budget_left h ~tid = (get h tid).budget
end

(* Tracepoint decorator: wrap a leaf scheduler so its per-thread
   operations emit leaf-level events (the hierarchy only sees whole-leaf
   charges; these record which thread the leaf picked/charged).  The
   wrapped closures allocate once here, at install time — the per-event
   cost is the same enabled-flag test as every other tracepoint. *)
let traced ~sys ~node lf =
  let module Tr = Hsfq_obs.Trace in
  {
    lf with
    enqueue =
      (fun ~now tid ->
        Tr.sys_set_now sys now;
        Tr.emit0 sys ~code:Tr.ev_leaf_enqueue ~a:node ~b:tid ~c:0 ~d:0;
        lf.enqueue ~now tid);
    dequeue =
      (fun ~now tid ->
        Tr.sys_set_now sys now;
        Tr.emit0 sys ~code:Tr.ev_leaf_dequeue ~a:node ~b:tid ~c:0 ~d:0;
        lf.dequeue ~now tid);
    select =
      (fun ~now ->
        Tr.sys_set_now sys now;
        let r = lf.select ~now in
        (match r with
        | Some tid -> Tr.emit0 sys ~code:Tr.ev_leaf_pick ~a:node ~b:tid ~c:0 ~d:0
        | None -> ());
        r);
    select_id =
      (fun ~now ->
        Tr.sys_set_now sys now;
        let tid = lf.select_id ~now in
        if tid >= 0 then
          Tr.emit0 sys ~code:Tr.ev_leaf_pick ~a:node ~b:tid ~c:0 ~d:0;
        tid);
    charge =
      (fun ~now tid ~service ~runnable ->
        Tr.sys_set_now sys now;
        Tr.emit0 sys ~code:Tr.ev_leaf_charge ~a:node ~b:tid ~c:service
          ~d:(if runnable then 1 else 0);
        lf.charge ~now tid ~service ~runnable);
    donate =
      (fun ~blocked ~recipient ->
        Tr.emit0 sys ~code:Tr.ev_donate ~a:blocked ~b:recipient ~c:node ~d:0;
        lf.donate ~blocked ~recipient);
    revoke =
      (fun ~blocked ->
        Tr.emit0 sys ~code:Tr.ev_revoke ~a:blocked ~b:(-1) ~c:node ~d:0;
        lf.revoke ~blocked);
  }
