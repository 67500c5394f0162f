open Hsfq_sched

module Make (F : Scheduler_intf.FAIR) = struct
  type t = {
    f : F.t;
    node : string;
    sink : Invariant.sink;
    (* Mirror of the ready set, maintained from the call protocol alone:
       the wrapped algorithm must agree with it at every step. *)
    ready : (int, unit) Hashtbl.t;
    mutable pending : int; (* selected, not yet charged; -1 = none *)
    mutable last_vt : int;
  }

  let algorithm_name = F.algorithm_name ^ "+audit"

  let wrap ?node ?sink f =
    {
      f;
      node = (match node with Some n -> n | None -> F.algorithm_name);
      sink =
        (match sink with
        | Some s -> s
        | None -> Invariant.create ~policy:Raise ());
      ready = Hashtbl.create 16;
      pending = -1;
      last_vt = F.virtual_time f;
    }

  let create ?rng ?quantum_hint () = wrap (F.create ?rng ?quantum_hint ())
  let inner t = t.f
  let sink t = t.sink

  (* [event ()] labels a report; it is built only when a rule fails. *)
  let fail t event invariant fmt =
    Invariant.fail t.sink ~invariant ~node:t.node ~event:(event ()) fmt

  let post t event =
    let vt = F.virtual_time t.f in
    if not (vt >= t.last_vt) then
      fail t event "vt-monotone" "v(t) went backwards: %d -> %d" t.last_vt vt;
    t.last_vt <- vt;
    let n = Hashtbl.length t.ready in
    if F.backlogged t.f <> n then
      fail t event "nrun-consistent"
        "backlogged=%d but the call protocol implies %d runnable clients"
        (F.backlogged t.f) n

  let arrive t ~id ~weight =
    F.arrive t.f ~id ~weight;
    Hashtbl.replace t.ready id ();
    post t (fun () -> Printf.sprintf "arrive id=%d w=%d" id weight)

  (* The pending client cannot depart: [F.depart] must raise and change
     nothing, so the mirror is left as it was too. *)
  let depart t ~id =
    F.depart t.f ~id;
    let event () = Printf.sprintf "depart id=%d" id in
    if id >= 0 && id = t.pending then
      fail t event "work-conserving" "depart of the in-service client %d accepted"
        id;
    Hashtbl.remove t.ready id;
    post t event

  let set_weight t ~id ~weight =
    F.set_weight t.f ~id ~weight;
    post t (fun () -> Printf.sprintf "set_weight id=%d w=%d" id weight)

  let select_id t =
    let id = F.select_id t.f in
    let event () =
      if id < 0 then "select -> none" else Printf.sprintf "select -> id=%d" id
    in
    if t.pending >= 0 then
      fail t event "work-conserving" "select with a selection already pending";
    if id < 0 then begin
      if Hashtbl.length t.ready <> 0 then
        fail t event "work-conserving"
          "select returned none with %d clients runnable"
          (Hashtbl.length t.ready)
    end
    else begin
      if not (Hashtbl.mem t.ready id) then
        fail t event "work-conserving" "selected client %d is not runnable" id;
      t.pending <- id
    end;
    post t event;
    id

  let charge t ~id ~service ~runnable =
    F.charge t.f ~id ~service ~runnable;
    let event () =
      Printf.sprintf "charge id=%d l=%d runnable=%b" id service runnable
    in
    if id < 0 || id <> t.pending then
      fail t event "work-conserving"
        "charge of client %d but the pending selection is %s" id
        (if t.pending < 0 then "none" else string_of_int t.pending);
    t.pending <- -1;
    if not runnable then Hashtbl.remove t.ready id;
    post t event

  let backlogged t = F.backlogged t.f
  let virtual_time t = F.virtual_time t.f
end

module Sfq = struct
  module S = Hsfq_core.Sfq

  (* Every call refills [pre] with what its rules read, performs the
     transition and asks the clean path; only a transition that fails
     it builds its event, for the report path. *)
  type t = {
    s : S.t;
    node : string;
    sink : Invariant.sink;
    pre : Sfq_rules.pre_state;
  }

  let wrap ?(node = "sfq") ?sink s =
    {
      s;
      node;
      pre = Sfq_rules.buffer ();
      sink =
        (match sink with
        | Some k -> k
        | None -> Invariant.create ~policy:Raise ());
    }

  let create ?node ?sink () = wrap ?node ?sink (S.create ())
  let inner t = t.s
  let sink t = t.sink
  let report t ev = Sfq_rules.report ~node:t.node t.sink ~pre:t.pre t.s ev

  let arrive t ~id ~weight =
    Sfq_rules.capture t.pre t.s ~id;
    S.arrive t.s ~id ~weight;
    if not (Sfq_rules.arrive_ok t.pre t.s ~id ~weight) then
      report t (Sfq_rules.Arrive { id; weight })

  let wake t ~id =
    Sfq_rules.capture t.pre t.s ~id;
    S.wake t.s ~id;
    let weight = S.weight t.s ~id in
    if not (Sfq_rules.arrive_ok t.pre t.s ~id ~weight) then
      report t (Sfq_rules.Arrive { id; weight })

  let depart t ~id =
    Sfq_rules.capture t.pre t.s ~id;
    S.depart t.s ~id;
    if not (Sfq_rules.depart_ok t.pre t.s ~id) then report t (Sfq_rules.Depart id)

  let set_weight t ~id ~weight =
    Sfq_rules.capture t.pre t.s ~id;
    S.set_weight t.s ~id ~weight;
    if not (Sfq_rules.set_weight_ok t.pre t.s ~id ~weight) then
      report t (Sfq_rules.Set_weight { id; weight })

  let select_id t =
    Sfq_rules.capture_ready t.pre t.s;
    let id = S.select_id t.s in
    if not (Sfq_rules.select_ok t.pre t.s id) then report t (Sfq_rules.Select id);
    id

  let charge t ~id ~service ~runnable =
    Sfq_rules.capture t.pre t.s ~id;
    S.charge t.s ~id ~service ~runnable;
    if not (Sfq_rules.charge_ok t.pre t.s ~id ~service ~runnable) then
      report t (Sfq_rules.Charge { id; service; runnable })

  let block t ~id =
    Sfq_rules.capture t.pre t.s ~id;
    S.block t.s ~id;
    if not (Sfq_rules.block_ok t.pre t.s ~id) then report t (Sfq_rules.Block id)

  let donate t ~blocked ~recipient =
    Sfq_rules.capture t.pre t.s ~id:blocked;
    S.donate t.s ~blocked ~recipient;
    if not (Sfq_rules.donate_ok t.pre t.s ~blocked ~recipient) then
      report t (Sfq_rules.Donate { blocked; recipient })

  let revoke t ~blocked =
    Sfq_rules.capture t.pre t.s ~id:blocked;
    S.revoke t.s ~blocked;
    if not (Sfq_rules.revoke_ok t.pre t.s ~blocked) then report t (Sfq_rules.Revoke blocked)

  let backlogged t = S.backlogged t.s
  let virtual_time t = S.virtual_time t.s
  let start_tag t ~id = S.start_tag t.s ~id
  let finish_tag t ~id = S.finish_tag t.s ~id
  let is_runnable t ~id = S.is_runnable t.s ~id
  let mem t ~id = S.mem t.s ~id
end
