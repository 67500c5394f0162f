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

  (* [pre] is the pre-state buffer every guarded call refills. *)
  type t = {
    s : S.t;
    node : string;
    sink : Invariant.sink;
    pre : Sfq_rules.snapshot;
  }

  let wrap ?(node = "sfq") ?sink s =
    {
      s;
      node;
      pre = Sfq_rules.snapshot s;
      sink =
        (match sink with
        | Some k -> k
        | None -> Invariant.create ~policy:Raise ());
    }

  let create ?node ?sink () = wrap ?node ?sink (S.create ())
  let inner t = t.s
  let sink t = t.sink

  let guarded t ev f =
    let pre = Sfq_rules.snapshot ~into:t.pre t.s in
    let r = f t.s in
    Sfq_rules.check_transition ~node:t.node t.sink ~pre t.s (ev r);
    r

  let arrive t ~id ~weight =
    guarded t (fun () -> Sfq_rules.Arrive { id; weight })
      (fun s -> S.arrive s ~id ~weight)

  let depart t ~id =
    guarded t (fun () -> Sfq_rules.Depart id) (fun s -> S.depart s ~id)

  let set_weight t ~id ~weight =
    guarded t
      (fun () -> Sfq_rules.Set_weight { id; weight })
      (fun s -> S.set_weight s ~id ~weight)

  let select_id t = guarded t (fun r -> Sfq_rules.Select r) S.select_id

  let charge t ~id ~service ~runnable =
    guarded t
      (fun () -> Sfq_rules.Charge { id; service; runnable })
      (fun s -> S.charge s ~id ~service ~runnable)

  let block t ~id =
    guarded t (fun () -> Sfq_rules.Block id) (fun s -> S.block s ~id)

  let donate t ~blocked ~recipient =
    guarded t
      (fun () -> Sfq_rules.Donate { blocked; recipient })
      (fun s -> S.donate s ~blocked ~recipient)

  let revoke t ~blocked =
    guarded t (fun () -> Sfq_rules.Revoke blocked)
      (fun s -> S.revoke s ~blocked)

  let backlogged t = S.backlogged t.s
  let virtual_time t = S.virtual_time t.s
  let start_tag t ~id = S.start_tag t.s ~id
  let finish_tag t ~id = S.finish_tag t.s ~id
  let is_runnable t ~id = S.is_runnable t.s ~id
  let mem t ~id = S.mem t.s ~id
end
