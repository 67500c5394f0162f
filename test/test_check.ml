(* Tests for the invariant-audit subsystem (lib/check): the sink
   policies, the SFQ rule set, the generic FAIR decorator — including
   that it actually *catches* broken schedulers and fabricated
   transitions, not just that clean runs stay silent — and the
   structure-level hierarchy audit. *)

open Hsfq_core
module Invariant = Hsfq_check.Invariant
module Sfq_rules = Hsfq_check.Sfq_rules
module Audited = Hsfq_check.Audited
module Hierarchy_audit = Hsfq_check.Hierarchy_audit

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let u = Hsfq_sched.Vtime.unit
let check_string = Alcotest.(check string)

(* --------------------------- the sink ------------------------------- *)

let test_collect_sink () =
  let sink = Invariant.create () in
  check_int "fresh sink" 0 (Invariant.count sink);
  Invariant.check sink ~invariant:"vt-monotone" ~node:"/rt" ~event:"charge"
    false "went backwards: %g -> %g" 2. 1.;
  Invariant.check sink ~invariant:"tag-discipline" ~node:"/rt" ~event:"arrive"
    false "S=%g < F=%g" 0. 1.;
  check_int "two violations" 2 (Invariant.count sink);
  (match Invariant.violations sink with
  | [ v1; v2 ] ->
    check_string "rule id" "vt-monotone" v1.Invariant.invariant;
    check_string "node" "/rt" v1.Invariant.node;
    check_string "event" "charge" v1.Invariant.event;
    check_string "formatted detail" "went backwards: 2 -> 1" v1.Invariant.detail;
    check_string "order preserved" "tag-discipline" v2.Invariant.invariant
  | vs -> Alcotest.failf "expected 2 stored violations, got %d" (List.length vs));
  check_bool "summary mentions the count" true
    (String.length (Invariant.summary sink) > 0
    && String.sub (Invariant.summary sink) 0 1 = "2");
  Invariant.clear sink;
  check_int "clear resets" 0 (Invariant.count sink)

let test_limit_caps_storage () =
  let sink = Invariant.create ~limit:2 () in
  for i = 1 to 5 do
    Invariant.check sink ~invariant:"r" ~node:"n" ~event:"e" false "v%d" i
  done;
  check_int "count keeps counting" 5 (Invariant.count sink);
  check_int "storage capped" 2 (List.length (Invariant.violations sink));
  (* A flood (a broken rule in a long run) at the default limit: each
     report past the cap is O(1), and the first [limit] reports stay. *)
  let sink = Invariant.create () in
  for i = 1 to 100_000 do
    Invariant.report sink
      {
        Invariant.invariant = "r";
        node = "n";
        event = "e";
        detail = string_of_int i;
      }
  done;
  check_int "flood counted" 100_000 (Invariant.count sink);
  let stored = Invariant.violations sink in
  check_int "flood storage capped" 1000 (List.length stored);
  check_string "oldest first" "1" (List.hd stored).Invariant.detail;
  check_string "newest stored" "1000" (List.nth stored 999).Invariant.detail

let test_raise_sink () =
  let sink = Invariant.create ~policy:Raise () in
  match
    Invariant.check sink ~invariant:"select-min-start" ~node:"sfq" ~event:"select"
      false "S=%g not minimal" 7.
  with
  | () -> Alcotest.fail "expected Violation"
  | exception Invariant.Violation v ->
    check_string "rule" "select-min-start" v.Invariant.invariant;
    check_string "detail" "S=7 not minimal" v.Invariant.detail

let test_passing_checks_silent () =
  let sink = Invariant.create ~policy:Raise () in
  Invariant.check sink ~invariant:"r" ~node:"n" ~event:"e" true "never %s" "built";
  check_int "nothing reported" 0 (Invariant.count sink)

(* ------------------------ SFQ rule set ------------------------------ *)

(* A clean run through the full audited API — arrivals, selections,
   charges, blocking, weight changes, donation and departure — must not
   report anything. *)
let test_audited_sfq_clean () =
  let sink = Invariant.create () in
  let s = Audited.Sfq.create ~node:"t" ~sink () in
  Audited.Sfq.arrive s ~id:1 ~weight:u;
  Audited.Sfq.arrive s ~id:2 ~weight:(2 * u);
  Audited.Sfq.arrive s ~id:3 ~weight:(4 * u);
  let spin () =
    match Audited.Sfq.select_id s with
    | -1 -> Alcotest.fail "selection expected"
    | id -> Audited.Sfq.charge s ~id ~service:10 ~runnable:true
  in
  spin ();
  spin ();
  Audited.Sfq.block s ~id:2;
  Audited.Sfq.donate s ~blocked:2 ~recipient:3;
  spin ();
  Audited.Sfq.set_weight s ~id:1 ~weight:(3 * u);
  spin ();
  Audited.Sfq.revoke s ~blocked:2;
  Audited.Sfq.arrive s ~id:2 ~weight:(2 * u);
  spin ();
  Audited.Sfq.block s ~id:1;
  Audited.Sfq.depart s ~id:1;
  spin ();
  check_string "no violations" "0 invariant violations" (Invariant.summary sink)

(* A transition that did not happen as claimed must be caught: here the
   checker is told client 1 departed while it is in fact still there. *)
let test_fabricated_transition_caught () =
  let sink = Invariant.create () in
  let s = Sfq.create () in
  Sfq.arrive s ~id:1 ~weight:u;
  let pre = Sfq_rules.buffer () in
  Sfq_rules.capture pre s ~id:1;
  check_bool "clean path says no" false (Sfq_rules.depart_ok pre s ~id:1);
  Sfq_rules.report ~node:"t" sink ~pre s (Sfq_rules.Depart 1);
  check_bool "violation reported" true (Invariant.count sink > 0);
  match Invariant.violations sink with
  | v :: _ -> check_string "rule" "nrun-consistent" v.Invariant.invariant
  | [] -> Alcotest.fail "expected a stored violation"

(* ---------------------- the FAIR decorator -------------------------- *)

(* A deliberately broken scheduler: it refuses to schedule anyone. The
   decorator must flag the lost work conservation. *)
module Broken : Hsfq_sched.Scheduler_intf.FAIR = struct
  type t = { mutable n : int }

  let algorithm_name = "broken"
  let create ?rng:_ ?quantum_hint:_ () = { n = 0 }
  let arrive t ~id:_ ~weight:_ = t.n <- t.n + 1
  let depart t ~id:_ = if t.n > 0 then t.n <- t.n - 1
  let set_weight _ ~id:_ ~weight:_ = ()
  let select_id _ = -1
  let charge _ ~id:_ ~service:_ ~runnable:_ = ()
  let backlogged t = t.n
  let virtual_time _ = 0
end

module Audited_broken = Audited.Make (Broken)

let test_decorator_catches_broken_scheduler () =
  let sink = Invariant.create () in
  let a = Audited_broken.wrap ~node:"broken" ~sink (Broken.create ()) in
  Audited_broken.arrive a ~id:1 ~weight:u;
  check_int "clean so far" 0 (Invariant.count sink);
  ignore (Audited_broken.select_id a);
  check_bool "refusal to schedule reported" true (Invariant.count sink > 0);
  match Invariant.violations sink with
  | v :: _ -> check_string "rule" "work-conserving" v.Invariant.invariant
  | [] -> Alcotest.fail "expected a stored violation"

module Audited_fqs = Audited.Make (Hsfq_sched.Fqs)

let test_decorator_clean_on_real_scheduler () =
  let sink = Invariant.create () in
  let a = Audited_fqs.wrap ~node:"fqs" ~sink (Hsfq_sched.Fqs.create ()) in
  Audited_fqs.arrive a ~id:1 ~weight:u;
  Audited_fqs.arrive a ~id:2 ~weight:(3 * u);
  for i = 0 to 19 do
    match Audited_fqs.select_id a with
    | -1 -> ()
    | id -> Audited_fqs.charge a ~id ~service:5 ~runnable:(i < 19)
  done;
  Audited_fqs.depart a ~id:1;
  Audited_fqs.depart a ~id:2;
  check_string "no violations" "0 invariant violations" (Invariant.summary sink)

(* ----------------------- hierarchy audit ---------------------------- *)

let mknod_exn h ~name ~parent ~weight kind =
  match Hierarchy.mknod h ~name ~parent ~weight kind with
  | Ok id -> id
  | Error e -> Alcotest.failf "mknod %s: %s" name e

let test_hierarchy_audit_clean () =
  let sink = Invariant.create () in
  let h = Hierarchy.create () in
  Hierarchy_audit.attach sink h;
  let rt = mknod_exn h ~name:"rt" ~parent:Hierarchy.root ~weight:2. Hierarchy.Internal in
  let a = mknod_exn h ~name:"a" ~parent:rt ~weight:1. Hierarchy.Leaf in
  let b = mknod_exn h ~name:"b" ~parent:rt ~weight:3. Hierarchy.Leaf in
  let ts = mknod_exn h ~name:"ts" ~parent:Hierarchy.root ~weight:1. Hierarchy.Leaf in
  Hierarchy.setrun h a;
  Hierarchy.setrun h b;
  Hierarchy.setrun h ts;
  for _ = 1 to 50 do
    let leaf = Hierarchy.schedule_id h in
    if leaf < 0 then Alcotest.fail "schedule expected a runnable leaf";
    Hierarchy.update_ns h ~leaf ~service_ns:1_000_000 ~leaf_runnable:true
  done;
  Hierarchy.sleep h b;
  Hierarchy.set_weight h a 5.;
  for _ = 1 to 20 do
    let leaf = Hierarchy.schedule_id h in
    if leaf < 0 then Alcotest.fail "schedule expected a runnable leaf";
    Hierarchy.update_ns h ~leaf ~service_ns:1_000_000 ~leaf_runnable:true
  done;
  Hierarchy_audit.check_all sink h;
  check_string "no violations" "0 invariant violations" (Invariant.summary sink)

(* Tamper with an internal node's SFQ behind the structure's back: the
   administered weight no longer matches the registration, which the
   weight-conservation sweep must notice. *)
let test_hierarchy_audit_catches_tampering () =
  let sink = Invariant.create () in
  let h = Hierarchy.create () in
  let rt = mknod_exn h ~name:"rt" ~parent:Hierarchy.root ~weight:2. Hierarchy.Internal in
  let a = mknod_exn h ~name:"a" ~parent:rt ~weight:1. Hierarchy.Leaf in
  Hierarchy.setrun h a;
  Sfq.set_weight (Hierarchy.internal_sfq h Hierarchy.root) ~id:rt ~weight:(9 * u);
  Hierarchy_audit.check_all sink h;
  check_bool "tampering reported" true (Invariant.count sink > 0);
  match Invariant.violations sink with
  | v :: _ ->
    check_string "rule" "weight-conservation" v.Invariant.invariant
  | [] -> Alcotest.fail "expected a stored violation"

(* ----------------------- golden violations ------------------------- *)

(* Every rule id the SFQ and hierarchy audits report, provoked through
   the public API, with the full violation record asserted: rule, node
   path, event label and detail string, in report order. These pin the
   audit's observable output, so a rewrite of the checkers must keep
   every record byte-identical. *)

let violation = Alcotest.testable Invariant.pp_violation ( = )

let v invariant node event detail =
  { Invariant.invariant; node; event; detail }

let check_violations what expected sink =
  Alcotest.(check (list violation)) what expected (Invariant.violations sink)

(* One client charged [service] and then blocked: v(t) and the max
   finish tag both sit at [service]. *)
let drained_sfq ~service =
  let s = Sfq.create () in
  Sfq.arrive s ~id:1 ~weight:u;
  (match Sfq.select_id s with
  | -1 -> Alcotest.fail "selection expected"
  | id -> Sfq.charge s ~id ~service ~runnable:false);
  s

(* The pre-state goes through the capture the decorators use: the
   target client's row, or the ready set before a selection. *)
let capture_for ev s =
  let p = Sfq_rules.buffer () in
  (match ev with
  | Sfq_rules.Select _ -> Sfq_rules.capture_ready p s
  | Arrive { id; _ }
  | Charge { id; _ }
  | Set_weight { id; _ }
  | Block id
  | Depart id
  | Revoke id
  | Donate { blocked = id; _ } -> Sfq_rules.capture p s ~id);
  p

(* The clean path's verdict on [ev], as a decorator asks it. *)
let clean_verdict ~pre s = function
  | Sfq_rules.Arrive { id; weight } -> Sfq_rules.arrive_ok pre s ~id ~weight
  | Select id -> Sfq_rules.select_ok pre s id
  | Charge { id; service; runnable } ->
    Sfq_rules.charge_ok pre s ~id ~service ~runnable
  | Block id -> Sfq_rules.block_ok pre s ~id
  | Depart id -> Sfq_rules.depart_ok pre s ~id
  | Set_weight { id; weight } -> Sfq_rules.set_weight_ok pre s ~id ~weight
  | Donate { blocked; recipient } ->
    Sfq_rules.donate_ok pre s ~blocked ~recipient
  | Revoke blocked -> Sfq_rules.revoke_ok pre s ~blocked

(* The report path's records for [ev] judged against [pre]'s state; the
   clean path must say no exactly when there are some. *)
let fabricate ev ~pre s =
  let sink = Invariant.create () in
  let pre = capture_for ev pre in
  Sfq_rules.report ~node:"t" sink ~pre s ev;
  check_bool "clean verdict iff no reports"
    (Invariant.count sink = 0)
    (clean_verdict ~pre s ev);
  sink

let test_golden_clock_rules () =
  (* vt-monotone + max-finish-bound: a pre-state from a busier SFQ. *)
  let sink =
    fabricate (Sfq_rules.Block 7) ~pre:(drained_sfq ~service:10)
      (Sfq.create ())
  in
  check_violations "clock went backwards"
    [
      v "vt-monotone" "t" "block id=7"
        "v(t) went backwards: 10 -> 0";
      v "max-finish-bound" "t" "block id=7"
        "max finish tag went backwards: 10 -> 0";
    ]
    sink;
  (* A first arrival judged against that pre-state's clock. *)
  let s = Sfq.create () in
  Sfq.arrive s ~id:2 ~weight:2;
  let sink =
    fabricate (Sfq_rules.Arrive { id = 2; weight = 2 })
      ~pre:(drained_sfq ~service:10) s
  in
  check_violations "first start tag below the clock"
    [
      v "vt-monotone" "t" "arrive id=2 w=2"
        "v(t) went backwards: 10 -> 0";
      v "max-finish-bound" "t" "arrive id=2 w=2"
        "max finish tag went backwards: 10 -> 0";
      v "tag-discipline" "t" "arrive id=2 w=2"
        "first start tag 0, expected max(v=10, 0)";
    ]
    sink

let test_golden_arrive_block () =
  let s = Sfq.create () in
  Sfq.arrive s ~id:1 ~weight:1;
  Sfq.arrive s ~id:2 ~weight:1;
  Sfq.block s ~id:2;
  (* An arrival that never happened. *)
  check_violations "arrive not applied"
    [
      v "tag-discipline" "t" "arrive id=2 w=3"
        "arrived client 2 not runnable";
      v "tag-discipline" "t" "arrive id=2 w=3"
        "wake did not apply weight 3 (has 1)";
    ]
    (fabricate (Sfq_rules.Arrive { id = 2; weight = 3 }) ~pre:s s);
  (* A block that never happened. *)
  check_violations "block not applied"
    [
      v "tag-discipline" "t" "block id=1"
        "client 1 runnable after block";
    ]
    (fabricate (Sfq_rules.Block 1) ~pre:s s);
  (* A weight change that never happened. *)
  check_violations "set_weight not applied"
    [
      v "tag-discipline" "t" "set_weight id=1 w=3"
        "set_weight did not apply 3 (has 1)";
    ]
    (fabricate (Sfq_rules.Set_weight { id = 1; weight = 3 }) ~pre:s s)

let test_golden_select () =
  (* Client 1 has been served once (S=10), client 2 not at all (S=0). *)
  let served_pair () =
    let s = Sfq.create () in
    Sfq.arrive s ~id:1 ~weight:u;
    (match Sfq.select_id s with
    | -1 -> Alcotest.fail "selection expected"
    | id -> Sfq.charge s ~id ~service:10 ~runnable:true);
    Sfq.arrive s ~id:2 ~weight:u;
    s
  in
  let pre = served_pair () and s = served_pair () in
  ignore (Sfq.select_id s);
  check_violations "selected a larger start tag"
    [
      v "select-min-start" "t" "select -> id=1"
        "selected client 1 with S=10, but min ready S=0";
      v "vt-monotone" "t" "select -> id=1"
        "v(t)=0 after select, expected selected start tag 10";
    ]
    (fabricate (Sfq_rules.Select 1) ~pre s);
  check_violations "selected an unknown client"
    [
      v "select-min-start" "t" "select -> id=99"
        "selected unknown client 99";
    ]
    (fabricate (Sfq_rules.Select 99) ~pre s);
  check_violations "refused to select with a backlog"
    [
      v "work-conserving" "t" "select -> none"
        "select returned none with 2 clients backlogged";
    ]
    (fabricate (Sfq_rules.Select (-1)) ~pre s);
  (* A second selection while one is pending. *)
  check_violations "selection already pending"
    [
      v "work-conserving" "t" "select -> id=2"
        "select with a selection already pending";
    ]
    (fabricate (Sfq_rules.Select 2) ~pre:s s)

let test_golden_charge () =
  let pre = Sfq.create () in
  Sfq.arrive pre ~id:1 ~weight:(2 * u);
  ignore (Sfq.select_id pre);
  let s = Sfq.create () in
  Sfq.arrive s ~id:1 ~weight:(2 * u);
  ignore (Sfq.select_id s);
  Sfq.charge s ~id:1 ~service:10 ~runnable:true;
  (* Claimed 20 ns of service, charged 10. *)
  check_violations "finish tag off the charged service"
    [
      v "charge-finish-tag" "t" "charge id=1 l=20 runnable=true"
        "F=5 r'=0, expected S + (l*unit + r)/w = 0 + (20*1000000 + 0)/2000000";
    ]
    (fabricate
       (Sfq_rules.Charge { id = 1; service = 20; runnable = true })
       ~pre s);
  (* Claimed a blocking charge, but the client was requeued. *)
  check_violations "blocking charge left the client runnable"
    [
      v "tag-discipline" "t" "charge id=1 l=10 runnable=false"
        "client 1 still runnable after blocking charge";
    ]
    (fabricate
       (Sfq_rules.Charge { id = 1; service = 10; runnable = false })
       ~pre s);
  (* A charge with nothing in service. *)
  check_violations "charge without a selection"
    [
      v "work-conserving" "t" "charge id=1 l=10 runnable=true"
        "charge of client 1 but in-service was none";
      v "charge-finish-tag" "t" "charge id=1 l=10 runnable=true"
        "F=5 r'=0, expected S + (l*unit + r)/w = 5 + (10*1000000 + 0)/2000000";
    ]
    (fabricate
       (Sfq_rules.Charge { id = 1; service = 10; runnable = true })
       ~pre:s s);
  check_violations "charge of an unknown client"
    [
      v "work-conserving" "t" "charge id=9 l=10 runnable=true"
        "charge of client 9 but in-service was 1";
      v "charge-finish-tag" "t" "charge id=9 l=10 runnable=true"
        "charged unknown client 9";
    ]
    (fabricate
       (Sfq_rules.Charge { id = 9; service = 10; runnable = true })
       ~pre s)

let test_golden_donations () =
  let s = Sfq.create () in
  List.iter (fun id -> Sfq.arrive s ~id ~weight:id) [ 2; 3; 4 ];
  Sfq.donate s ~blocked:4 ~recipient:3;
  let pre = Sfq.create () in
  List.iter (fun id -> Sfq.arrive pre ~id ~weight:id) [ 2; 3; 4 ];
  Sfq.donate pre ~blocked:2 ~recipient:3;
  Sfq.donate pre ~blocked:4 ~recipient:3;
  check_violations "donate not recorded"
    [
      v "donation-conservation" "t" "donate blocked=2 recipient=4"
        "no donation record 2->4 after donate";
    ]
    (fabricate (Sfq_rules.Donate { blocked = 2; recipient = 4 }) ~pre s);
  (* s kept 4->3 but the pre-state also had 2->3: revoking 4 should
     have dropped 4->3 and kept 2->3. *)
  check_violations "revoke dropped the wrong donation"
    [
      v "donation-conservation" "t" "revoke blocked=4"
        "donation from 4 still recorded after revoke";
      v "donation-conservation" "t" "revoke blocked=4"
        "revoke of 4 dropped unrelated donation 2->3 (2)";
    ]
    (fabricate (Sfq_rules.Revoke 4) ~pre s)

let test_golden_state_rules () =
  (* The state rules run after every transition; a block of an unknown
     client (id 0) adds no step rule of its own. *)
  let state_only s = fabricate (Sfq_rules.Block 0) ~pre:s s in
  (* Weights and tags are validated at the API, so the tag rule is
     provoked the one way the API allows: claims taken at two servers,
     then the capacity dropped back to one while a re-queued client's
     start tag still lags the clock the second claim advanced. *)
  let s = Sfq.create () in
  Sfq.arrive s ~id:1 ~weight:u;
  Sfq.arrive s ~id:2 ~weight:u;
  (match Sfq.select_id s with
  | 1 -> Sfq.charge s ~id:1 ~service:10 ~runnable:true
  | _ -> Alcotest.fail "client 1 first");
  Sfq.set_servers s 2;
  check_int "lagging claim" 2 (Sfq.select_id s);
  check_int "leading claim" 1 (Sfq.select_id s);
  Sfq.charge s ~id:2 ~service:1 ~runnable:true;
  Sfq.set_servers s 1;
  check_violations "start tag below v(t) at one server"
    [
      v "tag-discipline" "t" "block id=0"
        "runnable client 2 has S=1 < v(t)=10";
    ]
    (state_only s)

(* /a/b/c: tamper with the SFQs of the two nested internal nodes behind
   the hierarchy's back, then let a structure operation fire the hook. *)
let nested () =
  let sink = Invariant.create () in
  let h = Hierarchy.create () in
  let a = mknod_exn h ~name:"a" ~parent:Hierarchy.root ~weight:1. Hierarchy.Internal in
  let b = mknod_exn h ~name:"b" ~parent:a ~weight:2. Hierarchy.Internal in
  let c = mknod_exn h ~name:"c" ~parent:b ~weight:3. Hierarchy.Leaf in
  let d = mknod_exn h ~name:"d" ~parent:b ~weight:4. Hierarchy.Leaf in
  Hierarchy.setrun h c;
  Hierarchy.setrun h d;
  Hierarchy_audit.attach sink h;
  (sink, h, a, b, c, d)

let test_golden_hierarchy_weights () =
  let sink, h, a, b, c, d = nested () in
  Sfq.set_weight (Hierarchy.internal_sfq h Hierarchy.root) ~id:a ~weight:(5 * u);
  Sfq.set_weight (Hierarchy.internal_sfq h a) ~id:b ~weight:(9 * u);
  Sfq.set_weight (Hierarchy.internal_sfq h b) ~id:c ~weight:(7 * u);
  (* Each operation audits only the parent it touched. *)
  Hierarchy.set_weight h d 4.;
  check_violations "tampered child, hook at /a/b"
    [
      v "weight-conservation" "/a/b" "set_weight"
        "child /a/b/c administered weight 3000000 but registered 7000000";
    ]
    sink;
  Invariant.clear sink;
  ignore (mknod_exn h ~name:"e" ~parent:a ~weight:1. Hierarchy.Leaf);
  check_violations "tampered child, hook at /a"
    [
      v "weight-conservation" "/a" "mknod"
        "child /a/b administered weight 2000000 but registered 9000000";
    ]
    sink;
  Invariant.clear sink;
  ignore (mknod_exn h ~name:"f" ~parent:Hierarchy.root ~weight:1. Hierarchy.Leaf);
  check_violations "tampered child, hook at the root"
    [
      v "weight-conservation" "/" "mknod"
        "child /a administered weight 1000000 but registered 5000000";
    ]
    sink

let test_golden_hierarchy_runnability () =
  let sink, h, _, b, c, d = nested () in
  Sfq.block (Hierarchy.internal_sfq h b) ~id:c;
  Sfq.depart (Hierarchy.internal_sfq h b) ~id:d;
  Hierarchy.set_weight h c 5.;
  check_violations "flag vs SFQ, unregistered child"
    [
      v "runnability" "/a/b" "set_weight"
        "child /a/b/c flag true but SFQ says false";
      v "weight-conservation" "/a/b" "set_weight"
        "child /a/b/d not registered in the SFQ";
    ]
    sink;
  Invariant.clear sink;
  Hierarchy_audit.check_all sink h;
  check_violations "sweep"
    [
      v "runnability" "/a/b" "sweep"
        "child /a/b/c flag true but SFQ says false";
      v "weight-conservation" "/a/b" "sweep"
        "child /a/b/d not registered in the SFQ";
      v "runnability" "/a/b" "sweep"
        "node flag true but SFQ backlog is 0";
    ]
    sink

(* A child whose cached slot went stale: the parent SFQ's remap
   subscription is dropped, then siblings are removed until the SFQ
   compacts. 65 children fill slots 0..64 (capacity 128); removing
   /p/c30../p/c63 leaves 31 live, under a quarter, so the SFQ packs its
   slots and /p/c64 moves from slot 64 to slot 30 without being told. *)
let test_golden_slot_cache () =
  let h = Hierarchy.create () in
  let p = mknod_exn h ~name:"p" ~parent:Hierarchy.root ~weight:1. Hierarchy.Internal in
  let c =
    Array.init 65 (fun i ->
        mknod_exn h ~name:(Printf.sprintf "c%d" i) ~parent:p ~weight:1.
          Hierarchy.Leaf)
  in
  Sfq.set_on_remap (Hierarchy.internal_sfq h p) None;
  for i = 30 to 63 do
    match Hierarchy.rmnod h c.(i) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "rmnod: %s" e
  done;
  let sink = Invariant.create () in
  Hierarchy_audit.check_all sink h;
  check_violations "stale cached slot"
    [
      v "slot-cache" "/p" "sweep"
        "child /p/c64 caches slot 64 but the SFQ holds it at 30";
    ]
    sink

(* -------------------- clean path vs report path --------------------- *)

(* Random op sequences on a bare SFQ at one or two servers. Every op is
   judged twice: against the pre-state captured just before it, where
   the two paths must agree (and, at one server, say clean); and
   against a pre-state captured one op earlier, which often breaks a
   rule, where the clean verdict must be yes exactly when the report
   path adds nothing to a fresh sink. Ops the SFQ rejects are skipped. *)
let claimed_id s a =
  let n = Sfq.claim_count s in
  if n = 0 then -1 else Sfq.claim_id s (a mod n)

let capture_op p s (k, (a, _, _)) =
  match k with
  | 1 -> Sfq_rules.capture_ready p s
  | 2 -> Sfq_rules.capture p s ~id:(claimed_id s a)
  | _ -> Sfq_rules.capture p s ~id:a

let perform s (k, (a, b, c)) =
  let weight = (b + 1) * 333_337 in
  match k with
  | 0 ->
    Sfq.arrive s ~id:a ~weight;
    Some (Sfq_rules.Arrive { id = a; weight })
  | 1 -> Some (Sfq_rules.Select (Sfq.select_id s))
  | 2 ->
    let id = claimed_id s a and runnable = b mod 2 = 0 in
    if id < 0 then None
    else begin
      Sfq.charge s ~id ~service:c ~runnable;
      Some (Sfq_rules.Charge { id; service = c; runnable })
    end
  | 3 ->
    Sfq.block s ~id:a;
    Some (Sfq_rules.Block a)
  | 4 ->
    Sfq.donate s ~blocked:a ~recipient:b;
    Some (Sfq_rules.Donate { blocked = a; recipient = b })
  | 5 ->
    Sfq.revoke s ~blocked:a;
    Some (Sfq_rules.Revoke a)
  | 6 ->
    Sfq.depart s ~id:a;
    Some (Sfq_rules.Depart a)
  | 7 ->
    Sfq.set_weight s ~id:a ~weight;
    Some (Sfq_rules.Set_weight { id = a; weight })
  | _ ->
    Sfq.wake s ~id:a;
    Some (Sfq_rules.Arrive { id = a; weight = Sfq.weight s ~id:a })

let reports ~pre s ev =
  let sink = Invariant.create () in
  Sfq_rules.report ~node:"q" sink ~pre s ev;
  Invariant.count sink

let paths_agree ~servers ops =
  let s = Sfq.create () in
  Sfq.set_servers s servers;
  let ops = Array.of_list ops in
  let pre = Sfq_rules.buffer () in
  let stale = ref (Sfq_rules.buffer ()) and next = ref (Sfq_rules.buffer ()) in
  let ok = ref true in
  Array.iteri
    (fun i op ->
      capture_op pre s op;
      if i + 1 < Array.length ops then capture_op !next s ops.(i + 1);
      (match perform s op with
      | exception Invalid_argument _ -> ()
      | None -> ()
      | Some ev ->
        let fresh = clean_verdict ~pre s ev in
        if fresh <> (reports ~pre s ev = 0) then ok := false;
        if servers = 1 && not fresh then ok := false;
        if i > 0 then begin
          let pre = !stale in
          if clean_verdict ~pre s ev <> (reports ~pre s ev = 0) then
            ok := false
        end);
      let t = !stale in
      stale := !next;
      next := t)
    ops;
  !ok

let prop_clean_matches_report =
  QCheck.Test.make ~name:"clean verdict iff the report path adds nothing"
    ~count:300
    QCheck.(
      list_of_size (Gen.int_range 1 200)
        (pair (int_bound 8)
           (triple (int_bound 5) (int_bound 5) (int_range 1 3_000))))
    (fun ops -> paths_agree ~servers:1 ops && paths_agree ~servers:2 ops)

(* ------------------- audited steady-state allocation ------------------ *)

(* A clean audited transition reads the SFQ's flat columns in place
   and builds no list, closure, event record or label, so it allocates
   nothing: 0 words measured on both shapes, in dev. The ceilings leave
   a word for the measuring loop; a checker that allocates on the clean
   path fails them. *)
let words_per_decision ~decisions step =
  for _ = 1 to 1_000 do
    step ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to decisions do
    step ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int decisions

let audited_hierarchy_words_ceiling = 1.
let audited_leaf_words_ceiling = 1.

let test_audited_hierarchy_words () =
  let sink = Invariant.create ~policy:Raise () in
  let h = Hierarchy.create () in
  Hierarchy_audit.attach sink h;
  for i = 0 to 3 do
    let mid =
      mknod_exn h ~name:(Printf.sprintf "m%d" i) ~parent:Hierarchy.root
        ~weight:(float_of_int (i + 1)) Hierarchy.Internal
    in
    for j = 0 to 3 do
      Hierarchy.setrun h
        (mknod_exn h ~name:(Printf.sprintf "l%d" j) ~parent:mid
           ~weight:(float_of_int (j + 1)) Hierarchy.Leaf)
    done
  done;
  let per_decision =
    words_per_decision ~decisions:10_000 (fun () ->
        let leaf = Hierarchy.schedule_id h in
        Hierarchy.update_ns h ~leaf ~service_ns:1_000_000 ~leaf_runnable:true)
  in
  if per_decision > audited_hierarchy_words_ceiling then
    Alcotest.failf
      "audited hierarchy decision allocates %.2f minor words (ceiling %.1f)"
      per_decision audited_hierarchy_words_ceiling

(* O(1) in the client count: the same audited decision on a 4 x 4 and a
   4 x 64 tree (16 and 256 leaves) allocates exactly the same words —
   the audit scans every child's slot, but every probe is an int read. *)
let audited_decision_words ~leaves_per_mid =
  let sink = Invariant.create ~policy:Raise () in
  let h = Hierarchy.create () in
  Hierarchy_audit.attach sink h;
  for i = 0 to 3 do
    let mid =
      mknod_exn h ~name:(Printf.sprintf "m%d" i) ~parent:Hierarchy.root
        ~weight:(float_of_int (i + 1)) Hierarchy.Internal
    in
    for j = 0 to leaves_per_mid - 1 do
      Hierarchy.setrun h
        (mknod_exn h ~name:(Printf.sprintf "l%d" j) ~parent:mid
           ~weight:(float_of_int (1 + (j mod 4))) Hierarchy.Leaf)
    done
  done;
  words_per_decision ~decisions:10_000 (fun () ->
      let leaf = Hierarchy.schedule_id h in
      Hierarchy.update_ns h ~leaf ~service_ns:1_000_000 ~leaf_runnable:true)

let test_audited_words_independent_of_clients () =
  let small = audited_decision_words ~leaves_per_mid:4 in
  let large = audited_decision_words ~leaves_per_mid:64 in
  Alcotest.(check (float 0.)) "16 vs 256 clients: same words per decision"
    small large

let test_audited_leaf_words () =
  let module Leaf = Hsfq_kernel.Leaf_sched in
  let sink = Invariant.create ~policy:Raise () in
  let lf, h = Leaf.Sfq_leaf.make ~audit:sink () in
  for tid = 0 to 15 do
    Leaf.Sfq_leaf.add h ~tid ~weight:(float_of_int (1 + (tid mod 4)));
    lf.Leaf.enqueue ~now:0 tid
  done;
  let per_decision =
    words_per_decision ~decisions:10_000 (fun () ->
        let tid = lf.Leaf.select_id ~now:0 in
        lf.Leaf.charge ~now:0 tid ~service:1_000_000 ~runnable:true)
  in
  if per_decision > audited_leaf_words_ceiling then
    Alcotest.failf
      "audited SFQ leaf decision allocates %.2f minor words (ceiling %.1f)"
      per_decision audited_leaf_words_ceiling

let () =
  Alcotest.run "check"
    [
      ( "sink",
        [
          Alcotest.test_case "collect policy stores and counts" `Quick
            test_collect_sink;
          Alcotest.test_case "limit caps storage, not the count" `Quick
            test_limit_caps_storage;
          Alcotest.test_case "raise policy raises" `Quick test_raise_sink;
          Alcotest.test_case "passing checks report nothing" `Quick
            test_passing_checks_silent;
        ] );
      ( "sfq-rules",
        [
          Alcotest.test_case "audited SFQ run is clean" `Quick
            test_audited_sfq_clean;
          Alcotest.test_case "fabricated transition caught" `Quick
            test_fabricated_transition_caught;
        ] );
      ( "decorator",
        [
          Alcotest.test_case "catches a work-shy scheduler" `Quick
            test_decorator_catches_broken_scheduler;
          Alcotest.test_case "clean on a real scheduler" `Quick
            test_decorator_clean_on_real_scheduler;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "structure operations audit clean" `Quick
            test_hierarchy_audit_clean;
          Alcotest.test_case "catches out-of-band tampering" `Quick
            test_hierarchy_audit_catches_tampering;
        ] );
      ( "golden",
        [
          Alcotest.test_case "clock rules" `Quick test_golden_clock_rules;
          Alcotest.test_case "arrive, block, set_weight" `Quick
            test_golden_arrive_block;
          Alcotest.test_case "select" `Quick test_golden_select;
          Alcotest.test_case "charge" `Quick test_golden_charge;
          Alcotest.test_case "donations" `Quick test_golden_donations;
          Alcotest.test_case "state rules" `Quick test_golden_state_rules;
          Alcotest.test_case "hierarchy weights" `Quick
            test_golden_hierarchy_weights;
          Alcotest.test_case "hierarchy runnability" `Quick
            test_golden_hierarchy_runnability;
          Alcotest.test_case "slot cache" `Quick test_golden_slot_cache;
          QCheck_alcotest.to_alcotest prop_clean_matches_report;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "audited hierarchy decision" `Quick
            test_audited_hierarchy_words;
          Alcotest.test_case "audited SFQ leaf decision" `Quick
            test_audited_leaf_words;
          Alcotest.test_case "audited decision words are O(1) in clients"
            `Quick test_audited_words_independent_of_clients;
        ] );
    ]
