(* Unit and property tests for the paper's core algorithm (lib/core/sfq).

   The property tests check the paper's central claims directly:
   - eq. 3 fairness bound for continuously backlogged clients, under
     arbitrary (adversarial) quantum lengths — i.e. fluctuating service;
   - proportional sharing in the long run;
   - virtual-time rules (busy: start tag in service; idle: max finish
     tag);
   - work conservation. *)

open Hsfq_core

let u = Hsfq_sched.Vtime.unit
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Drive one full quantum: select, assert it is [expect], charge [l]. *)
let step ?(runnable = true) sfq ~expect ~l =
  match Sfq.select_id sfq with
  | -1 -> Alcotest.fail "expected a selection"
  | id when id = expect -> Sfq.charge sfq ~id ~service:l ~runnable
  | id -> Alcotest.failf "expected client %d, got %d" expect id

(* ------------------------- unit tests ------------------------------- *)

let test_single_client () =
  let s = Sfq.create () in
  Sfq.arrive s ~id:1 ~weight:(2 * u);
  check_int "backlogged" 1 (Sfq.backlogged s);
  step s ~expect:1 ~l:10;
  check_int "finish = l/w" 5 (Sfq.finish_tag s ~id:1);
  check_int "next start = finish" 5 (Sfq.start_tag s ~id:1);
  step s ~expect:1 ~l:10;
  check_int "finish accumulates" 10 (Sfq.finish_tag s ~id:1)

let test_worked_example_tags () =
  (* §3: threads A (w=1) and B (w=2), 10 ms quanta. *)
  let s = Sfq.create () in
  Sfq.arrive s ~id:1 ~weight:(1 * u);
  Sfq.arrive s ~id:2 ~weight:(2 * u);
  check_int "S_A = 0" 0 (Sfq.start_tag s ~id:1);
  check_int "S_B = 0" 0 (Sfq.start_tag s ~id:2);
  (* FIFO tie-break: A (inserted first) runs first. *)
  step s ~expect:1 ~l:10;
  check_int "F_A = 10" 10 (Sfq.finish_tag s ~id:1);
  check_int "S_A = 10" 10 (Sfq.start_tag s ~id:1);
  step s ~expect:2 ~l:10;
  check_int "F_B = 5" 5 (Sfq.finish_tag s ~id:2);
  check_int "S_B = 5" 5 (Sfq.start_tag s ~id:2);
  step s ~expect:2 ~l:10;
  check_int "F_B = 10" 10 (Sfq.finish_tag s ~id:2);
  (* Tie at 10: A's entry is older. *)
  step s ~expect:1 ~l:10;
  step s ~expect:2 ~l:10;
  step s ~expect:2 ~l:10;
  (* After 60 ms: A has run 20, B 40 — exactly the paper's 1:2. *)
  check_int "F_A" 20 (Sfq.finish_tag s ~id:1);
  check_int "F_B" 20 (Sfq.finish_tag s ~id:2)

let test_virtual_time_busy () =
  let s = Sfq.create () in
  Sfq.arrive s ~id:1 ~weight:(1 * u);
  Sfq.arrive s ~id:2 ~weight:(1 * u);
  check_int "initial vt" 0 (Sfq.virtual_time s);
  match Sfq.select_id s with
  | -1 -> Alcotest.fail "selection expected"
  | id ->
    check_int "vt = start tag in service" (Sfq.start_tag s ~id)
      (Sfq.virtual_time s);
    Sfq.charge s ~id ~service:4 ~runnable:true

let test_virtual_time_idle () =
  let s = Sfq.create () in
  Sfq.arrive s ~id:1 ~weight:(1 * u);
  step s ~runnable:false ~expect:1 ~l:30;
  (* System idle: v = max finish tag. *)
  check_int "vt = max finish on idle" 30 (Sfq.virtual_time s);
  Sfq.arrive s ~id:2 ~weight:(1 * u);
  check_int "newcomer starts at vt" 30 (Sfq.start_tag s ~id:2)

let test_blocked_retains_finish_tag () =
  let s = Sfq.create () in
  Sfq.arrive s ~id:1 ~weight:(1 * u);
  Sfq.arrive s ~id:2 ~weight:(1 * u);
  step s ~expect:1 ~l:10 ~runnable:false;
  (* 2 runs alone for a while. *)
  step s ~expect:2 ~l:10;
  step s ~expect:2 ~l:10;
  step s ~expect:2 ~l:10;
  (* 1 returns: S = max(v, F_1) = max(20, 10) = 20 (no credit for sleep,
     no penalty either). *)
  Sfq.arrive s ~id:1 ~weight:(1 * u);
  check_int "resume start tag" 20 (Sfq.start_tag s ~id:1)

let test_blocked_arrive_applies_weight () =
  (* Regression: a blocked client returning with a different weight must
     be charged at that weight from its next quantum on (its class may
     have been re-administered while it slept). *)
  let s = Sfq.create () in
  Sfq.arrive s ~id:1 ~weight:(1 * u);
  Sfq.arrive s ~id:2 ~weight:(1 * u);
  step s ~expect:1 ~l:10 ~runnable:false;
  step s ~expect:2 ~l:10;
  Sfq.arrive s ~id:1 ~weight:(4 * u);
  check_int "new weight recorded" (4 * u) (Sfq.weight s ~id:1);
  (* Both re-queued at S=10; FIFO favours 2 (enqueued first). *)
  step s ~expect:2 ~l:10;
  step s ~expect:1 ~l:8;
  check_int "charged at the new weight" 12 (Sfq.finish_tag s ~id:1)

let test_arrive_idempotent () =
  let s = Sfq.create () in
  Sfq.arrive s ~id:1 ~weight:(1 * u);
  Sfq.arrive s ~id:1 ~weight:(999 * u);
  check_int "still one client" 1 (Sfq.backlogged s);
  step s ~expect:1 ~l:10;
  check_int "original weight used" 10 (Sfq.finish_tag s ~id:1)

let test_weight_change_future_only () =
  let s = Sfq.create () in
  Sfq.arrive s ~id:1 ~weight:(1 * u);
  step s ~expect:1 ~l:10;
  Sfq.set_weight s ~id:1 ~weight:(2 * u);
  step s ~expect:1 ~l:10;
  check_int "second quantum at new weight" 15 (Sfq.finish_tag s ~id:1)

let test_select_requires_charge () =
  let s = Sfq.create () in
  Sfq.arrive s ~id:1 ~weight:(1 * u);
  ignore (Sfq.select_id s);
  Alcotest.check_raises "charge of wrong client"
    (Invalid_argument "Sfq.charge: client not in service") (fun () ->
      Sfq.charge s ~id:99 ~service:1 ~runnable:true)

let test_depart_in_service_rejected () =
  let s = Sfq.create () in
  Sfq.arrive s ~id:1 ~weight:(1 * u);
  ignore (Sfq.select_id s);
  Alcotest.check_raises "depart while in service"
    (Invalid_argument "Sfq.depart: client in service") (fun () ->
      Sfq.depart s ~id:1)

let test_block_api () =
  let s = Sfq.create () in
  Sfq.arrive s ~id:1 ~weight:(1 * u);
  Sfq.arrive s ~id:2 ~weight:(1 * u);
  Sfq.block s ~id:2;
  check_int "blocked leaves ready set" 1 (Sfq.backlogged s);
  check_bool "not runnable" false (Sfq.is_runnable s ~id:2);
  step s ~expect:1 ~l:10;
  step s ~expect:1 ~l:10;
  Sfq.arrive s ~id:2 ~weight:(1 * u);
  (* Finish tag was preserved (0), so S = max(v, 0) = v. *)
  check_int "rejoin at current vt" 10 (Sfq.start_tag s ~id:2)

let test_depart_forgets () =
  let s = Sfq.create () in
  Sfq.arrive s ~id:1 ~weight:(1 * u);
  Sfq.depart s ~id:1;
  check_int "gone" 0 (Sfq.backlogged s);
  Alcotest.check_raises "tags of unknown client"
    (Invalid_argument "Sfq: unknown client 1") (fun () ->
      ignore (Sfq.start_tag s ~id:1))

let test_reincarnated_id_ignores_stale_entries () =
  (* Regression (found by the lib/check audit): depart leaves stale heap
     entries; a new client reusing the id must not validate them, or a
     select would pop an obsolete start tag and drag v(t) backwards. *)
  let s = Sfq.create () in
  Sfq.arrive s ~id:1 ~weight:(1 * u);
  Sfq.arrive s ~id:2 ~weight:(1 * u);
  (* 1 blocks mid-queue; 2 departs while its S=0 entry is queued. *)
  step s ~expect:1 ~l:2 ~runnable:false;
  Sfq.depart s ~id:2;
  (* System idle: v = max finish = 2. Id 2 is reborn, S = max(2, 0). *)
  Sfq.arrive s ~id:2 ~weight:(1 * u);
  check_int "reborn start tag" 2 (Sfq.start_tag s ~id:2);
  step s ~expect:2 ~l:2;
  check_int "vt never regressed" 2 (Sfq.virtual_time s);
  check_int "finish from the fresh tag" 4 (Sfq.finish_tag s ~id:2)

let test_invalid_arguments () =
  let s = Sfq.create () in
  Alcotest.check_raises "zero weight" (Invalid_argument "Sfq.arrive: weight <= 0")
    (fun () -> Sfq.arrive s ~id:1 ~weight:(0 * u));
  Sfq.arrive s ~id:1 ~weight:(1 * u);
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Sfq.set_weight: weight <= 0") (fun () ->
      Sfq.set_weight s ~id:1 ~weight:(-1 * u));
  ignore (Sfq.select_id s);
  Alcotest.check_raises "negative service"
    (Invalid_argument "Sfq.charge: negative service") (fun () ->
      Sfq.charge s ~id:1 ~service:(-5) ~runnable:true)

(* The float admin boundary rejects every weight that has no exact,
   positive unit count. *)
let test_weight_of_float_rejects () =
  let w = Hsfq_sched.Vtime.weight_of_float in
  List.iter
    (fun (what, x) ->
      check_bool what true
        (match w x with _ -> false | exception Invalid_argument _ -> true))
    [
      ("nan", Float.nan);
      ("+inf", Float.infinity);
      ("-inf", Float.neg_infinity);
      ("zero", 0.);
      ("negative", -1.);
      ("rounds to 0 units", 4e-7);
      ("above 1e9", 2e9);
    ];
  check_int "1.0 is one unit scale" u (w 1.0);
  check_int "0.96 is exact" 960_000 (w 0.96);
  check_int "smallest weight" 1 (w 1e-6)

(* A charge whose l·unit or whose tag would pass max_int raises and
   leaves the scheduler as it was; nothing wraps. *)
let test_overflow_raises () =
  let s = Sfq.create () in
  Sfq.arrive s ~id:1 ~weight:1 (* one unit: the steepest tags *);
  let horizon = max_int / u (* largest service with l·unit <= max_int *) in
  ignore (Sfq.select_id s);
  Alcotest.check_raises "l·unit past max_int"
    (Invalid_argument "Vtime.step: service * unit overflows") (fun () ->
      Sfq.charge s ~id:1 ~service:(horizon + 1) ~runnable:true);
  check_int "finish tag untouched" 0 (Sfq.finish_tag s ~id:1);
  (* The claim survived the failed charge: a legal one goes through. *)
  Sfq.charge s ~id:1 ~service:(horizon / 2 + 1) ~runnable:true;
  check_int "tag is l·unit / 1" ((horizon / 2 + 1) * u) (Sfq.finish_tag s ~id:1);
  ignore (Sfq.select_id s);
  Alcotest.check_raises "tag past max_int"
    (Invalid_argument "Vtime.add: tag overflows max_int") (fun () ->
      Sfq.charge s ~id:1 ~service:(horizon / 2 + 1) ~runnable:true);
  check_bool "v(t) non-negative" true (Sfq.virtual_time s >= 0)

let test_donation () =
  let s = Sfq.create () in
  Sfq.arrive s ~id:1 ~weight:(3 * u);
  Sfq.arrive s ~id:2 ~weight:(1 * u);
  (* 1 blocks on a resource held by 2: donate 1's weight to 2. *)
  Sfq.donate s ~blocked:1 ~recipient:2;
  step s ~expect:1 ~l:12;
  step s ~expect:2 ~l:12;
  (* 2 was charged at effective weight 1 + 3 = 4. *)
  check_int "donated weight" 3 (Sfq.finish_tag s ~id:2);
  Sfq.revoke s ~blocked:1;
  step s ~expect:2 ~l:12;
  check_int "after revoke, back to own weight" 15 (Sfq.finish_tag s ~id:2)

let test_donation_replaced () =
  let s = Sfq.create () in
  Sfq.arrive s ~id:1 ~weight:(2 * u);
  Sfq.arrive s ~id:2 ~weight:(1 * u);
  Sfq.arrive s ~id:3 ~weight:(1 * u);
  Sfq.donate s ~blocked:1 ~recipient:2;
  (* Re-donating from the same blocker moves the donation. *)
  Sfq.donate s ~blocked:1 ~recipient:3;
  step s ~expect:1 ~l:4;
  step s ~expect:2 ~l:4;
  check_int "2 back to weight 1" 4 (Sfq.finish_tag s ~id:2);
  step s ~expect:3 ~l:3;
  check_int "3 has 1+2" 1 (Sfq.finish_tag s ~id:3)

let test_self_donation_rejected () =
  let s = Sfq.create () in
  Sfq.arrive s ~id:1 ~weight:(1 * u);
  Alcotest.check_raises "self donation" (Invalid_argument "Sfq.donate: self-donation")
    (fun () -> Sfq.donate s ~blocked:1 ~recipient:1)

let test_fifo_tie_break_deterministic () =
  let s = Sfq.create () in
  for i = 1 to 5 do
    Sfq.arrive s ~id:i ~weight:(1 * u)
  done;
  let order =
    List.init 5 (fun _ ->
        match Sfq.select_id s with
        | -1 -> Alcotest.fail "selection expected"
        | id ->
          Sfq.charge s ~id ~service:1 ~runnable:true;
          id)
  in
  Alcotest.(check (list int)) "FIFO among equal tags" [ 1; 2; 3; 4; 5 ] order

(* ----------------------- property tests ----------------------------- *)

(* Random quantum lengths model fluctuating service: the integer eq. 3
   bound (Hsfq_check.Sfq_rules.fair_window, doc/INVARIANTS.md) must hold
   at every prefix for two continuously backlogged clients. *)
let fair_window = Hsfq_check.Sfq_rules.fair_window
let wt = Hsfq_sched.Vtime.weight_of_float

let prop_fairness_bound =
  QCheck.Test.make ~name:"eq. 3 fairness bound (2 clients, adversarial quanta)"
    ~count:300
    QCheck.(
      pair
        (pair (float_range 0.1 10.) (float_range 0.1 10.))
        (list_of_size (Gen.int_range 10 200) (int_range 1 5_000)))
    (fun ((w1, w2), quanta) ->
      let w1 = wt w1 and w2 = wt w2 in
      let s = Sfq.create () in
      Sfq.arrive s ~id:1 ~weight:w1;
      Sfq.arrive s ~id:2 ~weight:w2;
      let work = [| 0; 0 |] in
      let lmax = [| 0; 0 |] in
      List.for_all
        (fun l ->
          match Sfq.select_id s with
          | -1 -> false
          | id ->
            Sfq.charge s ~id ~service:l ~runnable:true;
            work.(id - 1) <- work.(id - 1) + l;
            if l > lmax.(id - 1) then lmax.(id - 1) <- l;
            (* Before a client has run, credit it with the largest
               quantum seen so far. *)
            let m = Int.max lmax.(0) lmax.(1) in
            let l1 = if lmax.(0) = 0 then m else lmax.(0) in
            let l2 = if lmax.(1) = 0 then m else lmax.(1) in
            fair_window ~w_f:w1 ~work_f:work.(0) ~l_f:l1 ~w_m:w2
              ~work_m:work.(1) ~l_m:l2)
        quanta)

(* The pairwise bound must hold between EVERY pair of continuously
   backlogged clients, not just two. *)
let prop_fairness_bound_n_clients =
  QCheck.Test.make ~name:"eq. 3 bound pairwise over 5 clients" ~count:100
    QCheck.(list_of_size (Gen.int_range 50 300) (int_range 1 4_000))
    (fun quanta ->
      let n = 5 in
      let s = Sfq.create () in
      let weights = Array.init n (fun i -> wt (0.5 +. float_of_int i)) in
      Array.iteri (fun i w -> Sfq.arrive s ~id:i ~weight:w) weights;
      let work = Array.make n 0 in
      let lmax = Array.make n 0 in
      let bound_ok () =
        let m = Array.fold_left Int.max 0 lmax in
        let l i = if lmax.(i) = 0 then m else lmax.(i) in
        let ok = ref true in
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            if
              not
                (fair_window ~w_f:weights.(i) ~work_f:work.(i) ~l_f:(l i)
                   ~w_m:weights.(j) ~work_m:work.(j) ~l_m:(l j))
            then ok := false
          done
        done;
        !ok
      in
      List.for_all
        (fun q ->
          match Sfq.select_id s with
          | -1 -> false
          | id ->
            Sfq.charge s ~id ~service:q ~runnable:true;
            work.(id) <- work.(id) + q;
            if q > lmax.(id) then lmax.(id) <- q;
            bound_ok ())
        quanta)

let prop_proportional_share =
  QCheck.Test.make ~name:"long-run shares proportional to weights" ~count:100
    QCheck.(pair (float_range 0.5 8.) (float_range 0.5 8.))
    (fun (w1, w2) ->
      let s = Sfq.create () in
      Sfq.arrive s ~id:1 ~weight:(wt w1);
      Sfq.arrive s ~id:2 ~weight:(wt w2);
      let work = [| 0; 0 |] in
      for _ = 1 to 5000 do
        match Sfq.select_id s with
        | -1 -> ()
        | id ->
          Sfq.charge s ~id ~service:1 ~runnable:true;
          work.(id - 1) <- work.(id - 1) + 1
      done;
      let expected = w1 /. w2 in
      let actual = float_of_int work.(0) /. float_of_int work.(1) in
      Float.abs (actual -. expected) /. expected < 0.02)

let prop_virtual_time_monotonic =
  QCheck.Test.make ~name:"virtual time never decreases" ~count:200
    QCheck.(list_of_size (Gen.int_range 20 150) (int_bound 3))
    (fun ops ->
      let s = Sfq.create () in
      for i = 0 to 3 do
        Sfq.arrive s ~id:i ~weight:((i + 1) * u)
      done;
      let prev = ref (-1) in
      List.for_all
        (fun op ->
          (* [op] names the client that blocks after the next quantum
             and is then woken again — exercising idle transitions. *)
          (match Sfq.select_id s with
          | -1 -> ()
          | id -> Sfq.charge s ~id ~service:2 ~runnable:(id <> op));
          Sfq.arrive s ~id:op ~weight:u;
          let vt = Sfq.virtual_time s in
          let ok = vt >= !prev in
          prev := vt;
          ok)
        ops)

let prop_work_conserving =
  QCheck.Test.make ~name:"select succeeds iff backlogged" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 100) (pair (int_bound 4) bool))
    (fun ops ->
      let s = Sfq.create () in
      let runnable = Array.make 5 false in
      List.for_all
        (fun (i, wake) ->
          if wake then begin
            Sfq.arrive s ~id:i ~weight:u;
            runnable.(i) <- true
          end;
          let n = Array.fold_left (fun a b -> if b then a + 1 else a) 0 runnable in
          if Sfq.backlogged s <> n then false
          else begin
            match Sfq.select_id s with
            | -1 -> n = 0
            | id ->
              (* The selected client blocks when it matches [i] and the
                 coin came up tails. *)
              let still = wake || i <> id in
              Sfq.charge s ~id ~service:1 ~runnable:still;
              if not still then runnable.(id) <- false;
              true
          end)
        ops)

(* Integer tags against a long horizon: after a million 20 ms quanta
   (~5.5 simulated hours) the ratio is exactly 1:3 and the virtual
   clock is exactly the weight-1.0 client's service — no drift. *)
let test_long_run_no_drift () =
  let s = Sfq.create () in
  Sfq.arrive s ~id:1 ~weight:u;
  Sfq.arrive s ~id:2 ~weight:(3 * u);
  let q = 20_000_000 (* 20 ms in ns *) in
  let work = [| 0; 0 |] in
  for _ = 1 to 1_000_000 do
    match Sfq.select_id s with
    | -1 -> Alcotest.fail "selection expected"
    | id ->
      Sfq.charge s ~id ~service:q ~runnable:true;
      work.(id - 1) <- work.(id - 1) + q
  done;
  check_int "exact 1:3 after 1M quanta" (3 * work.(0)) work.(1);
  check_int "weight-1.0 tag is its service" work.(0) (Sfq.finish_tag s ~id:1);
  (* 20 ms / 3 is not a whole unit: the carried remainder keeps the
     cumulative tag exact anyway. *)
  check_int "weight-3.0 tag is exactly its service / 3" (work.(1) / 3)
    (Sfq.finish_tag s ~id:2)

(* Donations compose and revoke cleanly: after arbitrary donate/revoke
   sequences, revoking every blocker restores base-weight charging. *)
let prop_donations_revocable =
  QCheck.Test.make ~name:"donations always fully revocable" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 60) (pair (int_bound 3) (int_bound 3)))
    (fun ops ->
      let s = Sfq.create () in
      for i = 0 to 3 do
        Sfq.arrive s ~id:i ~weight:((i + 1) * u)
      done;
      List.iter
        (fun (b, r) -> if b <> r then Sfq.donate s ~blocked:b ~recipient:r)
        ops;
      for b = 0 to 3 do
        Sfq.revoke s ~blocked:b
      done;
      (* Every client now charges at its base weight again. *)
      List.for_all
        (fun _ ->
          match Sfq.select_id s with
          | -1 -> false
          | id ->
            let start = Sfq.start_tag s ~id in
            Sfq.charge s ~id ~service:(id + 1) ~runnable:true;
            (* service = weight, so the finish tag moves exactly 1. *)
            Sfq.finish_tag s ~id = start + 1)
        [ (); (); (); (); (); (); (); () ])

(* Theorem 1 proper: the integer bound holds over EVERY window in which
   both clients are continuously backlogged, not just prefixes from time
   zero. Cumulative work is sampled at each quantum boundary and all
   O(n^2) windows are checked with [<=] against the integer form (with
   the per-client maximum quantum relaxed to the global maximum, which
   only loosens the bound). *)
let prop_windowed_unfairness =
  QCheck.Test.make
    ~name:"Theorem 1 bound over every backlogged window" ~count:100
    QCheck.(
      pair
        (pair (float_range 0.5 4.) (float_range 0.5 4.))
        (list_of_size (Gen.int_range 20 150) (int_range 1 2_000)))
    (fun ((w1, w2), quanta) ->
      let w1 = wt w1 and w2 = wt w2 in
      let s = Sfq.create () in
      Sfq.arrive s ~id:1 ~weight:w1;
      Sfq.arrive s ~id:2 ~weight:w2;
      let work = [| 0; 0 |] in
      let lmax = ref 0 in
      let hist = ref [ (0, 0) ] in
      List.iter
        (fun l ->
          (match Sfq.select_id s with
          | -1 -> ()
          | id ->
            Sfq.charge s ~id ~service:l ~runnable:true;
            work.(id - 1) <- work.(id - 1) + l;
            if l > !lmax then lmax := l);
          hist := (work.(0), work.(1)) :: !hist)
        quanta;
      let pts = Array.of_list (List.rev !hist) in
      let n = Array.length pts in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let a1, a2 = pts.(i) and b1, b2 = pts.(j) in
          if
            not
              (fair_window ~w_f:w1 ~work_f:(b1 - a1) ~l_f:!lmax ~w_m:w2
                 ~work_m:(b2 - a2) ~l_m:!lmax)
          then ok := false
        done
      done;
      !ok)

(* Random legal op sequences through the audited wrapper: whatever the
   interleaving of arrivals, quanta, blocking, weight changes, donation
   and departure, the lib/check invariants must never fire. *)
let prop_audited_never_trips =
  QCheck.Test.make
    ~name:"random op sequences trip no lib/check invariant" ~count:300
    QCheck.(
      list_of_size (Gen.int_range 1 120) (pair (int_bound 5) (int_bound 6)))
    (fun ops ->
      let module A = Hsfq_check.Audited.Sfq in
      let sink = Hsfq_check.Invariant.create () in
      let s = A.create ~node:"prop" ~sink () in
      List.iter
        (fun (id, op) ->
          let id = id + 1 in
          match op with
          | 0 | 1 -> A.arrive s ~id ~weight:((1 + (id mod 4)) * u)
          | 2 -> (
            match A.select_id s with
            | -1 -> ()
            | sel ->
              A.charge s ~id:sel ~service:(1 + id) ~runnable:(id mod 2 = 0))
          | 3 -> if A.mem s ~id then A.block s ~id
          | 4 -> if A.mem s ~id then A.set_weight s ~id ~weight:(id * u)
          | 5 ->
            let r = 1 + (id mod 6) in
            if r <> id && A.mem s ~id && A.mem s ~id:r then
              A.donate s ~blocked:id ~recipient:r
          | _ ->
            A.revoke s ~blocked:id;
            if A.mem s ~id then A.depart s ~id)
        ops;
      Hsfq_check.Invariant.count sink = 0)

(* Differential oracle: drive the optimized implementation (under the
   full lib/check audit) and the naive reference (lib/check/sfq_reference)
   through identical random op sequences and require tag-for-tag
   agreement after every step. This pins the flat-array representation
   (dense tables, lazy heap deletion, generation validation, compaction)
   to the paper's specification: any divergence in selection order,
   tags, virtual time or bookkeeping fails immediately. *)
(* Interpret one random op sequence against both implementations,
   true iff they agree after every step.  Shared by the QCheck property
   and the Par.sweep batch below. *)
let differential_agrees ops =
  let module A = Hsfq_check.Audited.Sfq in
  let module R = Hsfq_check.Sfq_reference in
  let s = A.create ~node:"diff" () in
  let r = R.create () in
      let agree () =
        A.backlogged s = R.backlogged r
        && A.virtual_time s = R.virtual_time r
        && Sfq.max_finish_tag (A.inner s) = R.max_finish_tag r
        && List.for_all
             (fun id ->
               A.mem s ~id = R.mem r ~id
               && (not (A.mem s ~id)
                  || A.start_tag s ~id = R.start_tag r ~id
                     && A.finish_tag s ~id = R.finish_tag r ~id
                     && Sfq.effective_weight_of (A.inner s) ~id
                        = R.effective_weight_of r ~id
                     && A.is_runnable s ~id = R.is_runnable r ~id))
             [ 1; 2; 3; 4; 5; 6 ]
      in
      List.for_all
        (fun (id, op) ->
          let id = id + 1 in
          let stepped =
            match op with
            | 0 | 1 ->
              (* Weights that do not divide l·unit exercise the
                 carried remainders. *)
              let weight = (1 + (id mod 4)) * u / 3 in
              A.arrive s ~id ~weight;
              R.arrive r ~id ~weight;
              true
            | 2 -> (
              match (A.select_id s, R.select r) with
              | -1, None -> true
              | a, Some b when a = b ->
                let service = 1 + id in
                let runnable = id mod 2 = 0 in
                A.charge s ~id:a ~service ~runnable;
                R.charge r ~id:b ~service ~runnable;
                true
              | _ -> false (* selections diverged *))
            | 3 ->
              if A.mem s ~id then begin
                A.block s ~id;
                R.block r ~id
              end;
              true
            | 4 ->
              if A.mem s ~id then begin
                let weight = id * u / 7 in
                A.set_weight s ~id ~weight;
                R.set_weight r ~id ~weight
              end;
              true
            | 5 ->
              let recipient = 1 + (id mod 6) in
              if recipient <> id && A.mem s ~id && A.mem s ~id:recipient then begin
                A.donate s ~blocked:id ~recipient;
                R.donate r ~blocked:id ~recipient
              end;
              true
            | _ ->
              A.revoke s ~blocked:id;
              R.revoke r ~blocked:id;
              if A.mem s ~id then begin
                A.depart s ~id;
                R.depart r ~id
              end;
              true
          in
          stepped && agree ())
        ops

let prop_matches_naive_reference =
  QCheck.Test.make
    ~name:"optimized Sfq agrees with the naive reference, tag for tag"
    ~count:400
    QCheck.(
      list_of_size (Gen.int_range 1 150) (pair (int_bound 5) (int_bound 6)))
    differential_agrees

(* The same oracle against the protocol the hierarchy runs: [select_id]
   (sentinel -1 for "no client") and the slot-keyed [arrive_slot] /
   [charge_slot] for known clients. Drive that exact shape against the
   naive reference so the slot entry points are pinned to the same
   specification as the id-keyed ones, not just assumed equivalent. *)
let slot_differential_agrees ops =
  let module R = Hsfq_check.Sfq_reference in
  let s = Sfq.create () in
  let r = R.create () in
  let agree () =
    Sfq.backlogged s = R.backlogged r
    && Sfq.virtual_time s = R.virtual_time r
    && Sfq.max_finish_tag s = R.max_finish_tag r
    && List.for_all
         (fun id ->
           Sfq.mem s ~id = R.mem r ~id
           && (not (Sfq.mem s ~id)
              || Sfq.start_tag s ~id = R.start_tag r ~id
                 && Sfq.finish_tag s ~id = R.finish_tag r ~id
                 && Sfq.is_runnable s ~id = R.is_runnable r ~id))
         [ 1; 2; 3; 4; 5; 6 ]
  in
  List.for_all
    (fun (id, op) ->
      let id = id + 1 in
      let stepped =
        match op with
        | 0 | 1 ->
          let weight = (1 + (id mod 4)) * u / 3 in
          let slot = Sfq.slot_of_id s ~id in
          if slot < 0 then Sfq.arrive s ~id ~weight
          else Sfq.arrive_slot s ~slot ~weight;
          R.arrive r ~id ~weight;
          true
        | 2 -> (
          let a = Sfq.select_id s in
          match (a, R.select r) with
          | -1, None -> true
          | a, Some b when a = b ->
            let service = 1 + id in
            let runnable = id mod 2 = 0 in
            Sfq.charge_slot s ~slot:(Sfq.slot_of_id s ~id:a) ~service ~runnable;
            R.charge r ~id:b ~service ~runnable;
            true
          | _ -> false (* selections diverged *))
        | 3 ->
          if Sfq.mem s ~id then begin
            Sfq.block s ~id;
            R.block r ~id
          end;
          true
        | _ ->
          if Sfq.mem s ~id then begin
            Sfq.depart s ~id;
            R.depart r ~id
          end;
          true
      in
      stepped && agree ())
    ops

let prop_slot_protocol_matches_naive_reference =
  QCheck.Test.make
    ~name:
      "sentinel-id/staged protocol agrees with the naive reference, tag for tag"
    ~count:400
    QCheck.(
      list_of_size (Gen.int_range 1 150) (pair (int_bound 5) (int_bound 4)))
    slot_differential_agrees

(* The flat id index under churn. The id pool mixes three families:
   dense small ids; ids whose Fibonacci hash (the one [Sfq] uses, the
   top bits of [id * 2^63/phi]) lands on the last cell of every table up
   to 1024 cells, so their probe runs collide and wrap past cell 0; and
   ids next to [max_int], where the multiply wraps. Ops arrive, admit,
   wake, block, depart, re-weight and dispatch, and a burst/purge pair
   grows the table past 64 slots and drains it so compaction rebuilds
   the index. After every op the Sfq must agree with the naive reference
   on tags and with a naive membership/weight map on every id, and
   [slot_of_id]/[id_of_slot] must round-trip. *)
let id_pool =
  let colliding =
    let hits = ref [] and id = ref 1_000 in
    while List.length !hits < 64 do
      if (!id * 0x4F1BBCDCBFA53E0B) lsr 53 = 1023 then hits := !id :: !hits;
      incr id
    done;
    List.rev !hits
  in
  Array.of_list
    (List.init 64 Fun.id @ colliding @ List.init 64 (fun k -> max_int - k))

let index_churn_agrees ops =
  let module R = Hsfq_check.Sfq_reference in
  let s = Sfq.create () and r = R.create () in
  let known : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let weight_for id = (1 + (abs id mod 5)) * u / 3 in
  let arrive id =
    (* The weight applies unless the client is already runnable. *)
    let weight = weight_for id in
    if not (Hashtbl.mem known id && R.is_runnable r ~id) then
      Hashtbl.replace known id weight;
    Sfq.arrive s ~id ~weight;
    R.arrive r ~id ~weight
  in
  let depart id =
    Sfq.depart s ~id;
    R.depart r ~id;
    Hashtbl.remove known id
  in
  let agree () =
    Sfq.live_clients s = Hashtbl.length known
    && Sfq.backlogged s = R.backlogged r
    && Sfq.virtual_time s = R.virtual_time r
    && Array.for_all
         (fun id ->
           let slot = Sfq.slot_of_id s ~id in
           match Hashtbl.find_opt known id with
           | None -> slot = -1 && (not (Sfq.mem s ~id)) && not (R.mem r ~id)
           | Some w ->
             slot >= 0
             && Sfq.id_of_slot s ~slot = id
             && Sfq.weight s ~id = w
             && R.mem r ~id
             && Sfq.start_tag s ~id = R.start_tag r ~id
             && Sfq.finish_tag s ~id = R.finish_tag r ~id
             && Sfq.is_runnable s ~id = R.is_runnable r ~id)
         id_pool
  in
  List.for_all
    (fun (op, i) ->
      let id = id_pool.(i mod Array.length id_pool) in
      let is_known = Hashtbl.mem known id in
      (match op with
      | 0 -> arrive id
      | 1 ->
        if not is_known then begin
          let weight = weight_for id in
          Sfq.admit s ~id ~weight;
          R.arrive r ~id ~weight;
          R.block r ~id;
          Hashtbl.replace known id weight
        end
      | 2 -> (
        match Hashtbl.find_opt known id with
        | Some weight ->
          Sfq.wake s ~id;
          R.arrive r ~id ~weight
        | None -> ())
      | 3 ->
        if is_known then begin
          Sfq.block s ~id;
          R.block r ~id
        end
      | 4 -> if is_known then depart id
      | 5 ->
        if is_known then begin
          let weight = 1 + (i * u / 7) in
          Sfq.set_weight s ~id ~weight;
          R.set_weight r ~id ~weight;
          Hashtbl.replace known id weight
        end
      | 6 -> (
        match (Sfq.select_id s, R.select r) with
        | -1, None -> ()
        | a, Some b when a = b ->
          Sfq.charge s ~id:a ~service:(1 + i) ~runnable:(i mod 2 = 0);
          R.charge r ~id:b ~service:(1 + i) ~runnable:(i mod 2 = 0)
        | _ -> Hashtbl.replace known (-1) 0 (* diverged: fails [agree] *))
      | 7 ->
        (* Burst: admit 96 pool ids from [i] on. *)
        for k = 0 to 95 do
          let id = id_pool.((i + k) mod Array.length id_pool) in
          if not (Hashtbl.mem known id) then arrive id
        done
      | _ ->
        (* Purge down to at most four clients. *)
        let ids = Hashtbl.fold (fun id _ acc -> id :: acc) known [] in
        List.iteri (fun k id -> if k >= 4 then depart id) (List.sort Int.compare ids));
      agree ())
    ops

let prop_id_index_churn =
  QCheck.Test.make
    ~name:"id index under churn: colliding and near-max_int ids, compaction"
    ~count:150
    QCheck.(
      list_of_size (Gen.int_range 1 200) (pair (int_bound 8) (int_bound 191)))
    index_churn_agrees

(* The same differential driven as a seeded batch through the domain
   pool: each task's op sequence comes from its own Prng substream, so
   every verdict is a pure function of (seed, task index) — jobs=1 and
   jobs=4 must agree entry for entry, and every sequence must pass. *)
let test_differential_parallel_batch () =
  let module Prng = Hsfq_engine.Prng in
  let gen_ops rng =
    let n = 1 + Prng.int rng 150 in
    List.init n (fun _ -> (Prng.int rng 6, Prng.int rng 7))
  in
  let run jobs =
    Hsfq_par.Par.sweep_seeded ~jobs ~rng:(Prng.create 2026)
      ~tasks:(Array.init 64 (fun i -> i))
      (fun ~rng _i -> differential_agrees (gen_ops rng))
  in
  let serial = run 1 in
  Array.iteri
    (fun i ok ->
      Alcotest.(check bool) (Printf.sprintf "sequence %d agrees" i) true ok)
    serial;
  Alcotest.(check (array bool)) "jobs 1 = jobs 2" serial (run 2);
  Alcotest.(check (array bool)) "jobs 1 = jobs 4" serial (run 4)

(* ---------------- churn, compaction and slot remapping ----------------- *)

(* Churn storm at Q = 10^4: arrive ten thousand clients in both the
   optimized implementation and the naive reference, tear 7/8 of them
   down in a seed-randomized order — forcing repeated occupancy
   compactions — and require tag-for-tag agreement on every survivor
   plus selection agreement on interleaved decisions. The reference
   (and its backlogged-count bookkeeping) is O(n) per op, so decisions
   are spot-checked every 256 departures rather than per-op, and the
   per-op audit wrapper is left to the smaller differential properties
   above. *)
let prop_churn_storm_matches_reference =
  QCheck.Test.make ~name:"Q=10^4 churn storm matches naive reference"
    ~count:3
    QCheck.(int_range 0 1000)
    (fun seed ->
      let module R = Hsfq_check.Sfq_reference in
      let q = 10_000 in
      let rng = Hsfq_engine.Prng.create (0x9e37 + seed) in
      let s = Sfq.create () in
      let r = R.create () in
      for id = 0 to q - 1 do
        let w = (1 + (id mod 7)) * u in
        Sfq.arrive s ~id ~weight:w;
        R.arrive r ~id ~weight:w
      done;
      let cap_full = Sfq.capacity s in
      (* Fisher-Yates under the seeded stream: the first [departs]
         entries of [order] are the departure sequence, the tail is the
         survivor set. *)
      let order = Array.init q (fun i -> i) in
      for i = q - 1 downto 1 do
        let j = Hsfq_engine.Prng.int_in rng 0 i in
        let tmp = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- tmp
      done;
      let departs = q - (q / 8) in
      let ok = ref true in
      for k = 0 to departs - 1 do
        let id = order.(k) in
        Sfq.depart s ~id;
        R.depart r ~id;
        if k mod 256 = 0 then
          match (Sfq.select_id s, R.select r) with
          | -1, None -> ()
          | a, Some b when a = b ->
            Sfq.charge s ~id:a ~service:1 ~runnable:true;
            R.charge r ~id:a ~service:1 ~runnable:true
          | _ -> ok := false
      done;
      ok := !ok && Sfq.backlogged s = R.backlogged r;
      ok := !ok && Sfq.virtual_time s = R.virtual_time r;
      for k = departs to q - 1 do
        let id = order.(k) in
        ok :=
          !ok && Sfq.mem s ~id && R.mem r ~id
          && Sfq.start_tag s ~id = R.start_tag r ~id
          && Sfq.finish_tag s ~id = R.finish_tag r ~id
      done;
      (* The table must have compacted: capacity tracks the survivors,
         not the high-water mark of the storm. *)
      ok := !ok && Sfq.capacity s < cap_full;
      (* Post-storm decisions through the compacted table still agree. *)
      for _ = 1 to 200 do
        match (Sfq.select_id s, R.select r) with
        | a, Some b when a = b ->
          Sfq.charge s ~id:a ~service:1 ~runnable:true;
          R.charge r ~id:a ~service:1 ~runnable:true
        | _ -> ok := false
      done;
      !ok)

(* Capacity must follow live occupancy in both directions: grow with
   arrivals, release on sustained departure (within the 2x hysteresis
   headroom), never fall below the live population, and regrow cleanly
   after a release. *)
let test_capacity_tracks_churn () =
  let s = Sfq.create () in
  for id = 0 to 4095 do
    Sfq.arrive s ~id ~weight:u
  done;
  let cap_full = Sfq.capacity s in
  let fp_full = Sfq.footprint_words s in
  check_bool "capacity covers the population" true (cap_full >= 4096);
  for id = 0 to 4095 - 256 do
    Sfq.depart s ~id
  done;
  check_int "live after the storm" 256 (Sfq.live_clients s);
  (* One decision lets the lazy heap discard the stale majority it still
     queues for the departed clients (and release their arrays). *)
  (match Sfq.select_id s with
  | -1 -> Alcotest.fail "expected a runnable client"
  | id -> Sfq.charge s ~id ~service:1 ~runnable:true);
  let cap_small = Sfq.capacity s in
  check_bool "capacity released" true (cap_small < cap_full);
  check_bool "capacity still covers live" true
    (cap_small >= Sfq.live_clients s);
  check_bool "footprint released" true (4 * Sfq.footprint_words s < fp_full);
  for id = 10_000 to 10_000 + 4095 do
    Sfq.arrive s ~id ~weight:u
  done;
  check_bool "capacity regrows" true (Sfq.capacity s >= 4096);
  match Sfq.select_id s with
  | -1 -> Alcotest.fail "expected a runnable client after regrowth"
  | id -> Sfq.charge s ~id ~service:1 ~runnable:true

(* Slot remapping under audit: slots cached through {!Sfq.slot_of_id}
   must be kept coherent by the on-remap callback across a compaction
   storm, agree with the table in both directions afterwards, and the
   survivors must still dispatch with no invariant trips. *)
let test_remap_keeps_slots_dispatchable () =
  let module A = Hsfq_check.Audited.Sfq in
  let sink = Hsfq_check.Invariant.create () in
  let s = A.create ~node:"remap" ~sink () in
  let inner = A.inner s in
  let cached = Hashtbl.create 64 in
  Sfq.set_on_remap inner (Some (fun ~id ~slot -> Hashtbl.replace cached id slot));
  for id = 0 to 1023 do
    A.arrive s ~id ~weight:((1 + (id mod 4)) * u)
  done;
  (* Depart everything but the multiples of 64: occupancy drops far
     below a quarter of capacity, forcing several compactions. *)
  for id = 0 to 1023 do
    if id mod 64 <> 0 then A.depart s ~id
  done;
  check_bool "compaction fired" true (Hashtbl.length cached > 0);
  check_bool "capacity released" true (Sfq.capacity inner < 1024);
  Hashtbl.iter
    (fun id slot ->
      (* Ids that departed after an earlier compaction linger in the
         cache; only live ones must agree. *)
      if Sfq.mem inner ~id then begin
        check_int (Printf.sprintf "slot_of_id %d" id) slot
          (Sfq.slot_of_id inner ~id);
        check_int
          (Printf.sprintf "id_of_slot %d" slot)
          id
          (Sfq.id_of_slot inner ~slot)
      end)
    cached;
  for _ = 1 to 200 do
    match A.select_id s with
    | -1 -> Alcotest.fail "survivors must stay schedulable"
    | id ->
      check_int "selection is a survivor" 0 (id mod 64);
      A.charge s ~id ~service:1 ~runnable:true
  done;
  check_int "no invariant violations" 0 (Hsfq_check.Invariant.count sink)

(* A compaction drops the departed clients' ready-heap entries, and
   every other stale one, so the first decisions after a departure storm
   pop no dead entry. 504 clients (capacity 512) lose 7/8: compactions
   fire at 127 live clients (to capacity 256) and at the last departure
   (63 live, capacity 128). Blocked clients leave stale entries on live
   slots too. After each compaction the heap holds exactly the runnable
   clients, and the selections match the naive reference throughout. *)
let test_compaction_drops_dead_entries () =
  let module R = Hsfq_check.Sfq_reference in
  let s = Sfq.create () and r = R.create () in
  let n = 504 in
  let decide k =
    for _ = 1 to k do
      match (Sfq.select_id s, R.select r) with
      | -1, None -> ()
      | a, Some b when a = b ->
        let service = 1 + (a mod 7) in
        Sfq.charge s ~id:a ~service ~runnable:true;
        R.charge r ~id:b ~service ~runnable:true
      | a, b ->
        Alcotest.failf "selection %d, reference %s" a
          (match b with Some b -> string_of_int b | None -> "none")
    done
  in
  for id = 0 to n - 1 do
    let weight = (1 + (id mod 5)) * u / 2 in
    Sfq.arrive s ~id ~weight;
    R.arrive r ~id ~weight
  done;
  decide 1000;
  for id = 0 to n - 1 do
    if id mod 8 = 3 then begin
      Sfq.block s ~id;
      R.block r ~id
    end
  done;
  let compactions = ref 0 in
  for id = 0 to n - 1 do
    if id mod 8 <> 0 then begin
      let cap = Sfq.capacity s in
      Sfq.depart s ~id;
      R.depart r ~id;
      if Sfq.capacity s < cap then begin
        incr compactions;
        check_int "heap holds exactly the runnable clients" (Sfq.backlogged s)
          (Sfq.queued s)
      end
    end
  done;
  check_int "two compactions" 2 !compactions;
  check_int "live after the storm" (n / 8) (Sfq.live_clients s);
  check_int "runnable after the storm" (n / 8) (Sfq.queued s);
  decide 2000;
  check_int "virtual time" (R.virtual_time r) (Sfq.virtual_time s)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "sfq"
    [
      ( "unit",
        [
          Alcotest.test_case "single client tags" `Quick test_single_client;
          Alcotest.test_case "paper's worked example" `Quick test_worked_example_tags;
          Alcotest.test_case "vt while busy" `Quick test_virtual_time_busy;
          Alcotest.test_case "vt while idle" `Quick test_virtual_time_idle;
          Alcotest.test_case "blocked client keeps finish tag" `Quick
            test_blocked_retains_finish_tag;
          Alcotest.test_case "blocked arrive applies the new weight" `Quick
            test_blocked_arrive_applies_weight;
          Alcotest.test_case "arrive is idempotent" `Quick test_arrive_idempotent;
          Alcotest.test_case "weight change affects future quanta" `Quick
            test_weight_change_future_only;
          Alcotest.test_case "charge must match selection" `Quick
            test_select_requires_charge;
          Alcotest.test_case "depart of in-service client rejected" `Quick
            test_depart_in_service_rejected;
          Alcotest.test_case "block of non-in-service client" `Quick test_block_api;
          Alcotest.test_case "depart forgets the client" `Quick test_depart_forgets;
          Alcotest.test_case "reincarnated id ignores stale queue entries" `Quick
            test_reincarnated_id_ignores_stale_entries;
          Alcotest.test_case "invalid arguments rejected" `Quick
            test_invalid_arguments;
          Alcotest.test_case "misuse: weight_of_float rejects bad weights" `Quick
            test_weight_of_float_rejects;
          Alcotest.test_case "misuse: overflowing charge raises" `Quick
            test_overflow_raises;
          Alcotest.test_case "weight donation (priority inversion)" `Quick
            test_donation;
          Alcotest.test_case "donation replacement" `Quick test_donation_replaced;
          Alcotest.test_case "self-donation rejected" `Quick
            test_self_donation_rejected;
          Alcotest.test_case "deterministic FIFO tie-break" `Quick
            test_fifo_tie_break_deterministic;
          Alcotest.test_case "no drift over a million quanta" `Slow
            test_long_run_no_drift;
          Alcotest.test_case "capacity tracks churn" `Quick
            test_capacity_tracks_churn;
          Alcotest.test_case "remapped slots stay dispatchable" `Quick
            test_remap_keeps_slots_dispatchable;
          Alcotest.test_case "compaction drops dead heap entries" `Quick
            test_compaction_drops_dead_entries;
        ] );
      ( "properties",
        [
          qc prop_fairness_bound;
          qc prop_fairness_bound_n_clients;
          qc prop_proportional_share;
          qc prop_virtual_time_monotonic;
          qc prop_work_conserving;
          qc prop_donations_revocable;
          qc prop_windowed_unfairness;
          qc prop_audited_never_trips;
          qc prop_matches_naive_reference;
          qc prop_slot_protocol_matches_naive_reference;
          qc prop_id_index_churn;
          Alcotest.test_case "differential batch across domains" `Quick
            test_differential_parallel_batch;
          qc prop_churn_storm_matches_reference;
        ] );
    ]
