open Hsfq_core

(* Every rule below is guarded as [if not ok then fail ...]: on a passing
   transition nothing is formatted, no location string is built and no
   client list is materialized. The SFQ is read through its flat slot
   probes, and the pre-state lives in a buffer the caller reuses. *)

type snapshot = {
  mutable bound : int; (* slots captured: [0, bound) *)
  mutable ids : int array; (* slot -> client id; -1 = free slot *)
  mutable eff : float array;
  mutable start : float array;
  mutable finish : float array;
  mutable runnable : bool array;
  clock : float array; (* v(t), max finish tag, min ready start tag *)
  mutable ready : int; (* runnable clients the capture saw *)
  mutable backlogged : int;
  mutable in_service : int; (* [Sfq.in_service]'s id, -1 = none *)
  mutable donations : (int * int * float) list;
}

let i_vt = 0
let i_max_finish = 1
let i_min_start = 2

let columns p n =
  p.ids <- Array.make n (-1);
  p.eff <- Array.make n 0.;
  p.start <- Array.make n 0.;
  p.finish <- Array.make n 0.;
  p.runnable <- Array.make n false

let buffer () =
  {
    bound = 0;
    ids = [||];
    eff = [||];
    start = [||];
    finish = [||];
    runnable = [||];
    clock = Array.make 3 0.;
    ready = 0;
    backlogged = 0;
    in_service = -1;
    donations = [];
  }

(* [Float.min], inlined so the capture loop boxes nothing: NaN wins and
   -0 is below +0, so the fold is order-independent. *)
let[@inline always] fmin (x : float) (y : float) =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then
    if y <> y then y else x
  else if x <> x then x
  else y

let snapshot ?into t =
  let p = match into with Some p -> p | None -> buffer () in
  let n = Sfq.slot_bound t in
  if Array.length p.ids < n then columns p (Int.max n (2 * Array.length p.ids));
  p.bound <- n;
  p.clock.(i_vt) <- Sfq.virtual_time t;
  p.clock.(i_max_finish) <- Sfq.max_finish_tag t;
  p.backlogged <- Sfq.backlogged t;
  p.in_service <- (match Sfq.in_service t with None -> -1 | Some id -> id);
  p.donations <- Sfq.donations t;
  let ready = ref 0 in
  for slot = 0 to n - 1 do
    let id = Sfq.id_of_slot t ~slot in
    p.ids.(slot) <- id;
    if id >= 0 then begin
      let start = Sfq.slot_start t ~slot in
      let runnable = Sfq.slot_runnable t ~slot in
      p.eff.(slot) <- Sfq.slot_effective_weight t ~slot;
      p.start.(slot) <- start;
      p.finish.(slot) <- Sfq.slot_finish t ~slot;
      p.runnable.(slot) <- runnable;
      if runnable then begin
        p.clock.(i_min_start) <-
          (if !ready = 0 then start else fmin p.clock.(i_min_start) start);
        incr ready
      end
    end
  done;
  p.ready <- !ready;
  p

(* The client's slot in the pre-state, or -1 if it was unknown then. *)
let pre_slot p id =
  let rec find slot =
    if slot >= p.bound then -1
    else if p.ids.(slot) = id then slot
    else find (slot + 1)
  in
  if id < 0 then -1 else find 0

type event =
  | Arrive of { id : int; weight : float }
  | Select of int option
  | Charge of { id : int; service : float; runnable : bool }
  | Block of int
  | Depart of int
  | Set_weight of { id : int; weight : float }
  | Donate of { blocked : int; recipient : int }
  | Revoke of int

let event_to_string = function
  | Arrive { id; weight } -> Printf.sprintf "arrive id=%d w=%g" id weight
  | Set_weight { id; weight } -> Printf.sprintf "set_weight id=%d w=%g" id weight
  | Select None -> "select -> none"
  | Select (Some id) -> Printf.sprintf "select -> id=%d" id
  | Charge { id; service; runnable } ->
    Printf.sprintf "charge id=%d l=%g runnable=%b" id service runnable
  | Block id -> Printf.sprintf "block id=%d" id
  | Depart id -> Printf.sprintf "depart id=%d" id
  | Donate { blocked; recipient } ->
    Printf.sprintf "donate blocked=%d recipient=%d" blocked recipient
  | Revoke id -> Printf.sprintf "revoke blocked=%d" id

(* Tolerant float equality for sums that may be re-associated (donation
   amounts) or recomputed (finish tags). *)
let[@inline always] feq a b =
  Float.abs (a -. b) <= 1e-9 *. (1. +. Float.abs a +. Float.abs b)

let fail sink where invariant fmt =
  let node, event = where () in
  Invariant.fail sink ~invariant ~node ~event fmt

(* The per-client rules of [check_state] as a bit set of the broken ones
   (0 = all hold): the scan evaluates each predicate once and formats
   nothing, and only a nonzero mask sends the client to a reporter. *)
let r_finite = 1
let r_weight = 2
let r_start_finish = 4
let r_start_vt = 8
let r_max_finish = 16
let tag_rules =
  r_finite lor r_weight lor r_start_finish lor r_start_vt lor r_max_finish
let r_donation = 32

(* Weight donated to [id]; no walk (and no closure) without donations. *)
let received donations id =
  match donations with
  | [] -> 0.
  | l ->
    List.fold_left (fun acc (_, r, a) -> if r = id then acc +. a else acc) 0. l

let client_faults t ~single ~in_service ~donations slot =
  let vt = Sfq.virtual_time t in
  let id = Sfq.id_of_slot t ~slot in
  let w = Sfq.slot_weight t ~slot and e = Sfq.slot_effective_weight t ~slot in
  let s = Sfq.slot_start t ~slot and f = Sfq.slot_finish t ~slot in
  let runnable = Sfq.slot_runnable t ~slot in
  (if Float.is_finite s && Float.is_finite f then 0 else r_finite)
  lor (if w > 0. && e > 0. then 0 else r_weight)
  lor (if runnable && not (s >= f) then r_start_finish else 0)
  (* Per-client tag discipline (§3 rule 1): a runnable client's pending
     start tag is >= its finish tag (equal for a continuously
     backlogged client, whose quanta chain start <- finish).  The
     additional v(t) lower bound only holds with a single server, where
     select and charge alternate so every pending tag was assigned at
     or above the clock.  With several servers a client saturating its
     one-CPU rate cap legitimately lags v(t) — its finish tags advance
     at service/weight below the aggregate virtual rate — and clamping
     it back up is exactly the bug the capped max-min tests caught, so
     the bound is not asserted there.  A claimed client is exempt even
     at one server: it was selected when its tag was minimal, and a
     later claim may have advanced v past it. *)
  lor (if runnable && single && (not (List.mem id in_service)) && not (s >= vt)
       then r_start_vt
       else 0)
  lor (if Sfq.max_finish_tag t >= f then 0 else r_max_finish)
  lor (if feq e (w +. received donations id) then 0 else r_donation)

(* Broken clients report in ascending id order, as they always have;
   the ordered walk is paid only once some rule has failed. *)
let each_faulty t ~single ~in_service ~donations rules report =
  List.iter
    (fun id ->
      let slot = Sfq.slot_of_id t ~id in
      let mask =
        client_faults t ~single ~in_service ~donations slot land rules
      in
      if mask <> 0 then report ~mask slot)
    (Sfq.clients t)

let report_tags sink where t ~mask slot =
  let vt = Sfq.virtual_time t in
  let id = Sfq.id_of_slot t ~slot in
  let w = Sfq.slot_weight t ~slot and e = Sfq.slot_effective_weight t ~slot in
  let s = Sfq.slot_start t ~slot and f = Sfq.slot_finish t ~slot in
  if mask land r_finite <> 0 then
    fail sink where "tag-discipline" "client %d has non-finite tags S=%g F=%g"
      id s f;
  if mask land r_weight <> 0 then
    fail sink where "tag-discipline"
      "client %d has non-positive weight w=%g eff=%g" id w e;
  if mask land r_start_finish <> 0 then
    fail sink where "tag-discipline" "runnable client %d has S=%g < F=%g" id s
      f;
  if mask land r_start_vt <> 0 then
    fail sink where "tag-discipline" "runnable client %d has S=%g < v(t)=%g"
      id s vt;
  if mask land r_max_finish <> 0 then
    fail sink where "max-finish-bound" "max finish tag %g < F_%d=%g"
      (Sfq.max_finish_tag t) id f

let report_donation sink where t ~donations slot =
  let id = Sfq.id_of_slot t ~slot in
  let w = Sfq.slot_weight t ~slot and e = Sfq.slot_effective_weight t ~slot in
  fail sink where "donation-conservation"
    "client %d: eff=%g but weight=%g + received=%g" id e w
    (received donations id)

(* The in-service quantum defines v(t) (§3 rule 2, busy case): with a
   single server, v equals the claimed start tag exactly; with several
   claims outstanding, v is the most recent (= maximum) claimed start,
   so every claimed start bounds it from below. *)
let rec check_claims sink where t ~single = function
  | [] -> ()
  | id :: rest ->
    let vt = Sfq.virtual_time t in
    if not (Sfq.mem t ~id) then
      fail sink where "nrun-consistent" "in-service client %d unknown" id
    else begin
      if not (Sfq.is_runnable t ~id) then
        fail sink where "nrun-consistent" "in-service client %d not runnable"
          id;
      let s = Sfq.start_tag t ~id in
      if single then begin
        if not (feq vt s) then
          fail sink where "vt-monotone"
            "busy v(t)=%g differs from in-service start tag %g" vt s
      end
      else if not (vt >= s || feq vt s) then
        fail sink where "vt-monotone" "v(t)=%g below claimed start tag %g" vt s
    end;
    check_claims sink where t ~single rest

(* Donation/weight conservation (§4): every client's effective weight is
   its own weight plus exactly the outstanding donations aimed at it. *)
let rec check_donation_records sink where t = function
  | [] -> ()
  | (b, r, a) :: rest ->
    if not (a > 0.) then
      fail sink where "donation-conservation"
        "donation %d->%d has non-positive amount %g" b r a;
    if b = r then
      fail sink where "donation-conservation" "self-donation %d->%d recorded" b
        r;
    if not (Sfq.mem t ~id:b) then
      fail sink where "donation-conservation"
        "donation from departed client %d" b;
    if not (Sfq.mem t ~id:r) then
      fail sink where "donation-conservation" "donation to departed client %d"
        r;
    check_donation_records sink where t rest

let check_state sink ~where t =
  let vt = Sfq.virtual_time t in
  let single = Sfq.servers t = 1 in
  let in_service = Sfq.in_service_ids t in
  let donations = Sfq.donations t in
  if not (Float.is_finite vt && vt >= 0.) then
    fail sink where "vt-monotone" "v(t)=%g not a finite nonnegative value" vt;
  let claims = List.length in_service in
  if not (claims <= Sfq.servers t) then
    fail sink where "nrun-consistent" "%d claims outstanding with capacity %d"
      claims (Sfq.servers t);
  let nrun = ref 0 and faults = ref 0 in
  for slot = 0 to Sfq.slot_bound t - 1 do
    if Sfq.id_of_slot t ~slot >= 0 then begin
      if Sfq.slot_runnable t ~slot then incr nrun;
      faults :=
        !faults lor client_faults t ~single ~in_service ~donations slot
    end
  done;
  (* nrun matches the number of runnable clients. *)
  if not (Sfq.backlogged t = !nrun) then
    fail sink where "nrun-consistent"
      "backlogged=%d but %d clients are runnable" (Sfq.backlogged t) !nrun;
  if !faults land tag_rules <> 0 then
    each_faulty t ~single ~in_service ~donations tag_rules
      (report_tags sink where t);
  check_claims sink where t ~single in_service;
  check_donation_records sink where t donations;
  if !faults land r_donation <> 0 then
    each_faulty t ~single ~in_service ~donations r_donation (fun ~mask:_ ->
        report_donation sink where t ~donations)

let check_transition ?(node = "sfq") sink ~pre t ev =
  let where () = (node, event_to_string ev) in
  let fail inv fmt = fail sink where inv fmt in
  let vt = Sfq.virtual_time t in
  let pre_vt = pre.clock.(i_vt) in
  if not (vt >= pre_vt) then
    fail "vt-monotone" "v(t) went backwards: %g -> %g" pre_vt vt;
  (* The max finish tag is a running max over all service ever granted
     (it defines v(t) when the scheduler drains), so it never recedes. *)
  if not (Sfq.max_finish_tag t >= pre.clock.(i_max_finish)) then
    fail "max-finish-bound" "max finish tag went backwards: %g -> %g"
      pre.clock.(i_max_finish) (Sfq.max_finish_tag t);
  (match ev with
  | Arrive { id; weight } ->
    if not (Sfq.is_runnable t ~id) then
      fail "tag-discipline" "arrived client %d not runnable" id;
    let start = Sfq.start_tag t ~id in
    let p = pre_slot pre id in
    if p >= 0 && pre.runnable.(p) then begin
      (* Idempotent arrival: nothing may move. *)
      if not (feq start pre.start.(p) && feq (Sfq.finish_tag t ~id) pre.finish.(p))
      then fail "tag-discipline" "arrive on runnable client %d moved tags" id
    end
    else if p >= 0 then begin
      (* Wake-up: S = max(v, F) (rule 1) at the wake-time v; the new
         weight is applied to the requested quantum. *)
      let f = pre.finish.(p) in
      if not (feq start (Float.max pre_vt f)) then
        fail "tag-discipline" "wake start tag %g, expected max(v=%g, F=%g)"
          start pre_vt f;
      if not (feq (Sfq.weight t ~id) weight) then
        fail "tag-discipline" "wake did not apply weight %g (has %g)" weight
          (Sfq.weight t ~id)
    end
    else if not (feq start (Float.max pre_vt 0.)) then
      fail "tag-discipline" "first start tag %g, expected max(v=%g, 0)" start pre_vt
  | Select None ->
    if pre.backlogged <> 0 then
      fail "work-conserving" "select returned none with %d clients backlogged"
        pre.backlogged
  | Select (Some id) ->
    if pre.in_service >= 0 then
      fail "work-conserving" "select with a selection already pending";
    let p = pre_slot pre id in
    if p < 0 then fail "select-min-start" "selected unknown client %d" id
    else begin
      let s = pre.start.(p) in
      if not pre.runnable.(p) then
        fail "select-min-start" "selected blocked client %d" id;
      if pre.ready = 0 then
        fail "work-conserving" "selected from an empty ready set"
      else if not (s <= pre.clock.(i_min_start)) then
        fail "select-min-start"
          "selected client %d with S=%g, but min ready S=%g" id s
          pre.clock.(i_min_start);
      if not (feq vt s) then
        fail "vt-monotone"
          "v(t)=%g after select, expected selected start tag %g" vt s
    end
  | Charge { id; service; runnable } ->
    if not (pre.in_service >= 0 && pre.in_service = id) then
      fail "work-conserving" "charge of client %d but in-service was %s" id
        (if pre.in_service < 0 then "none" else string_of_int pre.in_service);
    let p = pre_slot pre id in
    if p < 0 then fail "charge-finish-tag" "charged unknown client %d" id
    else begin
      (* F = S + l / effective weight (rule 1 + §4 donation). *)
      let s = pre.start.(p) and e = pre.eff.(p) in
      let expect = s +. (service /. e) in
      let finish = Sfq.finish_tag t ~id in
      if not (feq finish expect) then
        fail "charge-finish-tag" "F=%g, expected S + l/w = %g + %g/%g = %g" finish s
          service e expect;
      if not (Sfq.max_finish_tag t >= finish) then
        fail "max-finish-bound" "max finish %g below new finish %g"
          (Sfq.max_finish_tag t) finish;
      if runnable then begin
        if not (feq (Sfq.start_tag t ~id) (Float.max vt finish)) then
          fail "tag-discipline" "requeued S=%g, expected max(v=%g, F=%g)"
            (Sfq.start_tag t ~id) vt finish
      end
      else if Sfq.is_runnable t ~id then
        fail "tag-discipline" "client %d still runnable after blocking charge" id
    end
  | Block id ->
    if Sfq.mem t ~id && Sfq.is_runnable t ~id then
      fail "tag-discipline" "client %d runnable after block" id
  | Depart id ->
    if Sfq.mem t ~id then fail "nrun-consistent" "client %d known after depart" id
  | Set_weight { id; weight } ->
    if not (feq (Sfq.weight t ~id) weight) then
      fail "tag-discipline" "set_weight did not apply %g (has %g)" weight
        (Sfq.weight t ~id);
    let p = pre_slot pre id in
    if p < 0 then fail "tag-discipline" "set_weight on unknown client %d" id
    else if
      (* Weight changes only govern future quanta: tags must not move. *)
      not
        (feq (Sfq.start_tag t ~id) pre.start.(p)
        && feq (Sfq.finish_tag t ~id) pre.finish.(p))
    then fail "tag-discipline" "set_weight moved tags of client %d" id
  | Donate { blocked; recipient } ->
    if
      not
        (List.exists
           (fun (b, r, _) -> b = blocked && r = recipient)
           (Sfq.donations t))
    then
      fail "donation-conservation" "no donation record %d->%d after donate" blocked
        recipient
  | Revoke blocked ->
    if List.exists (fun (b, _, _) -> b = blocked) (Sfq.donations t) then
      fail "donation-conservation"
        "donation from %d still recorded after revoke" blocked;
    (* Revoking one donor must not disturb anyone else's donations. *)
    List.iter
      (fun (b, r, a) ->
        if
          b <> blocked
          && not
               (List.exists
                  (fun (b', r', a') -> b' = b && r' = r && feq a a')
                  (Sfq.donations t))
        then
          fail "donation-conservation"
            "revoke of %d dropped unrelated donation %d->%d (%g)"
            blocked b r a)
      pre.donations);
  check_state sink ~where t
