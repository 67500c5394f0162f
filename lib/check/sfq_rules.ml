open Hsfq_core

(* Every rule below is guarded as [if not ok then fail ...]: on a passing
   transition nothing is formatted, no location string is built and no
   client list is materialized. The SFQ is read through its flat slot
   probes, and the pre-state lives in a buffer the caller reuses. *)

type snapshot = {
  mutable bound : int; (* slots captured: [0, bound) *)
  mutable ids : int array; (* slot -> client id; -1 = free slot *)
  mutable eff : int array;
  mutable start : int array;
  mutable finish : int array;
  mutable rem : int array;
  mutable runnable : bool array;
  mutable vt : int;
  mutable max_finish : int;
  mutable min_start : int; (* least ready start tag *)
  mutable ready : int; (* runnable clients the capture saw *)
  mutable backlogged : int;
  mutable in_service : int; (* [Sfq.in_service]'s id, -1 = none *)
  mutable donations : (int * int * int) list;
}

let columns p n =
  p.ids <- Array.make n (-1);
  p.eff <- Array.make n 0;
  p.start <- Array.make n 0;
  p.finish <- Array.make n 0;
  p.rem <- Array.make n 0;
  p.runnable <- Array.make n false

let buffer () =
  {
    bound = 0;
    ids = [||];
    eff = [||];
    start = [||];
    finish = [||];
    rem = [||];
    runnable = [||];
    vt = 0;
    max_finish = 0;
    min_start = 0;
    ready = 0;
    backlogged = 0;
    in_service = -1;
    donations = [];
  }

let snapshot ?into t =
  let p = match into with Some p -> p | None -> buffer () in
  let n = Sfq.slot_bound t in
  if Array.length p.ids < n then columns p (Int.max n (2 * Array.length p.ids));
  p.bound <- n;
  p.vt <- Sfq.virtual_time t;
  p.max_finish <- Sfq.max_finish_tag t;
  p.backlogged <- Sfq.backlogged t;
  p.in_service <- Sfq.in_service t;
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
      p.rem.(slot) <- Sfq.slot_remainder t ~slot;
      p.runnable.(slot) <- runnable;
      if runnable then begin
        p.min_start <- (if !ready = 0 then start else Int.min p.min_start start);
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
  | Arrive of { id : int; weight : int }
  | Select of int
  | Charge of { id : int; service : int; runnable : bool }
  | Block of int
  | Depart of int
  | Set_weight of { id : int; weight : int }
  | Donate of { blocked : int; recipient : int }
  | Revoke of int

let event_to_string = function
  | Arrive { id; weight } -> Printf.sprintf "arrive id=%d w=%d" id weight
  | Set_weight { id; weight } -> Printf.sprintf "set_weight id=%d w=%d" id weight
  | Select id when id < 0 -> "select -> none"
  | Select id -> Printf.sprintf "select -> id=%d" id
  | Charge { id; service; runnable } ->
    Printf.sprintf "charge id=%d l=%d runnable=%b" id service runnable
  | Block id -> Printf.sprintf "block id=%d" id
  | Depart id -> Printf.sprintf "depart id=%d" id
  | Donate { blocked; recipient } ->
    Printf.sprintf "donate blocked=%d recipient=%d" blocked recipient
  | Revoke id -> Printf.sprintf "revoke blocked=%d" id

let fail sink where invariant fmt =
  let node, event = where () in
  Invariant.fail sink ~invariant ~node ~event fmt

(* The per-client rules of [check_state] as a bit set of the broken ones
   (0 = all hold): the scan evaluates each predicate once and formats
   nothing, and only a nonzero mask sends the client to a reporter. *)
let r_range = 1
let r_weight = 2
let r_start_finish = 4
let r_start_vt = 8
let r_max_finish = 16
let tag_rules =
  r_range lor r_weight lor r_start_finish lor r_start_vt lor r_max_finish
let r_donation = 32

(* Weight donated to [id]; no walk (and no closure) without donations. *)
let received donations id =
  match donations with
  | [] -> 0
  | l -> List.fold_left (fun acc (_, r, a) -> if r = id then acc + a else acc) 0 l

let client_faults t ~single ~in_service ~donations slot =
  let vt = Sfq.virtual_time t in
  let id = Sfq.id_of_slot t ~slot in
  let w = Sfq.slot_weight t ~slot and e = Sfq.slot_effective_weight t ~slot in
  let s = Sfq.slot_start t ~slot and f = Sfq.slot_finish t ~slot in
  let r = Sfq.slot_remainder t ~slot in
  let runnable = Sfq.slot_runnable t ~slot in
  (* Tags and the carried remainder are non-negative (each charge
     leaves r < w_eff; a later weight change may not). *)
  (if s >= 0 && f >= 0 && r >= 0 then 0 else r_range)
  lor (if w > 0 && e > 0 then 0 else r_weight)
  lor (if runnable && s < f then r_start_finish else 0)
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
  lor (if runnable && single && (not (List.mem id in_service)) && s < vt
       then r_start_vt
       else 0)
  lor (if Sfq.max_finish_tag t >= f then 0 else r_max_finish)
  lor (if e = w + received donations id then 0 else r_donation)

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
  if mask land r_range <> 0 then
    fail sink where "tag-discipline"
      "client %d has tags out of range S=%d F=%d r=%d (eff=%d)" id s f
      (Sfq.slot_remainder t ~slot) e;
  if mask land r_weight <> 0 then
    fail sink where "tag-discipline"
      "client %d has non-positive weight w=%d eff=%d" id w e;
  if mask land r_start_finish <> 0 then
    fail sink where "tag-discipline" "runnable client %d has S=%d < F=%d" id s
      f;
  if mask land r_start_vt <> 0 then
    fail sink where "tag-discipline" "runnable client %d has S=%d < v(t)=%d"
      id s vt;
  if mask land r_max_finish <> 0 then
    fail sink where "max-finish-bound" "max finish tag %d < F_%d=%d"
      (Sfq.max_finish_tag t) id f

let report_donation sink where t ~donations slot =
  let id = Sfq.id_of_slot t ~slot in
  let w = Sfq.slot_weight t ~slot and e = Sfq.slot_effective_weight t ~slot in
  fail sink where "donation-conservation"
    "client %d: eff=%d but weight=%d + received=%d" id e w
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
        if vt <> s then
          fail sink where "vt-monotone"
            "busy v(t)=%d differs from in-service start tag %d" vt s
      end
      else if vt < s then
        fail sink where "vt-monotone" "v(t)=%d below claimed start tag %d" vt s
    end;
    check_claims sink where t ~single rest

(* Donation/weight conservation (§4): every client's effective weight is
   its own weight plus exactly the outstanding donations aimed at it. *)
let rec check_donation_records sink where t = function
  | [] -> ()
  | (b, r, a) :: rest ->
    if a <= 0 then
      fail sink where "donation-conservation"
        "donation %d->%d has non-positive amount %d" b r a;
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
  if vt < 0 then fail sink where "vt-monotone" "v(t)=%d is negative" vt;
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
  let pre_vt = pre.vt in
  if vt < pre_vt then fail "vt-monotone" "v(t) went backwards: %d -> %d" pre_vt vt;
  (* The max finish tag is a running max over all service ever granted
     (it defines v(t) when the scheduler drains), so it never recedes. *)
  if Sfq.max_finish_tag t < pre.max_finish then
    fail "max-finish-bound" "max finish tag went backwards: %d -> %d"
      pre.max_finish (Sfq.max_finish_tag t);
  (match ev with
  | Arrive { id; weight } ->
    if not (Sfq.is_runnable t ~id) then
      fail "tag-discipline" "arrived client %d not runnable" id;
    let start = Sfq.start_tag t ~id in
    let p = pre_slot pre id in
    if p >= 0 && pre.runnable.(p) then begin
      (* Idempotent arrival: nothing may move. *)
      if start <> pre.start.(p) || Sfq.finish_tag t ~id <> pre.finish.(p)
      then fail "tag-discipline" "arrive on runnable client %d moved tags" id
    end
    else if p >= 0 then begin
      (* Wake-up: S = max(v, F) (rule 1) at the wake-time v; the new
         weight is applied to the requested quantum, and a start tag
         taken from v drops the carried remainder. *)
      let f = pre.finish.(p) in
      if start <> Int.max pre_vt f then
        fail "tag-discipline" "wake start tag %d, expected max(v=%d, F=%d)"
          start pre_vt f;
      let rem = Sfq.slot_remainder t ~slot:(Sfq.slot_of_id t ~id) in
      if rem <> (if pre_vt > f then 0 else pre.rem.(p)) then
        fail "tag-discipline" "wake remainder %d (was %d, v=%d, F=%d)" rem
          pre.rem.(p) pre_vt f;
      if Sfq.weight t ~id <> weight then
        fail "tag-discipline" "wake did not apply weight %d (has %d)" weight
          (Sfq.weight t ~id)
    end
    else if start <> Int.max pre_vt 0 then
      fail "tag-discipline" "first start tag %d, expected max(v=%d, 0)" start pre_vt
  | Select id when id < 0 ->
    if pre.backlogged <> 0 then
      fail "work-conserving" "select returned none with %d clients backlogged"
        pre.backlogged
  | Select id ->
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
      else if s > pre.min_start then
        fail "select-min-start"
          "selected client %d with S=%d, but min ready S=%d" id s pre.min_start;
      if vt <> s then
        fail "vt-monotone"
          "v(t)=%d after select, expected selected start tag %d" vt s
    end
  | Charge { id; service; runnable } ->
    if not (pre.in_service >= 0 && pre.in_service = id) then
      fail "work-conserving" "charge of client %d but in-service was %s" id
        (if pre.in_service < 0 then "none" else string_of_int pre.in_service);
    let p = pre_slot pre id in
    if p < 0 then fail "charge-finish-tag" "charged unknown client %d" id
    else begin
      (* F = S + ⌊(l·unit + r) / effective weight⌋ (rule 1 + §4
         donation), with the remainder carried exactly: the new tag and
         remainder together account for every unit of l·unit + r. *)
      let s = pre.start.(p) and e = pre.eff.(p) and r = pre.rem.(p) in
      let finish = Sfq.finish_tag t ~id in
      let rem = Sfq.slot_remainder t ~slot:(Sfq.slot_of_id t ~id) in
      if
        finish < s || rem < 0 || rem >= e
        || ((finish - s) * e) + rem <> (service * Hsfq_sched.Vtime.unit) + r
      then
        fail "charge-finish-tag"
          "F=%d r'=%d, expected S + (l*unit + r)/w = %d + (%d*%d + %d)/%d" finish
          rem s service Hsfq_sched.Vtime.unit r e;
      if Sfq.max_finish_tag t < finish then
        fail "max-finish-bound" "max finish %d below new finish %d"
          (Sfq.max_finish_tag t) finish;
      if runnable then begin
        if Sfq.start_tag t ~id <> Int.max vt finish then
          fail "tag-discipline" "requeued S=%d, expected max(v=%d, F=%d)"
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
    if Sfq.weight t ~id <> weight then
      fail "tag-discipline" "set_weight did not apply %d (has %d)" weight
        (Sfq.weight t ~id);
    let p = pre_slot pre id in
    if p < 0 then fail "tag-discipline" "set_weight on unknown client %d" id
    else if
      (* Weight changes only govern future quanta: tags must not move. *)
      Sfq.start_tag t ~id <> pre.start.(p)
      || Sfq.finish_tag t ~id <> pre.finish.(p)
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
                  (fun (b', r', a') -> b' = b && r' = r && a = a')
                  (Sfq.donations t))
        then
          fail "donation-conservation"
            "revoke of %d dropped unrelated donation %d->%d (%d)"
            blocked b r a)
      pre.donations);
  check_state sink ~where t

(* Theorem 1 in integers (doc/INVARIANTS.md): over any window in which
   f and m are both continuously backlogged,
   |⌊unit·W_f/w_f⌋ - ⌊unit·W_m/w_m⌋| <= ⌈unit·l_f/w_f⌉ + ⌈unit·l_m/w_m⌉ + 2,
   the paper's bound plus one virtual unit of quantisation per client. *)
let normalized ~service ~weight = Hsfq_sched.Vtime.step ~service ~weight ~rem:0

let fairness_bound ~w_f ~l_f ~w_m ~l_m =
  let up l w = Hsfq_sched.Vtime.step ~service:l ~weight:w ~rem:(w - 1) in
  up l_f w_f + up l_m w_m + 2

let fair_window ~w_f ~work_f ~l_f ~w_m ~work_m ~l_m =
  abs (normalized ~service:work_f ~weight:w_f - normalized ~service:work_m ~weight:w_m)
  <= fairness_bound ~w_f ~l_f ~w_m ~l_m
