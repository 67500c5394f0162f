open Hsfq_core

(* Every rule is written once, as a bit of a fault mask (0 = all hold;
   doc/INVARIANTS.md, "Clean path and report path"). [state_faults]
   sweeps the SFQ's flat columns once, and each transition's [*_faults]
   judges it against the pre-state row its rules read; both format
   nothing and build no list, closure or event record. The clean path
   ([state_clean], the [*_ok] predicates) only asks whether the masks
   are 0. The report path ([check_state], [report]) computes the same
   masks and formats one record per set bit, re-reading the values its
   messages quote, in the order the audit has always used. *)

type pre_state = {
  mutable vt : int;
  mutable max_finish : int;
  mutable backlogged : int;
  mutable in_service : int; (* [Sfq.in_service]'s id, -1 = none *)
  mutable donations : (int * int * int) list; (* [] unless outstanding *)
  (* The target client's row; [row] is its id, -1 if it was unknown. *)
  mutable row : int;
  mutable eff : int;
  mutable start : int;
  mutable finish : int;
  mutable rem : int;
  mutable runnable : bool;
  (* For a selection: ids and start tags of the runnable clients, in
     [0, ready). *)
  mutable ready : int;
  mutable min_start : int; (* least ready start tag *)
  mutable ready_ids : int array;
  mutable ready_starts : int array;
}

let buffer () =
  {
    vt = 0;
    max_finish = 0;
    backlogged = 0;
    in_service = -1;
    donations = [];
    row = -1;
    eff = 0;
    start = 0;
    finish = 0;
    rem = 0;
    runnable = false;
    ready = 0;
    min_start = 0;
    ready_ids = [||];
    ready_starts = [||];
  }

(* A revoke's rules compare the donation list before and after; only
   an outstanding donation makes it cost a list. *)
let outstanding_donations t =
  if Sfq.donation_count t = 0 then [] else Sfq.donations t

(* The clock and claim scalars every transition's rules read. *)
let capture_clock p t =
  p.vt <- Sfq.virtual_time t;
  p.max_finish <- Sfq.max_finish_tag t;
  p.backlogged <- Sfq.backlogged t;
  p.in_service <- Sfq.in_service t;
  p.donations <- outstanding_donations t;
  p.row <- -1;
  p.ready <- 0

let capture p t ~id =
  capture_clock p t;
  let slot = Sfq.slot_of_id t ~id in
  if slot >= 0 then begin
    p.row <- id;
    p.eff <- Sfq.slot_effective_weight t ~slot;
    p.start <- Sfq.slot_start t ~slot;
    p.finish <- Sfq.slot_finish t ~slot;
    p.rem <- Sfq.slot_remainder t ~slot;
    p.runnable <- Sfq.slot_runnable t ~slot
  end

let grow_ready p n =
  let size = Int.max n (2 * Array.length p.ready_ids) in
  p.ready_ids <- Array.make size 0;
  p.ready_starts <- Array.make size 0

let rec scan_ready p t slot =
  if slot < Sfq.slot_bound t then begin
    if Sfq.id_of_slot t ~slot >= 0 && Sfq.slot_runnable t ~slot then begin
      let s = Sfq.slot_start t ~slot in
      p.min_start <- (if p.ready = 0 then s else Int.min p.min_start s);
      p.ready_ids.(p.ready) <- Sfq.id_of_slot t ~slot;
      p.ready_starts.(p.ready) <- s;
      p.ready <- p.ready + 1
    end;
    scan_ready p t (slot + 1)
  end

let capture_ready p t =
  capture_clock p t;
  if Array.length p.ready_ids < Sfq.slot_bound t then
    grow_ready p (Sfq.slot_bound t);
  scan_ready p t 0

let has_row p id = id >= 0 && p.row = id

(* The client's index in the captured ready set, -1 if absent. *)
let rec ready_index p id i =
  if i >= p.ready then -1
  else if p.ready_ids.(i) = id then i
  else ready_index p id (i + 1)

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

(* ------------------------------ state rules ------------------------------ *)

(* Each client's rules. *)
let r_range = 1 and r_weight = 2 and r_start_finish = 4 and r_start_vt = 8
and r_max_finish = 16 and r_donation = 32
let tag_rules =
  r_range lor r_weight lor r_start_finish lor r_start_vt lor r_max_finish

(* Weight donated to [id]; no walk without donations. *)
let rec received donations id =
  match donations with
  | [] -> 0
  | (_, r, a) :: rest -> (if r = id then a else 0) + received rest id

(* Whether [id] holds an outstanding claim, read in place. *)
let rec claimed t id i =
  i < Sfq.claim_count t && (Sfq.claim_id t i = id || claimed t id (i + 1))

let client_faults t ~single ~donations slot =
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
  lor (if runnable && single && s < vt && not (claimed t id 0) then r_start_vt
       else 0)
  lor (if Sfq.max_finish_tag t >= f then 0 else r_max_finish)
  (* Donation/weight conservation (§4): every client's effective weight
     is its own weight plus exactly the outstanding donations aimed at
     it. *)
  lor (if e = w + received donations id then 0 else r_donation)

(* The in-service quantum defines v(t) (§3 rule 2, busy case): with a
   single server, v equals the claimed start tag exactly; with several
   claims outstanding, v is the most recent (= maximum) claimed start,
   so every claimed start bounds it from below. Each claim's rules. *)
let c_unknown = 1 and c_not_runnable = 2 and c_vt = 4

let claim_faults t ~single i =
  let slot = Sfq.slot_of_id t ~id:(Sfq.claim_id t i) in
  if slot < 0 || not (Sfq.slot_live t ~slot) then c_unknown
  else
    let vt = Sfq.virtual_time t and s = Sfq.slot_start t ~slot in
    (if Sfq.slot_runnable t ~slot then 0 else c_not_runnable)
    lor if (if single then vt = s else vt >= s) then 0 else c_vt

(* Each outstanding donation record's rules. *)
let d_amount = 1 and d_self = 2 and d_from_departed = 4 and d_to_departed = 8

let record_faults t (b, r, a) =
  (if a > 0 then 0 else d_amount)
  lor (if b <> r then 0 else d_self)
  lor (if Sfq.mem t ~id:b then 0 else d_from_departed)
  lor if Sfq.mem t ~id:r then 0 else d_to_departed

(* The state rules: the scalars, and whether some client, claim or
   record breaks one of its own. *)
let s_vt = 1 and s_capacity = 2 and s_nrun = 4 and s_tags = 8 and s_claims = 16
and s_records = 32 and s_donation = 64

(* One pass over the slot columns: the union of every live client's
   faults, and whether the runnable ones match the backlog. *)
let rec sweep t ~single ~donations slot nrun faults =
  if slot >= Sfq.slot_bound t then
    (if nrun = Sfq.backlogged t then 0 else s_nrun)
    lor (if faults land tag_rules = 0 then 0 else s_tags)
    lor if faults land r_donation = 0 then 0 else s_donation
  else if Sfq.id_of_slot t ~slot < 0 then
    sweep t ~single ~donations (slot + 1) nrun faults
  else
    sweep t ~single ~donations (slot + 1)
      (if Sfq.slot_runnable t ~slot then nrun + 1 else nrun)
      (faults lor client_faults t ~single ~donations slot)

let rec claims_faults t ~single i acc =
  if i >= Sfq.claim_count t then acc
  else claims_faults t ~single (i + 1) (acc lor claim_faults t ~single i)

let rec records_faults t acc = function
  | [] -> acc
  | d :: rest -> records_faults t (acc lor record_faults t d) rest

let state_faults t =
  let single = Sfq.servers t = 1 in
  let donations = outstanding_donations t in
  (if Sfq.virtual_time t >= 0 then 0 else s_vt)
  lor (if Sfq.claim_count t <= Sfq.servers t then 0 else s_capacity)
  lor sweep t ~single ~donations 0 0 0
  lor (if claims_faults t ~single 0 0 = 0 then 0 else s_claims)
  lor if records_faults t 0 donations = 0 then 0 else s_records

let state_clean t = state_faults t = 0

(* ----------------------------- state reports ----------------------------- *)

let rec runnable_count t slot n =
  if slot >= Sfq.slot_bound t then n
  else
    runnable_count t (slot + 1)
      (if Sfq.id_of_slot t ~slot >= 0 && Sfq.slot_runnable t ~slot then n + 1
       else n)

(* Broken clients report in ascending id order, as they always have. *)
let each_faulty t ~single ~donations rules report =
  List.iter
    (fun id ->
      let slot = Sfq.slot_of_id t ~id in
      let mask = client_faults t ~single ~donations slot land rules in
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

let report_donation sink where t ~donations ~mask:_ slot =
  let id = Sfq.id_of_slot t ~slot in
  let w = Sfq.slot_weight t ~slot and e = Sfq.slot_effective_weight t ~slot in
  fail sink where "donation-conservation"
    "client %d: eff=%d but weight=%d + received=%d" id e w
    (received donations id)

let report_claim sink where t ~single i =
  let id = Sfq.claim_id t i and mask = claim_faults t ~single i in
  if mask land c_unknown <> 0 then
    fail sink where "nrun-consistent" "in-service client %d unknown" id;
  if mask land c_not_runnable <> 0 then
    fail sink where "nrun-consistent" "in-service client %d not runnable" id;
  if mask land c_vt <> 0 then begin
    let vt = Sfq.virtual_time t and s = Sfq.start_tag t ~id in
    if single then
      fail sink where "vt-monotone"
        "busy v(t)=%d differs from in-service start tag %d" vt s
    else fail sink where "vt-monotone" "v(t)=%d below claimed start tag %d" vt s
  end

let report_record sink where t ((b, r, a) as d) =
  let mask = record_faults t d in
  if mask land d_amount <> 0 then
    fail sink where "donation-conservation"
      "donation %d->%d has non-positive amount %d" b r a;
  if mask land d_self <> 0 then
    fail sink where "donation-conservation" "self-donation %d->%d recorded" b r;
  if mask land d_from_departed <> 0 then
    fail sink where "donation-conservation" "donation from departed client %d"
      b;
  if mask land d_to_departed <> 0 then
    fail sink where "donation-conservation" "donation to departed client %d" r

let check_state sink ~where t =
  let mask = state_faults t in
  if mask <> 0 then begin
    let single = Sfq.servers t = 1 and donations = Sfq.donations t in
    if mask land s_vt <> 0 then
      fail sink where "vt-monotone" "v(t)=%d is negative" (Sfq.virtual_time t);
    if mask land s_capacity <> 0 then
      fail sink where "nrun-consistent" "%d claims outstanding with capacity %d"
        (Sfq.claim_count t) (Sfq.servers t);
    if mask land s_nrun <> 0 then
      fail sink where "nrun-consistent"
        "backlogged=%d but %d clients are runnable" (Sfq.backlogged t)
        (runnable_count t 0 0);
    if mask land s_tags <> 0 then
      each_faulty t ~single ~donations tag_rules (report_tags sink where t);
    if mask land s_claims <> 0 then
      for i = 0 to Sfq.claim_count t - 1 do
        report_claim sink where t ~single i
      done;
    if mask land s_records <> 0 then
      List.iter (report_record sink where t) donations;
    if mask land s_donation <> 0 then
      each_faulty t ~single ~donations r_donation
        (report_donation sink where t ~donations)
  end

(* ---------------------------- transition rules ---------------------------- *)

(* The clock rules of every transition. *)
let k_vt = 1 and k_max_finish = 2

let clock_faults p t =
  (if Sfq.virtual_time t >= p.vt then 0 else k_vt)
  lor if Sfq.max_finish_tag t >= p.max_finish then 0 else k_max_finish

(* The client's slot if it is registered, else -1 (what {!Sfq.mem}
   decides). *)
let live_slot t id =
  let slot = Sfq.slot_of_id t ~id in
  if slot >= 0 && Sfq.slot_live t ~slot then slot else -1

(* Each transition's own rules below; the bits of different transitions
   may coincide. *)
let a_not_runnable = 1 and a_moved = 2 and a_wake_start = 4 and a_wake_rem = 8
and a_wake_weight = 16 and a_first_start = 32

let arrive_faults p t ~id ~weight =
  let slot = live_slot t id in
  if slot < 0 then a_not_runnable
  else
    let start = Sfq.slot_start t ~slot in
    (if Sfq.slot_runnable t ~slot then 0 else a_not_runnable)
    lor
    if not (has_row p id) then
      (if start = Int.max p.vt 0 then 0 else a_first_start)
    else if p.runnable then
      (* Idempotent arrival: nothing may move. *)
      (if start = p.start && Sfq.slot_finish t ~slot = p.finish then 0
       else a_moved)
    else
      (* Wake-up: S = max(v, F) (rule 1) at the wake-time v; the new
         weight is applied to the requested quantum, and a start tag
         taken from v drops the carried remainder. *)
      (if start = Int.max p.vt p.finish then 0 else a_wake_start)
      lor (let rem = if p.vt > p.finish then 0 else p.rem in
           if Sfq.slot_remainder t ~slot = rem then 0 else a_wake_rem)
      lor if Sfq.slot_weight t ~slot = weight then 0 else a_wake_weight

let sel_none = 1 and sel_pending = 2 and sel_unknown = 4 and sel_blocked = 8
and sel_empty = 16 and sel_not_min = 32 and sel_vt = 64

(* The selected client's start tag: from the captured ready set, or —
   outside it, the client was blocked — read after, since a selection
   moves no tag. *)
let selected_start p t id i =
  if i >= 0 then p.ready_starts.(i) else Sfq.start_tag t ~id

let select_faults p t id =
  if id < 0 then (if p.backlogged = 0 then 0 else sel_none)
  else
    (if p.in_service < 0 then 0 else sel_pending)
    lor
    let i = ready_index p id 0 in
    if i < 0 && not (Sfq.mem t ~id) then sel_unknown
    else
      let s = selected_start p t id i in
      (if i >= 0 then 0 else sel_blocked)
      lor (if p.ready = 0 then sel_empty
           else if s > p.min_start then sel_not_min
           else 0)
      lor if Sfq.virtual_time t = s then 0 else sel_vt

let ch_pending = 1 and ch_unknown = 2 and ch_finish = 4 and ch_max_finish = 8
and ch_requeue = 16 and ch_still_runnable = 32

let charge_faults p t ~id ~service ~runnable =
  (if p.in_service >= 0 && p.in_service = id then 0 else ch_pending)
  lor
  let slot = live_slot t id in
  if not (has_row p id) || slot < 0 then ch_unknown
  else
    let finish = Sfq.slot_finish t ~slot and rem = Sfq.slot_remainder t ~slot in
    (* F = S + ⌊(l·unit + r) / effective weight⌋ (rule 1 + §4
       donation), with the remainder carried exactly: the new tag and
       remainder together account for every unit of l·unit + r. *)
    (if
       finish >= p.start && rem >= 0 && rem < p.eff
       && ((finish - p.start) * p.eff) + rem
          = (service * Hsfq_sched.Vtime.unit) + p.rem
     then 0
     else ch_finish)
    lor (if Sfq.max_finish_tag t >= finish then 0 else ch_max_finish)
    lor
    if runnable then
      (if Sfq.slot_start t ~slot = Int.max (Sfq.virtual_time t) finish then 0
       else ch_requeue)
    else if Sfq.slot_runnable t ~slot then ch_still_runnable
    else 0

let block_faults t ~id =
  let slot = live_slot t id in
  if slot >= 0 && Sfq.slot_runnable t ~slot then 1 else 0

let depart_faults t ~id = if Sfq.mem t ~id then 1 else 0

let sw_not_applied = 1 and sw_unknown = 2 and sw_moved = 4

let set_weight_faults p t ~id ~weight =
  let slot = live_slot t id in
  if slot < 0 then sw_unknown
  else
    (if Sfq.slot_weight t ~slot = weight then 0 else sw_not_applied)
    lor
    if not (has_row p id) then sw_unknown
    else if
      (* Weight changes only govern future quanta: tags must not move. *)
      Sfq.slot_start t ~slot = p.start && Sfq.slot_finish t ~slot = p.finish
    then 0
    else sw_moved

(* Donate and revoke read the donation list: cold transitions. *)
let donate_faults t ~blocked ~recipient =
  let recorded (b, r, _) = b = blocked && r = recipient in
  if List.exists recorded (Sfq.donations t) then 0 else 1

let rv_still = 1 and rv_dropped = 2

(* Revoking one donor must not disturb anyone else's donations. *)
let dropped ~blocked post (b, r, a) =
  b <> blocked
  && not (List.exists (fun (b', r', a') -> b' = b && r' = r && a = a') post)

let revoke_faults p t ~blocked =
  let post = Sfq.donations t in
  (if List.exists (fun (b, _, _) -> b = blocked) post then rv_still else 0)
  lor if List.exists (dropped ~blocked post) p.donations then rv_dropped else 0

(* A transition is clean iff its clock, its own rules and every state
   rule hold. *)
let clean p t step = clock_faults p t lor step = 0 && state_clean t

let arrive_ok p t ~id ~weight = clean p t (arrive_faults p t ~id ~weight)
let select_ok p t id = clean p t (select_faults p t id)

let charge_ok p t ~id ~service ~runnable =
  clean p t (charge_faults p t ~id ~service ~runnable)

let block_ok p t ~id = clean p t (block_faults t ~id)
let depart_ok p t ~id = clean p t (depart_faults t ~id)

let set_weight_ok p t ~id ~weight =
  clean p t (set_weight_faults p t ~id ~weight)

let donate_ok p t ~blocked ~recipient =
  clean p t (donate_faults t ~blocked ~recipient)

let revoke_ok p t ~blocked = clean p t (revoke_faults p t ~blocked)

(* --------------------------- transition reports --------------------------- *)

let report ~node sink ~pre t ev =
  let where () = (node, event_to_string ev) in
  let fail inv fmt = fail sink where inv fmt in
  let vt = Sfq.virtual_time t and pre_vt = pre.vt in
  let k = clock_faults pre t in
  if k land k_vt <> 0 then
    fail "vt-monotone" "v(t) went backwards: %d -> %d" pre_vt vt;
  (* The max finish tag is a running max over all service ever granted
     (it defines v(t) when the scheduler drains), so it never recedes. *)
  if k land k_max_finish <> 0 then
    fail "max-finish-bound" "max finish tag went backwards: %d -> %d"
      pre.max_finish (Sfq.max_finish_tag t);
  (match ev with
  | Arrive { id; weight } ->
    let m = arrive_faults pre t ~id ~weight in
    if m land a_not_runnable <> 0 then
      fail "tag-discipline" "arrived client %d not runnable" id;
    if m land a_moved <> 0 then
      fail "tag-discipline" "arrive on runnable client %d moved tags" id;
    if m land a_wake_start <> 0 then
      fail "tag-discipline" "wake start tag %d, expected max(v=%d, F=%d)"
        (Sfq.start_tag t ~id) pre_vt pre.finish;
    if m land a_wake_rem <> 0 then
      fail "tag-discipline" "wake remainder %d (was %d, v=%d, F=%d)"
        (Sfq.slot_remainder t ~slot:(Sfq.slot_of_id t ~id))
        pre.rem pre_vt pre.finish;
    if m land a_wake_weight <> 0 then
      fail "tag-discipline" "wake did not apply weight %d (has %d)" weight
        (Sfq.weight t ~id);
    if m land a_first_start <> 0 then
      fail "tag-discipline" "first start tag %d, expected max(v=%d, 0)"
        (Sfq.start_tag t ~id) pre_vt
  | Select id ->
    let m = select_faults pre t id in
    if m land sel_none <> 0 then
      fail "work-conserving" "select returned none with %d clients backlogged"
        pre.backlogged;
    if m land sel_pending <> 0 then
      fail "work-conserving" "select with a selection already pending";
    if m land sel_unknown <> 0 then
      fail "select-min-start" "selected unknown client %d" id;
    if m land sel_blocked <> 0 then
      fail "select-min-start" "selected blocked client %d" id;
    if m land sel_empty <> 0 then
      fail "work-conserving" "selected from an empty ready set";
    let s () = selected_start pre t id (ready_index pre id 0) in
    if m land sel_not_min <> 0 then
      fail "select-min-start" "selected client %d with S=%d, but min ready S=%d"
        id (s ()) pre.min_start;
    if m land sel_vt <> 0 then
      fail "vt-monotone" "v(t)=%d after select, expected selected start tag %d"
        vt (s ())
  | Charge { id; service; runnable } ->
    let m = charge_faults pre t ~id ~service ~runnable in
    if m land ch_pending <> 0 then
      fail "work-conserving" "charge of client %d but in-service was %s" id
        (if pre.in_service < 0 then "none" else string_of_int pre.in_service);
    if m land ch_unknown <> 0 then
      fail "charge-finish-tag" "charged unknown client %d" id;
    let finish () = Sfq.finish_tag t ~id in
    if m land ch_finish <> 0 then
      fail "charge-finish-tag"
        "F=%d r'=%d, expected S + (l*unit + r)/w = %d + (%d*%d + %d)/%d"
        (finish ())
        (Sfq.slot_remainder t ~slot:(Sfq.slot_of_id t ~id))
        pre.start service Hsfq_sched.Vtime.unit pre.rem pre.eff;
    if m land ch_max_finish <> 0 then
      fail "max-finish-bound" "max finish %d below new finish %d"
        (Sfq.max_finish_tag t) (finish ());
    if m land ch_requeue <> 0 then
      fail "tag-discipline" "requeued S=%d, expected max(v=%d, F=%d)"
        (Sfq.start_tag t ~id) vt (finish ());
    if m land ch_still_runnable <> 0 then
      fail "tag-discipline" "client %d still runnable after blocking charge" id
  | Block id ->
    if block_faults t ~id <> 0 then
      fail "tag-discipline" "client %d runnable after block" id
  | Depart id ->
    if depart_faults t ~id <> 0 then
      fail "nrun-consistent" "client %d known after depart" id
  | Set_weight { id; weight } ->
    let m = set_weight_faults pre t ~id ~weight in
    if m land sw_not_applied <> 0 then
      fail "tag-discipline" "set_weight did not apply %d (has %d)" weight
        (Sfq.weight t ~id);
    if m land sw_unknown <> 0 then
      fail "tag-discipline" "set_weight on unknown client %d" id;
    if m land sw_moved <> 0 then
      fail "tag-discipline" "set_weight moved tags of client %d" id
  | Donate { blocked; recipient } ->
    if donate_faults t ~blocked ~recipient <> 0 then
      fail "donation-conservation" "no donation record %d->%d after donate"
        blocked recipient
  | Revoke blocked ->
    let m = revoke_faults pre t ~blocked in
    if m land rv_still <> 0 then
      fail "donation-conservation"
        "donation from %d still recorded after revoke" blocked;
    if m land rv_dropped <> 0 then begin
      let post = Sfq.donations t in
      List.iter
        (fun ((b, r, a) as d) ->
          if dropped ~blocked post d then
            fail "donation-conservation"
              "revoke of %d dropped unrelated donation %d->%d (%d)" blocked b r
              a)
        pre.donations
    end);
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
