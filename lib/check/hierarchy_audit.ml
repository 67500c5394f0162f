open Hsfq_core

let path hier nid =
  let p = Hierarchy.name_of hier nid in
  if p = "" then "/" else p

(* Children bookkeeping: administered weights, runnable flags and cached
   slots must agree with the child's registration in this node's SFQ.
   The children's flags are always updated before the parent's SFQ
   transition (setrun/sleep/update all write the child first), so this
   holds at every hook firing — unlike the node's *own* flag, which is
   written by the *next* step of the walk and is only checked in
   {!check_all}. Each child's rules as a bit set (0 = all hold), from
   one slot probe and one read of the child's node. *)
let unregistered = 1 and weight_differs = 2 and flag_differs = 4
and slot_differs = 8

let child_faults hier sfq child =
  let slot = Sfq.slot_of_id sfq ~id:child in
  if slot < 0 || not (Sfq.slot_live sfq ~slot) then unregistered
  else
    let n = Hierarchy.node hier child in
    (if Hierarchy.node_weight n = Sfq.slot_weight sfq ~slot then 0
     else weight_differs)
    lor (if Bool.equal (Hierarchy.node_runnable n) (Sfq.slot_runnable sfq ~slot)
         then 0
         else flag_differs)
    (* The setrun/sleep/update walks address the parent's SFQ through
       the cached slot alone. *)
    lor if Hierarchy.node_slot n = slot then 0 else slot_differs

let rec children_faults hier sfq acc = function
  | [] -> acc
  | child :: older ->
    children_faults hier sfq (acc lor child_faults hier sfq child) older

(* The report path: the same rules, with paths built for each record,
   children in creation order. *)
let report_node sink hier nid ~event sfq =
  Sfq_rules.check_state sink ~where:(fun () -> (path hier nid, event)) sfq;
  let fail invariant =
    Invariant.fail sink ~invariant ~node:(path hier nid) ~event
  in
  List.iter
    (fun child ->
      let mask = child_faults hier sfq child in
      if mask land unregistered <> 0 then
        fail "weight-conservation" "child %s not registered in the SFQ"
          (path hier child);
      let slot = Sfq.slot_of_id sfq ~id:child in
      if mask land weight_differs <> 0 then
        fail "weight-conservation"
          "child %s administered weight %d but registered %d" (path hier child)
          (Hierarchy.weight hier child)
          (Sfq.slot_weight sfq ~slot);
      if mask land flag_differs <> 0 then
        fail "runnability" "child %s flag %b but SFQ says %b" (path hier child)
          (Hierarchy.is_runnable hier child)
          (Sfq.slot_runnable sfq ~slot);
      if mask land slot_differs <> 0 then
        fail "slot-cache" "child %s caches slot %d but the SFQ holds it at %d"
          (path hier child)
          (Hierarchy.node_slot (Hierarchy.node hier child))
          slot)
    (Hierarchy.children_of hier nid)

let check_node sink hier nid ~event =
  let sfq = Hierarchy.internal_sfq hier nid in
  if
    not
      (Sfq_rules.state_clean sfq
      && children_faults hier sfq 0 (Hierarchy.children_newest_first hier nid)
         = 0)
  then report_node sink hier nid ~event sfq

let attach sink hier =
  Hierarchy.set_audit_hook hier
    (Some (fun ~node ~event -> check_node sink hier node ~event))

let check_all sink hier =
  let rec walk nid =
    (match Hierarchy.kind_of hier nid with
    | Hierarchy.Leaf -> ()
    | Hierarchy.Internal ->
      check_node sink hier nid ~event:"sweep";
      (* Quiescent-only rule: a node is runnable iff some child is (§4),
         i.e. iff its SFQ is backlogged. Mid-walk the flag is written one
         step after the SFQ, so this is a sweep check, not a hook one. *)
      let sfq = Hierarchy.internal_sfq hier nid in
      Invariant.check sink ~invariant:"runnability" ~node:(path hier nid)
        ~event:"sweep"
        (Hierarchy.is_runnable hier nid = (Sfq.backlogged sfq > 0))
        "node flag %b but SFQ backlog is %d"
        (Hierarchy.is_runnable hier nid)
        (Sfq.backlogged sfq));
    List.iter walk (Hierarchy.children_of hier nid)
  in
  walk Hierarchy.root
