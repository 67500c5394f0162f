open Hsfq_core

let path hier nid =
  let p = Hierarchy.name_of hier nid in
  if p = "" then "/" else p

(* Children bookkeeping: administered weights and runnable flags must
   agree with the child's registration in this node's SFQ. The children's
   flags are always updated before the parent's SFQ transition
   (setrun/sleep/update all write the child first), so this holds at
   every hook firing — unlike the node's *own* flag, which is written by
   the *next* step of the walk and is only checked in {!check_all}.
   Paths are built only for a report. *)
let check_children sink hier nid ~event sfq =
  let fail invariant =
    Invariant.fail sink ~invariant ~node:(path hier nid) ~event
  in
  Hierarchy.iter_children hier nid (fun child ->
      if not (Sfq.mem sfq ~id:child) then
        fail "weight-conservation" "child %s not registered in the SFQ"
          (path hier child)
      else begin
        let administered = Hierarchy.weight hier child in
        let registered =
          Sfq.slot_weight sfq ~slot:(Sfq.slot_of_id sfq ~id:child)
        in
        if administered <> registered then
          fail "weight-conservation"
            "child %s administered weight %d but registered %d"
            (path hier child) administered registered;
        let flag = Hierarchy.is_runnable hier child in
        if flag <> Sfq.is_runnable sfq ~id:child then
          fail "runnability" "child %s flag %b but SFQ says %b"
            (path hier child) flag
            (Sfq.is_runnable sfq ~id:child)
      end)

let check_node sink hier nid ~event =
  let sfq = Hierarchy.internal_sfq hier nid in
  Sfq_rules.check_state sink ~where:(fun () -> (path hier nid, event)) sfq;
  check_children sink hier nid ~event sfq

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
