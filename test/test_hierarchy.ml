(* Tests for the scheduling structure (lib/core/hierarchy): the paper's
   hsfq_mknod/parse/rmnod administration, setrun/sleep runnable
   propagation, hierarchical SFQ scheduling ratios, and residual
   redistribution. *)

open Hsfq_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ok where = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" where e

let err where = function
  | Ok _ -> Alcotest.failf "%s: expected an error" where
  | Error e -> e

(* Build the paper's Figure 2 structure. Returns (t, hard, soft, best,
   user1, user2). *)
let figure2 () =
  let t = Hierarchy.create () in
  let hard =
    ok "hard" (Hierarchy.mknod t ~name:"hard-rt" ~parent:Hierarchy.root ~weight:1. Hierarchy.Leaf)
  in
  let soft =
    ok "soft" (Hierarchy.mknod t ~name:"soft-rt" ~parent:Hierarchy.root ~weight:3. Hierarchy.Leaf)
  in
  let best =
    ok "best" (Hierarchy.mknod t ~name:"best-effort" ~parent:Hierarchy.root ~weight:6. Hierarchy.Internal)
  in
  let user1 = ok "user1" (Hierarchy.mknod t ~name:"user1" ~parent:best ~weight:1. Hierarchy.Leaf) in
  let user2 = ok "user2" (Hierarchy.mknod t ~name:"user2" ~parent:best ~weight:1. Hierarchy.Leaf) in
  (t, hard, soft, best, user1, user2)

(* Run [n] schedule/update cycles of 1 ms each; returns per-leaf
   selection counts. *)
let spin t n =
  let counts = Hashtbl.create 8 in
  for _ = 1 to n do
    let leaf = Hierarchy.schedule_id t in
    if leaf >= 0 then begin
      Hashtbl.replace counts leaf (1 + Option.value ~default:0 (Hashtbl.find_opt counts leaf));
      Hierarchy.update_ns t ~leaf ~service_ns:1_000_000 ~leaf_runnable:true
    end
  done;
  fun leaf -> Option.value ~default:0 (Hashtbl.find_opt counts leaf)

(* ----------------------------- paths ---------------------------------- *)

let test_path_components () =
  check_bool "plain" true (Path.is_valid_component "user1");
  check_bool "dash and dot inside" true (Path.is_valid_component "a.b-c");
  check_bool "empty" false (Path.is_valid_component "");
  check_bool "dot" false (Path.is_valid_component ".");
  check_bool "dotdot" false (Path.is_valid_component "..");
  check_bool "slash" false (Path.is_valid_component "a/b")

let test_path_split_join () =
  (match Path.split "/a/b" with
  | Ok parts -> Alcotest.(check (list string)) "absolute" [ "a"; "b" ] parts
  | Error e -> Alcotest.fail e);
  (match Path.split "a/b" with
  | Ok parts -> Alcotest.(check (list string)) "relative" [ "a"; "b" ] parts
  | Error e -> Alcotest.fail e);
  (match Path.split "/" with
  | Ok parts -> Alcotest.(check (list string)) "root" [] parts
  | Error e -> Alcotest.fail e);
  check_bool "absolute flag" true (Path.is_absolute "/a");
  check_bool "relative flag" false (Path.is_absolute "a");
  check_bool "empty rejected" true (Result.is_error (Path.split ""));
  check_bool "dotdot rejected" true (Result.is_error (Path.split "/a/../b"));
  Alcotest.(check string) "join" "/a/b" (Path.join [ "a"; "b" ]);
  Alcotest.(check string) "join empty" "/" (Path.join [])

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_render_tree () =
  let t, _, _, _, _, user2 = figure2 () in
  Hierarchy.setrun t user2;
  let s = Hierarchy.render_tree t in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  check_int "one line per node" 6 (List.length lines);
  check_bool "user2 line marked runnable" true
    (List.exists (fun l -> contains ~sub:"user2" l && contains ~sub:"runnable" l) lines);
  check_bool "hard-rt line idle" true
    (List.exists (fun l -> contains ~sub:"hard-rt" l && contains ~sub:"idle" l) lines)

(* --------------------------- structure ------------------------------- *)

let test_create () =
  let t = Hierarchy.create () in
  check_int "only the root" 1 (Hierarchy.node_count t);
  check_bool "root internal" true (Hierarchy.kind_of t Hierarchy.root = Hierarchy.Internal);
  check_bool "root not runnable" false (Hierarchy.is_runnable t Hierarchy.root);
  Alcotest.(check (option int)) "root has no parent" None
    (Hierarchy.parent_of t Hierarchy.root);
  Alcotest.(check string) "root name" "/" (Hierarchy.name_of t Hierarchy.root)

let test_mknod_and_names () =
  let t, hard, _, best, user1, _ = figure2 () in
  check_int "six nodes" 6 (Hierarchy.node_count t);
  Alcotest.(check string) "leaf name" "/hard-rt" (Hierarchy.name_of t hard);
  Alcotest.(check string) "nested name" "/best-effort/user1"
    (Hierarchy.name_of t user1);
  check_int "depth of user1" 2 (Hierarchy.depth t user1);
  check_int "depth of root" 0 (Hierarchy.depth t Hierarchy.root);
  Alcotest.(check (list int)) "children in creation order" [ user1 ]
    (List.filter (fun c -> Hierarchy.name_of t c = "/best-effort/user1")
       (Hierarchy.children_of t best));
  check_int "weight stored, in units" 6_000_000 (Hierarchy.weight t best)

let test_mknod_errors () =
  let t, hard, _, best, _, _ = figure2 () in
  ignore (err "dup" (Hierarchy.mknod t ~name:"user1" ~parent:best ~weight:1. Hierarchy.Leaf));
  ignore (err "leaf parent" (Hierarchy.mknod t ~name:"x" ~parent:hard ~weight:1. Hierarchy.Leaf));
  ignore (err "unknown parent" (Hierarchy.mknod t ~name:"x" ~parent:999 ~weight:1. Hierarchy.Leaf));
  ignore (err "bad weight" (Hierarchy.mknod t ~name:"x" ~parent:best ~weight:0. Hierarchy.Leaf));
  ignore (err "bad name /" (Hierarchy.mknod t ~name:"a/b" ~parent:best ~weight:1. Hierarchy.Leaf));
  ignore (err "empty name" (Hierarchy.mknod t ~name:"" ~parent:best ~weight:1. Hierarchy.Leaf));
  ignore (err "dot name" (Hierarchy.mknod t ~name:"." ~parent:best ~weight:1. Hierarchy.Leaf))

let test_parse () =
  let t, hard, _, best, user1, user2 = figure2 () in
  check_int "absolute" user1 (ok "p1" (Hierarchy.parse t "/best-effort/user1"));
  check_int "absolute leaf" hard (ok "p2" (Hierarchy.parse t "/hard-rt"));
  check_int "root" Hierarchy.root (ok "p3" (Hierarchy.parse t "/"));
  check_int "relative to hint" user2 (ok "p4" (Hierarchy.parse t ~hint:best "user2"));
  check_int "relative default root" hard (ok "p5" (Hierarchy.parse t "hard-rt"));
  ignore (err "missing" (Hierarchy.parse t "/no-such-node"));
  ignore (err "missing nested" (Hierarchy.parse t "/best-effort/nobody"));
  ignore (err "empty" (Hierarchy.parse t ""))

let test_rmnod () =
  let t, hard, _, best, user1, user2 = figure2 () in
  ignore (err "root" (Hierarchy.rmnod t Hierarchy.root));
  ignore (err "has children" (Hierarchy.rmnod t best));
  Hierarchy.setrun t hard;
  ignore (err "runnable" (Hierarchy.rmnod t hard));
  Hierarchy.sleep t hard;
  ok "leaf" (Hierarchy.rmnod t hard);
  ignore (err "already removed" (Hierarchy.rmnod t hard));
  ok "user1" (Hierarchy.rmnod t user1);
  ok "user2" (Hierarchy.rmnod t user2);
  ok "now empty internal" (Hierarchy.rmnod t best);
  check_int "back to two nodes" 2 (Hierarchy.node_count t);
  (* The name is reusable after removal. *)
  ignore
    (ok "reuse name"
       (Hierarchy.mknod t ~name:"best-effort" ~parent:Hierarchy.root ~weight:1.
          Hierarchy.Leaf))

let test_set_weight () =
  let t, hard, _, _, _, _ = figure2 () in
  Hierarchy.set_weight t hard 5.;
  check_int "updated" 5_000_000 (Hierarchy.weight t hard);
  Alcotest.check_raises "root weight"
    (Invalid_argument "Hierarchy.set_weight: root has no weight") (fun () ->
      Hierarchy.set_weight t Hierarchy.root 2.);
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Hierarchy.set_weight: weight <= 0") (fun () ->
      Hierarchy.set_weight t hard 0.)

(* ---------------------- runnable propagation ------------------------- *)

let test_setrun_propagates () =
  let t, _, _, best, user1, user2 = figure2 () in
  check_bool "initially idle" false (Hierarchy.is_runnable t Hierarchy.root);
  Hierarchy.setrun t user1;
  check_bool "leaf" true (Hierarchy.is_runnable t user1);
  check_bool "parent" true (Hierarchy.is_runnable t best);
  check_bool "root" true (Hierarchy.is_runnable t Hierarchy.root);
  check_bool "sibling untouched" false (Hierarchy.is_runnable t user2)

let test_sleep_stops_at_busy_ancestor () =
  let t, _, _, best, user1, user2 = figure2 () in
  Hierarchy.setrun t user1;
  Hierarchy.setrun t user2;
  Hierarchy.sleep t user1;
  check_bool "user1 asleep" false (Hierarchy.is_runnable t user1);
  check_bool "best still runnable (user2)" true (Hierarchy.is_runnable t best);
  check_bool "root still runnable" true (Hierarchy.is_runnable t Hierarchy.root);
  Hierarchy.sleep t user2;
  check_bool "best idle" false (Hierarchy.is_runnable t best);
  check_bool "root idle" false (Hierarchy.is_runnable t Hierarchy.root)

let test_update_propagates_sleep () =
  let t, _, _, best, user1, _ = figure2 () in
  Hierarchy.setrun t user1;
  (match Hierarchy.schedule_id t with
  | leaf when leaf = user1 ->
    Hierarchy.update_ns t ~leaf ~service_ns:10 ~leaf_runnable:false
  | _ -> Alcotest.fail "expected user1");
  check_bool "leaf idle" false (Hierarchy.is_runnable t user1);
  check_bool "best idle" false (Hierarchy.is_runnable t best);
  check_bool "root idle" false (Hierarchy.is_runnable t Hierarchy.root);
  check_int "nothing schedulable" (-1) (Hierarchy.schedule_id t)

(* ------------------------ scheduling ratios -------------------------- *)

let test_flat_ratio () =
  let t = Hierarchy.create () in
  let a = ok "a" (Hierarchy.mknod t ~name:"a" ~parent:Hierarchy.root ~weight:1. Hierarchy.Leaf) in
  let b = ok "b" (Hierarchy.mknod t ~name:"b" ~parent:Hierarchy.root ~weight:3. Hierarchy.Leaf) in
  Hierarchy.setrun t a;
  Hierarchy.setrun t b;
  let count = spin t 4000 in
  check_int "a gets 1/4" 1000 (count a);
  check_int "b gets 3/4" 3000 (count b)

let test_hierarchical_ratio () =
  (* root -> A (w=1) | B (w=1, internal) -> B1 (w=1) | B2 (w=3).
     Shares: A 50%, B1 12.5%, B2 37.5%. *)
  let t = Hierarchy.create () in
  let a = ok "a" (Hierarchy.mknod t ~name:"a" ~parent:Hierarchy.root ~weight:1. Hierarchy.Leaf) in
  let b = ok "b" (Hierarchy.mknod t ~name:"b" ~parent:Hierarchy.root ~weight:1. Hierarchy.Internal) in
  let b1 = ok "b1" (Hierarchy.mknod t ~name:"b1" ~parent:b ~weight:1. Hierarchy.Leaf) in
  let b2 = ok "b2" (Hierarchy.mknod t ~name:"b2" ~parent:b ~weight:3. Hierarchy.Leaf) in
  Hierarchy.setrun t a;
  Hierarchy.setrun t b1;
  Hierarchy.setrun t b2;
  let count = spin t 8000 in
  check_bool "A ~ 50%" true (abs (count a - 4000) <= 4);
  check_bool "B1 ~ 12.5%" true (abs (count b1 - 1000) <= 4);
  check_bool "B2 ~ 37.5%" true (abs (count b2 - 3000) <= 4)

let test_residual_redistribution () =
  (* Figure 2 example 1: with hard-rt idle, soft-rt and best-effort split
     its allocation 3:6. *)
  let t, _, soft, _, user1, user2 = figure2 () in
  Hierarchy.setrun t soft;
  Hierarchy.setrun t user1;
  Hierarchy.setrun t user2;
  let count = spin t 9000 in
  check_int "soft 3/9" 3000 (count soft);
  check_int "user1 3/9 (half of 6/9)" 3000 (count user1);
  check_int "user2 3/9" 3000 (count user2)

let test_weight_change_reshapes_allocation () =
  let t = Hierarchy.create () in
  let a = ok "a" (Hierarchy.mknod t ~name:"a" ~parent:Hierarchy.root ~weight:1. Hierarchy.Leaf) in
  let b = ok "b" (Hierarchy.mknod t ~name:"b" ~parent:Hierarchy.root ~weight:1. Hierarchy.Leaf) in
  Hierarchy.setrun t a;
  Hierarchy.setrun t b;
  let (_ : Hierarchy.id -> int) = spin t 100 in
  Hierarchy.set_weight t b 3.;
  let count = spin t 4000 in
  check_bool "after change, b gets ~3/4" true (abs (count b - 3000) <= 4)

let test_deep_chain () =
  let t = Hierarchy.create () in
  let parent = ref Hierarchy.root in
  for i = 1 to 30 do
    parent :=
      ok "mid" (Hierarchy.mknod t ~name:(Printf.sprintf "m%d" i) ~parent:!parent ~weight:1. Hierarchy.Internal)
  done;
  let a = ok "a" (Hierarchy.mknod t ~name:"a" ~parent:!parent ~weight:1. Hierarchy.Leaf) in
  let b = ok "b" (Hierarchy.mknod t ~name:"b" ~parent:!parent ~weight:2. Hierarchy.Leaf) in
  check_int "depth 31" 31 (Hierarchy.depth t a);
  Hierarchy.setrun t a;
  Hierarchy.setrun t b;
  let count = spin t 3000 in
  check_int "a 1/3 at depth 31" 1000 (count a);
  check_int "b 2/3 at depth 31" 2000 (count b);
  (* Sleep propagates all the way up the chain. *)
  Hierarchy.sleep t a;
  Hierarchy.sleep t b;
  check_bool "root idle after deep sleep" false (Hierarchy.is_runnable t Hierarchy.root)

let test_schedule_empty () =
  let t, _, _, _, _, _ = figure2 () in
  check_int "no runnable leaf" (-1) (Hierarchy.schedule_id t)

let test_donate_siblings_only () =
  let t, hard, soft, _, user1, _ = figure2 () in
  ok "siblings" (Hierarchy.donate t ~blocked:hard ~recipient:soft);
  Hierarchy.revoke t ~blocked:hard;
  ignore (err "not siblings" (Hierarchy.donate t ~blocked:hard ~recipient:user1))

let test_tag_accessors () =
  let t, hard, _, _, _, _ = figure2 () in
  Alcotest.check_raises "root has no tags"
    (Invalid_argument "Hierarchy.start_tag_of: root has no tags") (fun () ->
      ignore (Hierarchy.start_tag_of t Hierarchy.root));
  Hierarchy.setrun t hard;
  check_int "initial start tag" 0 (Hierarchy.start_tag_of t hard);
  check_int "root vt" 0 (Hierarchy.virtual_time_of t Hierarchy.root)

(* --------------------------- properties ------------------------------ *)

(* Invariant: a node is runnable iff some leaf in its subtree is
   runnable, under random wake/sleep/schedule sequences. *)
let prop_runnable_invariant =
  QCheck.Test.make ~name:"runnable flags track leaf state" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 120) (pair (int_bound 3) (int_bound 2)))
    (fun ops ->
      let t = Hierarchy.create () in
      let mid =
        ok "mid" (Hierarchy.mknod t ~name:"mid" ~parent:Hierarchy.root ~weight:1. Hierarchy.Internal)
      in
      let leaves =
        [|
          ok "l0" (Hierarchy.mknod t ~name:"l0" ~parent:Hierarchy.root ~weight:1. Hierarchy.Leaf);
          ok "l1" (Hierarchy.mknod t ~name:"l1" ~parent:mid ~weight:2. Hierarchy.Leaf);
          ok "l2" (Hierarchy.mknod t ~name:"l2" ~parent:mid ~weight:3. Hierarchy.Leaf);
          ok "l3" (Hierarchy.mknod t ~name:"l3" ~parent:Hierarchy.root ~weight:4. Hierarchy.Leaf);
        |]
      in
      let model = Array.make 4 false in
      let consistent () =
        let leaf_ok = Array.for_all Fun.id (Array.mapi (fun i l -> Hierarchy.is_runnable t l = model.(i)) leaves) in
        let mid_ok = Hierarchy.is_runnable t mid = (model.(1) || model.(2)) in
        let root_ok =
          Hierarchy.is_runnable t Hierarchy.root
          = (model.(0) || model.(1) || model.(2) || model.(3))
        in
        leaf_ok && mid_ok && root_ok
      in
      List.for_all
        (fun (i, action) ->
          (match action with
          | 0 ->
            (* wake leaf i *)
            if not model.(i) then begin
              Hierarchy.setrun t leaves.(i);
              model.(i) <- true
            end
          | 1 ->
            (* sleep leaf i (only when runnable) *)
            if model.(i) then begin
              Hierarchy.sleep t leaves.(i);
              model.(i) <- false
            end
          | _ -> (
            (* one scheduling cycle; the chosen leaf blocks when it
               matches i *)
            match Hierarchy.schedule_id t with
            | -1 -> ()
            | leaf ->
              let idx =
                match Array.to_list (Array.mapi (fun j l -> (j, l)) leaves)
                      |> List.find_opt (fun (_, l) -> l = leaf)
                with
                | Some (j, _) -> j
                | None -> -1
              in
              let still = idx <> i in
              Hierarchy.update_ns t ~leaf ~service_ns:1 ~leaf_runnable:still;
              if not still then model.(idx) <- false));
          consistent ())
        ops)

(* Selection frequencies track weights for random 2-level trees. *)
let prop_weighted_shares =
  QCheck.Test.make ~name:"selection shares follow weight products" ~count:60
    QCheck.(
      pair
        (pair (float_range 0.5 4.) (float_range 0.5 4.))
        (pair (float_range 0.5 4.) (float_range 0.5 4.)))
    (fun ((wa, wb), (w1, w2)) ->
      let t = Hierarchy.create () in
      let a = ok "a" (Hierarchy.mknod t ~name:"a" ~parent:Hierarchy.root ~weight:wa Hierarchy.Leaf) in
      let b = ok "b" (Hierarchy.mknod t ~name:"b" ~parent:Hierarchy.root ~weight:wb Hierarchy.Internal) in
      let b1 = ok "b1" (Hierarchy.mknod t ~name:"b1" ~parent:b ~weight:w1 Hierarchy.Leaf) in
      let b2 = ok "b2" (Hierarchy.mknod t ~name:"b2" ~parent:b ~weight:w2 Hierarchy.Leaf) in
      Hierarchy.setrun t a;
      Hierarchy.setrun t b1;
      Hierarchy.setrun t b2;
      let n = 20000 in
      let count = spin t n in
      let total = float_of_int n in
      let share_a = wa /. (wa +. wb) in
      let share_b1 = wb /. (wa +. wb) *. (w1 /. (w1 +. w2)) in
      let share_b2 = wb /. (wa +. wb) *. (w2 /. (w1 +. w2)) in
      let close got want = Float.abs ((float_of_int got /. total) -. want) < 0.01 in
      close (count a) share_a && close (count b1) share_b1 && close (count b2) share_b2)

(* A pure chain of intermediate nodes must not change scheduling at all:
   the leaf-selection sequence equals flat SFQ's over the same clients. *)
let prop_chain_equals_flat =
  QCheck.Test.make ~name:"single-child chains are scheduling no-ops" ~count:60
    QCheck.(
      pair (int_range 1 8)
        (list_of_size (Gen.int_range 10 80) (int_range 1 4_000)))
    (fun (depth, quanta) ->
      (* Flat: three SFQ clients. *)
      let flat = Sfq.create () in
      List.iteri
        (fun i w ->
          Sfq.arrive flat ~id:(i + 1) ~weight:(Hsfq_sched.Vtime.weight_of_float w))
        [ 1.; 2.; 3. ];
      (* Chained: the same three leaves under [depth] intermediate
         single-child nodes. *)
      let t = Hierarchy.create () in
      let parent = ref Hierarchy.root in
      for i = 1 to depth do
        parent :=
          ok "mid"
            (Hierarchy.mknod t ~name:(Printf.sprintf "m%d" i) ~parent:!parent
               ~weight:1. Hierarchy.Internal)
      done;
      let leaves =
        List.mapi
          (fun i w ->
            let id =
              ok "leaf"
                (Hierarchy.mknod t ~name:(Printf.sprintf "l%d" i) ~parent:!parent
                   ~weight:w Hierarchy.Leaf)
            in
            Hierarchy.setrun t id;
            (i + 1, id))
          [ 1.; 2.; 3. ]
      in
      List.for_all
        (fun service ->
          let flat_pick = Sfq.select_id flat in
          if flat_pick >= 0 then
            Sfq.charge flat ~id:flat_pick ~service ~runnable:true;
          let tree_pick =
            match Hierarchy.schedule_id t with
            | -1 -> -3
            | leaf ->
              Hierarchy.update_ns t ~leaf ~service_ns:service ~leaf_runnable:true;
              (match List.find_opt (fun (_, l) -> l = leaf) leaves with
              | Some (i, _) -> i
              | None -> -2)
          in
          flat_pick = tree_pick)
        quanta)

(* ---------------------- churn and reclamation -------------------------- *)

(* Bulk-build a wide internal node (through reserve_children), tear most
   of it down, and require the whole structure to shrink: node-array
   capacity and footprint follow the survivors, the invariant audit stays
   clean over the compacted state, the surviving runnable leaves still
   dispatch, and freed ids are recycled instead of growing the frontier. *)
let test_churn_reclaims_and_redispatches () =
  let t = Hierarchy.create () in
  let g =
    ok "g"
      (Hierarchy.mknod t ~name:"g" ~parent:Hierarchy.root ~weight:1.
         Hierarchy.Internal)
  in
  let n = 2048 in
  Hierarchy.reserve_children t g n;
  let leaves =
    Array.init n (fun i ->
        ok "leaf"
          (Hierarchy.mknod t
             ~name:(Printf.sprintf "l%d" i)
             ~parent:g
             ~weight:(float_of_int (1 + (i mod 3)))
             Hierarchy.Leaf))
  in
  check_int "node count" (2 + n) (Hierarchy.node_count t);
  for i = 0 to 7 do
    Hierarchy.setrun t leaves.(i)
  done;
  let cap_full = Hierarchy.capacity t in
  let fp_full = Hierarchy.footprint_words t in
  (* Remove all but the first 64 children (the runnable ones are among
     the survivors): live occupancy falls far below a quarter of both
     the node array and g's SFQ table. *)
  for i = 64 to n - 1 do
    ok "rm" (Hierarchy.rmnod t leaves.(i))
  done;
  let sink = Hsfq_check.Invariant.create () in
  Hsfq_check.Hierarchy_audit.check_all sink t;
  check_int "audit clean after the storm" 0 (Hsfq_check.Invariant.count sink);
  check_bool "node array released" true (Hierarchy.capacity t < cap_full);
  check_bool "footprint released" true (2 * Hierarchy.footprint_words t < fp_full);
  (* Dispatch through the compacted parent SFQ still works and only
     serves the runnable survivors. *)
  for _ = 1 to 32 do
    let leaf = Hierarchy.schedule_id t in
    check_bool "a runnable survivor is selected" true
      (leaf >= 0 && Array.exists (fun l -> l = leaf) (Array.sub leaves 0 8));
    Hierarchy.update_ns t ~leaf ~service_ns:1_000_000 ~leaf_runnable:true
  done;
  (* Freed ids are recycled below the old frontier. *)
  let nid =
    ok "fresh"
      (Hierarchy.mknod t ~name:"fresh" ~parent:g ~weight:1. Hierarchy.Leaf)
  in
  check_bool "id recycled, frontier trimmed" true (nid <= leaves.(64));
  check_bool "reserve_children rejects leaves" true
    (try
       Hierarchy.reserve_children t nid 4;
       false
     with Invalid_argument _ -> true)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "hierarchy"
    [
      ( "paths",
        [
          Alcotest.test_case "component validity" `Quick test_path_components;
          Alcotest.test_case "split and join" `Quick test_path_split_join;
          Alcotest.test_case "render_tree" `Quick test_render_tree;
        ] );
      ( "structure",
        [
          Alcotest.test_case "create" `Quick test_create;
          Alcotest.test_case "mknod and names" `Quick test_mknod_and_names;
          Alcotest.test_case "mknod errors" `Quick test_mknod_errors;
          Alcotest.test_case "parse" `Quick test_parse;
          Alcotest.test_case "rmnod" `Quick test_rmnod;
          Alcotest.test_case "set_weight" `Quick test_set_weight;
          Alcotest.test_case "tag accessors" `Quick test_tag_accessors;
        ] );
      ( "runnability",
        [
          Alcotest.test_case "setrun propagates up" `Quick test_setrun_propagates;
          Alcotest.test_case "sleep stops at busy ancestor" `Quick
            test_sleep_stops_at_busy_ancestor;
          Alcotest.test_case "update propagates sleep" `Quick
            test_update_propagates_sleep;
          Alcotest.test_case "schedule on empty structure" `Quick test_schedule_empty;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "flat 1:3 split" `Quick test_flat_ratio;
          Alcotest.test_case "two-level shares" `Quick test_hierarchical_ratio;
          Alcotest.test_case "residual redistribution (Example 1)" `Quick
            test_residual_redistribution;
          Alcotest.test_case "dynamic weight change" `Quick
            test_weight_change_reshapes_allocation;
          Alcotest.test_case "depth-31 chain" `Quick test_deep_chain;
          Alcotest.test_case "donation sibling restriction" `Quick
            test_donate_siblings_only;
          Alcotest.test_case "churn reclaims and redispatches" `Quick
            test_churn_reclaims_and_redispatches;
        ] );
      ( "properties",
        [
          qc prop_runnable_invariant;
          qc prop_weighted_shares;
          qc prop_chain_equals_flat;
        ] );
    ]
