open Hsfq_core

type grant = { node : Hierarchy.id; share : float }

type admitted =
  | Hard of Admission.task
  | Soft of Admission.soft_task

type t = {
  hier : Hierarchy.t;
  hard : Hierarchy.id;
  soft : Hierarchy.id;
  best : Hierarchy.id;
  quantile : float;
  apps : (string, admitted) Hashtbl.t;
  users : (string, Hierarchy.id) Hashtbl.t;
}

let must = function
  | Ok v -> v
  | Error e -> invalid_arg ("Qos.Manager.create: " ^ e)

let create ?(hard_weight = 1.) ?(soft_weight = 3.) ?(best_effort_weight = 6.)
    ?(quantile = 2.33) hier =
  let hard =
    must (Hierarchy.mknod hier ~name:"hard-rt" ~parent:Hierarchy.root
            ~weight:hard_weight Hierarchy.Leaf)
  in
  let soft =
    must (Hierarchy.mknod hier ~name:"soft-rt" ~parent:Hierarchy.root
            ~weight:soft_weight Hierarchy.Leaf)
  in
  let best =
    must (Hierarchy.mknod hier ~name:"best-effort" ~parent:Hierarchy.root
            ~weight:best_effort_weight Hierarchy.Internal)
  in
  { hier; hard; soft; best; quantile; apps = Hashtbl.create 16; users = Hashtbl.create 8 }

let hard_node t = t.hard
let soft_node t = t.soft
let best_effort_node t = t.best

(* Share = product of (weight / sum of sibling weights) along the path.
   This is the guaranteed share under full contention; with idle siblings
   the node only receives more (SFQ redistributes residuals). *)
let share_of t id =
  let rec up id acc =
    match Hierarchy.parent_of t.hier id with
    | None -> acc
    | Some p ->
      let siblings = Hierarchy.children_of t.hier p in
      let total =
        List.fold_left (fun s c -> s + Hierarchy.weight t.hier c) 0 siblings
      in
      up p (acc *. (float_of_int (Hierarchy.weight t.hier id) /. float_of_int total))
  in
  up id 1.0

let hard_tasks t =
  Hashtbl.fold
    (fun _ a acc -> match a with Hard task -> task :: acc | Soft _ -> acc)
    t.apps []

let soft_tasks t =
  Hashtbl.fold
    (fun _ a acc -> match a with Soft task -> task :: acc | Hard _ -> acc)
    t.apps []

let hard_utilization t = Admission.utilization (hard_tasks t)

let soft_mean_utilization t =
  List.fold_left (fun acc (s : Admission.soft_task) -> acc +. (s.mean /. s.speriod))
    0. (soft_tasks t)

let request_hard t ~name ~cost ~period =
  if Hashtbl.mem t.apps name then Error (Printf.sprintf "duplicate application %S" name)
  else begin
    let task = Admission.{ cost; period } in
    let capacity = share_of t t.hard in
    if Admission.rm_admissible_rta ~capacity (task :: hard_tasks t) then begin
      Hashtbl.replace t.apps name (Hard task);
      Ok { node = t.hard; share = capacity }
    end
    else
      Error
        (Printf.sprintf
           "hard-rt admission failed: task (%.4g/%.4g) not schedulable in share %.3f"
           cost period capacity)
  end

let request_soft t ~name ~mean ~sigma ~period =
  if Hashtbl.mem t.apps name then Error (Printf.sprintf "duplicate application %S" name)
  else begin
    let task = Admission.{ mean; sigma; speriod = period } in
    let capacity = share_of t t.soft in
    if
      Admission.statistical_admissible ~capacity ~quantile:t.quantile
        (task :: soft_tasks t)
    then begin
      Hashtbl.replace t.apps name (Soft task);
      Ok { node = t.soft; share = capacity }
    end
    else
      Error
        (Printf.sprintf
           "soft-rt admission failed: mean %.4g/%.4g exceeds statistical capacity %.3f"
           mean period capacity)
  end

let request_best_effort t ~user =
  match Hashtbl.find_opt t.users user with
  | Some node -> Ok { node; share = share_of t node }
  | None ->
    (match Hierarchy.mknod t.hier ~name:user ~parent:t.best ~weight:1. Hierarchy.Leaf with
    | Error e -> Error e
    | Ok node ->
      Hashtbl.replace t.users user node;
      Ok { node; share = share_of t node })

let release t ~name = Hashtbl.remove t.apps name

let set_class_weight t cls w =
  let node = match cls with `Hard -> t.hard | `Soft -> t.soft | `Best_effort -> t.best in
  Hierarchy.set_weight t.hier node w

let grow_soft_for_demand t =
  let share = share_of t t.soft in
  if share > 0. && soft_mean_utilization t > 0.5 *. share then begin
    let weight c = Hsfq_sched.Vtime.to_float (Hierarchy.weight t.hier c) in
    let current = weight t.soft in
    let others =
      List.fold_left
        (fun acc c -> if c = t.soft then acc else acc +. weight c)
        0.
        (Hierarchy.children_of t.hier Hierarchy.root)
    in
    let proposed = Float.min (current *. 2.) (10. *. others) in
    if proposed > current then Hierarchy.set_weight t.hier t.soft proposed
  end
