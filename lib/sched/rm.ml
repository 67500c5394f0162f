type task = {
  mutable period : float;
  order : int; (* registration order, for deterministic tie-breaking *)
  mutable ready : bool;
}

type t = { tasks : (int, task) Hashtbl.t; mutable next_order : int; mutable nready : int }

let create () = { tasks = Hashtbl.create 16; next_order = 0; nready = 0 }

let register t ~id ~period =
  if period <= 0. then invalid_arg "Rm.register: period <= 0";
  match Hashtbl.find_opt t.tasks id with
  | Some task -> task.period <- period
  | None ->
    Hashtbl.replace t.tasks id { period; order = t.next_order; ready = false };
    t.next_order <- t.next_order + 1

let unregister t ~id =
  match Hashtbl.find_opt t.tasks id with
  | None -> ()
  | Some task ->
    if task.ready then t.nready <- t.nready - 1;
    Hashtbl.remove t.tasks id

let get t id =
  match Hashtbl.find_opt t.tasks id with
  | Some task -> task
  | None -> invalid_arg (Printf.sprintf "Rm: unknown task %d" id)

let wake t ~id =
  let task = get t id in
  if not task.ready then begin
    task.ready <- true;
    t.nready <- t.nready + 1
  end

let block t ~id =
  let task = get t id in
  if task.ready then begin
    task.ready <- false;
    t.nready <- t.nready - 1
  end

(* The task set is small (RM priorities are static and tasks few); a scan
   keeps the structure trivially correct. *)
let select_id t =
  let best = ref (-1) and best_period = ref 0. and best_order = ref 0 in
  Hashtbl.iter
    (fun id task ->
      if
        task.ready
        && (!best < 0
           || task.period < !best_period
           || (task.period = !best_period && task.order < !best_order))
      then begin
        best := id;
        best_period := task.period;
        best_order := task.order
      end)
    t.tasks;
  !best

let period_of t ~id =
  Option.map (fun task -> task.period) (Hashtbl.find_opt t.tasks id)

let higher_priority t a ~than =
  let ta = get t a and tb = get t than in
  ta.period < tb.period || (ta.period = tb.period && ta.order < tb.order)

let backlogged t = t.nready
