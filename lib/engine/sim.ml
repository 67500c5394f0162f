type t = {
  q : Event_queue.t;
  mutable clock : Time.t;
  mutable fired : int;
}

let create () = { q = Event_queue.create (); clock = Time.zero; fired = 0 }

let now t = t.clock

let at t time f =
  if Time.compare time t.clock < 0 then
    invalid_arg
      (Printf.sprintf "Sim.at: scheduling in the past (%s < %s)"
         (Time.to_string time) (Time.to_string t.clock));
  Event_queue.schedule t.q ~at:time f

let after t d f =
  if d < 0 then invalid_arg "Sim.after: negative delay";
  at t (Time.saturating_add t.clock d) f

let cancel = Event_queue.cancel

(* The per-event loop: one [take_until] (single settle pass, no option,
   no tuple) per event, thunk read through [taken]. Top-level so no
   closure is allocated per call. *)
let rec drain_until t horizon =
  let at = Event_queue.take_until t.q ~horizon in
  if at >= 0 then begin
    t.clock <- Time.max t.clock at;
    t.fired <- t.fired + 1;
    (Event_queue.taken t.q) ();
    drain_until t horizon
  end

let run_until t horizon =
  drain_until t horizon;
  t.clock <- Time.max t.clock horizon

let run t = drain_until t max_int
let steps t = t.fired
