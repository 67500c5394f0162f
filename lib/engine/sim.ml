type t = {
  q : Event_queue.t;
  mutable clock : Time.t;
  mutable fired : int;
}

let create () = { q = Event_queue.create (); clock = Time.zero; fired = 0 }

let now t = t.clock

let in_the_past fn time clock =
  invalid_arg
    (Printf.sprintf "Sim.%s: scheduling in the past (%s < %s)" fn
       (Time.to_string time) (Time.to_string clock))

let negative_delay fn = invalid_arg ("Sim." ^ fn ^ ": negative delay")

let at t time f =
  if time < t.clock then in_the_past "at" time t.clock;
  Event_queue.schedule t.q ~at:time f

let after t d f =
  if d < 0 then negative_delay "after";
  Event_queue.schedule t.q ~at:(Time.saturating_add t.clock d) f

let timer t f = Event_queue.timer t.q f

let arm t tm time =
  if time < t.clock then in_the_past "arm" time t.clock;
  Event_queue.arm t.q tm ~at:time

let arm_after t tm d =
  if d < 0 then negative_delay "arm_after";
  Event_queue.arm t.q tm ~at:(Time.saturating_add t.clock d)

let disarm t tm = Event_queue.disarm t.q tm
let armed t tm = Event_queue.armed t.q tm

(* One timer re-armed from its own thunk; the [lazy] ties the thunk to
   the timer it creates. *)
let repeat t d f =
  let rec fire () = arm_after t (Lazy.force tm) (f ())
  and tm = lazy (timer t fire) in
  arm_after t (Lazy.force tm) d

(* The per-event loop: one [take_until] (single settle pass, no option,
   no tuple) per event, its thunk read through [taken]. Top-level so no
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
