open Hsfq_engine

type spec =
  | Periodic of { period : Time.span; cost : Time.span }
  | Poisson of { rate_hz : float; mean_cost : Time.span; seed : int }

let utilization = function
  | Periodic { period; cost } -> float_of_int cost /. float_of_int period
  | Poisson { rate_hz; mean_cost; _ } ->
    rate_hz *. float_of_int mean_cost /. 1e9

let fc_burstiness = function
  | Periodic { cost; _ } -> cost
  | Poisson { rate_hz; mean_cost; _ } ->
    (* Heuristic envelope: mean + 3 sqrt(mean) arrivals in a second, each
       at the mean cost. Only used for reporting, not for proofs. *)
    let lambda = rate_hz in
    let burst_arrivals = lambda +. (3. *. sqrt lambda) in
    int_of_float (burst_arrivals *. float_of_int mean_cost)

type t = {
  sim : Sim.t;
  spec : spec;
  rng : Prng.t; (* a Poisson source's draws; unused by a periodic one *)
  fire : t -> duration:Time.span -> unit;
  (* The arrival timer; the [lazy] ties its thunk to the source. *)
  timer : Event_queue.timer Lazy.t;
  mutable next : Time.t;
}

let next_arrival src = src.next
let pending src = Sim.armed src.sim (Lazy.force src.timer)

let poisson_cost rng mean_cost =
  Int.max 1 (int_of_float (Prng.exponential rng ~mean:(float_of_int mean_cost)))

let poisson_gap rng rate_hz =
  Int.max 1 (Time.of_seconds_float (Prng.exponential rng ~mean:(1. /. rate_hz)))

let cost src =
  match src.spec with
  | Periodic { cost; _ } -> cost
  | Poisson { mean_cost; _ } -> poisson_cost src.rng mean_cost

let gap src =
  match src.spec with
  | Periodic { period; _ } -> period
  | Poisson { rate_hz; _ } -> poisson_gap src.rng rate_hz

(* One arrival: draw the cost, then the gap, and arm the next arrival
   before firing when the interrupt ends strictly before it, so that
   its end may fire in place. Otherwise fire first: at a tie the end,
   armed by the firing, keeps its place ahead of the arrival. *)
let tick src =
  let duration = cost src in
  let gap = gap src in
  let next = Time.saturating_add (Sim.now src.sim) gap in
  src.next <- next;
  if duration < gap then begin
    Sim.arm src.sim (Lazy.force src.timer) next;
    src.fire src ~duration
  end
  else begin
    src.fire src ~duration;
    Sim.arm src.sim (Lazy.force src.timer) next
  end

let start spec ~sim ~fire =
  let seed =
    match spec with
    | Periodic { period; cost } ->
      if period <= 0 || cost < 0 then invalid_arg "Interrupt_source: bad periodic spec";
      0
    | Poisson { rate_hz; mean_cost; seed } ->
      if rate_hz <= 0. || mean_cost <= 0 then
        invalid_arg "Interrupt_source: bad poisson spec";
      seed
  in
  let rng = Prng.create seed in
  let rec src =
    { sim; spec; rng; fire; timer = lazy (Sim.timer sim (fun () -> tick src)); next = 0 }
  in
  src.next <- Time.saturating_add (Sim.now sim) (gap src);
  Sim.arm sim (Lazy.force src.timer) src.next;
  src
