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

let start spec ~sim ~fire =
  match spec with
  | Periodic { period; cost } ->
    if period <= 0 || cost < 0 then invalid_arg "Interrupt_source: bad periodic spec";
    Sim.repeat sim period (fun () ->
        fire ~duration:cost;
        period)
  | Poisson { rate_hz; mean_cost; seed } ->
    if rate_hz <= 0. || mean_cost <= 0 then
      invalid_arg "Interrupt_source: bad poisson spec";
    let rng = Prng.create seed in
    let next_gap () =
      Int.max 1 (Time.of_seconds_float (Prng.exponential rng ~mean:(1. /. rate_hz)))
    in
    Sim.repeat sim (next_gap ()) (fun () ->
        let cost =
          Int.max 1
            (int_of_float (Prng.exponential rng ~mean:(float_of_int mean_cost)))
        in
        fire ~duration:cost;
        next_gap ())
