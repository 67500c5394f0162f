open Hsfq_engine

type counter = { mutable n : int; stats : Stats.t; s : Series.t }

let make ~mean_think ~burst ?(seed = 11) ?requests () =
  if mean_think <= 0 || burst <= 0 then invalid_arg "Interactive.make: bad parameters";
  let c = { n = 0; stats = Stats.create (); s = Series.create () } in
  let rng = Prng.create seed in
  let requested_at = ref Time.zero in
  let state = ref `Thinking in
  let done_ () = match requests with Some n -> c.n >= n | None -> false in
  (* Every burst is the same action: built once, not per wake. *)
  let compute = Hsfq_kernel.Workload_intf.Compute burst in
  let next ~now =
    match !state with
    | `Thinking ->
      (* Woke up: issue the burst. *)
      requested_at := now;
      state := `Bursting;
      compute
    | `Bursting ->
      (* Burst complete: record response time, think again. *)
      let resp = Time.diff now !requested_at in
      c.n <- c.n + 1;
      Stats.add c.stats (float_of_int resp);
      Series.add c.s now (float_of_int resp);
      if done_ () then Hsfq_kernel.Workload_intf.Exit
      else begin
        state := `Thinking;
        let think =
          Int.max 1
            (Time.of_seconds_float
               (Prng.exponential rng
                  ~mean:(Time.to_seconds_float mean_think)))
        in
        Hsfq_kernel.Workload_intf.Sleep_for think
      end
  in
  (next, c)

let responses c = c.n
let response_stats c = c.stats
let response_series c = c.s
