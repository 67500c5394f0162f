open Hsfq_engine

type params = {
  fps : float;
  gop : string;
  base_cost : Time.span;
  i_factor : float;
  p_factor : float;
  b_factor : float;
  scene_mean_frames : float;
  complexity_sigma : float;
  noise_sigma : float;
  seed : int;
}

let default_params =
  {
    fps = 30.;
    gop = "IBBPBBPBBPBB";
    base_cost = Time.milliseconds 8;
    i_factor = 2.2;
    p_factor = 1.0;
    b_factor = 0.6;
    scene_mean_frames = 90.;
    complexity_sigma = 0.35;
    noise_sigma = 0.12;
    seed = 7;
  }

let frame_type p i = p.gop.[i mod String.length p.gop]

let type_factor p = function
  | 'I' -> p.i_factor
  | 'P' -> p.p_factor
  | 'B' -> p.b_factor
  | c -> invalid_arg (Printf.sprintf "Mpeg: unknown frame type %c" c)

(* A lognormal draw with median 1: exp(sigma * N(0,1)). *)
let lognormal rng sigma = exp (Prng.gaussian rng ~mu:0. ~sigma)

(* Stateful per-frame cost stream shared by [trace] and [decoder]. *)
let cost_stream p =
  if String.length p.gop = 0 then invalid_arg "Mpeg: empty GOP";
  String.iter (fun c -> ignore (type_factor p c)) p.gop;
  let rng = Prng.create p.seed in
  let scene_left = ref 0 and complexity = ref 1.0 in
  let frame = ref 0 in
  fun () ->
    if !scene_left <= 0 then begin
      (* Geometric scene length with the configured mean; complexity is
         redrawn per scene — the second-scale variation of Figure 1. *)
      scene_left :=
        1 + int_of_float (Prng.exponential rng ~mean:p.scene_mean_frames);
      complexity := lognormal rng p.complexity_sigma
    end;
    decr scene_left;
    let ty = frame_type p !frame in
    incr frame;
    let noise = lognormal rng p.noise_sigma in
    let cost =
      float_of_int p.base_cost *. type_factor p ty *. !complexity *. noise
    in
    Int.max 1 (int_of_float cost)

let trace p ~frames =
  let stream = cost_stream p in
  Array.init frames (fun _ -> stream ())

type counter = {
  mutable count : int;
  samples : Series.t;
  mutable late : int; (* frames decoded after their display slot *)
}

let decoder p ?(paced = false) ?frames () =
  let stream = cost_stream p in
  let c = { count = 0; samples = Series.create (); late = 0 } in
  let frame_period = Time.of_seconds_float (1. /. p.fps) in
  let state = ref `Start in
  (* Playback is anchored at the thread's first activation, so a decoder
     started mid-simulation paces from its own start, not from t = 0. *)
  let epoch = ref Time.zero in
  let limit_reached () =
    match frames with Some n -> c.count >= n | None -> false
  in
  let next ~now =
    (* A [`Decoding] -> call transition marks a completed frame. *)
    (match !state with
    | `Decoding ->
      (* A paced frame is late when it completes after the *next* frame's
         display instant — it would have glitched playback. *)
      if paced && Time.compare now (Time.add !epoch ((c.count + 1) * frame_period)) > 0
      then c.late <- c.late + 1;
      c.count <- c.count + 1;
      Series.add c.samples now 1.0
    | `Start -> epoch := now
    | `Waiting -> ());
    if limit_reached () then Hsfq_kernel.Workload_intf.Exit
    else if paced then begin
      match !state with
      | `Start | `Decoding ->
        (* Wait for the next frame's nominal display instant. *)
        state := `Waiting;
        Hsfq_kernel.Workload_intf.Sleep_until
          (Time.add !epoch (c.count * frame_period))
      | `Waiting ->
        state := `Decoding;
        Hsfq_kernel.Workload_intf.Compute (stream ())
    end
    else begin
      state := `Decoding;
      Hsfq_kernel.Workload_intf.Compute (stream ())
    end
  in
  (next, c)

let decoded c = c.count
let late_frames c = c.late
let series c = c.samples
let decoded_before c time = int_of_float (Series.value_at c.samples time)

let decoder_of_costs costs ~fps ?(paced = false) ?(loop = true) () =
  if Array.length costs = 0 then invalid_arg "Mpeg.decoder_of_costs: empty trace";
  Array.iter (fun c -> if c <= 0 then invalid_arg "Mpeg.decoder_of_costs: bad cost") costs;
  let n = Array.length costs in
  let c = { count = 0; samples = Series.create (); late = 0 } in
  let frame_period = Time.of_seconds_float (1. /. fps) in
  let state = ref `Start in
  let epoch = ref Time.zero in
  let finished () = (not loop) && c.count >= n in
  let next ~now =
    (match !state with
    | `Decoding ->
      if paced && Time.compare now (Time.add !epoch ((c.count + 1) * frame_period)) > 0
      then c.late <- c.late + 1;
      c.count <- c.count + 1;
      Series.add c.samples now 1.0
    | `Start -> epoch := now
    | `Waiting -> ());
    if finished () then Hsfq_kernel.Workload_intf.Exit
    else if paced then begin
      match !state with
      | `Start | `Decoding ->
        state := `Waiting;
        Hsfq_kernel.Workload_intf.Sleep_until
          (Time.add !epoch (c.count * frame_period))
      | `Waiting ->
        state := `Decoding;
        Hsfq_kernel.Workload_intf.Compute costs.(c.count mod n)
    end
    else begin
      state := `Decoding;
      Hsfq_kernel.Workload_intf.Compute costs.(c.count mod n)
    end
  in
  (next, c)

let demand_stats p ~frames =
  let costs = trace p ~frames in
  let st = Hsfq_engine.Stats.create () in
  Array.iter (fun c -> Hsfq_engine.Stats.add st (Time.to_seconds_float c)) costs;
  (Hsfq_engine.Stats.mean st, Hsfq_engine.Stats.stddev st, 1. /. p.fps)
