open Hsfq_engine

(* A source sends its first packet at [start] (or now, if that has
   passed), then again after each gap its sender returns: one timer. *)
let every sim ~start send = Sim.repeat sim (Int.max 0 (start - Sim.now sim)) send

let cbr link ~sim ~flow ~rate_bps ~packet_bits ?(start = Time.zero) () =
  if rate_bps <= 0. || packet_bits <= 0 then invalid_arg "Traffic.cbr: bad parameters";
  let gap =
    Int.max 1 (int_of_float (Float.round (float_of_int packet_bits /. rate_bps *. 1e9)))
  in
  every sim ~start (fun () ->
      Link.enqueue link ~flow ~bits:packet_bits;
      gap)

let poisson link ~sim ~flow ~rate_bps ~mean_packet_bits ~seed ?(start = Time.zero) () =
  if rate_bps <= 0. || mean_packet_bits <= 0 then
    invalid_arg "Traffic.poisson: bad parameters";
  let rng = Prng.create seed in
  let pkts_per_sec = rate_bps /. float_of_int mean_packet_bits in
  let next_gap () =
    Int.max 1 (Time.of_seconds_float (Prng.exponential rng ~mean:(1. /. pkts_per_sec)))
  in
  let next_size () =
    Int.max 64
      (int_of_float (Prng.exponential rng ~mean:(float_of_int mean_packet_bits)))
  in
  every sim ~start (fun () ->
      Link.enqueue link ~flow ~bits:(next_size ());
      next_gap ())

let video link ~sim ~flow ~params ~bits_per_cost_ms ?(start = Time.zero) () =
  if bits_per_cost_ms <= 0. then invalid_arg "Traffic.video: bad parameters";
  let frame_gap = Time.of_seconds_float (1. /. params.Hsfq_workload.Mpeg.fps) in
  (* Reuse the decode-cost model as a frame-size model: cost in ms maps
     linearly to bits, preserving the I/P/B and scene structure. *)
  let costs = ref [] and produced = ref 0 in
  let next_cost () =
    (* Generate lazily in chunks to keep the trace deterministic. *)
    if !costs = [] then begin
      let chunk =
        Hsfq_workload.Mpeg.trace
          { params with Hsfq_workload.Mpeg.seed = params.Hsfq_workload.Mpeg.seed + !produced }
          ~frames:256
      in
      produced := !produced + 256;
      costs := Array.to_list chunk
    end;
    match !costs with
    | c :: rest ->
      costs := rest;
      c
    | [] -> assert false
  in
  every sim ~start (fun () ->
      let cost_ms = Time.to_milliseconds_float (next_cost ()) in
      let bits = Int.max 64 (int_of_float (cost_ms *. bits_per_cost_ms)) in
      Link.enqueue link ~flow ~bits;
      frame_gap)
