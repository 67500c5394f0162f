open Hsfq_engine
open Hsfq_netsim
open Hsfq_analysis
open Common

type result = {
  voice_goodput_bps : float;
  video_goodput_bps : float;
  bulk_goodput_bps : float;
  voice_delay_mean_ms : float;
  voice_delay_max_ms : float;
  bound_violations : int;
  voice_packets : int;
  wfq_voice_delay_mean_ms : float;
  voice_drops : int;
  video_drops : int;
}

let link_rate = 10e6 (* 10 Mb/s *)
let voice_rate = 64e3
let voice_pkt = 1280 (* bits: one packet per 20 ms *)
let video_rate = 2e6
let bulk_rate = link_rate -. voice_rate -. video_rate (* weights sum to C *)

let voice = 1 and video = 2 and bulk = 3

let run_link ~sched ~seconds =
  let sim = Sim.create () in
  let link = Link.create ~sim ~rate_bps:link_rate ~sched () in
  (* Weights are the flows' shares of the link (rates / C), so one unit
     of virtual time stays a fine-grained fraction of a packet. *)
  Link.add_flow link ~id:voice ~weight:(voice_rate /. link_rate);
  Link.add_flow link ~id:video ~weight:(video_rate /. link_rate);
  Link.add_flow link ~id:bulk ~weight:(bulk_rate /. link_rate);
  Traffic.cbr link ~sim ~flow:voice ~rate_bps:voice_rate ~packet_bits:voice_pkt ();
  (* Mean decode cost ~7.75 ms/frame at 30 fps: 8600 bits per cost-ms
     gives ~2 Mb/s of VBR video. *)
  Traffic.video link ~sim ~flow:video ~params:Hsfq_workload.Mpeg.default_params
    ~bits_per_cost_ms:8600. ();
  (* Greedy: demands ~9.5 Mb/s where only ~7.9 remains. *)
  Traffic.poisson link ~sim ~flow:bulk ~rate_bps:9.5e6 ~mean_packet_bits:12_000
    ~seed:41 ();
  Sim.run_until sim (Time.seconds seconds);
  (link, sim)

let run ?(seconds = 30) () =
  let link, _ =
    run_link ~sched:(module Hsfq_core.Sfq : Hsfq_sched.Scheduler_intf.FAIR) ~seconds
  in
  let horizon = float_of_int (Time.seconds seconds) /. 1e9 in
  let goodput flow = Link.delivered_bits link ~flow /. horizon in
  (* Eq. 8 on the voice flow: rates-as-weights, delta = 0 for the
     constant-rate link; the interference term is the largest packet of
     each other flow, measured from the run itself. *)
  let max_bits flow =
    Array.fold_left (fun acc (_, _, b) -> Float.max acc b) 0.
      (Link.completions link ~flow)
  in
  let lmax_others = max_bits video +. max_bits bulk in
  let db = Delay_bound.create ~rate:(voice_rate /. 1e9) () in
  let violations = ref 0 in
  Array.iter
    (fun (arrival, completion, bits) ->
      let eat = Delay_bound.on_quantum db ~arrival ~length:bits in
      let bound =
        Delay_bound.bound ~eat ~delta:0. ~c:(link_rate /. 1e9)
          ~lmax_others_sum:lmax_others
        +. (bits /. (voice_rate /. 1e9))
      in
      if completion > bound +. 1. then incr violations)
    (Link.completions link ~flow:voice);
  let wfq_link, _ =
    run_link ~sched:(module Hsfq_sched.Wfq : Hsfq_sched.Scheduler_intf.FAIR) ~seconds
  in
  {
    voice_goodput_bps = goodput voice;
    video_goodput_bps = goodput video;
    bulk_goodput_bps = goodput bulk;
    voice_delay_mean_ms = Stats.mean (Link.delay_stats link ~flow:voice) /. 1e6;
    voice_delay_max_ms = Stats.max_value (Link.delay_stats link ~flow:voice) /. 1e6;
    bound_violations = !violations;
    voice_packets = Stats.count (Link.delay_stats link ~flow:voice);
    wfq_voice_delay_mean_ms =
      Stats.mean (Link.delay_stats wfq_link ~flow:voice) /. 1e6;
    voice_drops = Link.drops link ~flow:voice;
    video_drops = Link.drops link ~flow:video;
  }

let checks r =
  [
    check "voice gets its full 64 kb/s"
      (Metrics.relative_error ~measured:r.voice_goodput_bps ~expected:voice_rate < 0.05)
      "%.0f b/s" r.voice_goodput_bps;
    check "video gets ~its 2 Mb/s demand"
      (Metrics.relative_error ~measured:r.video_goodput_bps ~expected:video_rate < 0.15)
      "%.2f Mb/s" (r.video_goodput_bps /. 1e6);
    check "bulk soaks up the residue (> 7 Mb/s) but no more"
      (r.bulk_goodput_bps > 7e6 && r.bulk_goodput_bps < 8.2e6)
      "%.2f Mb/s" (r.bulk_goodput_bps /. 1e6);
    check "no voice/video drops under SFQ" (r.voice_drops = 0 && r.video_drops = 0)
      "drops %d/%d" r.voice_drops r.video_drops;
    check "every voice packet within the eq. 8 bound" (r.bound_violations = 0)
      "%d violations over %d packets" r.bound_violations r.voice_packets;
    check "WFQ delays the small-packet voice flow >= 3x SFQ (6)"
      (r.wfq_voice_delay_mean_ms > 3. *. r.voice_delay_mean_ms)
      "wfq %.2f ms vs sfq %.2f ms" r.wfq_voice_delay_mean_ms r.voice_delay_mean_ms;
  ]

let print r =
  print_endline
    "X-net | SFQ on a 10 Mb/s packet link: voice (CBR 64 kb/s) + VBR video (~2 Mb/s) + greedy bulk";
  Printf.printf "  goodput: voice %.1f kb/s, video %.2f Mb/s, bulk %.2f Mb/s\n"
    (r.voice_goodput_bps /. 1e3)
    (r.video_goodput_bps /. 1e6)
    (r.bulk_goodput_bps /. 1e6);
  Printf.printf
    "  voice delay: mean %.2f ms, max %.2f ms over %d packets; eq. 8 violations %d\n"
    r.voice_delay_mean_ms r.voice_delay_max_ms r.voice_packets r.bound_violations;
  Printf.printf "  under WFQ the same voice flow averages %.2f ms\n"
    r.wfq_voice_delay_mean_ms
