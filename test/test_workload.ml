(* Tests for the workload generators (lib/workload). *)

open Hsfq_engine
open Hsfq_workload
module W = Hsfq_kernel.Workload_intf

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --------------------------- dhrystone ------------------------------- *)

let test_dhrystone_counts_completed_loops () =
  let wl, c = Dhrystone.make ~loop_cost:(Time.milliseconds 2) () in
  (* First call starts loop 1; each later call completes the previous. *)
  (match wl ~now:0 with
  | W.Compute d -> check_int "loop cost" (Time.milliseconds 2) d
  | _ -> Alcotest.fail "compute expected");
  check_int "no loop done yet" 0 (Dhrystone.loops c);
  ignore (wl ~now:(Time.milliseconds 2));
  ignore (wl ~now:(Time.milliseconds 4));
  check_int "two loops completed" 2 (Dhrystone.loops c);
  Alcotest.(check (float 0.)) "loops up to t=2ms" 1.
    (Series.value_at (Dhrystone.series c) (Time.milliseconds 2))

let test_dhrystone_rejects_bad_cost () =
  Alcotest.check_raises "zero cost" (Invalid_argument "Dhrystone.make: loop_cost <= 0")
    (fun () -> ignore (Dhrystone.make ~loop_cost:0 ()))

(* ----------------------------- mpeg ---------------------------------- *)

let test_mpeg_trace_deterministic () =
  let p = Mpeg.default_params in
  Alcotest.(check (array int)) "same seed, same trace" (Mpeg.trace p ~frames:100)
    (Mpeg.trace p ~frames:100);
  let other = Mpeg.trace { p with seed = p.seed + 1 } ~frames:100 in
  check_bool "different seed differs" true (Mpeg.trace p ~frames:100 <> other)

let test_mpeg_frame_types_follow_gop () =
  let p = Mpeg.default_params in
  check_bool "frame 0 is I" true (Mpeg.frame_type p 0 = 'I');
  check_bool "frame 1 is B" true (Mpeg.frame_type p 1 = 'B');
  check_bool "frame 3 is P" true (Mpeg.frame_type p 3 = 'P');
  check_bool "GOP repeats" true (Mpeg.frame_type p 12 = 'I')

let test_mpeg_type_costs_ordered () =
  let p = { Mpeg.default_params with noise_sigma = 0.01; complexity_sigma = 0.01 } in
  let costs = Mpeg.trace p ~frames:600 in
  let mean ty =
    let sum = ref 0. and n = ref 0 in
    Array.iteri
      (fun i c ->
        if Mpeg.frame_type p i = ty then begin
          sum := !sum +. float_of_int c;
          incr n
        end)
      costs;
    !sum /. float_of_int !n
  in
  check_bool "I > P" true (mean 'I' > mean 'P');
  check_bool "P > B" true (mean 'P' > mean 'B')

let test_mpeg_unpaced_decoder () =
  let wl, c = Mpeg.decoder Mpeg.default_params ~frames:3 () in
  (match wl ~now:0 with W.Compute _ -> () | _ -> Alcotest.fail "compute");
  ignore (wl ~now:100);
  ignore (wl ~now:200);
  check_int "two frames done" 2 (Mpeg.decoded c);
  (match wl ~now:300 with
  | W.Exit -> ()
  | _ -> Alcotest.fail "exit after the 3-frame clip");
  check_int "three frames done" 3 (Mpeg.decoded c)

let test_mpeg_paced_decoder_sleeps () =
  let p = { Mpeg.default_params with fps = 10. } in
  let wl, _ = Mpeg.decoder p ~paced:true () in
  (* Pacing is anchored at the first activation: starting at t=50 ms,
     frame 0 displays immediately and frame 1 at +100 ms. *)
  (match wl ~now:(Time.milliseconds 50) with
  | W.Sleep_until t -> check_int "frame 0 time" (Time.milliseconds 50) t
  | _ -> Alcotest.fail "paced decoder starts by pacing");
  (match wl ~now:(Time.milliseconds 50) with
  | W.Compute _ -> ()
  | _ -> Alcotest.fail "decode");
  match wl ~now:(Time.milliseconds 70) with
  | W.Sleep_until t ->
    check_int "frame 1 at epoch + 100 ms" (Time.milliseconds 150) t
  | _ -> Alcotest.fail "paces to the next frame"

let test_mpeg_decoder_of_costs () =
  let costs = [| Time.milliseconds 5; Time.milliseconds 10 |] in
  let wl, c = Mpeg.decoder_of_costs costs ~fps:10. ~loop:false () in
  (match wl ~now:0 with
  | W.Compute d -> check_int "frame 0 cost" (Time.milliseconds 5) d
  | _ -> Alcotest.fail "compute");
  (match wl ~now:100 with
  | W.Compute d -> check_int "frame 1 cost" (Time.milliseconds 10) d
  | _ -> Alcotest.fail "compute 2");
  (match wl ~now:200 with
  | W.Exit -> ()
  | _ -> Alcotest.fail "exit at end without loop");
  check_int "two frames" 2 (Mpeg.decoded c);
  (* Looping replays the trace. *)
  let wl, _ = Mpeg.decoder_of_costs costs ~fps:10. () in
  ignore (wl ~now:0);
  ignore (wl ~now:1);
  match wl ~now:2 with
  | W.Compute d -> check_int "wraps around" (Time.milliseconds 5) d
  | _ -> Alcotest.fail "loop"

let test_mpeg_late_frames () =
  let p = { Mpeg.default_params with fps = 10. } in
  let wl, c = Mpeg.decoder p ~paced:true () in
  ignore (wl ~now:0) (* sleep to epoch *);
  ignore (wl ~now:0) (* decode frame 0 *);
  (* Frame 0 completes at 150 ms — past frame 1's display at 100 ms. *)
  ignore (wl ~now:(Time.milliseconds 150));
  check_int "late frame counted" 1 (Mpeg.late_frames c);
  (* Frame 1 decoded promptly at 180 ms < 200 ms: not late. *)
  ignore (wl ~now:(Time.milliseconds 180));
  check_int "on-time frame not counted" 1 (Mpeg.late_frames c)

let test_mpeg_demand_stats () =
  let mean, sigma, period = Mpeg.demand_stats Mpeg.default_params ~frames:600 in
  check_bool "mean near base cost scale" true (mean > 0.004 && mean < 0.02);
  check_bool "positive spread" true (sigma > 0.);
  Alcotest.(check (float 1e-9)) "period = 1/fps" (1. /. 30.) period

(* --------------------------- periodic -------------------------------- *)

let test_periodic_rounds_and_slack () =
  let wl, c =
    Periodic.make ~period:(Time.milliseconds 100) ~cost:(Time.milliseconds 10)
      ~rounds:2 ()
  in
  (* t=0: release round 0. *)
  (match wl ~now:0 with
  | W.Compute d -> check_int "cost" (Time.milliseconds 10) d
  | _ -> Alcotest.fail "compute");
  (* Completed at t=30: slack = 100 - 30 = 70 ms. *)
  (match wl ~now:(Time.milliseconds 30) with
  | W.Sleep_until t -> check_int "next release" (Time.milliseconds 100) t
  | _ -> Alcotest.fail "sleep to next round");
  check_int "one round" 1 (Periodic.completed c);
  Alcotest.(check (float 1e-6)) "slack recorded" (float_of_int (Time.milliseconds 70))
    (Hsfq_engine.Stats.mean (Periodic.slack_stats c));
  (* Round 1 released at 100, completes late at 250 -> miss (slack <0). *)
  (match wl ~now:(Time.milliseconds 100) with
  | W.Compute _ -> ()
  | _ -> Alcotest.fail "round 1");
  (match wl ~now:(Time.milliseconds 250) with
  | W.Exit -> ()
  | _ -> Alcotest.fail "rounds limit reached");
  check_int "miss counted" 1 (Periodic.misses c);
  check_int "two rounds" 2 (Periodic.completed c)

let test_periodic_late_release_runs_immediately () =
  let wl, _ = Periodic.make ~period:(Time.milliseconds 50) ~cost:(Time.milliseconds 5) () in
  (match wl ~now:0 with W.Compute _ -> () | _ -> Alcotest.fail "round 0");
  (* Completion way past several periods: the next round starts now
     (releases are not skipped, the task catches up late). *)
  match wl ~now:(Time.milliseconds 470) with
  | W.Compute _ -> ()
  | a ->
    Alcotest.failf "expected immediate late round, got %s"
      (match a with
      | W.Sleep_until _ -> "sleep_until"
      | W.Sleep_for _ -> "sleep_for"
      | W.Exit -> "exit"
      | W.Lock _ -> "lock"
      | W.Unlock _ -> "unlock"
      | W.Io _ -> "io"
      | W.Compute _ -> "compute")

let test_periodic_phase () =
  let wl, _ =
    Periodic.make ~period:(Time.milliseconds 100) ~cost:(Time.milliseconds 1)
      ~phase:(Time.milliseconds 40) ()
  in
  match wl ~now:0 with
  | W.Sleep_until t -> check_int "first release at phase" (Time.milliseconds 40) t
  | _ -> Alcotest.fail "waits for phase"

(* -------------------------- interactive ------------------------------ *)

let test_interactive_response_measurement () =
  let wl, c =
    Interactive.make ~mean_think:(Time.milliseconds 100) ~burst:(Time.milliseconds 5)
      ~requests:2 ()
  in
  (match wl ~now:0 with
  | W.Compute d -> check_int "burst" (Time.milliseconds 5) d
  | _ -> Alcotest.fail "burst");
  (match wl ~now:(Time.milliseconds 12) with
  | W.Sleep_for _ -> ()
  | _ -> Alcotest.fail "think");
  check_int "one response" 1 (Interactive.responses c);
  Alcotest.(check (float 1e-6)) "response = completion - request"
    (float_of_int (Time.milliseconds 12))
    (Hsfq_engine.Stats.mean (Interactive.response_stats c));
  (match wl ~now:(Time.milliseconds 100) with
  | W.Compute _ -> ()
  | _ -> Alcotest.fail "burst 2");
  match wl ~now:(Time.milliseconds 103) with
  | W.Exit -> check_int "two responses" 2 (Interactive.responses c)
  | _ -> Alcotest.fail "exit at request limit"

let test_interactive_think_times_vary () =
  let wl, _ =
    Interactive.make ~mean_think:(Time.milliseconds 50) ~burst:(Time.milliseconds 1) ()
  in
  let think () =
    ignore (wl ~now:0);
    match wl ~now:1 with
    | W.Sleep_for d -> d
    | _ -> Alcotest.fail "think expected"
  in
  let a = think () and b = think () in
  check_bool "exponential think times differ" true (a <> b)

(* ----------------------------- onoff --------------------------------- *)

let test_onoff_alternates () =
  let wl, c = Onoff.make ~on:(Time.milliseconds 100) ~off:(Time.milliseconds 300) () in
  Alcotest.(check (float 1e-9)) "duty cycle" 0.25 (Onoff.duty_cycle c);
  (match wl ~now:0 with
  | W.Compute d -> check_int "on burst" (Time.milliseconds 100) d
  | _ -> Alcotest.fail "compute first");
  (match wl ~now:0 with
  | W.Sleep_for d -> check_int "off sleep" (Time.milliseconds 300) d
  | _ -> Alcotest.fail "then sleep");
  check_int "one burst completed" 1 (Onoff.bursts c);
  match wl ~now:0 with
  | W.Compute _ -> ()
  | _ -> Alcotest.fail "cycles forever"

let test_onoff_jitter_deterministic () =
  let draw () =
    let wl, _ =
      Onoff.make ~on:(Time.milliseconds 50) ~off:(Time.milliseconds 50)
        ~jitter:true ~seed:3 ()
    in
    match (wl ~now:0, wl ~now:0) with
    | W.Compute a, W.Sleep_for b -> (a, b)
    | _ -> Alcotest.fail "shape"
  in
  let a1, b1 = draw () and a2, b2 = draw () in
  check_int "seeded burst" a1 a2;
  check_int "seeded sleep" b1 b2;
  check_bool "jitter differs from the mean" true
    (a1 <> Time.milliseconds 50 || b1 <> Time.milliseconds 50)

let test_onoff_validation () =
  Alcotest.check_raises "bad durations" (Invalid_argument "Onoff.make: bad durations")
    (fun () -> ignore (Onoff.make ~on:0 ~off:(Time.milliseconds 1) ()))

(* ------------------------ workload helpers --------------------------- *)

let test_of_list_exhausts_to_exit () =
  let wl = W.of_list [ W.Compute 5 ] in
  (match wl ~now:0 with W.Compute 5 -> () | _ -> Alcotest.fail "first");
  (match wl ~now:0 with W.Exit -> () | _ -> Alcotest.fail "exit");
  match wl ~now:0 with W.Exit -> () | _ -> Alcotest.fail "stays exit"

let () =
  Alcotest.run "workload"
    [
      ( "dhrystone",
        [
          Alcotest.test_case "counts completed loops" `Quick
            test_dhrystone_counts_completed_loops;
          Alcotest.test_case "rejects bad cost" `Quick test_dhrystone_rejects_bad_cost;
        ] );
      ( "mpeg",
        [
          Alcotest.test_case "deterministic trace" `Quick test_mpeg_trace_deterministic;
          Alcotest.test_case "GOP frame types" `Quick test_mpeg_frame_types_follow_gop;
          Alcotest.test_case "I/P/B cost ordering" `Quick test_mpeg_type_costs_ordered;
          Alcotest.test_case "unpaced decoder" `Quick test_mpeg_unpaced_decoder;
          Alcotest.test_case "paced decoder sleeps" `Quick
            test_mpeg_paced_decoder_sleeps;
          Alcotest.test_case "demand stats for admission" `Quick
            test_mpeg_demand_stats;
          Alcotest.test_case "external cost trace decoder" `Quick
            test_mpeg_decoder_of_costs;
          Alcotest.test_case "late frame accounting" `Quick test_mpeg_late_frames;
        ] );
      ( "periodic",
        [
          Alcotest.test_case "rounds, slack, misses" `Quick
            test_periodic_rounds_and_slack;
          Alcotest.test_case "late release catches up" `Quick
            test_periodic_late_release_runs_immediately;
          Alcotest.test_case "phase offset" `Quick test_periodic_phase;
        ] );
      ( "interactive",
        [
          Alcotest.test_case "response measurement" `Quick
            test_interactive_response_measurement;
          Alcotest.test_case "think-time randomness" `Quick
            test_interactive_think_times_vary;
        ] );
      ( "onoff",
        [
          Alcotest.test_case "alternates compute/sleep" `Quick test_onoff_alternates;
          Alcotest.test_case "jitter deterministic" `Quick
            test_onoff_jitter_deterministic;
          Alcotest.test_case "validation" `Quick test_onoff_validation;
        ] );
      ( "helpers",
        [ Alcotest.test_case "of_list exhausts to Exit" `Quick test_of_list_exhausts_to_exit ]
      );
    ]
