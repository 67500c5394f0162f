(* Tests for the packet-link substrate (lib/netsim). *)

open Hsfq_engine
open Hsfq_netsim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let mbps x = x *. 1e6

let test_single_flow_fifo () =
  let sim = Sim.create () in
  (* 1 Mb/s: a 1000-bit packet takes exactly 1 ms. *)
  let link = Link.create ~sim ~rate_bps:(mbps 1.) () in
  Link.add_flow link ~id:1 ~weight:1.;
  Link.enqueue link ~flow:1 ~bits:1000;
  Link.enqueue link ~flow:1 ~bits:2000;
  check_bool "transmitting" true (Link.busy link);
  check_int "second packet queued" 1 (Link.queue_length link ~flow:1);
  Sim.run_until sim (Time.milliseconds 10);
  check_bool "drained" false (Link.busy link);
  check_float "all bits delivered" 3000. (Link.delivered_bits link ~flow:1);
  let delays = Link.delays link ~flow:1 in
  check_int "two packets" 2 (Array.length delays);
  (* First: 1 ms transmission; second: waits 1 ms then 2 ms on the wire. *)
  check_float "first delay" (float_of_int (Time.milliseconds 1)) delays.(0);
  check_float "second delay" (float_of_int (Time.milliseconds 3)) delays.(1)

let test_weighted_sharing_under_backlog () =
  let sim = Sim.create () in
  let link = Link.create ~sim ~rate_bps:(mbps 10.) ~queue_cap:100_000 () in
  Link.add_flow link ~id:1 ~weight:1.;
  Link.add_flow link ~id:2 ~weight:3.;
  (* Both flows heavily backlogged with equal-size packets. *)
  for _ = 1 to 5000 do
    Link.enqueue link ~flow:1 ~bits:10_000;
    Link.enqueue link ~flow:2 ~bits:10_000
  done;
  Sim.run_until sim (Time.seconds 2);
  let d1 = Link.delivered_bits link ~flow:1 and d2 = Link.delivered_bits link ~flow:2 in
  check_bool "1:3 split" true (Float.abs ((d2 /. d1) -. 3.) < 0.05);
  (* Work conservation: the link moved ~20 Mb in 2 s. *)
  check_bool "link saturated" true (d1 +. d2 > 0.99 *. mbps 20.)

let test_work_conservation_residual () =
  let sim = Sim.create () in
  let link = Link.create ~sim ~rate_bps:(mbps 10.) ~queue_cap:100_000 () in
  Link.add_flow link ~id:1 ~weight:9.;
  Link.add_flow link ~id:2 ~weight:1.;
  (* Only flow 2 has traffic: it gets the whole link despite weight 1. *)
  for _ = 1 to 2000 do
    Link.enqueue link ~flow:2 ~bits:10_000
  done;
  Sim.run_until sim (Time.seconds 2);
  check_float "idle weights don't reserve" (2e7) (Link.delivered_bits link ~flow:2)

let test_drops_at_queue_cap () =
  let sim = Sim.create () in
  let link = Link.create ~sim ~rate_bps:(mbps 1.) ~queue_cap:5 () in
  Link.add_flow link ~id:1 ~weight:1.;
  (* One transmitting + 5 queued; the rest drop. *)
  for _ = 1 to 10 do
    Link.enqueue link ~flow:1 ~bits:1000
  done;
  check_int "drops counted" 4 (Link.drops link ~flow:1);
  Sim.run_until sim (Time.seconds 1);
  check_float "six delivered" 6000. (Link.delivered_bits link ~flow:1)

let test_flow_goes_idle_and_returns () =
  let sim = Sim.create () in
  let link = Link.create ~sim ~rate_bps:(mbps 1.) () in
  Link.add_flow link ~id:1 ~weight:1.;
  Link.enqueue link ~flow:1 ~bits:1000;
  Sim.run_until sim (Time.milliseconds 50);
  check_bool "idle after draining" false (Link.busy link);
  Link.enqueue link ~flow:1 ~bits:1000;
  Sim.run_until sim (Time.milliseconds 100);
  check_float "second burst served" 2000. (Link.delivered_bits link ~flow:1)

let test_errors () =
  let sim = Sim.create () in
  let link = Link.create ~sim ~rate_bps:(mbps 1.) () in
  Link.add_flow link ~id:1 ~weight:1.;
  Alcotest.check_raises "duplicate flow" (Invalid_argument "Link.add_flow: duplicate flow")
    (fun () -> Link.add_flow link ~id:1 ~weight:2.);
  Alcotest.check_raises "unknown flow" (Invalid_argument "Link: unknown flow 9")
    (fun () -> Link.enqueue link ~flow:9 ~bits:100);
  Alcotest.check_raises "bad size" (Invalid_argument "Link.enqueue: bits <= 0")
    (fun () -> Link.enqueue link ~flow:1 ~bits:0);
  Alcotest.(check string) "default scheduler" "sfq" (Link.scheduler_name link)

let test_cbr_arrivals () =
  let sim = Sim.create () in
  let link = Link.create ~sim ~rate_bps:(mbps 10.) () in
  Link.add_flow link ~id:1 ~weight:1.;
  (* 64 kb/s of 1280-bit packets: one per 20 ms; 50 in a second. *)
  Traffic.cbr link ~sim ~flow:1 ~rate_bps:64e3 ~packet_bits:1280 ();
  Sim.run_until sim (Time.seconds 1);
  check_int "one packet per 20 ms" 50 (Stats.count (Link.delay_stats link ~flow:1));
  (* The link is fast: each packet goes out immediately (128 us). *)
  check_float "uncontended delay = transmission time" 128_000.
    (Stats.max_value (Link.delay_stats link ~flow:1))

let test_poisson_deterministic () =
  let run () =
    let sim = Sim.create () in
    let link = Link.create ~sim ~rate_bps:(mbps 10.) () in
    Link.add_flow link ~id:1 ~weight:1.;
    Traffic.poisson link ~sim ~flow:1 ~rate_bps:1e6 ~mean_packet_bits:8000 ~seed:5 ();
    Sim.run_until sim (Time.seconds 2);
    Link.delivered_bits link ~flow:1
  in
  check_float "same seed, same traffic" (run ()) (run ());
  let total = run () in
  check_bool "~1 Mb/s demand delivered" true
    (Float.abs ((total /. 2.) -. 1e6) /. 1e6 < 0.15)

let test_video_sizes_follow_frames () =
  let sim = Sim.create () in
  let link = Link.create ~sim ~rate_bps:(mbps 100.) ~queue_cap:100_000 () in
  Link.add_flow link ~id:1 ~weight:1.;
  Traffic.video link ~sim ~flow:1 ~params:Hsfq_workload.Mpeg.default_params
    ~bits_per_cost_ms:1000. ();
  Sim.run_until sim (Time.seconds 2);
  let sizes = Array.map (fun (_, _, b) -> b) (Link.completions link ~flow:1) in
  check_int "30 fps for 2 s" 60 (Array.length sizes);
  (* VBR: sizes vary by at least 2x between smallest and largest. *)
  let lo = Array.fold_left Float.min infinity sizes in
  let hi = Array.fold_left Float.max 0. sizes in
  check_bool "variable bit rate" true (hi > 2. *. lo)

(* --------------------------- hierarchical link ------------------------ *)

let test_hlink_class_shares () =
  let sim = Sim.create () in
  let hl = Hlink.create ~sim ~rate_bps:(mbps 10.) ~queue_cap:100_000 () in
  let h = Hlink.hierarchy hl in
  let mk name w =
    match Hsfq_core.Hierarchy.mknod h ~name ~parent:Hsfq_core.Hierarchy.root
            ~weight:w Hsfq_core.Hierarchy.Leaf with
    | Ok id -> id
    | Error e -> failwith e
  in
  let video = mk "video" 3. and data = mk "data" 1. in
  Hlink.attach_flow hl ~leaf:video ~flow:1 ~weight:1.;
  Hlink.attach_flow hl ~leaf:data ~flow:2 ~weight:1.;
  Hlink.attach_flow hl ~leaf:data ~flow:3 ~weight:1.;
  for _ = 1 to 5000 do
    Hlink.enqueue hl ~flow:1 ~bits:10_000;
    Hlink.enqueue hl ~flow:2 ~bits:10_000;
    Hlink.enqueue hl ~flow:3 ~bits:10_000
  done;
  Sim.run_until sim (Time.seconds 2);
  let v = Hlink.class_delivered_bits hl video in
  let d = Hlink.class_delivered_bits hl data in
  check_bool "classes split 3:1" true (Float.abs ((v /. d) -. 3.) < 0.05);
  (* Within /data, the two flows share equally. *)
  let d2 = Hlink.delivered_bits hl ~flow:2 and d3 = Hlink.delivered_bits hl ~flow:3 in
  check_bool "intra-class equal" true (Float.abs ((d2 /. d3) -. 1.) < 0.05);
  check_bool "link saturated" true (v +. d > 0.99 *. mbps 20.)

let test_hlink_residual_to_active_class () =
  let sim = Sim.create () in
  let hl = Hlink.create ~sim ~rate_bps:(mbps 10.) ~queue_cap:100_000 () in
  let h = Hlink.hierarchy hl in
  let mk name w =
    match Hsfq_core.Hierarchy.mknod h ~name ~parent:Hsfq_core.Hierarchy.root
            ~weight:w Hsfq_core.Hierarchy.Leaf with
    | Ok id -> id
    | Error e -> failwith e
  in
  let video = mk "video" 9. and data = mk "data" 1. in
  ignore video;
  Hlink.attach_flow hl ~leaf:data ~flow:1 ~weight:1.;
  for _ = 1 to 3000 do
    Hlink.enqueue hl ~flow:1 ~bits:10_000
  done;
  Sim.run_until sim (Time.seconds 2);
  check_float "idle class's bandwidth redistributed" 2e7
    (Hlink.delivered_bits hl ~flow:1)

let test_hlink_weight_change_under_backlog () =
  (* hsfq_setweight on a live link: two continuously backlogged classes
     share 1:1, then /video is re-weighted to 3 mid-run — the delivery
     ratio over the window after the change must track the new weights
     while the totals keep the pre-change history. *)
  let sim = Sim.create () in
  let hl = Hlink.create ~sim ~rate_bps:(mbps 10.) ~queue_cap:200_000 () in
  let h = Hlink.hierarchy hl in
  let mk name w =
    match Hsfq_core.Hierarchy.mknod h ~name ~parent:Hsfq_core.Hierarchy.root
            ~weight:w Hsfq_core.Hierarchy.Leaf with
    | Ok id -> id
    | Error e -> failwith e
  in
  let video = mk "video" 1. and data = mk "data" 1. in
  Hlink.attach_flow hl ~leaf:video ~flow:1 ~weight:1.;
  Hlink.attach_flow hl ~leaf:data ~flow:2 ~weight:1.;
  for _ = 1 to 10_000 do
    Hlink.enqueue hl ~flow:1 ~bits:10_000;
    Hlink.enqueue hl ~flow:2 ~bits:10_000
  done;
  Sim.run_until sim (Time.seconds 1);
  let v1 = Hlink.class_delivered_bits hl video in
  let d1 = Hlink.class_delivered_bits hl data in
  check_bool "1:1 before the change" true (Float.abs ((v1 /. d1) -. 1.) < 0.05);
  Hsfq_core.Hierarchy.set_weight h video 3.;
  Sim.run_until sim (Time.seconds 2);
  let dv = Hlink.class_delivered_bits hl video -. v1 in
  let dd = Hlink.class_delivered_bits hl data -. d1 in
  check_bool "3:1 after the change" true (Float.abs ((dv /. dd) -. 3.) < 0.05);
  check_bool "still work-conserving" true
    (dv +. dd > 0.99 *. mbps 10.)

let test_hlink_errors () =
  let sim = Sim.create () in
  let hl = Hlink.create ~sim ~rate_bps:(mbps 1.) () in
  let h = Hlink.hierarchy hl in
  let leaf =
    match Hsfq_core.Hierarchy.mknod h ~name:"l" ~parent:Hsfq_core.Hierarchy.root
            ~weight:1. Hsfq_core.Hierarchy.Leaf with
    | Ok id -> id
    | Error e -> failwith e
  in
  Hlink.attach_flow hl ~leaf ~flow:1 ~weight:1.;
  Alcotest.check_raises "duplicate flow"
    (Invalid_argument "Hlink.attach_flow: duplicate flow") (fun () ->
      Hlink.attach_flow hl ~leaf ~flow:1 ~weight:1.);
  Alcotest.check_raises "internal node"
    (Invalid_argument "Hlink: node is not a leaf class") (fun () ->
      Hlink.attach_flow hl ~leaf:Hsfq_core.Hierarchy.root ~flow:2 ~weight:1.)

let test_hlink_two_level_tree () =
  (* root -> gold (w=3) | silver (w=1, internal) -> s1 (w=1) | s2 (w=1):
     shares 75 / 12.5 / 12.5 when all backlogged. *)
  let sim = Sim.create () in
  let hl = Hlink.create ~sim ~rate_bps:(mbps 8.) ~queue_cap:100_000 () in
  let h = Hlink.hierarchy hl in
  let ok = function Ok v -> v | Error e -> failwith e in
  let gold = ok (Hsfq_core.Hierarchy.mknod h ~name:"gold" ~parent:Hsfq_core.Hierarchy.root ~weight:3. Hsfq_core.Hierarchy.Leaf) in
  let silver = ok (Hsfq_core.Hierarchy.mknod h ~name:"silver" ~parent:Hsfq_core.Hierarchy.root ~weight:1. Hsfq_core.Hierarchy.Internal) in
  let s1 = ok (Hsfq_core.Hierarchy.mknod h ~name:"s1" ~parent:silver ~weight:1. Hsfq_core.Hierarchy.Leaf) in
  let s2 = ok (Hsfq_core.Hierarchy.mknod h ~name:"s2" ~parent:silver ~weight:1. Hsfq_core.Hierarchy.Leaf) in
  Hlink.attach_flow hl ~leaf:gold ~flow:1 ~weight:1.;
  Hlink.attach_flow hl ~leaf:s1 ~flow:2 ~weight:1.;
  Hlink.attach_flow hl ~leaf:s2 ~flow:3 ~weight:1.;
  for _ = 1 to 4000 do
    Hlink.enqueue hl ~flow:1 ~bits:10_000;
    Hlink.enqueue hl ~flow:2 ~bits:10_000;
    Hlink.enqueue hl ~flow:3 ~bits:10_000
  done;
  Sim.run_until sim (Time.seconds 2);
  let total = mbps 8. *. 2. in
  let frac flow = Hlink.delivered_bits hl ~flow /. total in
  check_bool "gold ~75%" true (Float.abs (frac 1 -. 0.75) < 0.01);
  check_bool "s1 ~12.5%" true (Float.abs (frac 2 -. 0.125) < 0.01);
  check_bool "s2 ~12.5%" true (Float.abs (frac 3 -. 0.125) < 0.01)

(* --------------------------- properties -------------------------------- *)

(* Under random backlogged traffic with random packet sizes, two flows'
   delivered bits must respect the SFQ fairness bound with lmax = each
   flow's largest packet. *)
let prop_link_fairness_bound =
  QCheck.Test.make ~name:"link service respects eq. 3 with packet lmax" ~count:60
    QCheck.(
      pair
        (pair (float_range 0.5 4.) (float_range 0.5 4.))
        (list_of_size (Gen.int_range 20 200) (pair (int_range 100 15_000) bool)))
    (fun ((w1, w2), packets) ->
      let sim = Sim.create () in
      let link = Link.create ~sim ~rate_bps:1e7 ~queue_cap:100_000 () in
      Link.add_flow link ~id:1 ~weight:w1;
      Link.add_flow link ~id:2 ~weight:w2;
      let lmax = [| 0.; 0. |] in
      List.iter
        (fun (bits, which) ->
          let flow = if which then 1 else 2 in
          lmax.(flow - 1) <- Float.max lmax.(flow - 1) (float_of_int bits);
          Link.enqueue link ~flow ~bits)
        packets;
      (* Run until both queues drain, then compare at every completion
         via the analysis metric over the delivered series. *)
      Sim.run_until sim (Time.seconds 60);
      if lmax.(0) = 0. || lmax.(1) = 0. then true
      else begin
        (* Both flows are backlogged only while both have queued packets;
           restrict the interval to the earlier drain point. *)
        let last_busy flow =
          let ts = Series.times (Link.delivered_series link ~flow) in
          if Array.length ts = 0 then 0 else ts.(Array.length ts - 1)
        in
        let until = Int.min (last_busy 1) (last_busy 2) in
        let lag =
          Hsfq_analysis.Fairness.normalized_lag
            ~fa:(Link.delivered_series link ~flow:1) ~wa:w1
            ~fb:(Link.delivered_series link ~flow:2) ~wb:w2 ~until
        in
        lag <= (lmax.(0) /. w1) +. (lmax.(1) /. w2) +. 1e-6
      end)

let prop_link_conservation =
  QCheck.Test.make ~name:"delivered bits never exceed rate * time" ~count:60
    QCheck.(list_of_size (Gen.int_range 1 100) (int_range 100 20_000))
    (fun sizes ->
      let sim = Sim.create () in
      let link = Link.create ~sim ~rate_bps:1e6 ~queue_cap:100_000 () in
      Link.add_flow link ~id:1 ~weight:1.;
      List.iter (fun bits -> Link.enqueue link ~flow:1 ~bits) sizes;
      let horizon = Time.milliseconds 50 in
      Sim.run_until sim horizon;
      let delivered = Link.delivered_bits link ~flow:1 in
      (* 1e6 b/s over 50 ms = 50 000 bits, plus one in-flight packet of
         rounding slack. *)
      delivered <= (1e6 *. 0.05) +. 20_000.)

let () =
  Alcotest.run "netsim"
    [
      ( "link",
        [
          Alcotest.test_case "single flow FIFO" `Quick test_single_flow_fifo;
          Alcotest.test_case "weighted sharing" `Quick
            test_weighted_sharing_under_backlog;
          Alcotest.test_case "residual to active flows" `Quick
            test_work_conservation_residual;
          Alcotest.test_case "drops at queue cap" `Quick test_drops_at_queue_cap;
          Alcotest.test_case "idle and return" `Quick test_flow_goes_idle_and_returns;
          Alcotest.test_case "errors" `Quick test_errors;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "CBR spacing" `Quick test_cbr_arrivals;
          Alcotest.test_case "poisson determinism" `Quick test_poisson_deterministic;
          Alcotest.test_case "VBR video sizes" `Quick test_video_sizes_follow_frames;
        ] );
      ( "hierarchical link",
        [
          Alcotest.test_case "class and intra-class shares" `Quick
            test_hlink_class_shares;
          Alcotest.test_case "residual redistribution" `Quick
            test_hlink_residual_to_active_class;
          Alcotest.test_case "weight change under backlog" `Quick
            test_hlink_weight_change_under_backlog;
          Alcotest.test_case "errors" `Quick test_hlink_errors;
          Alcotest.test_case "two-level tree shares" `Quick
            test_hlink_two_level_tree;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_link_fairness_bound;
          QCheck_alcotest.to_alcotest prop_link_conservation;
        ] );
    ]
