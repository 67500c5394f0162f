(* Hierarchical link sharing: the paper's scheduling structure applied to
   its original resource. An edge router's 10 Mb/s uplink is partitioned
   "/realtime (w=4) | /tenants (w=6)"; /realtime carries voice and video
   flows, /tenants is split equally between two customers, one of which
   floods the link. The hierarchy keeps every class at its share and SFQ
   keeps voice latency in single-digit milliseconds through it all.

     dune exec examples/router.exe *)

open Hsfq_engine
open Hsfq_netsim
module Hierarchy = Hsfq_core.Hierarchy

let must = function Ok v -> v | Error e -> failwith e
let mb x = x /. 1e6

let () =
  let sim = Sim.create () in
  let hl = Hlink.create ~sim ~rate_bps:10e6 () in
  let h = Hlink.hierarchy hl in

  (* the class tree *)
  let realtime =
    must (Hierarchy.mknod h ~name:"realtime" ~parent:Hierarchy.root ~weight:4. Hierarchy.Leaf)
  in
  let tenants =
    must (Hierarchy.mknod h ~name:"tenants" ~parent:Hierarchy.root ~weight:6. Hierarchy.Internal)
  in
  let acme = must (Hierarchy.mknod h ~name:"acme" ~parent:tenants ~weight:1. Hierarchy.Leaf) in
  let globex = must (Hierarchy.mknod h ~name:"globex" ~parent:tenants ~weight:1. Hierarchy.Leaf) in

  (* flows *)
  let voice = 1 and video = 2 and acme_web = 3 and globex_flood = 4 in
  Hlink.attach_flow hl ~leaf:realtime ~flow:voice ~weight:64e3;
  Hlink.attach_flow hl ~leaf:realtime ~flow:video ~weight:2e6;
  Hlink.attach_flow hl ~leaf:acme ~flow:acme_web ~weight:1.;
  Hlink.attach_flow hl ~leaf:globex ~flow:globex_flood ~weight:1.;

  (* traffic: generators target the hierarchical link via closures *)
  let rec cbr ~flow ~gap ~bits () =
    Hlink.enqueue hl ~flow ~bits;
    Sim.after sim gap (cbr ~flow ~gap ~bits)
  in
  let rng = Prng.create 99 in
  let rec poisson ~flow ~mean_gap ~mean_bits () =
    Hlink.enqueue hl ~flow
      ~bits:(Int.max 64 (int_of_float (Prng.exponential rng ~mean:mean_bits)));
    Sim.after sim
      (Int.max 1 (Time.of_seconds_float (Prng.exponential rng ~mean:mean_gap)))
      (poisson ~flow ~mean_gap ~mean_bits)
  in
  cbr ~flow:voice ~gap:(Time.milliseconds 20) ~bits:1280 ();
  cbr ~flow:video ~gap:(Time.of_seconds_float (1. /. 30.)) ~bits:66_000 ();
  poisson ~flow:acme_web ~mean_gap:0.01 ~mean_bits:12_000. ();
  (* globex floods: ~20 Mb/s of demand into a 3 Mb/s share *)
  poisson ~flow:globex_flood ~mean_gap:0.0006 ~mean_bits:12_000. ();

  let seconds = 20 in
  Sim.run_until sim (Time.seconds seconds);

  let goodput flow = Hlink.delivered_bits hl ~flow /. float_of_int seconds in
  Printf.printf "After %d s on the 10 Mb/s uplink (globex flooding ~20 Mb/s):\n" seconds;
  Printf.printf "  voice        : %6.3f Mb/s, mean delay %5.2f ms (max %5.2f ms)\n"
    (mb (goodput voice))
    (Stats.mean (Hlink.delay_stats hl ~flow:voice) /. 1e6)
    (Stats.max_value (Hlink.delay_stats hl ~flow:voice) /. 1e6);
  Printf.printf "  video        : %6.3f Mb/s\n" (mb (goodput video));
  Printf.printf "  acme (web)   : %6.3f Mb/s, %d drops\n"
    (mb (goodput acme_web)) (Hlink.drops hl ~flow:acme_web);
  Printf.printf "  globex flood : %6.3f Mb/s, %d drops (its share + the residue)\n"
    (mb (goodput globex_flood)) (Hlink.drops hl ~flow:globex_flood);
  Printf.printf "  class totals : realtime %.2f Mb/s, tenants %.2f Mb/s\n"
    (mb (Hlink.class_delivered_bits hl realtime /. float_of_int seconds))
    (mb ((Hlink.class_delivered_bits hl acme +. Hlink.class_delivered_bits hl globex)
         /. float_of_int seconds));
  print_endline
    "The flood soaks up only the residue others leave: voice, video and acme\n\
     are untouched, and voice keeps millisecond latency without any\n\
     reservation machinery — just weights."
