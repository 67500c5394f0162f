(* Integration tests: every reproduction experiment must satisfy its
   shape checks (the quantitative claims transcribed from the paper's
   figures), plus a few direct cross-experiment assertions. *)

open Hsfq_experiments

let run_entry (e : Registry.entry) () =
  let checks = e.execute ~quiet:true in
  List.iter
    (fun (c : Common.check) ->
      if not c.ok then
        Alcotest.failf "%s: check %S failed (%s)" e.id c.label c.detail)
    checks;
  Alcotest.(check bool) "has checks" true (checks <> [])

let registry_cases =
  List.map
    (fun (e : Registry.entry) ->
      Alcotest.test_case (e.id ^ ": " ^ e.title) `Slow (run_entry e))
    Registry.all

let test_registry_lookup () =
  Alcotest.(check bool) "find fig5" true (Registry.find "fig5" <> None);
  Alcotest.(check bool) "unknown id" true (Registry.find "fig99" = None);
  Alcotest.(check int) "twenty experiments" 20 (List.length (Registry.ids ()))

let test_csv_export () =
  Alcotest.(check (list string)) "exportable figure set"
    [ "fig1"; "fig5"; "fig7"; "fig8"; "fig9"; "fig10"; "fig11" ]
    (Csv_export.exportable ());
  Alcotest.(check bool) "unknown id" true (Result.is_error (Csv_export.export "nope"));
  match Csv_export.export "fig1" with
  | Error e -> Alcotest.fail e
  | Ok files ->
    Alcotest.(check int) "one file for fig1" 1 (List.length files);
    let name, contents = List.hd files in
    Alcotest.(check string) "filename" "fig1_decode_costs.csv" name;
    let lines = String.split_on_char '\n' contents in
    Alcotest.(check string) "header" "frame,cost_ms,type" (List.hd lines);
    Alcotest.(check bool) "2000 data rows" true (List.length lines > 2000)

(* Direct cross-checks on experiment data, beyond the built-in checks. *)

let test_fig3_step_count () =
  let r = Fig3.run () in
  (* 15 quanta run in [0, 170): 9 before the idle period and 6 after. *)
  Alcotest.(check int) "quanta in the timeline" 15 (List.length r.Fig3.steps)

let test_fig3_gantt_shape () =
  let r = Fig3.run () in
  let g = Fig3.render_gantt r in
  let lines = String.split_on_char '\n' g |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "two lanes" 2 (List.length lines);
  (* The idle gap [90, 110) must show as two '.' cells on both lanes
     (cells 9 and 10). *)
  let cell_of line i =
    (* lane name, space, '|', then one char per 10 ms cell *)
    let bar = String.index line '|' in
    line.[bar + 1 + i]
  in
  List.iter
    (fun line ->
      Alcotest.(check char) "idle cell 9" '.' (cell_of line 9);
      Alcotest.(check char) "idle cell 10" '.' (cell_of line 10))
    lines

let test_umbrella_module () =
  (* The umbrella aliases must reach every layer. *)
  let s = Hsfq.Sfq.create () in
  Hsfq.Sfq.arrive s ~id:1 ~weight:Hsfq.Sched.Vtime.unit;
  Alcotest.(check int) "core reachable" 1 (Hsfq.Sfq.backlogged s);
  let h = Hsfq.Hierarchy.create () in
  Alcotest.(check int) "hierarchy reachable" 1 (Hsfq.Hierarchy.node_count h);
  Alcotest.(check bool) "sched reachable" true
    (String.equal Hsfq.Sched.Wfq.algorithm_name "wfq");
  Alcotest.(check int) "engine reachable" 5_000_000 (Hsfq.Time.milliseconds 5)

let test_fig5_totals_consistent () =
  let r = Fig5.run ~seconds:10 () in
  Alcotest.(check int) "five TS threads" 5 (Array.length r.Fig5.ts_loops);
  Alcotest.(check int) "five SFQ threads" 5 (Array.length r.Fig5.sfq_loops);
  Array.iter
    (fun b ->
      let total = Array.fold_left ( +. ) 0. b in
      Alcotest.(check bool) "buckets sum to something" true (total > 0.))
    r.Fig5.sfq_buckets

let test_fig8_robust_across_seeds () =
  (* The 1:3 shape must not depend on the particular background seed. *)
  List.iter
    (fun seed ->
      let r = Fig8.run ~seconds:15 ~seed () in
      Alcotest.(check bool)
        (Printf.sprintf "ratio ~3 with seed %d" seed)
        true
        (Float.abs (r.Fig8.ratio_overall -. 3.) < 0.2))
    [ 7; 1234; 999983 ]

let test_xlatency_robust_across_seeds () =
  (* SFQ-beats-WFQ for low-weight clients must hold for any burst
     pattern, not just the default seed. *)
  List.iter
    (fun seed ->
      let r = Xlatency.run ~seconds:60 ~seed () in
      let find name =
        List.find (fun (row : Xlatency.row) -> String.equal row.algorithm name) r.Xlatency.rows
      in
      Alcotest.(check bool)
        (Printf.sprintf "wfq >> sfq with seed %d" seed)
        true
        ((find "wfq").mean_ms > 3. *. (find "sfq").mean_ms))
    [ 2; 424242 ]

let test_fig10_monotone_cumulative () =
  let r = Fig10.run ~seconds:30 () in
  let rec monotone = function
    | (_, a5, a10) :: ((_, b5, b10) :: _ as rest) ->
      a5 <= b5 && a10 <= b10 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "cumulative frames nondecreasing" true
    (monotone r.Fig10.cum_rows)

let test_fig11_sleep_phase_exact () =
  let r = Fig11.run () in
  (* Seconds 6..8: thread1 is suspended, so its buckets are exactly 0 and
     thread2 gets everything. *)
  Alcotest.(check (float 0.)) "t1 second 7" 0. r.Fig11.t1_per_sec.(7);
  Alcotest.(check bool) "t2 owns the CPU" true (r.Fig11.t2_per_sec.(7) > 1900.)

let () =
  Alcotest.run "experiments"
    [
      ("registry", [ Alcotest.test_case "lookup" `Quick test_registry_lookup ]);
      ("csv", [ Alcotest.test_case "export" `Quick test_csv_export ]);
      ("paper figures & extensions", registry_cases);
      ( "cross-checks",
        [
          Alcotest.test_case "fig3 timeline length" `Quick test_fig3_step_count;
          Alcotest.test_case "fig3 gantt shape" `Quick test_fig3_gantt_shape;
          Alcotest.test_case "umbrella module" `Quick test_umbrella_module;
          Alcotest.test_case "fig5 data shapes" `Quick test_fig5_totals_consistent;
          Alcotest.test_case "fig8 robust across seeds" `Quick
            test_fig8_robust_across_seeds;
          Alcotest.test_case "xlatency robust across seeds" `Quick
            test_xlatency_robust_across_seeds;
          Alcotest.test_case "fig10 cumulative monotone" `Quick
            test_fig10_monotone_cumulative;
          Alcotest.test_case "fig11 sleep phase" `Quick test_fig11_sleep_phase_exact;
        ] );
    ]
