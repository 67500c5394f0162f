(* Tests for BENCH_sched.json's gate table (bench/bench_rows.ml).

   Each case starts from the committed file, changes one counter, sample
   list or row, and checks that exactly the expected gate fails: its
   section, the rows it names and the start of its claim.  Values are
   set relative to the committed ones, so the cases survive a
   regenerated file.  The diff executable's exit codes are checked by a
   rule in bench/dune. *)

module B = Bench_rows

let committed =
  lazy
    (match B.read "../BENCH_sched.json" with
    | Ok rows -> rows
    | Error e -> failwith e)

let get rows name = List.find (fun (r : B.row) -> String.equal r.name name) rows

let update name f rows =
  List.map (fun (r : B.row) -> if String.equal r.name name then f r else r) rows

let set_counter name key v =
  update name (fun r ->
      {
        r with
        counters =
          List.map (fun (k, x) -> ((k, if String.equal k key then v else x))) r.counters;
      })

let bump name key d rows = set_counter name key (B.counter (get rows name) key +. d) rows

let set_samples name samples = update name (fun r -> { r with samples })

(* [name]'s samples become [k] times [other]'s median. *)
let scale_to name ~other k rows =
  set_samples name [ k *. B.median (get rows other) ] rows

let drop p rows = List.filter (fun r -> not (p r)) rows
let named n (r : B.row) = String.equal r.name n

let failures =
  Alcotest.testable
    (fun ppf (sect, names, claim) ->
      Format.fprintf ppf "%s [%s] %s..." sect (String.concat "; " names) claim)
    (fun (s1, n1, c1) (s2, n2, c2) ->
      (* a case gives the start of the failure's text *)
      String.equal s1 s2
      && List.equal String.equal n1 n2
      && (String.starts_with ~prefix:c1 c2 || String.starts_with ~prefix:c2 c1))

let check_failures label expected (fs : B.failure list) =
  Alcotest.(check (list failures))
    label expected
    (List.map (fun (f : B.failure) -> (f.sect, f.names, f.what)) fs)

let steady_end rows =
  B.counter (get rows "sfq-steady/Q=10000") "end_footprint_words"

(* One file on its own: [B.violations]. *)
let one_file =
  [
    ( "sweep at 1x",
      (fun rs ->
        set_samples "experiments/all/parallel"
          (get rs "experiments/all/serial").samples rs),
      [
        ( "sweeps",
          [ "experiments/all/parallel"; "experiments/all/serial" ],
          "parallel wall time below serial" );
      ] );
    ( "scale slope",
      scale_to "sfq-steady/Q=100000" ~other:"sfq-steady/Q=10000" 3.,
      [
        ( "scale",
          [ "sfq-steady/Q=100000"; "sfq-steady/Q=10000" ],
          "decision cost grows O(log n)" );
      ] );
    ( "scale peak",
      (fun rs ->
        set_counter "sfq-arrival/Q=10000" "peak_footprint_words"
          (2.5 *. steady_end rs) rs),
      [
        ( "scale",
          [ "sfq-arrival/Q=10000"; "sfq-steady/Q=10000" ],
          "peak footprint within 2x" );
      ] );
    ( "departure not reclaimed",
      (fun rs ->
        set_counter "sfq-departure/Q=10000" "end_footprint_words"
          (0.9 *. steady_end rs) rs),
      [
        ( "scale",
          [ "sfq-departure/Q=10000"; "sfq-steady/Q=10000" ],
          "departure churn is reclaimed" );
      ] );
    ( "departure rows lost",
      drop (fun r -> String.equal (B.family r) "sfq-departure"),
      [ ("scale", [ "sfq-departure" ], "no row of this family") ] );
    ( "hierarchy rows lost",
      drop (fun r -> String.equal (B.family r) "hierarchy-churn"),
      [ ("scale", [ "hierarchy-churn" ], "no row of this family") ] );
    ( "scale words",
      set_counter "sfq-steady/Q=10000" "minor_words_per_decision" 17.,
      [ ("scale", [ "sfq-steady/Q=10000" ], "minor_words_per_decision 17 over") ] );
    ( "P=1 migrates",
      set_counter "smp-dispatch/P=1" "migrations" 1.,
      [ ("smp", [ "smp-dispatch/P=1" ], "P=1 never migrates") ] );
    ( "P=2 never migrates",
      set_counter "smp-dispatch/P=2" "migrations" 0.,
      [ ("smp", [ "smp-dispatch/P=2" ], "P>1 migrates") ] );
    ( "smp cost",
      scale_to "smp-dispatch/P=2" ~other:"smp-dispatch/P=1" 4.,
      [
        ( "smp",
          [ "smp-dispatch/P=2"; "smp-dispatch/P=1" ],
          "per-event cost within 3x of P=1" );
      ] );
    ( "smp without P=1",
      drop (named "smp-dispatch/P=1"),
      List.map
        (fun p -> ("smp", [ "smp-dispatch/P=" ^ p ], "per-event cost within 3x"))
        [ "2"; "4"; "8" ] );
    ( "smp words",
      set_counter "smp-dispatch/P=1" "minor_words_per_event" 50.,
      [ ("smp", [ "smp-dispatch/P=1" ], "minor_words_per_event 50 over") ] );
    ( "sim_speed words",
      set_counter "timer-churn" "minor_words_per_event" 11.,
      [ ("sim_speed", [ "timer-churn" ], "minor_words_per_event 11 over") ] );
    ( "sim_speed row lost",
      drop (named "timer-churn"),
      [ ("sim_speed", [ "timer-churn" ], "no row to hold") ] );
    ( "no events",
      set_counter "timer-churn" "events" 0.,
      [ ("sim_speed", [ "timer-churn" ], "fires events") ] );
    ( "zero sample",
      set_samples "sfq/Q=8" [ 0. ],
      [ ("benchmarks", [ "sfq/Q=8" ], "a timing sample is not positive") ] );
    ( "missing counter",
      update "smp-dispatch/P=1" (fun r ->
          { r with counters = List.remove_assoc "migrations" r.counters }),
      [ ("smp", [ "smp-dispatch/P=1" ], "smp row") ] );
  ]

(* The committed file as baseline against a changed fresh run:
   [B.regressions]. *)
let two_files =
  [
    ( "lost row",
      drop (named "sfq/Q=512"),
      [ ("benchmarks", [ "sfq/Q=512" ], "missing from the fresh run") ] );
    ( "unmeasured section",
      drop (fun (r : B.row) -> String.equal r.section "sweeps"),
      [] );
    ( "footprint moved",
      bump "sfq-steady/Q=10000" "end_footprint_words" 1.,
      [ ("scale", [ "sfq-steady/Q=10000" ], "end_footprint_words moved") ] );
    ( "events moved",
      bump "timer-churn" "events" 1.,
      [ ("sim_speed", [ "timer-churn" ], "events moved") ] );
    ( "words moved",
      bump "timer-churn" "minor_words_per_event" 0.001,
      [ ("sim_speed", [ "timer-churn" ], "minor_words_per_event moved") ] );
    ( "migrations moved",
      bump "smp-dispatch/P=2" "migrations" 1.,
      [ ("smp", [ "smp-dispatch/P=2" ], "migrations moved") ] );
    ( "sweep speedup drifted",
      (fun rs ->
        let serial = B.median (get rs "experiments/all/serial") in
        let was = B.median (get rs "experiments/all/parallel") /. serial in
        scale_to "experiments/all/parallel" ~other:"experiments/all/serial"
          (1.4 *. was) rs),
      [
        ( "sweeps",
          [ "experiments/all/parallel" ],
          "parallel wall time below serial: ratio" );
      ] );
    ( "timing drift is advisory",
      List.map (fun (r : B.row) ->
          { r with samples = List.map (fun s -> 2. *. s) r.samples }),
      [] );
  ]

let test_committed () =
  let rows = Lazy.force committed in
  check_failures "the committed file passes on its own" [] (B.violations rows);
  check_failures "and against itself" []
    (B.regressions ~baseline:rows ~fresh:rows)

let case run (label, change, expected) =
  Alcotest.test_case label `Quick (fun () ->
      let rows = Lazy.force committed in
      check_failures label expected (run rows (change rows)))

let () =
  Alcotest.run "bench_rows"
    [
      ("committed", [ Alcotest.test_case "passes" `Quick test_committed ]);
      ("one file", List.map (case (fun _ fresh -> B.violations fresh)) one_file);
      ( "baseline vs fresh",
        List.map (case (fun baseline fresh -> B.regressions ~baseline ~fresh)) two_files
      );
    ]
