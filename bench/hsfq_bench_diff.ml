(* hsfq_bench_diff — regression gate over BENCH_sched.json.

   Usage: hsfq_bench_diff BASELINE.json FRESH.json

   Prints each row's median timing in both files with the fresh/baseline
   ratio; drift outside [Bench_rows.timing_band] is advisory.  Then runs
   Bench_rows' gate table: every rule on each file alone (so a committed
   violation fails before any fresh run) and the cross-file rules
   between them.  Each failure goes to stderr as one FAIL line.  Exit 0
   clean, 1 a hard gate failed, 2 usage or an unreadable file. *)

module B = Bench_rows

let load path =
  match B.read path with
  | Ok (_ :: _ as rows) -> rows
  | Ok [] ->
    Printf.eprintf "hsfq_bench_diff: no rows in %s\n" path;
    exit 2
  | Error e ->
    Printf.eprintf "hsfq_bench_diff: %s\n" e;
    exit 2

let () =
  let baseline_path, fresh_path =
    match Sys.argv with
    | [| _; b; f |] -> (b, f)
    | _ ->
      prerr_endline "usage: hsfq_bench_diff BASELINE.json FRESH.json";
      exit 2
  in
  let baseline = load baseline_path and fresh = load fresh_path in
  let lo, hi = B.timing_band in
  let drifted = ref 0 in
  let t =
    Hsfq_engine.Table.create
      [ "section"; "row"; "base median"; "fresh median"; "ratio"; "verdict" ]
  in
  let median (r : B.row) =
    if List.is_empty r.samples then "-" else Printf.sprintf "%.3f" (B.median r)
  in
  List.iter
    (fun (b : B.row) ->
      let cells f ratio verdict = [ b.section; b.name; median b; f; ratio; verdict ] in
      Hsfq_engine.Table.row t
        (match B.twin fresh b with
        | None when List.is_empty (B.rows_of b.section fresh) ->
          cells "-" "-" "section not measured"
        | None -> cells "-" "-" "missing from fresh run"
        | Some _ when List.is_empty b.samples -> cells "-" "-" "ok"
        | Some f ->
          let ratio = B.median f /. B.median b in
          let verdict =
            if ratio < lo then "FASTER (update baseline?)"
            else if ratio > hi then "SLOWER"
            else "ok"
          in
          if not (String.equal verdict "ok") then incr drifted;
          cells (median f) (Printf.sprintf "%.2f" ratio) verdict))
    baseline;
  List.iter
    (fun (f : B.row) ->
      if Option.is_none (B.twin baseline f) then
        Hsfq_engine.Table.row t
          [ f.section; f.name; "-"; median f; "-"; "new (not in baseline)" ])
    fresh;
  Hsfq_engine.Table.print t;
  Printf.printf "\n%d timing row(s) outside the [%.2f, %.2f] band: advisory only.\n"
    !drifted lo hi;
  let labelled path =
    List.map (fun f -> Printf.sprintf "FAIL %s: %s" path (B.describe f))
  in
  let failures =
    List.sort_uniq String.compare
      (labelled baseline_path (B.violations baseline)
      @ labelled fresh_path (B.violations fresh @ B.regressions ~baseline ~fresh))
  in
  List.iter prerr_endline failures;
  if not (List.is_empty failures) then begin
    Printf.printf "%d hard gate(s) FAILED.\n" (List.length failures);
    exit 1
  end
