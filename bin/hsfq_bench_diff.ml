(* hsfq_bench_diff — regression gate over BENCH_sched.json.

   Usage: hsfq_bench_diff BASELINE.json FRESH.json

   Compares every benchmark row present in both files and flags entries
   whose fresh/baseline ratio falls outside [0.75, 1.33] (±25-ish percent,
   symmetric in log space).  The micro section and the sim_speed
   events/sec column are advisory — a noisy CI box cannot fail the build
   on ns-level timing — but sim_speed minor words/event are deterministic
   for a given build profile, so words/event moving more than
   [sim_speed_words_band] either way fails the diff with exit 1 (refresh
   the baseline when the move is deliberate).  The "sweeps" section is a
   hard gate too: a parallel sweep exists only
   to be faster than serial, so a committed or fresh speedup below 1.0x
   (the historical inversion, see ROADMAP item 1), a >25% regression
   against baseline, or a sweep row that vanished from a fresh run that
   measured sweeps at all, each fail the diff with exit 1.  The "scale"
   section is hard-gated too: steady ns/decision growing faster than a
   log2 slope across decades of Q, a churn mix whose peak footprint
   exceeds 2x steady state, a departure-heavy run whose end footprint
   compaction failed to reclaim, or a deterministic footprint that
   drifted >25% from the committed baseline, each exit 1.  The "smp"
   section is hard-gated the same way: migrations at P=1, a dead
   idle-claim path at P>1, per-event cost blowing past 3x the same
   file's P=1 row, or a deterministic event/migration count drifting
   >25% from baseline, each exit 1.

   The parser only understands the repo's own stable format (schema
   "hsfq-bench/1", one benchmark per line inside the "benchmarks" object)
   — deliberately, so the tool needs no JSON library. *)

let tolerance_lo = 0.75
let tolerance_hi = 1.33

(* Allowed |fresh - baseline| in sim_speed minor words per event.  The
   counts repeat exactly for one build profile (the committed rows come
   from the default dev profile), so the band only absorbs float
   formatting. *)
let sim_speed_words_band = 0.05

type row = { ns : float; words : float }

(* A sim_speed section row: end-to-end events/sec (higher is better,
   unlike ns/decision) and steady-state minor words per fired event. *)
type speed_row = { eps : float; wpe : float }

(* A sweeps section row: measured wall-clock speedup of a parallel
   sweep over its serial run (higher is better; < 1.0 is an inversion). *)
type sweep_row = { speedup : float; jobs : float }

(* A scale section row: churn-mix decision cost and the deterministic
   structure footprint (array lengths + bucket counts, so drift is a
   code change, never measurement noise). *)
type scale_row = { sns : float; speak : float; send : float }

(* An smp section row: per-CPU dispatch over a simulated CPU set.
   Event and migration counts are deterministic (seeded workloads over
   simulated time); ns/event is machine noise, gated only relative to
   the same file's P=1 row. *)
type smp_row = { mcpus : float; mevents : float; mns : float; mmig : float }

(* Extract the float following [key] on [line], if present. *)
let field line key =
  let needle = "\"" ^ key ^ "\":" in
  match
    let nlen = String.length needle in
    let limit = String.length line - nlen in
    let rec find i =
      if i > limit then None
      else if String.sub line i nlen = needle then Some (i + nlen)
      else find (i + 1)
    in
    find 0
  with
  | None -> None
  | Some start ->
    let len = String.length line in
    let stop = ref start in
    while
      !stop < len
      && (match line.[!stop] with
         | '0' .. '9' | '.' | '-' | 'e' | 'E' | '+' | ' ' -> true
         | _ -> false)
    do
      incr stop
    done;
    float_of_string_opt (String.trim (String.sub line start (!stop - start)))

(* The benchmark name is the first double-quoted token on the line. *)
let name_of line =
  match String.index_opt line '"' with
  | None -> None
  | Some i -> (
    match String.index_from_opt line (i + 1) '"' with
    | None -> None
    | Some j -> Some (String.sub line (i + 1) (j - i - 1)))

let load path =
  let ic = open_in path in
  let rows = Hashtbl.create 32 in
  let speeds = Hashtbl.create 8 in
  let sweeps = Hashtbl.create 8 in
  let scales = Hashtbl.create 8 in
  let smps = Hashtbl.create 8 in
  (try
     while true do
       let line = input_line ic in
       (match (field line "ns_per_decision", field line "minor_words_per_decision") with
       | Some ns, Some words -> (
         match name_of line with
         | Some name -> Hashtbl.replace rows name { ns; words }
         | None -> ())
       | _ -> ());
       (match (field line "events_per_sec", field line "minor_words_per_event") with
       | Some eps, Some wpe -> (
         match name_of line with
         | Some name -> Hashtbl.replace speeds name { eps; wpe }
         | None -> ())
       | _ -> ());
       (match
          ( field line "scale_ns_per_decision",
            field line "scale_peak_footprint_words",
            field line "scale_end_footprint_words" )
        with
       | Some sns, Some speak, Some send -> (
         match name_of line with
         | Some name -> Hashtbl.replace scales name { sns; speak; send }
         | None -> ())
       | _ -> ());
       (match
          ( field line "smp_cpus",
            field line "smp_events",
            field line "smp_ns_per_event",
            field line "smp_migrations" )
        with
       | Some mcpus, Some mevents, Some mns, Some mmig -> (
         match name_of line with
         | Some name -> Hashtbl.replace smps name { mcpus; mevents; mns; mmig }
         | None -> ())
       | _ -> ());
       match (field line "speedup", field line "jobs") with
       | Some speedup, Some jobs -> (
         match name_of line with
         | Some name -> Hashtbl.replace sweeps name { speedup; jobs }
         | None -> ())
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  (rows, speeds, sweeps, scales, smps)

let classify ratio =
  if ratio < tolerance_lo then `Faster
  else if ratio > tolerance_hi then `Slower
  else `Ok

let () =
  let baseline_path, fresh_path =
    match Sys.argv with
    | [| _; b; f |] -> (b, f)
    | _ ->
      prerr_endline "usage: hsfq_bench_diff BASELINE.json FRESH.json";
      exit 2
  in
  let baseline, baseline_speed, baseline_sweeps, baseline_scale, baseline_smp =
    load baseline_path
  in
  let fresh, fresh_speed, fresh_sweeps, fresh_scale, fresh_smp =
    load fresh_path
  in
  if Hashtbl.length baseline = 0 then begin
    Printf.eprintf "no benchmark rows found in %s\n" baseline_path;
    exit 2
  end;
  if Hashtbl.length fresh = 0 then begin
    Printf.eprintf "no benchmark rows found in %s\n" fresh_path;
    exit 2
  end;
  let names =
    Hashtbl.fold (fun name _ acc -> name :: acc) baseline []
    |> List.sort String.compare
  in
  let drifted = ref 0 in
  Printf.printf "%-28s %12s %12s %8s  %s\n" "benchmark" "base ns" "fresh ns"
    "ratio" "verdict";
  List.iter
    (fun name ->
      match (Hashtbl.find_opt fresh name, Hashtbl.find_opt baseline name) with
      | None, _ ->
        Printf.printf "%-28s %12s %12s %8s  missing from fresh run\n" name "-"
          "-" "-"
      | _, None -> ()
      | Some f, Some b ->
        let ratio = f.ns /. b.ns in
        let verdict =
          match classify ratio with
          | `Ok -> "ok"
          | `Faster ->
            incr drifted;
            "FASTER (update baseline?)"
          | `Slower ->
            incr drifted;
            "SLOWER"
        in
        Printf.printf "%-28s %12.1f %12.1f %8.2f  %s\n" name b.ns f.ns ratio
          verdict;
        (* Allocation counts are near-deterministic, so drift there is a
           stronger signal than time drift on a noisy box. *)
        if b.words > 0.5 && Float.abs ((f.words /. b.words) -. 1.) > 0.25 then begin
          incr drifted;
          Printf.printf "%-28s %12.1f %12.1f %8.2f  ALLOC DRIFT (minor words)\n"
            "" b.words f.words (f.words /. b.words)
        end)
    names;
  Hashtbl.iter
    (fun name _ ->
      if not (Hashtbl.mem baseline name) then
        Printf.printf "%-28s %12s %12s %8s  new (not in baseline)\n" name "-" "-" "-")
    fresh;
  let failed = ref 0 in
  (* sim_speed rows: end-to-end events/sec, where a ratio {e below} the
     band is the regression (throughput dropped) — advisory.  Minor
     words per event are deterministic, so their drift is a hard
     failure. *)
  if Hashtbl.length baseline_speed > 0 || Hashtbl.length fresh_speed > 0 then begin
    let names =
      Hashtbl.fold (fun name _ acc -> name :: acc) baseline_speed []
      |> List.sort String.compare
    in
    Printf.printf "\n%-28s %12s %12s %8s  %s\n" "sim-speed workload" "base ev/s"
      "fresh ev/s" "ratio" "verdict";
    List.iter
      (fun name ->
        match (Hashtbl.find_opt fresh_speed name, Hashtbl.find_opt baseline_speed name) with
        | None, _ ->
          Printf.printf "%-28s %12s %12s %8s  missing from fresh run\n" name "-"
            "-" "-"
        | _, None -> ()
        | Some f, Some b ->
          let ratio = f.eps /. b.eps in
          let verdict =
            match classify ratio with
            | `Ok -> "ok"
            | `Faster ->
              (* events/sec: below the band = throughput regression. *)
              incr drifted;
              "SLOWER (throughput dropped)"
            | `Slower ->
              incr drifted;
              "FASTER (update baseline?)"
          in
          Printf.printf "%-28s %12.0f %12.0f %8.2f  %s\n" name b.eps f.eps ratio
            verdict;
          if Float.abs (f.wpe -. b.wpe) > sim_speed_words_band then begin
            incr failed;
            Printf.printf
              "%-28s %12.2f %12.2f %8s  FAIL (minor words/event moved; refresh \
               the baseline if deliberate)\n"
              "" b.wpe f.wpe "-"
          end)
      names;
    Hashtbl.iter
      (fun name _ ->
        if not (Hashtbl.mem baseline_speed name) then
          Printf.printf "%-28s %12s %12s %8s  new (not in baseline)\n" name "-" "-" "-")
      fresh_speed
  end;
  (* sweeps rows: a hard gate. A sweep's whole reason to exist is a
     wall-clock win over serial, so verdicts are inverted
     (higher-is-better) and failures are fatal: speedup < 1.0 in either
     file is the inversion this gate was built to keep out; a
     fresh/baseline ratio below the band is a >25% regression; a
     baseline sweep missing from a fresh run that measured sweeps at
     all means coverage silently shrank. Fresh runs with no sweeps
     section (e.g. --micro-only) skip the comparisons but still fail on
     a committed inversion. *)
  if Hashtbl.length baseline_sweeps > 0 || Hashtbl.length fresh_sweeps > 0 then begin
    let names =
      Hashtbl.fold (fun name _ acc -> name :: acc) baseline_sweeps []
      |> List.sort String.compare
    in
    Printf.printf "\n%-40s %10s %10s %8s  %s\n" "parallel sweep" "base x"
      "fresh x" "ratio" "verdict";
    List.iter
      (fun name ->
        match Hashtbl.find_opt baseline_sweeps name with
        | None -> ()
        | Some b ->
        if b.speedup < 1.0 then begin
          incr failed;
          Printf.printf "%-40s %10.3f %10s %8s  FAIL (committed speedup < 1x)\n"
            name b.speedup "-" "-"
        end;
        match Hashtbl.find_opt fresh_sweeps name with
        | None ->
          if Hashtbl.length fresh_sweeps > 0 then begin
            incr failed;
            Printf.printf "%-40s %10.3f %10s %8s  FAIL (missing from fresh sweeps)\n"
              name b.speedup "-" "-"
          end
        | Some f ->
          let ratio = f.speedup /. b.speedup in
          let verdict =
            if f.speedup < 1.0 then begin
              incr failed;
              "FAIL (speedup < 1x: parallel slower than serial)"
            end
            else if ratio < tolerance_lo then begin
              incr failed;
              "FAIL (speedup regressed > 25%)"
            end
            else if ratio > tolerance_hi then "FASTER (update baseline?)"
            else "ok"
          in
          Printf.printf "%-40s %10.3f %10.3f %8.2f  %s (jobs=%.0f)\n" name
            b.speedup f.speedup ratio verdict f.jobs)
      names;
    Hashtbl.iter
      (fun name (f : sweep_row) ->
        if not (Hashtbl.mem baseline_sweeps name) then begin
          Printf.printf "%-40s %10s %10.3f %8s  new (not in baseline)\n" name "-"
            f.speedup "-";
          if f.speedup < 1.0 then begin
            incr failed;
            Printf.printf "%-40s %10s %10s %8s  FAIL (new sweep slower than serial)\n"
              name "-" "-" "-"
          end
        end)
      fresh_sweeps
  end;
  (* scale rows: the second hard gate. The structural claims — O(log n)
     decision cost and O(live) retained memory under churn — are not
     timing noise, so violations are fatal:

     - steady-mix ns/decision across consecutive decades of Q must grow
       by at most [slope_bound] (log2(10^(k+1))/log2(10^k) is ~1.25 at
       k=4; 2.5 leaves room for cache-level effects while still
       catching anything polynomial);
     - every mix's peak footprint must stay within 2x of the same-Q
       steady-state footprint (departure-heavy churn must not retain);
     - the departure mix's end footprint must come in at <= 3/4 of
       steady (compaction provably released the columns; without the
       shrink path this ratio sits at ~1.0);
     - footprints are deterministic, so a fresh/baseline end-footprint
       ratio outside the tolerance band is a real structural change and
       fails (refresh the baseline with [make bench] if intended);
     - a baseline scale row missing from a fresh run that measured
       scale at all means coverage silently shrank.

     Both files are checked against the structural bounds, so a
     committed violation fails the diff even before a fresh run. *)
  let slope_bound = 2.5 in
  let scale_structural label (tbl : (string, scale_row) Hashtbl.t) =
    if Hashtbl.length tbl > 0 then begin
      List.iter
        (fun (lo, hi) ->
          match (Hashtbl.find_opt tbl lo, Hashtbl.find_opt tbl hi) with
          | Some a, Some b ->
            if b.sns > slope_bound *. a.sns then begin
              incr failed;
              Printf.printf
                "%-40s FAIL (%s: %.1f -> %.1f ns/decision across one decade, \
                 ratio %.2f > %.2f — O(log n) slope violated)\n"
                hi label a.sns b.sns (b.sns /. a.sns) slope_bound
            end
          | _ -> ())
        [
          ("sfq-steady/Q=10000", "sfq-steady/Q=100000");
          ("sfq-steady/Q=100000", "sfq-steady/Q=1000000");
          ("hierarchy-churn/N=10000", "hierarchy-churn/N=100000");
        ];
      List.iter
        (fun q ->
          match
            Hashtbl.find_opt tbl (Printf.sprintf "sfq-steady/Q=%d" q)
          with
          | None -> ()
          | Some steady ->
            List.iter
              (fun mix ->
                match
                  Hashtbl.find_opt tbl (Printf.sprintf "sfq-%s/Q=%d" mix q)
                with
                | Some r when r.speak > 2. *. steady.send ->
                  incr failed;
                  Printf.printf
                    "%-40s FAIL (%s: peak footprint %.0f words > 2x the \
                     steady-state %.0f)\n"
                    (Printf.sprintf "sfq-%s/Q=%d" mix q)
                    label r.speak steady.send
                | _ -> ())
              [ "steady"; "arrival"; "departure" ];
            (match
               Hashtbl.find_opt tbl (Printf.sprintf "sfq-departure/Q=%d" q)
             with
            | Some d when 4. *. d.send > 3. *. steady.send ->
              incr failed;
              Printf.printf
                "%-40s FAIL (%s: departure-heavy end footprint %.0f words \
                 not reclaimed — steady is %.0f, compaction should have \
                 released the columns)\n"
                (Printf.sprintf "sfq-departure/Q=%d" q)
                label d.send steady.send
            | _ -> ()))
        [ 10_000; 100_000; 1_000_000 ]
    end
  in
  if Hashtbl.length baseline_scale > 0 || Hashtbl.length fresh_scale > 0
  then begin
    let names =
      Hashtbl.fold (fun name _ acc -> name :: acc) baseline_scale []
      |> List.sort String.compare
    in
    Printf.printf "\n%-40s %10s %10s %8s  %s\n" "scale row" "base ns"
      "fresh ns" "ratio" "verdict";
    List.iter
      (fun name ->
        match Hashtbl.find_opt baseline_scale name with
        | None -> ()
        | Some b -> (
          match Hashtbl.find_opt fresh_scale name with
          | None ->
            if Hashtbl.length fresh_scale > 0 then begin
              incr failed;
              Printf.printf "%-40s %10.1f %10s %8s  FAIL (missing from fresh \
                             scale rows)\n"
                name b.sns "-" "-"
            end
          | Some f ->
            let ratio = f.sns /. b.sns in
            let verdict =
              match classify ratio with
              | `Ok -> "ok"
              | `Faster ->
                incr drifted;
                "FASTER (update baseline?)"
              | `Slower ->
                incr drifted;
                "SLOWER"
            in
            Printf.printf "%-40s %10.1f %10.1f %8.2f  %s\n" name b.sns f.sns
              ratio verdict;
            (* Footprints are array lengths, not timings: drift here is
               a structural change and fails the gate. *)
            let fp_ratio = f.send /. b.send in
            if fp_ratio < tolerance_lo || fp_ratio > tolerance_hi then begin
              incr failed;
              Printf.printf
                "%-40s %10.0f %10.0f %8.2f  FAIL (end footprint drifted > \
                 25%% — structural change; refresh the baseline if \
                 intended)\n"
                "" b.send f.send fp_ratio
            end))
      names;
    Hashtbl.iter
      (fun name _ ->
        if not (Hashtbl.mem baseline_scale name) then
          Printf.printf "%-40s %10s %10s %8s  new (not in baseline)\n" name
            "-" "-" "-")
      fresh_scale;
    scale_structural "baseline" baseline_scale;
    scale_structural "fresh" fresh_scale
  end;
  (* smp rows: the third hard gate. The multiprocessor dispatch claims
     are structural, not timing:

     - the P=1 row must record exactly zero migrations (the single-CPU
       fast path must not touch the migration machinery) and every
       P>1 row must record some (the idle-claim path is exercised);
     - per-event cost at P>1 must stay within [smp_cost_bound]x the
       {e same file's} P=1 cost — machine-relative, so a slow CI box
       cannot fail it, but an accidental O(P) scan in dispatch will;
     - event and migration counts are deterministic (seeded workloads
       over simulated time), so a fresh/baseline ratio outside the
       tolerance band is a real behavioural change and fails (refresh
       the baseline with [make bench] if intended);
     - a baseline smp row missing from a fresh run that measured smp at
       all means coverage silently shrank.

     Both files are checked against the structural bounds. *)
  let smp_cost_bound = 3.0 in
  let smp_structural label (tbl : (string, smp_row) Hashtbl.t) =
    if Hashtbl.length tbl > 0 then begin
      let p1 =
        Hashtbl.fold
          (fun _ r acc -> if r.mcpus = 1. then Some r else acc)
          tbl None
      in
      (match p1 with
      | None ->
        incr failed;
        Printf.printf "%-40s FAIL (%s: no P=1 smp row to anchor the gates)\n"
          "smp" label
      | Some p1 ->
        if p1.mmig <> 0. then begin
          incr failed;
          Printf.printf
            "%-40s FAIL (%s: P=1 recorded %.0f migrations — the single-CPU \
             path must never migrate)\n"
            "smp-dispatch/P=1" label p1.mmig
        end;
        Hashtbl.iter
          (fun name r ->
            if r.mcpus > 1. then begin
              if r.mmig <= 0. then begin
                incr failed;
                Printf.printf
                  "%-40s FAIL (%s: no migrations at P=%.0f — the idle-claim \
                   path is dead)\n"
                  name label r.mcpus
              end;
              if r.mns > smp_cost_bound *. p1.mns then begin
                incr failed;
                Printf.printf
                  "%-40s FAIL (%s: %.0f ns/event vs %.0f at P=1, over the \
                   %.1fx bound — per-CPU dispatch must not blow up the \
                   per-event cost)\n"
                  name label r.mns p1.mns smp_cost_bound
              end
            end)
          tbl)
    end
  in
  if Hashtbl.length baseline_smp > 0 || Hashtbl.length fresh_smp > 0 then begin
    let names =
      Hashtbl.fold (fun name _ acc -> name :: acc) baseline_smp []
      |> List.sort String.compare
    in
    Printf.printf "\n%-40s %10s %10s %8s  %s\n" "smp row" "base ev"
      "fresh ev" "ratio" "verdict";
    List.iter
      (fun name ->
        match Hashtbl.find_opt baseline_smp name with
        | None -> ()
        | Some b -> (
          match Hashtbl.find_opt fresh_smp name with
          | None ->
            if Hashtbl.length fresh_smp > 0 then begin
              incr failed;
              Printf.printf
                "%-40s %10.0f %10s %8s  FAIL (missing from fresh smp rows)\n"
                name b.mevents "-" "-"
            end
          | Some f ->
            let ratio = f.mevents /. b.mevents in
            let verdict =
              if ratio < tolerance_lo || ratio > tolerance_hi then begin
                incr failed;
                "FAIL (deterministic event count drifted > 25% — \
                 behavioural change; refresh the baseline if intended)"
              end
              else "ok"
            in
            Printf.printf "%-40s %10.0f %10.0f %8.2f  %s\n" name b.mevents
              f.mevents ratio verdict;
            let mig_ratio =
              if b.mmig = 0. then if f.mmig = 0. then 1. else infinity
              else f.mmig /. b.mmig
            in
            if mig_ratio < tolerance_lo || mig_ratio > tolerance_hi then begin
              incr failed;
              Printf.printf
                "%-40s %10.0f %10.0f %8.2f  FAIL (migration count drifted > \
                 25%% — the balancing policy changed; refresh the baseline \
                 if intended)\n"
                "" b.mmig f.mmig mig_ratio
            end))
      names;
    Hashtbl.iter
      (fun name _ ->
        if not (Hashtbl.mem baseline_smp name) then
          Printf.printf "%-40s %10s %10s %8s  new (not in baseline)\n" name
            "-" "-" "-")
      fresh_smp;
    smp_structural "baseline" baseline_smp;
    smp_structural "fresh" fresh_smp
  end;
  if !drifted > 0 then
    Printf.printf
      "\n%d micro/sim-speed timing row(s) outside the [%.2f, %.2f] tolerance band — advisory only.\n"
      !drifted tolerance_lo tolerance_hi
  else Printf.printf "\nall micro/sim-speed rows within tolerance.\n";
  if !failed > 0 then begin
    Printf.printf "%d sim-speed/sweep/scale/smp check(s) FAILED the hard gates.\n" !failed;
    exit 1
  end
