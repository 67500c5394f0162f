(* Tests for lib/par: the domain pool and the deterministic-sweep
   contract — [Par.sweep ~jobs ~tasks f] must equal [Array.map f tasks]
   for every [jobs], including exception behaviour and a [jobs] beyond
   the runtime's domain limit — and the real fan-out surfaces built on
   it (torture seed sweeps, figure CSV export) must produce identical
   bytes whatever the parallelism. *)

module Par = Hsfq_par.Par
module T = Hsfq_torture.Torture
module E = Hsfq_experiments
module Prng = Hsfq_engine.Prng

let check_int = Alcotest.(check int)

(* ------------------------- sweep basics ----------------------------- *)

let test_sweep_matches_serial_map () =
  let tasks = Array.init 100 (fun i -> i) in
  let f x = (x * x) + 1 in
  let serial = Array.map f tasks in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d" jobs)
        serial
        (Par.sweep ~jobs ~tasks f))
    [ 1; 2; 3; 4; 8; 200 (* more jobs than tasks *) ]

let test_sweep_above_domain_limit () =
  (* More workers than the runtime will spawn domains for: the sweep
     must run on the domains it was granted, not fail. *)
  let tasks = Array.init 300 (fun i -> i) in
  let f x = (3 * x) + 1 in
  Alcotest.(check (array int))
    "jobs=300 over 300 tasks" (Array.map f tasks)
    (Par.sweep ~jobs:300 ~tasks f)

let test_sweep_empty_and_single () =
  Alcotest.(check (array int))
    "empty" [||]
    (Par.sweep ~jobs:4 ~tasks:[||] (fun x -> x));
  Alcotest.(check (array int))
    "single" [| 7 |]
    (Par.sweep ~jobs:4 ~tasks:[| 6 |] succ)

exception Boom of int

let test_sweep_reraises_lowest_failure () =
  (* Several tasks raise; the join must deterministically re-raise the
     one with the lowest task index, whatever the interleaving. *)
  for _attempt = 1 to 5 do
    match
      Par.sweep ~jobs:4
        ~tasks:(Array.init 64 (fun i -> i))
        (fun i -> if i mod 10 = 3 then raise (Boom i) else i)
    with
    | _ -> Alcotest.fail "expected Boom"
    | exception Boom i -> check_int "lowest failing index" 3 i
  done

let test_workers_observe_minor_heap () =
  (* --minor-heap must resize each worker's own nursery: a fresh domain
     starts from the runtime default, not from the caller's setting, so
     the resize has to happen worker-side. *)
  let want = 2_000_000 in
  let own = (Gc.get ()).Gc.minor_heap_size in
  let heaps =
    Par.sweep ~jobs:2 ~minor_heap:want
      ~tasks:(Array.init 8 (fun i -> i))
      (fun _ -> (Gc.get ()).Gc.minor_heap_size)
  in
  Array.iter
    (fun h ->
      Alcotest.(check bool)
        (Printf.sprintf "worker nursery >= %d" want)
        true (h >= want))
    heaps;
  check_int "caller nursery untouched" own (Gc.get ()).Gc.minor_heap_size

let test_resolve_jobs_policy () =
  (* The one jobs policy: explicit values pass through, <= 0 means one
     per available core, and the result is always >= 1 — even on a
     single-core box, where auto must resolve to the serial path rather
     than a guaranteed-loss jobs=2. *)
  check_int "explicit 5" 5 (Par.resolve_jobs 5);
  check_int "explicit 1" 1 (Par.resolve_jobs 1);
  check_int "auto = cores" (Par.available_cores ()) (Par.resolve_jobs 0);
  check_int "negative = auto" (Par.resolve_jobs 0) (Par.resolve_jobs (-7));
  check_int "default_jobs = auto" (Par.resolve_jobs 0) (Par.default_jobs ());
  Alcotest.(check bool) "auto >= 1" true (Par.resolve_jobs 0 >= 1)

let test_sweep_seeded_jobs_invariant () =
  (* Each task draws from its own Prng substream, so the drawn values
     must not depend on which domain ran the task. *)
  let tasks = Array.init 40 (fun i -> i) in
  let f ~rng i = (i, Prng.int rng 1_000_000, Prng.exponential rng ~mean:1.) in
  let run jobs = Par.sweep_seeded ~jobs ~rng:(Prng.create 9) ~tasks f
  in
  let serial = run 1 in
  Alcotest.(check (array (triple int int (float 0.))))
    "jobs 1 = jobs 4" serial (run 4);
  Alcotest.(check (array (triple int int (float 0.))))
    "jobs 1 = jobs 7" serial (run 7)

(* Per-task Invariant sinks: each task collects violations locally and
   returns them; the merged arrays must line up with task order, not
   completion order. *)
let test_per_task_sinks_merge_in_order () =
  let module I = Hsfq_check.Invariant in
  let run jobs =
    Par.sweep ~jobs
      ~tasks:(Array.init 16 (fun i -> i))
      (fun i ->
        let sink = I.create ~policy:I.Collect () in
        for k = 0 to i do
          I.report sink
            {
              invariant = "synthetic";
              event = Printf.sprintf "task %d step %d" i k;
              node = "/test";
              detail = "";
            }
        done;
        List.map I.violation_to_string (I.violations sink))
  in
  let serial = run 1 in
  Array.iteri
    (fun i vs -> check_int (Printf.sprintf "task %d count" i) (i + 1) (List.length vs))
    serial;
  Alcotest.(check (array (list string))) "jobs 1 = jobs 2" serial (run 2);
  Alcotest.(check (array (list string))) "jobs 1 = jobs 4" serial (run 4)

(* -------------------- real fan-out surfaces ------------------------- *)

(* A torture outcome rendered in full — executed trace, violation list,
   crash — so equality below means the whole verdict matched, not just
   the pass/fail bit. *)
let outcome_repr (o : T.outcome) =
  Printf.sprintf "%d ops | %s | viol:[%s] | crash:%s" o.ops_run
    (T.trace_to_string o.trace)
    (String.concat "; "
       (List.map Hsfq_check.Invariant.violation_to_string o.violations))
    (Option.value o.crash ~default:"-")

let test_torture_sweep_determinism () =
  let seeds = Array.init 6 (fun i -> 100 + i) in
  let cfg = T.config ~ops:1_500 ~audit_period:2 0 in
  let run jobs = Array.map outcome_repr (T.sweep ~jobs cfg ~seeds) in
  let serial = run 1 in
  Alcotest.(check (array string)) "jobs 1 = jobs 2" serial (run 2);
  Alcotest.(check (array string)) "jobs 1 = jobs 4" serial (run 4);
  Alcotest.(check (array string)) "jobs 1 = jobs 0 (auto)" serial (run 0)

let test_csv_sweep_determinism () =
  (* Byte equality of exported figure CSVs across parallelism. A subset
     keeps the suite quick; the full set runs in `hsfq_sim csv --all`. *)
  let ids =
    Array.of_list
      (List.filteri (fun i _ -> i < 5) (E.Csv_export.exportable ()))
  in
  let run jobs =
    Par.sweep ~jobs ~tasks:ids (fun id ->
        match E.Csv_export.export id with
        | Ok files ->
          String.concat "\x00"
            (List.concat_map (fun (name, contents) -> [ name; contents ]) files)
        | Error e -> "error: " ^ e)
  in
  let serial = run 1 in
  Alcotest.(check (array string)) "figure CSV bytes, jobs 1 = jobs 2" serial
    (run 2);
  Alcotest.(check (array string)) "figure CSV bytes, jobs 1 = jobs 4" serial
    (run 4)

let () =
  Alcotest.run "par"
    [
      ( "sweep",
        [
          Alcotest.test_case "resolve_jobs policy" `Quick
            test_resolve_jobs_policy;
          Alcotest.test_case "matches serial map" `Quick
            test_sweep_matches_serial_map;
          Alcotest.test_case "jobs above the domain limit" `Quick
            test_sweep_above_domain_limit;
          Alcotest.test_case "empty and single" `Quick
            test_sweep_empty_and_single;
          Alcotest.test_case "re-raises lowest failure" `Quick
            test_sweep_reraises_lowest_failure;
          Alcotest.test_case "workers observe --minor-heap" `Quick
            test_workers_observe_minor_heap;
          Alcotest.test_case "seeded substreams" `Quick
            test_sweep_seeded_jobs_invariant;
          Alcotest.test_case "sink merge order" `Quick
            test_per_task_sinks_merge_in_order;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "torture verdicts" `Quick
            test_torture_sweep_determinism;
          Alcotest.test_case "figure CSV bytes" `Quick
            test_csv_sweep_determinism;
        ] );
    ]
