(* hsfq_sim — command-line driver for the OSDI '96 reproduction.

   `hsfq_sim list` enumerates the experiments, `hsfq_sim run fig5 xfair`
   regenerates specific figures, `hsfq_sim run --all` does everything and
   exits non-zero if any shape check fails. *)

open Cmdliner
module E = Hsfq_experiments
module Par = Hsfq_par.Par

(* --minor-heap WORDS: resize the minor heap (nursery) for the run.
   With the dispatch path allocation-free, what's left on the nursery is
   workload and bookkeeping churn; this knob makes the nursery-size vs
   minor-GC-count tradeoff measurable from the CLI (see
   doc/PERFORMANCE.md, "GC discipline"). Stripped from argv ahead of
   cmdliner so it applies uniformly to every subcommand. The size is
   applied twice: to the calling domain here (covering serial runs), and
   inside every sweep worker at startup via Par.sweep's ?minor_heap — a
   fresh domain starts from the runtime default, not from this domain's
   setting, so the worker-side application is the one
   that matters for parallel runs. *)
let filtered_argv, cli_minor_heap =
  let argv = Sys.argv in
  let n = Array.length argv in
  let keep = ref [] in
  let minor = ref None in
  let set words =
    match int_of_string_opt words with
    | Some w when w > 0 ->
      minor := Some w;
      Gc.set { (Gc.get ()) with Gc.minor_heap_size = w }
    | _ ->
      prerr_endline "hsfq_sim: --minor-heap expects a positive size in words";
      exit 2
  in
  let i = ref 0 in
  while !i < n do
    let a = argv.(!i) in
    if a = "--minor-heap" then
      if !i + 1 < n then begin
        set argv.(!i + 1);
        i := !i + 2
      end
      else begin
        prerr_endline "hsfq_sim: --minor-heap expects a positive size in words";
        exit 2
      end
    else if String.length a > 13 && String.sub a 0 13 = "--minor-heap=" then begin
      set (String.sub a 13 (String.length a - 13));
      incr i
    end
    else begin
      keep := a :: !keep;
      incr i
    end
  done;
  (Array.of_list (List.rev !keep), !minor)

(* Numeric options: a value out of range is a usage error (exit 124)
   naming the option, not an uncaught exception from deep in the run. *)
let int_at_least lo what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected %s integer, got %S" what s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let positive_int = int_at_least 1 "a positive"
let non_negative_int = int_at_least 0 "a non-negative"

(* Shared --jobs flag: parallelism of the seed/experiment sweep.
   1 = serial (default), 0 = auto — Par.resolve_jobs, the one jobs
   policy, maps it to the available core count (which is 1, i.e. plain
   serial, on a single-core box). All output is rendered at the join
   point in task order, so results and bytes are identical whatever the
   value. *)
let jobs_arg =
  let doc =
    "Run the sweep on $(docv) workers (0 = one per core). Output and \
     verdicts are byte-identical for every value."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let list_cmd =
  let doc = "List the reproduction experiments." in
  let run () =
    let t = Hsfq_engine.Table.create [ "id"; "title"; "paper claim" ] in
    List.iter
      (fun (e : E.Registry.entry) ->
        Hsfq_engine.Table.row t [ e.id; e.title; e.paper_claim ])
      E.Registry.all;
    Hsfq_engine.Table.print t
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let run_experiments ids all quiet metrics jobs =
  let entries =
    if all then E.Registry.all
    else
      List.map
        (fun id ->
          match E.Registry.find id with
          | Some e -> e
          | None ->
            Printf.eprintf "unknown experiment %S; try `hsfq_sim list`\n" id;
            exit 2)
        ids
  in
  if entries = [] then begin
    Printf.eprintf "nothing to run; give experiment ids or --all\n";
    exit 2
  end;
  (* Simulate on the sweep (workers print nothing), render at the join
     in entry order: the bytes match the serial run exactly.  With
     --metrics each worker runs its entry under a private tracer
     (Domain.DLS keeps them independent) and ships back the rendered
     per-node table. *)
  let computed =
    Par.sweep ?minor_heap:cli_minor_heap ~jobs
      ~tasks:(Array.of_list entries)
      (fun (e : E.Registry.entry) ->
        if metrics then begin
          let c, tr = E.Obs_run.capture (fun () -> e.compute ()) in
          (c, Some (Hsfq_obs.Text_dump.metrics_report tr))
        end
        else (e.compute (), None))
  in
  let failures = ref 0 in
  List.iteri
    (fun i (e : E.Registry.entry) ->
      let c, report = computed.(i) in
      let c : E.Registry.computed = c in
      Printf.printf "=== %s: %s ===\n" e.id e.title;
      if not quiet then c.render ();
      E.Common.print_checks c.checks;
      (match report with None -> () | Some r -> print_string r);
      if not (E.Common.all_ok c.checks) then incr failures;
      print_newline ())
    entries;
  if !failures > 0 then begin
    Printf.printf "%d experiment(s) had failing checks\n" !failures;
    exit 1
  end

let run_cmd =
  let doc = "Run reproduction experiments and verify their shape checks." in
  let ids = Arg.(value & pos_all string [] & info [] ~docv:"ID") in
  let all = Arg.(value & flag & info [ "all"; "a" ] ~doc:"Run every experiment.") in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Print only the checks.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics"; "m" ]
          ~doc:
            "Run each experiment under the tracepoint system and print its \
             per-node scheduler metrics (service, quanta, preemptions, \
             virtual-time lag, dispatch waits) after the checks.")
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run_experiments $ ids $ all $ quiet $ metrics $ jobs_arg)

(* A small live demo: the Figure 2 classes with a handful of threads,
   rendered as an ASCII Gantt chart. *)
let trace_demo ms_total cell_ms =
  let open Hsfq_engine in
  let open Hsfq_core in
  let open Hsfq_kernel in
  let open Hsfq_workload in
  let sim = Sim.create () in
  let hier = Hierarchy.create () in
  let k = Kernel.create sim hier in
  let tr = Tracelog.create () in
  Kernel.set_trace k (Some tr);
  let must = function Ok v -> v | Error e -> failwith e in
  let rt = must (Hierarchy.mknod hier ~name:"hard-rt" ~parent:Hierarchy.root ~weight:1. Hierarchy.Leaf) in
  let soft = must (Hierarchy.mknod hier ~name:"soft-rt" ~parent:Hierarchy.root ~weight:3. Hierarchy.Leaf) in
  let best = must (Hierarchy.mknod hier ~name:"best-effort" ~parent:Hierarchy.root ~weight:6. Hierarchy.Leaf) in
  let rt_sched, rm = Leaf_sched.Rm_leaf.make ~quantum:(Time.milliseconds 5) () in
  let soft_sched, soft_sfq = Leaf_sched.Sfq_leaf.make () in
  let best_sched, best_sfq = Leaf_sched.Sfq_leaf.make () in
  Kernel.install_leaf k rt rt_sched;
  Kernel.install_leaf k soft soft_sched;
  Kernel.install_leaf k best best_sched;
  let ctl_wl, _ = Periodic.make ~period:(Time.milliseconds 40) ~cost:(Time.milliseconds 4) () in
  let ctl = Kernel.spawn k ~name:"Ctl" ~leaf:rt ctl_wl in
  Leaf_sched.Rm_leaf.add rm ~tid:ctl ~period:(Time.milliseconds 40);
  Kernel.start k ctl;
  let dec_wl, _ = Mpeg.decoder Mpeg.default_params ~paced:true () in
  let dec = Kernel.spawn k ~name:"Vid" ~leaf:soft dec_wl in
  Leaf_sched.Sfq_leaf.add soft_sfq ~tid:dec ~weight:1.;
  Kernel.start k dec;
  let hog_wl, _ = Dhrystone.make ~loop_cost:(Time.milliseconds 1) () in
  let hog = Kernel.spawn k ~name:"Batch" ~leaf:best hog_wl in
  Leaf_sched.Sfq_leaf.add best_sfq ~tid:hog ~weight:1.;
  Kernel.start k hog;
  Kernel.run_until k (Time.milliseconds ms_total);
  Printf.printf
    "Gantt over %d ms (1 cell = %d ms): Ctl = RM hard-rt (w1), Vid = paced MPEG soft-rt (w3), Batch = best-effort (w6)\n"
    ms_total cell_ms;
  print_string
    (Hsfq_engine.Tracelog.render_gantt tr ~cell:(Time.milliseconds cell_ms)
       ~until:(Time.milliseconds ms_total))

(* Structured tracing: run one experiment under the tracepoint system
   and export the recorded events.  The same Obs_run path backs the
   golden-trace tests, so CLI output and goldens agree byte-for-byte. *)
let trace_run experiment out text metrics capacity duration cell =
  match experiment with
  | None -> trace_demo duration cell
  | Some id ->
    (match E.Obs_run.traced_compute ~capacity id with
    | None ->
      Printf.eprintf "unknown experiment %S; try `hsfq_sim list`\n" id;
      exit 2
    | Some (_, tr) ->
      let payload =
        if text then Hsfq_obs.Text_dump.dump tr
        else Hsfq_obs.Chrome_trace.export tr
      in
      (match out with
      | None -> print_string payload
      | Some path ->
        (try
           let oc = open_out path in
           output_string oc payload;
           close_out oc
         with Sys_error e ->
           prerr_endline ("hsfq_sim: " ^ e);
           exit 2);
        Printf.eprintf "wrote %s (%d events recorded, %d total)\n" path
          (Hsfq_obs.Ring.length (Hsfq_obs.Trace.ring tr))
          (Hsfq_obs.Ring.total (Hsfq_obs.Trace.ring tr)));
      if metrics then print_string (Hsfq_obs.Text_dump.metrics_report tr))

let trace_cmd =
  let doc =
    "Trace an experiment through the ring-buffer tracepoint system and \
     export Chrome trace_event JSON (open in Perfetto or chrome://tracing); \
     with no experiment, print the legacy Figure-2 Gantt demo."
  in
  let experiment =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"EXPERIMENT"
          ~doc:"Experiment id to trace (see `hsfq_sim list`).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write the export to $(docv) instead of stdout.")
  in
  let text =
    Arg.(
      value & flag
      & info [ "text" ]
          ~doc:"Export the canonical text dump (the golden-trace format) instead of Chrome JSON.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics"; "m" ] ~doc:"Also print the per-node metrics table to stdout.")
  in
  let capacity =
    Arg.(
      value
      & opt positive_int E.Obs_run.default_capacity
      & info [ "capacity" ] ~docv:"N"
          ~doc:
            "Ring-buffer capacity in events (rounded up to a power of two); \
             when the run emits more, only the last $(docv) are kept.")
  in
  let duration =
    Arg.(value & opt positive_int 400 & info [ "duration"; "d" ] ~docv:"MS" ~doc:"(demo) Milliseconds to simulate.")
  in
  let cell =
    Arg.(value & opt positive_int 4 & info [ "cell"; "c" ] ~docv:"MS" ~doc:"(demo) Milliseconds per Gantt cell.")
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const trace_run $ experiment $ out $ text $ metrics $ capacity $ duration
      $ cell)

(* Build the paper's Figure 2 structure via the QoS manager and print it
   with guaranteed shares. *)
let tree_demo () =
  let hier = Hsfq_core.Hierarchy.create () in
  let m = Hsfq_qos.Manager.create hier in
  ignore (Hsfq_qos.Manager.request_best_effort m ~user:"user1");
  ignore (Hsfq_qos.Manager.request_best_effort m ~user:"user2");
  print_endline "Figure 2 scheduling structure (weights 1:3:6, two best-effort users):";
  print_string (Hsfq_core.Hierarchy.render_tree hier);
  print_endline "guaranteed full-contention shares:";
  List.iter
    (fun name ->
      match Hsfq_core.Hierarchy.parse hier name with
      | Ok id ->
        Printf.printf "  %-22s %.1f%%\n" name (100. *. Hsfq_qos.Manager.share_of m id)
      | Error e -> Printf.printf "  %-22s error: %s\n" name e)
    [ "/hard-rt"; "/soft-rt"; "/best-effort"; "/best-effort/user1"; "/best-effort/user2" ]

let tree_cmd =
  let doc = "Print the paper's Figure 2 scheduling structure and its shares." in
  Cmd.v (Cmd.info "tree" ~doc) Term.(const tree_demo $ const ())

let csv_export ids all dir jobs =
  let ids = if all then E.Csv_export.exportable () else ids in
  if ids = [] then begin
    Printf.eprintf "nothing to export; give figure ids or --all\n";
    exit 2
  end;
  let fail fmt =
    Printf.ksprintf (fun msg -> prerr_endline ("hsfq_sim: " ^ msg); exit 2) fmt
  in
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  (try mkdir_p dir with Unix.Unix_error (e, _, _) ->
     fail "cannot create %s: %s" dir (Unix.error_message e));
  if not (Sys.is_directory dir) then fail "%s is not a directory" dir;
  (* Simulations run on the sweep; all file writes happen at the join,
     in figure order, so the CSV bytes on disk match a serial export. *)
  let exported =
    Par.sweep ?minor_heap:cli_minor_heap ~jobs
      ~tasks:(Array.of_list ids) E.Csv_export.export
  in
  Array.iter
    (fun result ->
      match result with
      | Error e ->
        Printf.eprintf "%s\n" e;
        exit 2
      | Ok files ->
        List.iter
          (fun (name, contents) ->
            let path = Filename.concat dir name in
            (try
               let oc = open_out path in
               output_string oc contents;
               close_out oc
             with Sys_error e -> fail "%s" e);
            Printf.printf "wrote %s\n" path)
          files)
    exported

let csv_cmd =
  let doc = "Export figure data as CSV files for plotting." in
  let ids = Arg.(value & pos_all string [] & info [] ~docv:"ID") in
  let all = Arg.(value & flag & info [ "all"; "a" ] ~doc:"Export every figure.") in
  let dir =
    Arg.(value & opt string "figures" & info [ "dir"; "d" ] ~docv:"DIR" ~doc:"Output directory (created, parents included, if missing).")
  in
  Cmd.v (Cmd.info "csv" ~doc)
    Term.(const csv_export $ ids $ all $ dir $ jobs_arg)

(* Lifecycle torture: run the seeded stress driver, report, and shrink
   failing traces to a minimal reproducer. *)
let torture_run seed seeds ops audit_period max_leaves max_spawns prepopulate
    cpus do_shrink quiet jobs =
  let module T = Hsfq_torture.Torture in
  let failures = ref 0 in
  if prepopulate > max_leaves then begin
    prerr_endline "hsfq_sim: --prepopulate must not exceed --max-leaves";
    exit Cmd.Exit.cli_error
  end;
  (* Seeds run [seed, seed + seeds - 1]; the last one must not wrap. *)
  if seed > max_int - (seeds - 1) then begin
    Printf.eprintf "hsfq_sim: --seeds %d from --seed %d runs past the largest seed %d\n"
      seeds seed max_int;
    exit Cmd.Exit.cli_error
  end;
  let seed_array = Array.init seeds (fun i -> seed + i) in
  let cfg =
    T.config ~ops ~audit_period ~max_leaves ~max_spawns ~prepopulate ~cpus seed
  in
  (* The seeds run on the sweep; reporting (and any shrinking, which is
     itself seed-deterministic) happens at the join in seed order, so
     the transcript is byte-identical for every --jobs value. *)
  let outcomes =
    T.sweep ~jobs ?minor_heap:cli_minor_heap cfg ~seeds:seed_array
  in
  Array.iteri
    (fun i (o : T.outcome) ->
      let s = seed_array.(i) in
      if T.failed o then begin
        incr failures;
        Printf.printf "seed %d: FAIL — %s\n" s (T.outcome_summary o);
        if do_shrink then begin
          let cfg =
            T.config ~ops ~audit_period ~max_leaves ~max_spawns ~prepopulate
              ~cpus s
          in
          let small = T.shrink cfg o.trace in
          Printf.printf "shrunk to %d op(s) (from %d):\n%s\n"
            (List.length small) (List.length o.trace)
            (T.trace_to_string small);
          let r = T.replay cfg small in
          Printf.printf "replay of shrunk trace: %s\n" (T.outcome_summary r)
        end
        else Printf.printf "(re-run with --shrink for a minimal trace)\n"
      end
      else if not quiet then
        Printf.printf "seed %d: ok (%s)\n" s (T.outcome_summary o))
    outcomes;
  if !failures > 0 then begin
    Printf.printf "%d/%d seed(s) failed\n" !failures seeds;
    exit 1
  end

let torture_cmd =
  let doc =
    "Stress the kernel's thread lifecycle with random operations, auditing \
     the donation/runnability/virtual-time invariants after every step."
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed"; "s" ] ~docv:"N" ~doc:"First PRNG seed.")
  in
  let seeds =
    Arg.(value & opt positive_int 1 & info [ "seeds" ] ~docv:"K" ~doc:"Number of consecutive seeds to run.")
  in
  let ops =
    Arg.(value & opt non_negative_int 10_000 & info [ "ops"; "n" ] ~docv:"OPS" ~doc:"Operations per seed.")
  in
  let audit_period =
    Arg.(value & opt positive_int 1 & info [ "audit-period" ] ~docv:"P" ~doc:"Audit every P ops (1 = every op).")
  in
  let max_leaves =
    Arg.(value & opt positive_int 16 & info [ "max-leaves" ] ~docv:"N" ~doc:"Cap on live leaves (rmnod frees budget for later mknod).")
  in
  let max_spawns =
    Arg.(value & opt non_negative_int 192 & info [ "max-spawns" ] ~docv:"N" ~doc:"Cap on threads ever spawned.")
  in
  let prepopulate =
    Arg.(value & opt non_negative_int 0 & info [ "prepopulate" ] ~docv:"N" ~doc:"Build N leaves at init before the op stream runs; large values (100000+) exercise giant hierarchies under churn. Must be <= --max-leaves.")
  in
  let cpus =
    Arg.(value & opt positive_int 1 & info [ "cpus" ] ~docv:"P" ~doc:"Simulated CPUs. P=1 (default) reproduces the historical single-CPU driver byte-for-byte; P>1 adds per-CPU interrupt storms and randomized cross-CPU interrupt targeting, racing thread migrations against the per-CPU audits.")
  in
  let do_shrink =
    Arg.(value & flag & info [ "shrink" ] ~doc:"Delta-debug failing traces to a minimal reproducer.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Print only failures.")
  in
  Cmd.v (Cmd.info "torture" ~doc)
    Term.(
      const torture_run $ seed $ seeds $ ops $ audit_period $ max_leaves
      $ max_spawns $ prepopulate $ cpus $ do_shrink $ quiet $ jobs_arg)

let main =
  let doc =
    "Reproduction of 'A Hierarchical CPU Scheduler for Multimedia Operating \
     Systems' (OSDI '96)"
  in
  Cmd.group (Cmd.info "hsfq_sim" ~version:"1.0.0" ~doc)
    [ list_cmd; run_cmd; trace_cmd; tree_cmd; csv_cmd; torture_cmd ]

let () = exit (Cmd.eval ~argv:filtered_argv main)
