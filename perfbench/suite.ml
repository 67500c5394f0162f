(* The paper-suite workload: every registry experiment, once per rep,
   serially, with its invariant audits and shape checks on — what a user
   runs to reproduce the paper.  The experiments build their own
   systems, so the work unit here is one experiment, not one simulated
   event. *)

module E = Hsfq_experiments
module R = E.Registry

module M = Measure

let now_ns = M.now_ns
let secs = M.secs

type rep = {
  times : (string * int) list;  (** per-experiment host ns *)
  wall_ns : int;
  setup_ns : int;
  nominal : (string * float) list;
      (** per-experiment time in nominal seconds (see [Reference]); empty
          when the rep runs no reference passes *)
  setup_nominal : float;
  checks : (string * E.Common.check) list;
  minor_words : float;
  minor_gcs : int;
  major_gcs : int;
  promoted : float;
  ring_total : int;
}

(* Set-up: a warm-up pass over the cheapest entries, which the suite
   then runs again. *)
let warm_up () =
  List.iter
    (fun id ->
      match R.find id with
      | Some e -> ignore (e.execute ~quiet:true)
      | None -> ())
    [ "fig1"; "fig3"; "fig9"; "fig10"; "fig11" ]

(* With [~ref_steps], a reference pass of that many steps runs before
   the warm-up, after it, and after every experiment, and each timed span
   is also taken in nominal seconds against the mean of the two passes
   around it.  The passes fall outside the timed spans, but the GC counts
   include them, so only [minor_words], summed over the experiments
   alone, is meant to be read from such a rep. *)
let run_rep ?obs ?ref_steps () =
  Gc.full_major ();
  let reference () =
    match ref_steps with
    | None -> Float.nan
    | Some steps -> Reference.scaled_ns ~steps
  in
  let prev = ref Float.nan in
  (* [ns] in nominal seconds against the pass before it and one run now. *)
  let against_passes ns =
    let next = reference () in
    let r = Reference.nominal_secs (secs ns) ((!prev +. next) /. 2.) in
    prev := next;
    r
  in
  let go () =
    prev := reference ();
    let t0 = now_ns () in
    warm_up ();
    let t1 = now_ns () in
    let setup_nominal = against_passes (t1 - t0) in
    let g0 = Gc.quick_stat () in
    let per =
      List.map
        (fun (e : R.entry) ->
          let w = Gc.minor_words () in
          let s = now_ns () in
          let cs = e.execute ~quiet:true in
          let ns = now_ns () - s in
          let w = Gc.minor_words () -. w in
          (e.id, ns, against_passes ns, w, cs))
        R.all
    in
    let t2 = now_ns () in
    let g1 = Gc.quick_stat () in
    (t1 - t0, setup_nominal, t2 - t1, per, g0, g1)
  in
  let ring () =
    match obs with
    | None -> 0
    | Some tr -> Hsfq_obs.Ring.total (Hsfq_obs.Trace.ring tr)
  in
  let r0 = ring () in
  let setup_ns, setup_nominal, wall_ns, per, g0, g1 =
    match obs with None -> go () | Some tr -> E.Common.with_obs tr go
  in
  {
    times = List.map (fun (id, ns, _, _, _) -> (id, ns)) per;
    nominal =
      (if ref_steps = None then [] else List.map (fun (id, _, r, _, _) -> (id, r)) per);
    wall_ns;
    setup_ns;
    setup_nominal;
    checks = List.concat_map (fun (id, _, _, _, cs) -> List.map (fun c -> (id, c)) cs) per;
    minor_words = List.fold_left (fun a (_, _, _, w, _) -> a +. w) 0. per;
    minor_gcs = g1.minor_collections - g0.minor_collections;
    major_gcs = g1.major_collections - g0.major_collections;
    promoted = g1.promoted_words -. g0.promoted_words;
    ring_total = ring () - r0;
  }

let verdict_hash r =
  List.fold_left
    (fun h (id, (c : E.Common.check)) ->
      Hashtbl.hash (h, id, c.label, c.ok, c.detail))
    0 r.checks

(* xlatency's SFQ case alone, built from the public parts: one SFQ leaf
   (20 ms quantum) shared by four Dhrystone hogs of weight 1 and an
   editor of weight 0.05 (5 ms bursts after exponential think times of
   mean 1 s).  [Xlatency.run] simulates three other schedulers besides;
   this gives the same SFQ p99 per seed at a quarter of the cost.
   Returns the editor's p99 response time in ms. *)
let xlatency_sfq_p99 ~seconds ~seed =
  let module K = Hsfq_kernel.Kernel in
  let module LS = Hsfq_kernel.Leaf_sched in
  let module H = Hsfq_core.Hierarchy in
  let module T = Hsfq_engine.Time in
  let module W = Hsfq_workload in
  let sys = E.Common.make_sys ~audit:false () in
  let leaf =
    match H.mknod sys.hier ~name:"mix" ~parent:H.root ~weight:1. H.Leaf with
    | Ok id -> id
    | Error e -> invalid_arg ("perfbench: mknod mix: " ^ e)
  in
  let lf, sfq = LS.Sfq_leaf.make ~quantum:(T.milliseconds 20) () in
  K.install_leaf sys.k leaf lf;
  let add ~name ~weight wl =
    let tid = K.spawn sys.k ~name ~leaf wl in
    LS.Sfq_leaf.add sfq ~tid ~weight;
    K.start sys.k tid
  in
  for i = 0 to 3 do
    add ~name:(Printf.sprintf "hog%d" i) ~weight:1.
      (fst (W.Dhrystone.make ~loop_cost:(T.microseconds 500) ()))
  done;
  let wl, counter =
    W.Interactive.make ~mean_think:(T.seconds 1) ~burst:(T.milliseconds 5) ~seed ()
  in
  add ~name:"editor" ~weight:0.05 wl;
  K.run_until sys.k (T.seconds seconds);
  let values = Hsfq_engine.Series.values (W.Interactive.response_series counter) in
  if Array.length values = 0 then Float.nan
  else Hsfq_engine.Stats.percentile values 99. /. 1e6

(* Scheduling-quality numbers for the suite.  The registry runs every
   experiment at its fixed seed, so these come from seeded reruns of
   the two experiments that take a seed:
   - latency: SFQ's p99 response time for the low-weight interactive
     client of xlatency, median over eight sub-seeds of 480 s each;
   - share: fig8's mean per-second |SFQ-2 : SFQ-1 / 3 - 1|. *)
let quality ~seed =
  let p99s =
    List.init 8 (fun k -> xlatency_sfq_p99 ~seconds:480 ~seed:(Scenario.sub seed k))
  in
  let f = E.Fig8.run ~seed:(Scenario.sub seed 9) () in
  let errs = Array.map (fun x -> Float.abs ((x /. 3.) -. 1.)) f.ratio_per_sec in
  (p99s, 100. *. Hsfq_engine.Stats.mean_of errs)

let gate ~check reps =
  let first = List.hd reps in
  List.iter
    (fun r ->
      List.iter
        (fun (id, (c : E.Common.check)) ->
          check (Printf.sprintf "%s: %s (%s)" id c.label c.detail) c.ok)
        r.checks;
      check "suite rep reproduces the first rep's verdicts"
        (verdict_hash r = verdict_hash first))
    reps

let print_digest ~seed r =
  Printf.printf "digest workload=paper-suite seed=%d experiments=%d checks=%d passed=%d verdicts=%08x\n"
    seed (List.length r.times) (List.length r.checks)
    (List.length (List.filter (fun (_, (c : E.Common.check)) -> c.ok) r.checks))
    (verdict_hash r)

let n_experiments = float_of_int (List.length R.all)

(* The experiments timed one by one as suite.<id>_s: the registry as
   this benchmark was defined.  An experiment added later still counts
   in wall_s; one removed reads 0. *)
let timed_ids =
  [ "fig1"; "fig3"; "fig5"; "fig7"; "fig8"; "fig9"; "fig10"; "fig11"; "xfair";
    "xdelay"; "xlatency"; "xoverload"; "xinversion"; "xebf"; "xreserve";
    "xnet"; "xqos"; "xpreempt"; "xprotect"; "xsmp" ]

(* Each experiment's best host time across the run's reps (see
   [Measure.best]): the traced run's suite.<id>_s. *)
let best_times reps =
  List.map
    (fun (e : R.entry) ->
      (e.id, M.best (List.map (fun r -> secs (List.assoc e.id r.times)) reps)))
    R.all

(* Reference passes between the suite's experiments: short, so they add
   about a quarter to a rep. *)
let ref_steps = 50_000

(* End-to-end host timings are in nominal seconds (see [Reference]).  A
   run holds only 5-7 suite reps, and the experiments last from a few ms
   to 0.6 s; so each experiment is timed against the passes around it,
   and [wall_s] sums each experiment's median over the reps.  (The
   simulated workloads, with some 50 reps of one length, use the best
   rep against the fastest pass instead.)  The peak heap is read after
   one untimed rep, before any reference pass. *)
let end_to_end ~check ~seed ~seconds =
  let first = run_rep () in
  let heap = M.peak_heap_mb () in
  let until = M.deadline ~seconds 0.75 in
  let reps = M.reps_until ~until ~min:3 ~max:100 (fun () -> run_rep ~ref_steps ()) in
  gate ~check (first :: reps);
  print_digest ~seed first;
  let p99s, share = quality ~seed in
  let wall =
    List.fold_left
      (fun a (e : R.entry) -> a +. M.median (List.map (fun r -> List.assoc e.id r.nominal) reps))
      0. R.all
  in
  [
    ("events_per_s", n_experiments /. wall);
    ("wall_s", wall);
    ("setup_s", M.median (List.map (fun r -> r.setup_nominal) reps));
    ( "minor_words_per_event",
      M.median (List.map (fun r -> r.minor_words /. n_experiments) reps) );
    ("peak_heap_mb", heap);
    ("sched_latency_p99_ms", M.median p99s);
    ("share_error_pct", share);
  ]

(* Detached and tracer-disabled suite reps alternate; overheads are
   per-pair ratios, then the median. *)
let per_layer ~check ~seed ~seconds =
  let until = M.deadline ~seconds 0.7 in
  let pairs =
    M.reps_until ~until ~min:2 ~max:50 (fun () ->
        let detached = run_rep () in
        let disabled = run_rep ~obs:(Hsfq_obs.Trace.create ~enabled:false ()) () in
        (detached, disabled))
  in
  let detached = List.map fst pairs and disabled = List.map snd pairs in
  let enabled = run_rep ~obs:(Hsfq_obs.Trace.create ~enabled:true ()) () in
  gate ~check ((enabled :: detached) @ disabled);
  print_digest ~seed (List.hd detached);
  let med f xs = M.median (List.map f xs) in
  let inside r = float_of_int (List.fold_left (fun a (_, ns) -> a + ns) 0 r.times) in
  List.map (fun (id, t) -> ("suite." ^ id ^ "_s", t)) (best_times detached)
  @ [
      ("suite.checks", float_of_int (List.length (List.hd detached).checks));
      ("gc.minor_collections", med (fun r -> float_of_int r.minor_gcs) detached);
      ("gc.major_collections", med (fun r -> float_of_int r.major_gcs) detached);
      ("gc.promoted_words_per_event", med (fun r -> r.promoted /. n_experiments) detached);
      ( "obs.disabled_overhead_pct",
        100. *. (med (fun (d, o) -> float_of_int o.wall_ns /. float_of_int d.wall_ns) pairs -. 1.) );
      ("obs.ring_events_per_event", float_of_int enabled.ring_total /. n_experiments);
      ("trace.overhead_pct", 100. *. (med (fun r -> float_of_int r.wall_ns /. inside r) detached -. 1.));
    ]

let run ~check ~seed ~seconds ~trace =
  if trace then per_layer ~check ~seed ~seconds
  else end_to_end ~check ~seed ~seconds
