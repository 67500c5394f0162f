open Hsfq_engine
open Hsfq_kernel
open Hsfq_workload
open Hsfq_analysis
open Common
module Hierarchy = Hsfq_core.Hierarchy
module Sched = Hsfq_sched

type row = {
  algorithm : string;
  max_lag_ms : float;
  bound_ms : float;
  within_bound : bool;
}

type result = { rows : row list; audits : check list }

type leaf_maker = {
  lname : string;
  mk :
    ?audit:Hsfq_check.Invariant.sink ->
    unit ->
    Leaf_sched.t * (tid:int -> weight:float -> unit);
}

module Wfq_leaf = Leaf_sched.Fair_leaf (Sched.Wfq)
module Scfq_leaf = Leaf_sched.Fair_leaf (Sched.Scfq)
module Fqs_leaf = Leaf_sched.Fair_leaf (Sched.Fqs)
module Stride_leaf = Leaf_sched.Fair_leaf (Sched.Stride)
module Lottery_leaf = Leaf_sched.Fair_leaf (Sched.Lottery)
module Eevdf_leaf = Leaf_sched.Fair_leaf (Sched.Eevdf)
module Rr_leaf = Leaf_sched.Fair_leaf (Sched.Round_robin)

let quantum = Time.milliseconds 20
let quantum_hint = quantum

module type FAIR_LEAF_MAKER = sig
  type handle

  val make :
    ?rng:Prng.t -> ?quantum_hint:Time.span -> ?quantum:Time.span ->
    ?audit:Hsfq_check.Invariant.sink -> ?audit_label:string -> unit ->
    Leaf_sched.t * handle

  val add : handle -> tid:int -> weight:float -> unit
end

let fair_maker name (module M : FAIR_LEAF_MAKER) =
  {
    lname = name;
    mk =
      (fun ?audit () ->
        let lf, h =
          M.make ~rng:(Prng.create 17) ~quantum_hint ~quantum ?audit ()
        in
        (lf, fun ~tid ~weight -> M.add h ~tid ~weight));
  }

let makers =
  [
    {
      lname = "sfq";
      mk =
        (fun ?audit () ->
          let lf, h = Leaf_sched.Sfq_leaf.make ~quantum ?audit () in
          (lf, fun ~tid ~weight -> Leaf_sched.Sfq_leaf.add h ~tid ~weight));
    };
    fair_maker "fqs" (module Fqs_leaf);
    fair_maker "stride" (module Stride_leaf);
    fair_maker "eevdf" (module Eevdf_leaf);
    fair_maker "wfq" (module Wfq_leaf);
    fair_maker "scfq" (module Scfq_leaf);
    fair_maker "lottery" (module Lottery_leaf);
    fair_maker "round-robin" (module Rr_leaf);
    (* The textbook real-time GPS clock variants (eq. 12): virtual time
       races ahead when the leaf's available bandwidth drops, degrading
       the allocation toward round-robin. They take no audit — the Gps_vt
       interface is time-indexed, outside the FAIR audit decorator. *)
    {
      lname = "wfq-rt";
      mk =
        (fun ?audit:_ () ->
          let lf, h =
            Leaf_sched.Gps_leaf.make ~order:Sched.Gps_vt.Finish_tags
              ~quantum_hint ~quantum ()
          in
          (lf, fun ~tid ~weight -> Leaf_sched.Gps_leaf.add h ~tid ~weight));
    };
    {
      lname = "fqs-rt";
      mk =
        (fun ?audit:_ () ->
          let lf, h =
            Leaf_sched.Gps_leaf.make ~order:Sched.Gps_vt.Start_tags
              ~quantum_hint ~quantum ()
          in
          (lf, fun ~tid ~weight -> Leaf_sched.Gps_leaf.add h ~tid ~weight));
    };
  ]

let run_one maker ~seconds =
  let sys = make_sys () in
  let test_leaf =
    match
      Hierarchy.mknod sys.hier ~name:"test" ~parent:Hierarchy.root ~weight:1.
        Hierarchy.Leaf
    with
    | Ok id -> id
    | Error e -> invalid_arg e
  in
  let lf, add = maker.mk ?audit:sys.audit () in
  Kernel.install_leaf sys.k test_leaf lf;
  let hog_leaf, hog_sfq =
    sfq_leaf sys ~parent:Hierarchy.root ~name:"hog" ~weight:1. ()
  in
  let hog_wl, _ =
    Onoff.make ~on:(Time.milliseconds 500) ~off:(Time.milliseconds 500) ()
  in
  let hog = Kernel.spawn sys.k ~name:"hog" ~leaf:hog_leaf hog_wl in
  Leaf_sched.Sfq_leaf.add hog_sfq ~tid:hog ~weight:1.;
  Kernel.start sys.k hog;
  (* three steady clients, weights 1/2/4 *)
  let weights = [| 1.; 2.; 4. |] in
  let tids =
    Array.mapi
      (fun i w ->
        let wl, _ = Dhrystone.make ~loop_cost:(Time.microseconds 500) () in
        let tid = Kernel.spawn sys.k ~name:(Printf.sprintf "c%d" i) ~leaf:test_leaf wl in
        add ~tid ~weight:w;
        Kernel.start sys.k tid;
        tid)
      weights
  in
  Kernel.run_until sys.k (Time.seconds seconds);
  let clients =
    Array.mapi (fun i tid -> (Kernel.cpu_series sys.k tid, weights.(i))) tids
  in
  let lag = Fairness.max_pairwise_lag clients ~until:(Time.seconds seconds) in
  (* The loosest pair bound (weights 1 and 2) applies to the maximum. *)
  let bound =
    Fairness.sfq_bound ~lmax_a:(float_of_int quantum) ~wa:1.
      ~lmax_b:(float_of_int quantum) ~wb:2.
  in
  ( {
      algorithm = maker.lname;
      max_lag_ms = lag /. 1e6;
      bound_ms = bound /. 1e6;
      within_bound = lag <= bound *. 1.001;
    },
    audit_check sys )

let run ?(seconds = 30) () =
  let rows, audits =
    List.split (List.map (fun m -> run_one m ~seconds) makers)
  in
  { rows; audits = [ merge_audits "invariant audit" audits ] }

let find r name = List.find (fun row -> String.equal row.algorithm name) r.rows

let checks r =
  let sfq = find r "sfq" in
  let lottery = find r "lottery" in
  let rr = find r "round-robin" in
  [
    check "SFQ lag within the analytical bound (eq. 3)" sfq.within_bound
      "lag %.2f ms <= bound %.2f ms" sfq.max_lag_ms sfq.bound_ms;
    check "lottery lag much larger than SFQ's (randomized fairness)"
      (lottery.max_lag_ms > 3. *. sfq.max_lag_ms)
      "lottery %.2f ms vs sfq %.2f ms" lottery.max_lag_ms sfq.max_lag_ms;
    check "round-robin ignores weights entirely"
      (rr.max_lag_ms > 10. *. sfq.max_lag_ms)
      "rr %.2f ms vs sfq %.2f ms" rr.max_lag_ms sfq.max_lag_ms;
    check "deterministic virtual-time algorithms stay near the bound"
      (List.for_all
         (fun n -> (find r n).max_lag_ms <= 3. *. sfq.bound_ms)
         [ "fqs"; "stride"; "eevdf" ])
      "fqs %.2f, stride %.2f, eevdf %.2f ms" (find r "fqs").max_lag_ms
      (find r "stride").max_lag_ms (find r "eevdf").max_lag_ms;
    check "real-time-clock WFQ degrades under fluctuating bandwidth (6)"
      ((find r "wfq-rt").max_lag_ms > 3. *. sfq.max_lag_ms)
      "wfq-rt %.2f ms vs sfq %.2f ms" (find r "wfq-rt").max_lag_ms
      sfq.max_lag_ms;
    check "real-time-clock FQS degrades likewise"
      ((find r "fqs-rt").max_lag_ms > 3. *. sfq.max_lag_ms)
      "fqs-rt %.2f ms vs sfq %.2f ms" (find r "fqs-rt").max_lag_ms
      sfq.max_lag_ms;
  ]
  @ r.audits

let print r =
  print_endline
    "X-fair | worst pairwise normalized lag under fluctuating bandwidth (30 s, weights 1:2:4)";
  let t = Table.create [ "algorithm"; "max lag (ms)"; "SFQ bound (ms)"; "within" ] in
  List.iter
    (fun row ->
      Table.row t
        [
          row.algorithm;
          Printf.sprintf "%.3f" row.max_lag_ms;
          Printf.sprintf "%.3f" row.bound_ms;
          (if row.within_bound then "yes" else "no");
        ])
    r.rows;
  Table.print t
