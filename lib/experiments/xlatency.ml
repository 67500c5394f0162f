open Hsfq_engine
open Hsfq_kernel
open Hsfq_workload
open Common
module Hierarchy = Hsfq_core.Hierarchy
module Sched = Hsfq_sched

type row = { algorithm : string; mean_ms : float; p99_ms : float; responses : int }
type result = { rows : row list; burst_ms : float; audits : check list }

module Wfq_leaf = Leaf_sched.Fair_leaf (Sched.Wfq)
module Scfq_leaf = Leaf_sched.Fair_leaf (Sched.Scfq)
module Fqs_leaf = Leaf_sched.Fair_leaf (Sched.Fqs)

let quantum = Time.milliseconds 20
let burst = Time.milliseconds 5
let small_weight = 0.05

type maker = {
  lname : string;
  mk :
    ?audit:Hsfq_check.Invariant.sink ->
    unit ->
    Leaf_sched.t * (tid:int -> weight:float -> unit);
}

let makers =
  let fair name make add =
    {
      lname = name;
      mk =
        (fun ?audit () ->
          let lf, h = make ?audit () in
          (lf, add h));
    }
  in
  [
    {
      lname = "sfq";
      mk =
        (fun ?audit () ->
          let lf, h = Leaf_sched.Sfq_leaf.make ~quantum ?audit () in
          (lf, fun ~tid ~weight -> Leaf_sched.Sfq_leaf.add h ~tid ~weight));
    };
    fair "fqs"
      (fun ?audit () ->
        Fqs_leaf.make ~quantum_hint:quantum ~quantum ?audit ())
      (fun h ~tid ~weight -> Fqs_leaf.add h ~tid ~weight);
    fair "wfq"
      (fun ?audit () ->
        Wfq_leaf.make ~quantum_hint:quantum ~quantum ?audit ())
      (fun h ~tid ~weight -> Wfq_leaf.add h ~tid ~weight);
    fair "scfq"
      (fun ?audit () ->
        Scfq_leaf.make ~quantum_hint:quantum ~quantum ?audit ())
      (fun h ~tid ~weight -> Scfq_leaf.add h ~tid ~weight);
  ]

let run_one ?(seed = 23) m ~seconds =
  let sys = make_sys () in
  let leaf =
    match
      Hierarchy.mknod sys.hier ~name:"mix" ~parent:Hierarchy.root ~weight:1.
        Hierarchy.Leaf
    with
    | Ok id -> id
    | Error e -> invalid_arg e
  in
  let lf, add = m.mk ?audit:sys.audit () in
  Kernel.install_leaf sys.k leaf lf;
  for i = 0 to 3 do
    let wl, _ = Dhrystone.make ~loop_cost:(Time.microseconds 500) () in
    let tid = Kernel.spawn sys.k ~name:(Printf.sprintf "hog%d" i) ~leaf wl in
    add ~tid ~weight:1.;
    Kernel.start sys.k tid
  done;
  (* Think long enough that the client's demand (burst/think ~ 0.5%)
     stays below its weight share (0.05/4.05 ~ 1.2%): the comparison is
     about delay at a given rate, not about throttling an over-demanding
     client. *)
  let wl, counter =
    Interactive.make ~mean_think:(Time.seconds 1) ~burst ~seed ()
  in
  let tid = Kernel.spawn sys.k ~name:"editor" ~leaf wl in
  add ~tid ~weight:small_weight;
  Kernel.start sys.k tid;
  Kernel.run_until sys.k (Time.seconds seconds);
  let stats = Interactive.response_stats counter in
  let values = Series.values (Interactive.response_series counter) in
  ( {
      algorithm = m.lname;
      mean_ms = Stats.mean stats /. 1e6;
      p99_ms =
        (if Array.length values = 0 then nan else Stats.percentile values 99. /. 1e6);
      responses = Interactive.responses counter;
    },
    audit_check sys )

let run ?(seconds = 120) ?seed () =
  let rows, audits =
    List.split (List.map (fun m -> run_one ?seed m ~seconds) makers)
  in
  {
    rows;
    burst_ms = Time.to_milliseconds_float burst;
    audits = [ merge_audits "invariant audit" audits ];
  }

let find r name = List.find (fun row -> String.equal row.algorithm name) r.rows

let checks r =
  let sfq = find r "sfq" and wfq = find r "wfq" and scfq = find r "scfq" in
  let fqs = find r "fqs" in
  [
    (* Exponential think times occasionally cluster bursts, so a few
       responses pay down virtual-time debt; the mean stays within a few
       quanta. *)
    check "SFQ serves the low-weight client within a few quanta (mean)"
      (sfq.mean_ms < 6. *. Time.to_milliseconds_float quantum)
      "mean %.1f ms" sfq.mean_ms;
    check "WFQ delays the low-weight client >= 5x SFQ"
      (wfq.mean_ms > 5. *. sfq.mean_ms)
      "wfq %.1f ms vs sfq %.1f ms" wfq.mean_ms sfq.mean_ms;
    check "SCFQ also delays the low-weight client >= 5x SFQ"
      (scfq.mean_ms > 5. *. sfq.mean_ms)
      "scfq %.1f ms vs sfq %.1f ms" scfq.mean_ms sfq.mean_ms;
    check "FQS (start-tag order) behaves like SFQ here"
      (fqs.mean_ms < 3. *. sfq.mean_ms)
      "fqs %.1f ms vs sfq %.1f ms" fqs.mean_ms sfq.mean_ms;
  ]
  @ r.audits

let print r =
  Printf.printf
    "X-latency | response time of a weight-%.2f interactive client among 4 weight-1 hogs (%.0f ms bursts)\n"
    small_weight r.burst_ms;
  let t = Table.create [ "algorithm"; "mean (ms)"; "p99 (ms)"; "responses" ] in
  List.iter
    (fun row ->
      Table.row t
        [
          row.algorithm;
          Printf.sprintf "%.1f" row.mean_ms;
          Printf.sprintf "%.1f" row.p99_ms;
          string_of_int row.responses;
        ])
    r.rows;
  Table.print t
