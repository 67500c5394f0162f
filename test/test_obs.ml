(* Tests for lib/obs — the ring-buffer tracepoint system, per-node
   metrics and the exporters.

   The golden-trace cases regenerate the canonical text dump of a traced
   experiment run through the same [Obs_run] path the CLI uses and
   require byte-equality with the checked-in files under [golden/]
   (regenerate with `make regen-golden` after an intentional schema or
   scheduling change).  The qcheck properties pin the [service] metric
   to the naive [Sfq_reference] oracle and the trace bytes to the
   serial run whatever [--jobs] is. *)

module Ring = Hsfq_obs.Ring
module Trace = Hsfq_obs.Trace
module Metrics = Hsfq_obs.Metrics
module Text_dump = Hsfq_obs.Text_dump
module Chrome_trace = Hsfq_obs.Chrome_trace
module E = Hsfq_experiments
module Sfq = Hsfq_core.Sfq
module Ref = Hsfq_check.Sfq_reference
module Time = Hsfq_engine.Time
module Par = Hsfq_par.Par

let check_int = Alcotest.(check int)

(* ------------------------------ ring -------------------------------- *)

let test_ring_capacity_rounding () =
  check_int "minimum 16" 16 (Ring.capacity (Ring.create ~capacity:1));
  check_int "round up" 32 (Ring.capacity (Ring.create ~capacity:17));
  check_int "exact power" 64 (Ring.capacity (Ring.create ~capacity:64))

let test_ring_wraparound () =
  let r = Ring.create ~capacity:16 in
  for i = 0 to 19 do
    Ring.emit r ~code:i ~time:(100 * i) ~pid:1 ~a:i ~b:(i + 1) ~c:(i + 2)
      ~d:(i + 3) ~x:i ~y:(-i)
  done;
  check_int "total counts past wrap" 20 (Ring.total r);
  check_int "length caps at capacity" 16 (Ring.length r);
  (* Oldest surviving event is the 5th emitted (code 4). *)
  check_int "oldest code" 4 (Ring.code r 0);
  check_int "oldest time" 400 (Ring.time r 0);
  check_int "newest code" 19 (Ring.code r 15);
  check_int "payload a" 4 (Ring.a r 0);
  check_int "payload d" 7 (Ring.d r 0);
  check_int "payload x" 4 (Ring.x r 0);
  check_int "payload y" (-4) (Ring.y r 0);
  Alcotest.check_raises "index out of range"
    (Invalid_argument "Ring: index out of range") (fun () ->
      ignore (Ring.code r 16))

let test_ring_clear () =
  let r = Ring.create ~capacity:16 in
  for i = 1 to 5 do
    Ring.emit r ~code:i ~time:i ~pid:1 ~a:0 ~b:0 ~c:0 ~d:0 ~x:0 ~y:0
  done;
  Ring.clear r;
  check_int "length after clear" 0 (Ring.length r);
  check_int "total after clear" 0 (Ring.total r)

(* ------------------------------ trace ------------------------------- *)

let test_trace_disabled_records_nothing () =
  let tr = Trace.create ~capacity:64 ~enabled:false () in
  let s = Trace.register_sys tr ~label:"k" in
  Trace.emit0 s ~code:Trace.ev_spawn ~a:1 ~b:2 ~c:0 ~d:0;
  Trace.emitf s ~code:Trace.ev_pick ~a:0 ~b:1 ~c:0 ~d:0 ~x:7 ~y:8;
  check_int "nothing recorded" 0 (Ring.total (Trace.ring tr));
  Alcotest.(check bool) "on mirrors enabled" false (Trace.on s);
  Trace.set_enabled tr true;
  Trace.set_now tr 42;
  Trace.emit0 s ~code:Trace.ev_spawn ~a:1 ~b:2 ~c:0 ~d:0;
  check_int "recorded once enabled" 1 (Ring.total (Trace.ring tr));
  check_int "stamped time" 42 (Ring.time (Trace.ring tr) 0);
  check_int "stamped pid" (Trace.pid s) (Ring.pid (Trace.ring tr) 0)

let test_trace_emit0_zero_payload () =
  let tr = Trace.create ~capacity:64 ~enabled:true () in
  let s = Trace.register_sys tr ~label:"k" in
  Trace.emitf s ~code:Trace.ev_pick ~a:0 ~b:0 ~c:0 ~d:0 ~x:9 ~y:9;
  Trace.emit0 s ~code:Trace.ev_spawn ~a:0 ~b:0 ~c:0 ~d:0;
  check_int "x recorded" 9 (Ring.x (Trace.ring tr) 0);
  check_int "x zero" 0 (Ring.x (Trace.ring tr) 1);
  check_int "y zero" 0 (Ring.y (Trace.ring tr) 1)

let test_trace_sys_and_lanes () =
  let tr = Trace.create ~capacity:64 ~enabled:true () in
  let s1 = Trace.register_sys tr ~label:"alpha" in
  let s2 = Trace.register_sys tr ~label:"beta" in
  check_int "pids allocate from 1" 1 (Trace.pid s1);
  check_int "second pid" 2 (Trace.pid s2);
  check_int "sys_count" 2 (Trace.sys_count tr);
  Alcotest.(check string) "label by pid" "beta" (Trace.sys_label tr 2);
  Trace.name_lane s1 ~lane:7 ~name:"worker";
  Trace.name_lane s1 ~lane:(Trace.node_lane 3) ~name:"/a/b";
  Trace.name_lane s1 ~lane:7 ~name:"renamed";
  check_int "renaming does not add a lane" 2 (Trace.lane_count tr);
  Alcotest.(check string) "rename wins" "renamed" (Trace.lane_name tr 0);
  check_int "node lane offset" (Trace.node_lane_base + 3) (Trace.lane_id tr 1);
  check_int "lane pid" 1 (Trace.lane_pid tr 1)

let test_code_names_distinct () =
  let seen = Hashtbl.create 32 in
  for code = 1 to 26 do
    let n = Trace.code_name code in
    Alcotest.(check bool)
      (Printf.sprintf "code %d named" code)
      false (n = "unknown");
    Alcotest.(check bool) (Printf.sprintf "%s unique" n) false (Hashtbl.mem seen n);
    Hashtbl.replace seen n ()
  done;
  Alcotest.(check string) "out of range" "unknown" (Trace.code_name 0)

(* ----------------------------- metrics ------------------------------ *)

let test_metrics_accumulation () =
  let m = Metrics.create () in
  Alcotest.(check bool) "inactive before samples" false (Metrics.active m ~node:3);
  Metrics.charge_sample m ~node:3 ~service:10 ~norm:5 ~vt:100;
  Metrics.charge_sample m ~node:3 ~service:6 ~norm:3 ~vt:104;
  Metrics.incr_preempt m ~node:3;
  Metrics.wait_sample m ~node:3 2_500_000;
  Metrics.wait_sample m ~node:3 1_000_000_000 (* overflow bucket still counted *);
  check_int "node_count" 4 (Metrics.node_count m);
  Alcotest.(check bool) "active" true (Metrics.active m ~node:3);
  check_int "service" 16 (Metrics.service m ~node:3);
  check_int "norm service" 8 (Metrics.norm_service m ~node:3);
  check_int "quanta" 2 (Metrics.quanta m ~node:3);
  check_int "preemptions" 1 (Metrics.preemptions m ~node:3);
  (* lag = norm (8) - vt advance (104 - 100). *)
  check_int "vt lag" 4 (Metrics.vt_lag m ~node:3);
  (match Metrics.wait_histogram m ~node:3 with
  | None -> Alcotest.fail "expected a wait histogram"
  | Some h -> check_int "wait samples" 2 (Hsfq_engine.Histogram.count h));
  (* Untouched ids read as zero. *)
  check_int "untouched service" 0 (Metrics.service m ~node:200);
  check_int "untouched quanta" 0 (Metrics.quanta m ~node:200);
  check_int "single-sample lag" 0
    (let m2 = Metrics.create () in
     Metrics.charge_sample m2 ~node:0 ~service:1 ~norm:1 ~vt:50;
     Metrics.vt_lag m2 ~node:0)

(* ------------------------ minimal JSON reader ----------------------- *)

(* Just enough JSON to validate the Chrome exporter's output: parses the
   full grammar (escapes included) and fails loudly on trailing garbage.
   Not a library — a test oracle. *)
type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
        advance ();
        skip_ws ()
      | _ -> ()
  in
  let expect c =
    if peek () <> c then fail (Printf.sprintf "expected %c" c);
    advance ()
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | '"' -> Buffer.add_char b '"'; advance ()
        | '\\' -> Buffer.add_char b '\\'; advance ()
        | '/' -> Buffer.add_char b '/'; advance ()
        | 'b' -> Buffer.add_char b '\b'; advance ()
        | 'f' -> Buffer.add_char b '\012'; advance ()
        | 'n' -> Buffer.add_char b '\n'; advance ()
        | 'r' -> Buffer.add_char b '\r'; advance ()
        | 't' -> Buffer.add_char b '\t'; advance ()
        | 'u' ->
          advance ();
          if !pos + 4 > n then fail "truncated \\u escape";
          for _ = 1 to 4 do
            (match peek () with
            | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
            | _ -> fail "bad \\u escape");
            advance ()
          done;
          Buffer.add_char b '?'
        | _ -> fail "bad escape");
        go ()
      | c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            members ((k, v) :: acc)
          | '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or } in object"
        in
        members []
      end
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            elements (v :: acc)
          | ']' ->
            advance ();
            Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ] in array"
        in
        elements []
      end
    | '"' -> Str (parse_string ())
    | 't' ->
      if !pos + 4 <= n && String.sub s !pos 4 = "true" then begin
        pos := !pos + 4;
        Bool true
      end
      else fail "bad literal"
    | 'f' ->
      if !pos + 5 <= n && String.sub s !pos 5 = "false" then begin
        pos := !pos + 5;
        Bool false
      end
      else fail "bad literal"
    | 'n' ->
      if !pos + 4 <= n && String.sub s !pos 4 = "null" then begin
        pos := !pos + 4;
        Null
      end
      else fail "bad literal"
    | '-' | '0' .. '9' -> Num (parse_number ())
    | _ -> fail "unexpected character"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

(* --------------------------- golden traces -------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let b = really_input_string ic len in
  close_in ic;
  b

let golden_capacity = 1024 (* keep the fig5 golden file reviewable *)

(* One traced fig5 run shared by the golden-text and Chrome-JSON cases
   (the run is deterministic but not free). *)
let fig5_trace =
  lazy
    (match E.Obs_run.traced_compute ~capacity:golden_capacity "fig5" with
    | Some (_, tr) -> tr
    | None -> Alcotest.fail "fig5 not registered")

let test_golden_fig1 () =
  match E.Obs_run.text "fig1" with
  | None -> Alcotest.fail "fig1 not registered"
  | Some dump ->
    Alcotest.(check string)
      "fig1 text dump matches golden/fig1.trace (make regen-golden)"
      (read_file "golden/fig1.trace") dump

let test_golden_fig5 () =
  let dump = Text_dump.dump (Lazy.force fig5_trace) in
  Alcotest.(check string)
    "fig5 text dump matches golden/fig5.trace (make regen-golden)"
    (read_file "golden/fig5.trace") dump

let test_chrome_export_valid () =
  let tr = Lazy.force fig5_trace in
  let j = parse_json (Chrome_trace.export tr) in
  (match member "displayTimeUnit" j with
  | Some (Str "ms") -> ()
  | _ -> Alcotest.fail "missing displayTimeUnit");
  match member "traceEvents" j with
  | Some (Arr events) ->
    Alcotest.(check bool) "events present" true (List.length events > 500);
    let phases = Hashtbl.create 8 in
    List.iter
      (fun ev ->
        (match (member "pid" ev, member "tid" ev) with
        | Some (Num _), Some (Num _) -> ()
        | _ -> Alcotest.fail "event missing pid/tid");
        match (member "name" ev, member "ph" ev) with
        | Some (Str _), Some (Str ph) ->
          Hashtbl.replace phases ph ()
          (* complete events must carry a duration *)
          ;
          if ph = "X" then
            (match member "dur" ev with
            | Some (Num d) ->
              Alcotest.(check bool) "dur >= 0" true (d >= 0.)
            | _ -> Alcotest.fail "X event missing dur")
        | _ -> Alcotest.fail "event missing name/ph")
      events;
    List.iter
      (fun ph ->
        Alcotest.(check bool)
          (Printf.sprintf "phase %s present" ph)
          true (Hashtbl.mem phases ph))
      [ "M"; "X"; "i" ]
  | _ -> Alcotest.fail "missing traceEvents"

(* Exporters must agree with the CLI byte-for-byte: both go through
   Obs_run, so a second traced run reproduces the first exactly. *)
let test_trace_deterministic () =
  let a = E.Obs_run.text ~capacity:golden_capacity "fig5" in
  let b = Some (Text_dump.dump (Lazy.force fig5_trace)) in
  Alcotest.(check (option string)) "two traced runs agree" b a

(* --------------------- qcheck: metrics vs oracle -------------------- *)

(* Drive the optimized Sfq (with a tracer attached) and the naive
   reference through one random op sequence; the per-client [service]
   and [quanta] metrics must equal the totals accumulated from the
   oracle's charges, and every selection must agree along the way. *)
let metrics_match_oracle ops =
  let tr = Trace.create ~capacity:64 ~enabled:true () in
  let s = Trace.register_sys tr ~label:"sfq" in
  let q = Sfq.create () in
  Sfq.set_obs q (Some s) ~node:0;
  let r = Ref.create () in
  let ids = 6 in
  let service_acc = Array.make (ids + 1) 0 in
  let quanta_acc = Array.make (ids + 1) 0 in
  let ok =
    List.for_all
      (fun (id, op) ->
        let id = 1 + (id mod ids) in
        match op with
        | 0 | 1 ->
          let weight = (1 + (id mod 4)) * Hsfq_sched.Vtime.unit in
          Sfq.arrive q ~id ~weight;
          Ref.arrive r ~id ~weight;
          true
        | 2 | 3 -> (
          let a = Sfq.select_id q in
          match (a, Ref.select r) with
          | -1, None -> true
          | a, Some b when a = b ->
            let service = (10 * id) + op in
            let runnable = (id + op) mod 2 = 0 in
            Sfq.charge q ~id:a ~service ~runnable;
            Ref.charge r ~id:b ~service ~runnable;
            service_acc.(a) <- service_acc.(a) + service;
            quanta_acc.(a) <- quanta_acc.(a) + 1;
            true
          | _ -> false (* selections diverged *))
        | 4 ->
          if Sfq.mem q ~id then begin
            Sfq.block q ~id;
            Ref.block r ~id
          end;
          true
        | _ ->
          if Sfq.mem q ~id then begin
            let weight = id * Hsfq_sched.Vtime.unit in
            Sfq.set_weight q ~id ~weight;
            Ref.set_weight r ~id ~weight
          end;
          true)
      ops
  in
  let m = Trace.metrics s in
  ok
  && Array.for_all (fun i -> i)
       (Array.init (ids + 1) (fun id ->
            Metrics.service m ~node:id = service_acc.(id)
            && Metrics.quanta m ~node:id = quanta_acc.(id)))

let prop_service_metric_matches_oracle =
  QCheck.Test.make
    ~name:"per-node service metric equals the Sfq_reference totals" ~count:300
    QCheck.(
      list_of_size (Gen.int_range 1 120) (pair (int_bound 5) (int_bound 5)))
    metrics_match_oracle

(* ----------------- qcheck: parallel trace determinism --------------- *)

(* A small traced kernel run, a pure function of its seed. *)
let traced_dump seed =
  let (), tr =
    E.Obs_run.capture ~capacity:2048 (fun () ->
        let sys = E.Common.make_sys ~obs_label:(Printf.sprintf "s%d" seed) () in
        let leaf, h =
          E.Common.sfq_leaf sys ~parent:Hsfq_core.Hierarchy.root ~name:"work"
            ~weight:1. ()
        in
        let _ =
          E.Common.dhrystone_thread sys ~leaf ~sfq:h ~name:"a" ~weight:1.
            ~loop_cost:(Time.microseconds (300 + (37 * (seed mod 7))))
        in
        let _ =
          E.Common.dhrystone_thread sys ~leaf ~sfq:h ~name:"b" ~weight:2.
            ~loop_cost:(Time.microseconds 450)
        in
        Hsfq_kernel.Kernel.run_until sys.E.Common.k (Time.milliseconds 30))
  in
  Text_dump.dump tr

let test_trace_bytes_jobs_independent () =
  let tasks = Array.init 8 (fun i -> i) in
  let run jobs = Par.sweep ~jobs ~tasks traced_dump in
  let serial = run 1 in
  Array.iteri
    (fun i d ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d recorded events" i)
        true
        (String.length d > 200))
    serial;
  Alcotest.(check (array string)) "jobs 1 = jobs 2" serial (run 2);
  Alcotest.(check (array string)) "jobs 1 = jobs 4" serial (run 4)

(* ------------------------------- main ------------------------------- *)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [
      ( "ring",
        [
          Alcotest.test_case "capacity rounding" `Quick test_ring_capacity_rounding;
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "clear" `Quick test_ring_clear;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled records nothing" `Quick
            test_trace_disabled_records_nothing;
          Alcotest.test_case "emit0 zeroes stage" `Quick
            test_trace_emit0_zero_payload;
          Alcotest.test_case "sys handles and lanes" `Quick
            test_trace_sys_and_lanes;
          Alcotest.test_case "code names distinct" `Quick
            test_code_names_distinct;
        ] );
      ( "metrics",
        [ Alcotest.test_case "accumulation" `Quick test_metrics_accumulation ] );
      ( "golden",
        [
          Alcotest.test_case "fig1 text dump" `Quick test_golden_fig1;
          Alcotest.test_case "fig5 text dump" `Slow test_golden_fig5;
          Alcotest.test_case "fig5 Chrome JSON valid" `Slow
            test_chrome_export_valid;
          Alcotest.test_case "traced runs deterministic" `Slow
            test_trace_deterministic;
        ] );
      ( "properties",
        [
          qc prop_service_metric_matches_oracle;
          Alcotest.test_case "trace bytes independent of --jobs" `Slow
            test_trace_bytes_jobs_independent;
        ] );
    ]
