(* Unit and property tests for the simulation substrate (lib/engine). *)

open Hsfq_engine

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------------------- Time ---------------------------------- *)

let test_time_units () =
  check_int "us" 1_000 (Time.microseconds 1);
  check_int "ms" 1_000_000 (Time.milliseconds 1);
  check_int "s" 1_000_000_000 (Time.seconds 1);
  check_int "min" 60_000_000_000 (Time.minutes 1);
  check_int "of_seconds_float" 1_500_000_000 (Time.of_seconds_float 1.5);
  check_float "to_seconds" 0.02 (Time.to_seconds_float (Time.milliseconds 20));
  check_float "to_ms" 2.5 (Time.to_milliseconds_float (Time.microseconds 2500))

let test_time_arith () =
  let t = Time.add (Time.seconds 1) (Time.milliseconds 500) in
  check_int "add" 1_500_000_000 t;
  check_int "diff" (Time.milliseconds 500) (Time.diff t (Time.seconds 1));
  check_int "scale" (Time.milliseconds 10) (Time.scale (Time.milliseconds 20) 0.5);
  check_int "min" (Time.seconds 1) (Time.min (Time.seconds 1) (Time.seconds 2));
  check_int "max" (Time.seconds 2) (Time.max (Time.seconds 1) (Time.seconds 2))

let test_time_pp () =
  Alcotest.(check string) "ns" "5ns" (Time.to_string 5);
  Alcotest.(check string) "ms" "12ms" (Time.to_string (Time.milliseconds 12));
  Alcotest.(check string) "s" "3s" (Time.to_string (Time.seconds 3))

(* ---------------------------- Prng ---------------------------------- *)

let test_prng_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  check_bool "different streams" false (Prng.next_int64 a = Prng.next_int64 b)

let test_prng_split_independent () =
  let a = Prng.create 7 in
  let c = Prng.split a in
  let x = Prng.next_int64 a and y = Prng.next_int64 c in
  check_bool "split streams differ" false (x = y)

let test_prng_copy () =
  let a = Prng.create 9 in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.next_int64 a)
    (Prng.next_int64 b)

let test_prng_bounds () =
  let r = Prng.create 3 in
  for _ = 1 to 1000 do
    let v = Prng.int r 10 in
    check_bool "int in range" true (v >= 0 && v < 10);
    let f = Prng.float r 2.5 in
    check_bool "float in range" true (f >= 0. && f < 2.5);
    let i = Prng.int_in r (-5) 5 in
    check_bool "int_in range" true (i >= -5 && i <= 5)
  done

let test_prng_uniform_mean () =
  let r = Prng.create 4 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Prng.float r 1.0
  done;
  let mean = !sum /. float_of_int n in
  check_bool "uniform mean ~ 0.5" true (Float.abs (mean -. 0.5) < 0.02)

let test_prng_exponential_mean () =
  let r = Prng.create 5 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential r ~mean:3.0
  done;
  let mean = !sum /. float_of_int n in
  check_bool "exp mean ~ 3" true (Float.abs (mean -. 3.0) < 0.15)

let test_prng_gaussian_moments () =
  let r = Prng.create 6 in
  let st = Stats.create () in
  for _ = 1 to 20_000 do
    Stats.add st (Prng.gaussian r ~mu:10. ~sigma:2.)
  done;
  check_bool "gaussian mean" true (Float.abs (Stats.mean st -. 10.) < 0.1);
  check_bool "gaussian sd" true (Float.abs (Stats.stddev st -. 2.) < 0.1)

let test_prng_bernoulli () =
  let r = Prng.create 8 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Prng.bernoulli r 0.3 then incr hits
  done;
  check_bool "bernoulli p=0.3" true
    (Float.abs ((float_of_int !hits /. 10_000.) -. 0.3) < 0.03)

let test_prng_pareto_and_choice () =
  let r = Prng.create 12 in
  for _ = 1 to 1000 do
    let v = Prng.pareto r ~shape:2. ~scale:3. in
    check_bool "pareto >= scale" true (v >= 3.)
  done;
  let arr = [| "x"; "y"; "z" |] in
  for _ = 1 to 100 do
    check_bool "choice from array" true (Array.mem (Prng.choice r arr) arr)
  done

let test_prng_shuffle_permutes () =
  let r = Prng.create 10 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted;
  check_bool "actually shuffled" true (a <> Array.init 50 Fun.id)

let test_prng_stream_reproducible () =
  let a = Prng.create 42 and b = Prng.create 42 in
  let sa = Prng.stream a 3 and sb = Prng.stream b 3 in
  for _ = 1 to 50 do
    Alcotest.(check int64) "same (t, i) gives the same stream"
      (Prng.next_int64 sa) (Prng.next_int64 sb)
  done

let test_prng_stream_independent () =
  let t = Prng.create 42 in
  let s0 = Prng.stream t 0 and s1 = Prng.stream t 1 in
  check_bool "distinct indices decorrelate" false
    (Prng.next_int64 s0 = Prng.next_int64 s1)

let test_prng_stream_preserves_parent () =
  let a = Prng.create 7 and b = Prng.create 7 in
  (* Deriving (and consuming) streams must not advance the parent. *)
  let s = Prng.stream a 5 in
  ignore (Prng.next_int64 s);
  ignore (Prng.stream a 9);
  Alcotest.(check int64) "parent untouched" (Prng.next_int64 b)
    (Prng.next_int64 a)

(* ------------------------- Event queue ------------------------------ *)

let test_event_queue_order () =
  let q = Event_queue.create () in
  let out = ref [] in
  let ev tag = fun () -> out := tag :: !out in
  ignore (Event_queue.schedule q ~at:30 (ev "c"));
  ignore (Event_queue.schedule q ~at:10 (ev "a"));
  ignore (Event_queue.schedule q ~at:20 (ev "b"));
  Alcotest.(check (option int)) "next_time" (Some 10) (Event_queue.next_time q);
  let rec drain () =
    match Event_queue.pop q with
    | None -> ()
    | Some (_, f) ->
      f ();
      drain ()
  in
  drain ();
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !out)

let test_event_queue_fifo_ties () =
  let q = Event_queue.create () in
  let out = ref [] in
  List.iter
    (fun tag -> ignore (Event_queue.schedule q ~at:5 (fun () -> out := tag :: !out)))
    [ "first"; "second"; "third" ];
  let rec drain () =
    match Event_queue.pop q with
    | None -> ()
    | Some (_, f) ->
      f ();
      drain ()
  in
  drain ();
  Alcotest.(check (list string)) "FIFO among equal times"
    [ "first"; "second"; "third" ] (List.rev !out)

let test_event_queue_cancel () =
  let q = Event_queue.create () in
  let fired = ref false in
  let h = Event_queue.schedule q ~at:1 (fun () -> fired := true) in
  Event_queue.cancel h;
  check_bool "is_cancelled" true (Event_queue.is_cancelled h);
  Alcotest.(check (option int)) "no next" None (Event_queue.next_time q);
  check_bool "nothing fires" true (Event_queue.pop q = None && not !fired);
  check_int "pending" 0 (Event_queue.pending q)

(* [pending] is O(1) bookkeeping, not a heap walk: it must track
   schedule/cancel/pop exactly, including cancellations deep in the heap,
   double cancels, and cancels after the event already fired. *)
let test_event_queue_live_accounting () =
  let q = Event_queue.create () in
  let hs =
    Array.init 100 (fun i -> Event_queue.schedule q ~at:i (fun () -> ()))
  in
  check_int "all live" 100 (Event_queue.pending q);
  Array.iteri (fun i h -> if i mod 2 = 1 then Event_queue.cancel h) hs;
  check_int "half live after deep cancels" 50 (Event_queue.pending q);
  Event_queue.cancel hs.(1);
  check_int "cancel is idempotent" 50 (Event_queue.pending q);
  let fired = ref 0 in
  let rec drain () =
    match Event_queue.pop q with
    | Some _ ->
      incr fired;
      check_int "pending tracks pops" (50 - !fired) (Event_queue.pending q);
      drain ()
    | None -> ()
  in
  drain ();
  check_int "every live event fired" 50 !fired;
  let h = Event_queue.schedule q ~at:0 (fun () -> ()) in
  check_bool "fires" true (Event_queue.pop q <> None);
  Event_queue.cancel h;
  check_int "cancel after firing is a no-op" 0 (Event_queue.pending q);
  check_bool "handle not reported cancelled" false (Event_queue.is_cancelled h)

(* The queue recycles handle records of settled-out cancellations; the
   observable contract must survive many schedule/cancel/drain rounds
   (no event lost, none fired twice, accounting exact) whether the
   cancelled entries leave via the top of the heap or via compaction. *)
let test_event_queue_handle_recycling () =
  let q = Event_queue.create () in
  for round = 0 to 9 do
    let n = 200 in
    let fired = Array.make n false in
    let hs =
      Array.init n (fun i ->
          Event_queue.schedule q ~at:((i * 7919) mod n) (fun () ->
              fired.(i) <- true))
    in
    Array.iteri (fun i h -> if i mod 2 = 0 then Event_queue.cancel h) hs;
    check_int
      (Printf.sprintf "round %d: live after cancels" round)
      (n / 2) (Event_queue.pending q);
    let pops = ref 0 in
    let rec drain () =
      match Event_queue.pop q with
      | Some (_, f) ->
        f ();
        incr pops;
        drain ()
      | None -> ()
    in
    drain ();
    check_int (Printf.sprintf "round %d: pops" round) (n / 2) !pops;
    Array.iteri
      (fun i f ->
        check_bool
          (Printf.sprintf "round %d: event %d %s" round i
             (if i mod 2 = 0 then "cancelled" else "fired"))
          (i mod 2 <> 0) f)
      fired;
    check_int (Printf.sprintf "round %d: drained" round) 0 (Event_queue.pending q)
  done;
  (* Compaction path: enough deep cancels that the next [schedule]
     compacts (recycling the skipped entries) instead of settling. *)
  let m = 100 in
  let hs = Array.init m (fun i -> Event_queue.schedule q ~at:i (fun () -> ())) in
  Array.iteri (fun i h -> if i < 60 then Event_queue.cancel h) hs;
  let h = Event_queue.schedule q ~at:0 (fun () -> ()) in
  check_int "live through compaction" 41 (Event_queue.pending q);
  Event_queue.cancel h;
  let rec count acc =
    match Event_queue.pop q with Some _ -> count (acc + 1) | None -> acc
  in
  check_int "survivors fire after compaction" 40 (count 0)

(* Fired handles go back on the free list just like cancelled ones, and
   a pending handle's id is stable until its event fires or is
   cancelled. The id-reuse observation is the documented signal that a
   record was recycled. *)
let test_event_queue_handle_reuse () =
  let q = Event_queue.create () in
  let h0 = Event_queue.schedule q ~at:5 (fun () -> ()) in
  let id0 = Event_queue.handle_id h0 in
  check_bool "fresh handle is live" false (Event_queue.is_null h0);
  (* Stable while pending: other queue traffic must not renumber it. *)
  let h1 = Event_queue.schedule q ~at:1 (fun () -> ()) in
  Event_queue.cancel h1;
  check_int "id stable while pending" id0 (Event_queue.handle_id h0);
  (* Fire h0 through the driver path; its record must be parked... *)
  check_int "event fires" 5 (Event_queue.take_until q ~horizon:10);
  Event_queue.taken q ();
  check_int "queue drained" 0 (Event_queue.pending q);
  (* ...and the very next schedule reuses a recycled record (the free
     list is LIFO, so the id comes from {h0, h1}, not a fresh one). *)
  let h2 = Event_queue.schedule q ~at:7 (fun () -> ()) in
  let id2 = Event_queue.handle_id h2 in
  check_bool "fired/cancelled record reused"
    true
    (id2 = id0 || id2 = Event_queue.handle_id h1);
  Event_queue.cancel h2

(* The zero-allocation contract of the churn path: once the queue's
   arrays and free list are warm, a schedule/cancel/fire cycle driven
   through [take_until]/[taken] allocates nothing. 10k cycles would
   show ~60k words if even one box crept back in, so the tolerance
   below is orders of magnitude away from a real regression. *)
let test_event_queue_steady_state_churn () =
  let q = Event_queue.create () in
  let nop = (fun () -> ()) in
  (* Warm-up: grow the heap arrays and populate the handle free list. *)
  for i = 0 to 255 do
    ignore (Event_queue.schedule q ~at:i nop)
  done;
  let rec drain t = if Event_queue.take_until q ~horizon:1_000_000 >= 0 then begin
      Event_queue.taken q (); drain t end
  in
  drain ();
  let keep = ref Event_queue.null in
  let w0 = Gc.minor_words () in
  for i = 0 to 9_999 do
    let h = Event_queue.schedule q ~at:i nop in
    if i land 1 = 0 then Event_queue.cancel h
    else begin
      keep := h;
      let t = Event_queue.take_until q ~horizon:max_int in
      if t >= 0 then Event_queue.taken q ()
    end
  done;
  let words = Gc.minor_words () -. w0 in
  ignore !keep;
  check_bool
    (Printf.sprintf "steady-state churn allocates (%.0f minor words for 10k cycles)" words)
    true (words < 512.)

(* Memory follows the load back down: after a burst of 32768 in-flight
   events (half cancelled deep in the heap) fully drains, the heap
   arrays must shrink from their high-water capacity and the parked
   handle arena must fall to its floor (1024 records) instead of
   retaining one record per burst event. The burst is sized well above
   the shrink floors so the 4x release assertion has room: a drained
   queue keeps at most 1024-slot arrays and 1024 parked records by
   design. *)
let test_event_queue_burst_releases_memory () =
  let q = Event_queue.create () in
  let n = 32768 in
  let fired = ref 0 in
  let hs =
    Array.init n (fun i -> Event_queue.schedule q ~at:i (fun () -> incr fired))
  in
  Array.iteri (fun i h -> if i mod 2 = 0 then Event_queue.cancel h) hs;
  let cap_peak = Event_queue.capacity q in
  let fp_peak = Event_queue.footprint_words q in
  check_bool "capacity covers the burst" true (cap_peak >= n / 2);
  let rec drain () =
    if Event_queue.take_until q ~horizon:max_int >= 0 then begin
      Event_queue.taken q ();
      drain ()
    end
  in
  drain ();
  check_int "survivors fired" (n / 2) !fired;
  check_int "empty" 0 (Event_queue.pending q);
  check_bool "arena capped at the floor" true
    (Event_queue.retained_handles q <= 1024);
  check_bool "heap arrays released" true (Event_queue.capacity q < cap_peak);
  check_bool "footprint released" true
    (4 * Event_queue.footprint_words q < fp_peak);
  (* The shrunk queue still works. *)
  ignore (Event_queue.schedule q ~at:0 (fun () -> ()));
  check_int "usable after release" 1 (Event_queue.pending q)

(* Simulated time starts at zero: an event at a negative time used to
   be accepted and then lost, since [take_until] answers -1 (its miss
   sentinel) for it. [schedule] now rejects it up front. *)
let test_event_queue_rejects_negative_time () =
  let q = Event_queue.create () in
  Alcotest.check_raises "negative time"
    (Invalid_argument "Event_queue.schedule: negative time") (fun () ->
      ignore (Event_queue.schedule q ~at:(-1) (fun () -> ())));
  check_int "nothing pending" 0 (Event_queue.pending q);
  ignore (Event_queue.schedule q ~at:0 (fun () -> ()));
  check_int "time zero is fine" 0 (Event_queue.take_until q ~horizon:10)

(* Naive-oracle differential: random schedule/cancel/take/next/drain
   sequences run in lockstep against a sorted list of (time, id), where
   ids count schedules and so order ties FIFO. Bursts reach past the
   1024-slot shrink floor and fractional cancels build stale majorities
   above 64 entries, so compaction, pool regrowth and release all run
   under the comparison. Dead handles are cancelled again (double
   cancels, cancels after firing) only before the next [schedule], the
   window in which the contract makes that a no-op. *)
type eq_op =
  | Sched of int
  | Burst of int * int (* n events, time salt *)
  | Cancel_live of int
  | Cancel_dead of int
  | Cancel_frac of int (* cancel live ids not divisible by k *)
  | Take of int (* horizon *)
  | Next
  | Drain

let show_eq_op = function
  | Sched at -> Printf.sprintf "Sched %d" at
  | Burst (n, salt) -> Printf.sprintf "Burst (%d, %d)" n salt
  | Cancel_live k -> Printf.sprintf "Cancel_live %d" k
  | Cancel_dead k -> Printf.sprintf "Cancel_dead %d" k
  | Cancel_frac k -> Printf.sprintf "Cancel_frac %d" k
  | Take h -> Printf.sprintf "Take %d" h
  | Next -> "Next"
  | Drain -> "Drain"

let gen_eq_op =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun at -> Sched at) (int_bound 4095));
        (2, map2 (fun n salt -> Burst (n, salt)) (int_range 1 5000) (int_bound 4095));
        (4, map (fun k -> Cancel_live k) nat);
        (2, map (fun k -> Cancel_dead k) nat);
        (2, map (fun k -> Cancel_frac k) (int_range 2 4));
        (5, map (fun h -> Take h) (int_bound 4095));
        (1, return Next);
        (1, return Drain);
      ])

let prop_event_queue_matches_oracle =
  QCheck.Test.make ~name:"event queue matches a sorted-list oracle" ~count:150
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_eq_op ops))
       QCheck.Gen.(list_size (int_range 1 60) gen_eq_op))
    (fun ops ->
      let q = Event_queue.create () in
      (* Live events as (time, id, handle), sorted on (time, id). *)
      let model = ref [] and next_id = ref 0 in
      let dead = ref [] and last = ref (-1) in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let order (a, i, _) (b, j, _) =
        if a <> b then Int.compare a b else Int.compare i j
      in
      let schedule at =
        let id = !next_id in
        incr next_id;
        (at, id, Event_queue.schedule q ~at (fun () -> last := id))
      in
      let cancel_where p =
        model :=
          List.filter
            (fun (_, id, h) ->
              if p id then begin
                Event_queue.cancel h;
                dead := h :: !dead;
                false
              end
              else true)
            !model
      in
      let take horizon =
        let got = Event_queue.take_until q ~horizon in
        match !model with
        | (at, id, h) :: rest when at <= horizon ->
          if got <> at then fail "take_until %d: got %d, oracle %d" horizon got at;
          Event_queue.taken q ();
          if !last <> id then fail "fired event %d, oracle %d" !last id;
          model := rest;
          dead := h :: !dead
        | _ -> if got <> -1 then fail "take_until %d: got %d, oracle miss" horizon got
      in
      let rec drain () =
        take max_int;
        if !model <> [] then drain ()
      in
      let step op =
        match op with
        | Sched at ->
          dead := [];
          model := List.merge order !model [ schedule at ]
        | Burst (n, salt) ->
          dead := [];
          let evs = List.init n (fun i -> schedule ((salt + (i * 7919)) mod 4096)) in
          model := List.merge order !model (List.sort order evs)
        | Cancel_live k -> (
          match !model with
          | [] -> ()
          | m ->
            let _, victim, _ = List.nth m (k mod List.length m) in
            cancel_where (fun id -> id = victim))
        | Cancel_dead k -> (
          match !dead with
          | [] -> ()
          | d -> Event_queue.cancel (List.nth d (k mod List.length d)))
        | Cancel_frac k -> cancel_where (fun id -> id mod k <> 0)
        | Take h -> take h
        | Next ->
          let want = match !model with [] -> None | (at, _, _) :: _ -> Some at in
          if Event_queue.next_time q <> want then fail "next_time differs"
        | Drain ->
          drain ();
          take max_int;
          if Event_queue.capacity q > 1024 then
            fail "drained capacity %d > 1024" (Event_queue.capacity q);
          if Event_queue.retained_handles q > 1024 then
            fail "drained queue parks %d records" (Event_queue.retained_handles q)
      in
      List.iter
        (fun op ->
          step op;
          let n = List.length !model in
          if Event_queue.pending q <> n then
            fail "after %s: pending %d, oracle %d" (show_eq_op op)
              (Event_queue.pending q) n)
        ops;
      true)

(* ----------------------------- Sim ---------------------------------- *)

let test_sim_ordering_and_clock () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.at sim 100 (fun () -> log := (100, Sim.now sim) :: !log));
  ignore (Sim.at sim 50 (fun () -> log := (50, Sim.now sim) :: !log));
  Sim.run sim;
  Alcotest.(check (list (pair int int)))
    "events run at their times" [ (50, 50); (100, 100) ] (List.rev !log)

let test_sim_run_until () =
  let sim = Sim.create () in
  let fired = ref [] in
  ignore (Sim.at sim 10 (fun () -> fired := 10 :: !fired));
  ignore (Sim.at sim 20 (fun () -> fired := 20 :: !fired));
  Sim.run_until sim 15;
  Alcotest.(check (list int)) "only up to horizon" [ 10 ] (List.rev !fired);
  check_int "clock at horizon" 15 (Sim.now sim);
  Sim.run_until sim 25;
  Alcotest.(check (list int)) "rest runs later" [ 10; 20 ] (List.rev !fired)

let test_sim_cascade () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec chain n () =
    incr count;
    if n > 0 then ignore (Sim.after sim 5 (chain (n - 1)))
  in
  ignore (Sim.after sim 5 (chain 9));
  Sim.run sim;
  check_int "cascaded events" 10 !count;
  check_int "clock" 50 (Sim.now sim);
  check_int "steps" 10 (Sim.steps sim)

let test_sim_rejects_past () =
  let sim = Sim.create () in
  ignore (Sim.at sim 10 (fun () -> ()));
  Sim.run sim;
  Alcotest.check_raises "scheduling in the past"
    (Invalid_argument "Sim.at: scheduling in the past (5ns < 10ns)") (fun () ->
      ignore (Sim.at sim 5 (fun () -> ())))

(* A delay that overflows the clock means "never", not a wrapped time in
   the past: [after] saturates at [max_int]. *)
let test_sim_after_saturates () =
  let sim = Sim.create () in
  ignore (Sim.at sim 10 (fun () -> ()));
  Sim.run sim;
  let fired = ref false in
  ignore (Sim.after sim (max_int - 5) (fun () -> fired := true));
  ignore (Sim.after sim max_int (fun () -> fired := true));
  Sim.run_until sim (Time.seconds 1);
  check_bool "never fires" false !fired;
  check_int "clock at horizon" (Time.seconds 1) (Sim.now sim)

let test_sim_cancel_pending () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.at sim 100 (fun () -> fired := true) in
  Sim.cancel h;
  Sim.run sim;
  check_bool "cancelled event never fires" false !fired;
  check_int "clock unchanged without events" 0 (Sim.now sim)

let test_sim_cancel_from_handler () =
  (* An event cancels a later one while running. *)
  let sim = Sim.create () in
  let fired = ref [] in
  let h2 = Sim.at sim 20 (fun () -> fired := 2 :: !fired) in
  ignore (Sim.at sim 10 (fun () ->
      fired := 1 :: !fired;
      Sim.cancel h2));
  Sim.run sim;
  Alcotest.(check (list int)) "only the first fires" [ 1 ] (List.rev !fired)

(* ---------------------------- Stats --------------------------------- *)

let test_stats_known_values () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check_int "count" 8 (Stats.count s);
  check_float "mean" 5.0 (Stats.mean s);
  check_float "variance (unbiased)" (32. /. 7.) (Stats.variance s);
  check_float "min" 2. (Stats.min_value s);
  check_float "max" 9. (Stats.max_value s);
  check_float "total" 40. (Stats.total s)

let test_stats_empty () =
  let s = Stats.create () in
  check_float "mean of empty" 0. (Stats.mean s);
  check_float "variance of empty" 0. (Stats.variance s);
  check_float "cv of empty" 0. (Stats.cv s)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () and whole = Stats.create () in
  let xs = [ 1.; 5.; 2.; 8.; 3. ] and ys = [ 9.; 4.; 7. ] in
  List.iter (Stats.add a) xs;
  List.iter (Stats.add b) ys;
  List.iter (Stats.add whole) (xs @ ys);
  let m = Stats.merge a b in
  check_int "merged count" (Stats.count whole) (Stats.count m);
  check_float "merged mean" (Stats.mean whole) (Stats.mean m);
  Alcotest.(check (float 1e-9)) "merged variance" (Stats.variance whole)
    (Stats.variance m)

let test_percentile () =
  let xs = [| 15.; 20.; 35.; 40.; 50. |] in
  check_float "p0" 15. (Stats.percentile xs 0.);
  check_float "p100" 50. (Stats.percentile xs 100.);
  check_float "p50" 35. (Stats.percentile xs 50.);
  check_float "p25 interpolated" 20. (Stats.percentile xs 25.)

let test_jain () =
  check_float "perfectly fair" 1.0 (Stats.jain_index [| 3.; 3.; 3. |]);
  check_float "one hog of four" 0.25 (Stats.jain_index [| 1.; 0.; 0.; 0. |])

let prop_stats_matches_naive =
  QCheck.Test.make ~name:"Welford matches naive mean/variance" ~count:200
    QCheck.(list_of_size (Gen.int_range 2 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0. xs /. n in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs /. (n -. 1.)
      in
      Float.abs (Stats.mean s -. mean) < 1e-6 *. (1. +. Float.abs mean)
      && Float.abs (Stats.variance s -. var) < 1e-6 *. (1. +. var))

(* -------------------------- Histogram ------------------------------- *)

let test_histogram_binning () =
  let h = Histogram.create ~lo:0. ~hi:10. ~bins:5 in
  List.iter (Histogram.add h) [ -1.; 0.; 1.9; 2.; 9.9; 10.; 11. ];
  check_int "count" 7 (Histogram.count h);
  check_int "underflow" 1 (Histogram.underflow h);
  check_int "overflow" 2 (Histogram.overflow h);
  check_int "bin0 [0,2)" 2 (Histogram.bin_count h 0);
  check_int "bin1 [2,4)" 1 (Histogram.bin_count h 1);
  check_int "bin4 [8,10)" 1 (Histogram.bin_count h 4);
  let lo, hi = Histogram.bin_bounds h 1 in
  check_float "bin1 lo" 2. lo;
  check_float "bin1 hi" 4. hi

let test_histogram_render () =
  let h = Histogram.create ~lo:0. ~hi:4. ~bins:2 in
  List.iter (Histogram.add h) [ 1.; 1.; 3. ];
  let s = Histogram.render h ~width:10 in
  check_bool "render mentions both bins" true
    (String.length s > 0
    && String.split_on_char '\n' s |> List.length >= 2)

(* ---------------------------- Series -------------------------------- *)

let test_series_basics () =
  let s = Series.create ~name:"x" () in
  Alcotest.(check string) "name" "x" (Series.name s);
  Alcotest.(check (option (pair int (float 0.)))) "empty last" None (Series.last s);
  Series.add s 10 1.;
  Series.add s 20 2.;
  Series.add s 30 3.;
  check_int "length" 3 (Series.length s);
  Alcotest.(check (option (pair int (float 0.)))) "last" (Some (30, 3.)) (Series.last s);
  Alcotest.(check (array (float 0.))) "cumulative" [| 1.; 3.; 6. |] (Series.cumulative s)

let test_series_buckets () =
  let s = Series.create () in
  List.iter (fun (t, v) -> Series.add s t v) [ (5, 1.); (15, 2.); (16, 3.); (25, 4.) ];
  Alcotest.(check (array (float 0.)))
    "bucket_sum width 10" [| 1.; 5.; 4. |]
    (Series.bucket_sum s ~width:10 ~until:30);
  Alcotest.(check (array (float 0.)))
    "bucket_mean width 10" [| 1.; 2.5; 4. |]
    (Series.bucket_mean s ~width:10 ~until:30)

let test_series_value_at () =
  let s = Series.create () in
  List.iter (fun (t, v) -> Series.add s t v) [ (5, 1.); (15, 2.); (25, 4.) ];
  check_float "value_at 4" 0. (Series.value_at s 4);
  check_float "value_at 15 (inclusive)" 3. (Series.value_at s 15);
  check_float "value_at end" 7. (Series.value_at s 100)

let prop_series_bucket_total =
  QCheck.Test.make ~name:"bucket sums preserve total in range" ~count:100
    QCheck.(list (pair (int_bound 999) (float_range 0. 10.)))
    (fun samples ->
      let s = Series.create () in
      let sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) samples in
      List.iter (fun (t, v) -> Series.add s t v) sorted;
      let total = List.fold_left (fun acc (_, v) -> acc +. v) 0. sorted in
      let buckets = Series.bucket_sum s ~width:100 ~until:1000 in
      let bucket_total = Array.fold_left ( +. ) 0. buckets in
      Float.abs (total -. bucket_total) < 1e-6 *. (1. +. total))

(* ---------------------------- Table --------------------------------- *)

let test_table_render () =
  let t = Table.create [ "a"; "bb" ] in
  Table.row t [ "1"; "2" ];
  Table.row t [ "333"; "4" ];
  Table.rowf t "note %d" 5;
  let s = Table.render t in
  let lines = String.split_on_char '\n' s in
  check_bool "has header + rule + 3 rows" true (List.length lines >= 5);
  check_bool "contains rule" true (String.contains (List.nth lines 1) '-')

(* --------------------------- Tracelog ------------------------------- *)

let test_tracelog () =
  let tr = Tracelog.create () in
  Tracelog.segment tr ~lane:"A" ~start:0 ~stop:10 ~label:"run";
  Tracelog.segment tr ~lane:"B" ~start:10 ~stop:20 ~label:"run";
  Tracelog.mark tr ~lane:"A" ~at:5 ~label:"wake";
  check_int "segments" 2 (List.length (Tracelog.segments tr));
  check_int "marks" 1 (List.length (Tracelog.marks tr));
  let g = Tracelog.render_gantt tr ~cell:5 ~until:20 in
  let lines = String.split_on_char '\n' g |> List.filter (fun l -> l <> "") in
  check_int "one row per lane" 2 (List.length lines);
  check_bool "A active then idle" true
    (String.length (List.nth lines 0) > 0)

let prop_event_queue_total_order =
  QCheck.Test.make ~name:"event queue pops in (time, insertion) order" ~count:200
    QCheck.(list (int_bound 1000))
    (fun times ->
      let q = Event_queue.create () in
      List.iteri (fun i at -> ignore (Event_queue.schedule q ~at (fun () -> ignore i))) times;
      let rec drain acc =
        match Event_queue.pop q with
        | None -> List.rev acc
        | Some (at, _) -> drain (at :: acc)
      in
      let popped = drain [] in
      popped = List.sort Int.compare times)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "engine"
    [
      ( "time",
        [
          Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "arithmetic" `Quick test_time_arith;
          Alcotest.test_case "pretty-printing" `Quick test_time_pp;
        ] );
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "uniform mean" `Quick test_prng_uniform_mean;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
          Alcotest.test_case "gaussian moments" `Quick test_prng_gaussian_moments;
          Alcotest.test_case "bernoulli" `Quick test_prng_bernoulli;
          Alcotest.test_case "pareto and choice" `Quick test_prng_pareto_and_choice;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
          Alcotest.test_case "stream reproducible" `Quick
            test_prng_stream_reproducible;
          Alcotest.test_case "stream independence" `Quick
            test_prng_stream_independent;
          Alcotest.test_case "stream preserves parent" `Quick
            test_prng_stream_preserves_parent;
        ] );
      ( "event-queue",
        [
          Alcotest.test_case "time order" `Quick test_event_queue_order;
          Alcotest.test_case "FIFO ties" `Quick test_event_queue_fifo_ties;
          Alcotest.test_case "cancellation" `Quick test_event_queue_cancel;
          Alcotest.test_case "O(1) live accounting" `Quick
            test_event_queue_live_accounting;
          Alcotest.test_case "handle recycling" `Quick
            test_event_queue_handle_recycling;
          Alcotest.test_case "handle reuse and stable ids" `Quick
            test_event_queue_handle_reuse;
          Alcotest.test_case "steady-state churn is allocation-free" `Quick
            test_event_queue_steady_state_churn;
          Alcotest.test_case "burst releases memory" `Quick
            test_event_queue_burst_releases_memory;
          Alcotest.test_case "rejects negative time" `Quick
            test_event_queue_rejects_negative_time;
          qc prop_event_queue_total_order;
          qc prop_event_queue_matches_oracle;
        ] );
      ( "sim",
        [
          Alcotest.test_case "ordering and clock" `Quick test_sim_ordering_and_clock;
          Alcotest.test_case "run_until horizon" `Quick test_sim_run_until;
          Alcotest.test_case "cascading events" `Quick test_sim_cascade;
          Alcotest.test_case "rejects past scheduling" `Quick test_sim_rejects_past;
          Alcotest.test_case "after saturates" `Quick test_sim_after_saturates;
          Alcotest.test_case "cancel pending" `Quick test_sim_cancel_pending;
          Alcotest.test_case "cancel from handler" `Quick test_sim_cancel_from_handler;
        ] );
      ( "stats",
        [
          Alcotest.test_case "known values" `Quick test_stats_known_values;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "merge" `Quick test_stats_merge;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "jain index" `Quick test_jain;
          qc prop_stats_matches_naive;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "binning" `Quick test_histogram_binning;
          Alcotest.test_case "render" `Quick test_histogram_render;
        ] );
      ( "series",
        [
          Alcotest.test_case "basics" `Quick test_series_basics;
          Alcotest.test_case "buckets" `Quick test_series_buckets;
          Alcotest.test_case "value_at" `Quick test_series_value_at;
          qc prop_series_bucket_total;
        ] );
      ("table", [ Alcotest.test_case "render" `Quick test_table_render ]);
      ("tracelog", [ Alcotest.test_case "segments and gantt" `Quick test_tracelog ]);
    ]
