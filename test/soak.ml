(* Long-horizon SFQ soak: Theorem 1, exactly, over every backlogged
   window of a long run.

   Fourteen clients stay continuously backlogged with weights from 1 to
   999_999 units (1e-6 to ~1.0), each drawing adversarial quantum
   lengths: half the time its maximum, otherwise uniform in [1, max].
   Every weight divides L = 999_999 = 3^3 * 7 * 11 * 13 * 37, and none
   but 1 divides 10^6, so charges carry remainders while each
   client's normalized service N = W * (L / w) = L * W / w stays an
   exact integer. Theorem 1 in integers (doc/INVARIANTS.md) then reads,
   for every pair (f, m) and every window between quantum boundaries,

     |dN_f - dN_m| <= L * l_f / w_f + L * l_m / w_m + 1

   (the paper's bound plus 2L/unit < 2 units of quantisation). The
   largest |dN_f - dN_m| over all windows is max D - min D with
   D = N_f - N_m sampled after every quantum, so the check is O(clients)
   per quantum and covers every window.

   Usage: soak.exe [QUANTA] (default 10^6). Prints a verdict; on a
   violation, the pair and the two window ends, and exits 1. *)

module Sfq = Hsfq_core.Sfq
module Prng = Hsfq_engine.Prng

let l_all = 999_999

let () =
  let quanta =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 1_000_000
  in
  let weights =
    [| 1; 3; 7; 27; 77; 143; 481; 999; 3003; 10101; 37037; 111111; 333333;
       999_999 |]
  in
  let n = Array.length weights in
  let lmax = Array.init n (fun i -> 1000 - (45 * i)) in
  let scale = Array.map (fun w -> l_all / w) weights in
  (* Per pair (f < m): extremes of D = N_f - N_m and the quantum index
     at which each was reached. *)
  let pair f m = (f * n) + m in
  let t0 = Unix.gettimeofday () in
  let s = Sfq.create () in
  Array.iteri (fun id w -> Sfq.arrive s ~id ~weight:w) weights;
  let rng = Prng.create 17 in
  let norm = Array.make n 0 in
  let dmax = Array.make (n * n) 0 and dmin = Array.make (n * n) 0 in
  let at_max = Array.make (n * n) 0 and at_min = Array.make (n * n) 0 in
  for q = 1 to quanta do
    let id = Sfq.select_id s in
    let r = Prng.int rng (2 * lmax.(id)) in
    let l = if r >= lmax.(id) then lmax.(id) else 1 + r in
    Sfq.charge s ~id ~service:l ~runnable:true;
    norm.(id) <- norm.(id) + (l * scale.(id));
    for j = 0 to n - 1 do
      if j <> id then begin
        let f = Int.min id j and m = Int.max id j in
        let p = pair f m and d = norm.(f) - norm.(m) in
        if d > dmax.(p) then begin
          dmax.(p) <- d;
          at_max.(p) <- q
        end;
        if d < dmin.(p) then begin
          dmin.(p) <- d;
          at_min.(p) <- q
        end
      end
    done
  done;
  let worst_slack = ref max_int and violations = ref 0 in
  for f = 0 to n - 1 do
    for m = f + 1 to n - 1 do
      let p = pair f m in
      let bound = (lmax.(f) * scale.(f)) + (lmax.(m) * scale.(m)) + 1 in
      let lag = dmax.(p) - dmin.(p) in
      worst_slack := Int.min !worst_slack (bound - lag);
      if lag > bound then begin
        incr violations;
        Printf.printf
          "VIOLATION clients %d (w=%d) and %d (w=%d): window (q%d, q%d] lag %d > \
           bound %d\n"
          f weights.(f) m weights.(m)
          (Int.min at_min.(p) at_max.(p))
          (Int.max at_min.(p) at_max.(p))
          lag bound
      end
    done
  done;
  Printf.printf
    "soak: %d quanta, %d clients, weights 1..%d units, v(t)=%d, every window \
     checked, tightest slack %d: %s (%.1f s)\n"
    quanta n l_all (Sfq.virtual_time s) !worst_slack
    (if !violations = 0 then "PASS" else "FAIL")
    (Unix.gettimeofday () -. t0);
  if !violations > 0 then exit 1
