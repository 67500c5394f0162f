(* Clock, rep loop and the order statistics the harness reports. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns /. 1e9

let median = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Host timings are reported as the best (smallest) of a run's reps.  On
   a shared VM the host's speed drifts by more than half over spans of
   seconds, so the fastest of many short reps tracks the speed of the
   code rather than the load of the neighbours: on a 2-vCPU Xeon VM it
   spread 3-5% between runs, against 9-25% for the median. *)
let best = function [] -> 0. | x :: xs -> List.fold_left Float.min x xs

let deadline ~seconds frac =
  now_ns () + int_of_float (frac *. float_of_int seconds *. 1e9)

(* Reps of [f] until [until], at least [min] and at most [max]. *)
let reps_until ~until ~min ~max f =
  let rec go acc n =
    if n >= max || (n >= min && now_ns () >= until) then List.rev acc
    else go (f () :: acc) (n + 1)
  in
  go [] 0

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.
