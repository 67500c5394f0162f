open Hsfq_engine

(* Completed loops are kept as runs: a run is a stretch of loops that
   complete exactly [loop_cost] apart, stored as its first completion
   time and its loop count. A thread that keeps the CPU completes one
   long run, so the per-loop path is one compare and one increment; a
   preemption or an interrupt mid-loop starts the next run. Closed runs
   live in chunks of doubling size that are never copied, as in
   {!Series}: growth files the full chunk and allocates the next. Even
   the first chunk is too big for the minor heap, so a run's storage
   costs no minor words at any point of a simulation. The per-loop
   (time, 1.0) series is built only when asked for. *)
type counter = {
  cost : Time.span;
  compute : Hsfq_kernel.Workload_intf.action; (* built once *)
  mutable started : bool; (* the first call starts loop 1 *)
  mutable first : Time.t; (* the open run's first completion *)
  mutable len : int; (* loops in the open run; 0 before the first *)
  mutable filed : int; (* loops in closed runs *)
  mutable full : (Time.t array * int array) list;
      (* filled chunks of closed runs, newest first *)
  mutable firsts : Time.t array; (* the chunk being filled *)
  mutable lens : int array;
  mutable k : int; (* runs in [firsts]/[lens] *)
}

let grow c =
  if c.k > 0 then c.full <- (c.firsts, c.lens) :: c.full;
  let size = Int.max 512 (2 * c.k) in
  c.firsts <- Array.make size Time.zero;
  c.lens <- Array.make size 0;
  c.k <- 0

(* A completion that does not extend the open run: file the open run
   and start the next at [now]. *)
let open_run c now =
  if c.len > 0 then begin
    if c.k >= Array.length c.firsts then grow c;
    c.firsts.(c.k) <- c.first;
    c.lens.(c.k) <- c.len;
    c.k <- c.k + 1;
    c.filed <- c.filed + c.len
  end;
  c.first <- now;
  c.len <- 1

(* Each call after the first marks the completion of a loop. *)
let next c ~now =
  if c.started then begin
    if now = c.first + (c.len * c.cost) then c.len <- c.len + 1
    else open_run c now
  end
  else c.started <- true;
  c.compute

let make ~loop_cost () =
  if loop_cost <= 0 then invalid_arg "Dhrystone.make: loop_cost <= 0";
  let c =
    {
      cost = loop_cost;
      compute = Hsfq_kernel.Workload_intf.Compute loop_cost;
      started = false;
      first = Time.zero;
      len = 0;
      filed = 0;
      full = [];
      firsts = [||];
      lens = [||];
      k = 0;
    }
  in
  ((fun ~now -> next c ~now), c)

let loops c = c.filed + c.len

(* [f first len] on every run, oldest first: loops in time order. *)
let each_run c f =
  let chunk firsts lens n =
    for j = 0 to n - 1 do
      f firsts.(j) lens.(j)
    done
  in
  List.iter
    (fun (firsts, lens) -> chunk firsts lens (Array.length firsts))
    (List.rev c.full);
  chunk c.firsts c.lens c.k;
  f c.first c.len

let series c =
  let s = Series.create () in
  each_run c (fun first len ->
      for i = 0 to len - 1 do
        Series.add s (first + (i * c.cost)) 1.0
      done);
  s

(* A run covers the windows it spans by arithmetic: from loop [i] of
   the run [first, len], the loops completing before the end of [i]'s
   window go into it at once. Integer counts sum exactly as floats, so
   the sums equal those of [Series.bucket_sum] over {!series}, bit for
   bit. Top-level, so a run costs no closure. *)
let rec fill_windows out ~width ~nb ~cost first len i =
  if i < len then begin
    let at = first + (i * cost) in
    let b = at / width in
    if b < nb then begin
      let n = Int.min (len - i) ((((b + 1) * width) - at + cost - 1) / cost) in
      out.(b) <- out.(b) +. float_of_int n;
      fill_windows out ~width ~nb ~cost first len (i + n)
    end
  end

let bucket_loops c ~width ~until =
  if width <= 0 then invalid_arg "Dhrystone.bucket_loops: width <= 0";
  let nb = (until + width - 1) / width in
  let out = Array.make (Int.max nb 0) 0. in
  each_run c (fun first len -> fill_windows out ~width ~nb ~cost:c.cost first len 0);
  out
