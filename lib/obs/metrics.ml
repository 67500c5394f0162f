(* Per-node metric counters, dense by node id (grow-by-doubling).

   Updated from the scheduler hot path only while tracing is enabled,
   so the accumulators are plain array cells: no lists, no closures, no
   formatting here (the report lives in Text_dump).  The GPS-lag
   diagnostic follows the paper's fairness bound: a continuously
   backlogged node's normalized service [sum(service/effective_weight)]
   — the sum of its exact integer tag increments ({!Hsfq_sched.Vtime})
   should track the advance of its scheduler's virtual time, so
   [vt_lag = norm_service - (vt_last - vt_first)] stays within the
   per-quantum bound of eq. 3. *)

module Histogram = Hsfq_engine.Histogram

(* Wait-time histogram range: 0 .. 100 ms in ns, 20 bins (overflow
   bucket catches pathological waits). *)
let wait_lo = 0.
let wait_hi = 1e8
let wait_bins = 20

type t = {
  mutable len : int; (* highest touched node id + 1 *)
  mutable activev : bool array;
  mutable servicev : int array;
  mutable normv : int array;
  mutable quantav : int array;
  mutable preemptv : int array;
  mutable vt_seenv : bool array;
  mutable vt_firstv : int array;
  mutable vt_lastv : int array;
  mutable waitv : Histogram.t option array;
}

let create () =
  {
    len = 0;
    activev = [||];
    servicev = [||];
    normv = [||];
    quantav = [||];
    preemptv = [||];
    vt_seenv = [||];
    vt_firstv = [||];
    vt_lastv = [||];
    waitv = [||];
  }

(* Double [a] until it holds index [n]; existing cells keep their
   values, new cells get [fill]. *)
let grow a n fill =
  let old = Array.length a in
  if n < old then a
  else begin
    let cap = ref (if old < 16 then 16 else old) in
    while !cap <= n do
      cap := !cap * 2
    done;
    let b = Array.make !cap fill in
    Array.blit a 0 b 0 old;
    b
  end

let ensure t node =
  if node < 0 then invalid_arg "Metrics: negative node id";
  if node >= Array.length t.activev then begin
    t.activev <- grow t.activev node false;
    t.servicev <- grow t.servicev node 0;
    t.normv <- grow t.normv node 0;
    t.quantav <- grow t.quantav node 0;
    t.preemptv <- grow t.preemptv node 0;
    t.vt_seenv <- grow t.vt_seenv node false;
    t.vt_firstv <- grow t.vt_firstv node 0;
    t.vt_lastv <- grow t.vt_lastv node 0;
    t.waitv <- grow t.waitv node None
  end;
  if node + 1 > t.len then t.len <- node + 1

let charge_sample t ~node ~service ~norm ~vt =
  ensure t node;
  t.activev.(node) <- true;
  t.servicev.(node) <- t.servicev.(node) + service;
  t.normv.(node) <- t.normv.(node) + norm;
  t.quantav.(node) <- t.quantav.(node) + 1;
  if t.vt_seenv.(node) then t.vt_lastv.(node) <- vt
  else begin
    t.vt_seenv.(node) <- true;
    t.vt_firstv.(node) <- vt;
    t.vt_lastv.(node) <- vt
  end

let incr_preempt t ~node =
  ensure t node;
  t.activev.(node) <- true;
  t.preemptv.(node) <- t.preemptv.(node) + 1

let wait_sample t ~node wait =
  let wait = float_of_int wait in
  ensure t node;
  t.activev.(node) <- true;
  (match t.waitv.(node) with
  | Some h -> Histogram.add h wait
  | None ->
    let h = Histogram.create ~lo:wait_lo ~hi:wait_hi ~bins:wait_bins in
    t.waitv.(node) <- Some h;
    Histogram.add h wait)

let node_count t = t.len
let active t ~node = node < t.len && t.activev.(node)
let service t ~node = if node < t.len then t.servicev.(node) else 0
let norm_service t ~node = if node < t.len then t.normv.(node) else 0
let quanta t ~node = if node < t.len then t.quantav.(node) else 0
let preemptions t ~node = if node < t.len then t.preemptv.(node) else 0

let vt_lag t ~node =
  (* Meaningless before virtual time has advanced over >= 2 samples. *)
  if node < t.len && t.vt_seenv.(node) && t.quantav.(node) >= 2 then
    t.normv.(node) - (t.vt_lastv.(node) - t.vt_firstv.(node))
  else 0

let wait_histogram t ~node = if node < t.len then t.waitv.(node) else None
