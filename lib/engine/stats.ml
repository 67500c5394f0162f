(* All fields are floats, so the record is stored flat and [add] writes
   them unboxed; [n] holds an exact integer count. *)
type t = {
  mutable n : float;
  mutable mean : float;
  mutable m2 : float;
  mutable min_v : float;
  mutable max_v : float;
  mutable total : float;
}

let create () =
  { n = 0.; mean = 0.; m2 = 0.; min_v = infinity; max_v = neg_infinity; total = 0. }

(* Inlined in the release profile, where the caller's float argument
   then reaches the flat record without a box. *)
let[@inline] add t x =
  t.n <- t.n +. 1.;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x;
  t.total <- t.total +. x

let count t = int_of_float t.n
let mean t = if t.n = 0. then 0. else t.mean
let variance t = if t.n < 2. then 0. else t.m2 /. (t.n -. 1.)
let stddev t = sqrt (variance t)
let min_value t = t.min_v
let max_value t = t.max_v
let total t = t.total

let cv t =
  let m = mean t in
  if m = 0. then 0. else stddev t /. m

let merge a b =
  if a.n = 0. then { b with n = b.n }
  else if b.n = 0. then { a with n = a.n }
  else begin
    let n = a.n +. b.n in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. b.n /. n) in
    let m2 = a.m2 +. b.m2 +. (delta *. delta *. a.n *. b.n /. n) in
    {
      n;
      mean;
      m2;
      min_v = Float.min a.min_v b.min_v;
      max_v = Float.max a.max_v b.max_v;
      total = a.total +. b.total;
    }
  end

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
  end

let jain_index xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.jain_index: empty";
  let s = Array.fold_left ( +. ) 0. xs in
  let s2 = Array.fold_left (fun acc x -> acc +. (x *. x)) 0. xs in
  if s2 = 0. then 1. else s *. s /. (float_of_int n *. s2)

let mean_of xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

let cv_of xs =
  let t = create () in
  Array.iter (add t) xs;
  cv t
