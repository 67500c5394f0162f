type t = {
  name : string;
  mutable ts : Time.t array;
  mutable vs : float array;
  mutable n : int;
}

let create ?(name = "") () = { name; ts = [||]; vs = [||]; n = 0 }

let name t = t.name

let grow t =
  let cap = Array.length t.ts in
  let ncap = if cap = 0 then 64 else cap * 2 in
  let nts = Array.make ncap Time.zero and nvs = Array.make ncap 0. in
  Array.blit t.ts 0 nts 0 t.n;
  Array.blit t.vs 0 nvs 0 t.n;
  t.ts <- nts;
  t.vs <- nvs

(* Inlined (in the release profile) so a caller's [float_of_int x] goes
   straight into [vs] unboxed; the growth path stays out of line. *)
let[@inline] add t time v =
  if t.n >= Array.length t.ts then grow t;
  t.ts.(t.n) <- time;
  t.vs.(t.n) <- v;
  t.n <- t.n + 1

let length t = t.n
let times t = Array.sub t.ts 0 t.n
let values t = Array.sub t.vs 0 t.n
let last t = if t.n = 0 then None else Some (t.ts.(t.n - 1), t.vs.(t.n - 1))

let bucket_sum t ~width ~until =
  if width <= 0 then invalid_arg "Series.bucket_sum: width <= 0";
  let nb = (until + width - 1) / width in
  let out = Array.make (Int.max nb 0) 0. in
  for i = 0 to t.n - 1 do
    let b = t.ts.(i) / width in
    if b >= 0 && b < nb then out.(b) <- out.(b) +. t.vs.(i)
  done;
  out

let bucket_mean t ~width ~until =
  if width <= 0 then invalid_arg "Series.bucket_mean: width <= 0";
  let nb = (until + width - 1) / width in
  let sums = Array.make (Int.max nb 0) 0. in
  let counts = Array.make (Int.max nb 0) 0 in
  for i = 0 to t.n - 1 do
    let b = t.ts.(i) / width in
    if b >= 0 && b < nb then begin
      sums.(b) <- sums.(b) +. t.vs.(i);
      counts.(b) <- counts.(b) + 1
    end
  done;
  Array.mapi (fun i s -> if counts.(i) = 0 then 0. else s /. float_of_int counts.(i)) sums

let cumulative t =
  let out = Array.make t.n 0. in
  let acc = ref 0. in
  for i = 0 to t.n - 1 do
    acc := !acc +. t.vs.(i);
    out.(i) <- !acc
  done;
  out

let value_at t time =
  let acc = ref 0. in
  (try
     for i = 0 to t.n - 1 do
       if Time.compare t.ts.(i) time > 0 then raise Exit;
       acc := !acc +. t.vs.(i)
     done
   with Exit -> ());
  !acc
