(* Samples live in chunks of doubling size (64, 128, ...) that are never
   copied: growth files the full chunk and allocates the next, so a
   series allocates its capacity once, growth leaves no garbage, and no
   sample is stored twice. *)
type t = {
  mutable full : (Time.t array * float array) list;
      (* filled chunks, newest first *)
  mutable filed : int; (* samples in [full] *)
  mutable ts : Time.t array; (* the chunk being filled *)
  mutable vs : float array;
  mutable k : int; (* samples in [ts]/[vs] *)
}

let create () = { full = []; filed = 0; ts = [||]; vs = [||]; k = 0 }

let grow t =
  if t.k > 0 then begin
    t.full <- (t.ts, t.vs) :: t.full;
    t.filed <- t.filed + t.k
  end;
  let size = Int.max 64 (2 * t.k) in
  t.ts <- Array.make size Time.zero;
  t.vs <- Array.create_float size;
  t.k <- 0

(* Inlined (in the release profile) so a caller's [float_of_int x] goes
   straight into [vs] unboxed; the growth path stays out of line. *)
let[@inline] add t time v =
  if t.k >= Array.length t.ts then grow t;
  t.ts.(t.k) <- time;
  t.vs.(t.k) <- v;
  t.k <- t.k + 1

(* [f ts vs n] on every chunk, oldest first: samples in time order. *)
let rec each_filed f = function
  | [] -> ()
  | (ts, vs) :: older ->
    each_filed f older;
    f ts vs (Array.length ts)

let each_chunk t f =
  each_filed f t.full;
  f t.ts t.vs t.k

(* The typed loop stores ints plainly; a polymorphic [Array.blit] into a
   major-heap [int array] would run the write barrier per element. *)
let times t =
  let out = Array.make (t.filed + t.k) Time.zero and pos = ref 0 in
  each_chunk t (fun ts _ n ->
      for i = 0 to n - 1 do
        out.(!pos + i) <- ts.(i)
      done;
      pos := !pos + n);
  out

let values t =
  let out = Array.create_float (t.filed + t.k) and pos = ref 0 in
  each_chunk t (fun _ vs n ->
      Array.blit vs 0 out !pos n;
      pos := !pos + n);
  out

let bucket_sum t ~width ~until =
  if width <= 0 then invalid_arg "Series.bucket_sum: width <= 0";
  let nb = (until + width - 1) / width in
  let out = Array.make (Int.max nb 0) 0. in
  each_chunk t (fun ts vs n ->
      for i = 0 to n - 1 do
        let b = ts.(i) / width in
        if b >= 0 && b < nb then out.(b) <- out.(b) +. vs.(i)
      done);
  out

let value_at t time =
  let acc = ref 0. in
  (try
     each_chunk t (fun ts vs n ->
         for i = 0 to n - 1 do
           if Time.compare ts.(i) time > 0 then raise Exit;
           acc := !acc +. vs.(i)
         done)
   with Exit -> ());
  !acc
