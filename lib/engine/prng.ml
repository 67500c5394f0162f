type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let next_int64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

let create seed =
  let t = { state = Int64.of_int seed } in
  (* A warm-up draw decorrelates small consecutive seeds. *)
  ignore (next_int64 t);
  t

let split t =
  let s = next_int64 t in
  { state = mix s }

(* Weyl-sequence offset per stream index, then the usual finalizer:
   stream 0, 1, 2, ... are decorrelated from each other and from the
   parent's own output sequence, and the parent is left untouched, so a
   consumer can re-derive any stream at any time. *)
let stream t i =
  if i < 0 then invalid_arg "Prng.stream: negative stream index";
  let s = Int64.add t.state (Int64.mul golden (Int64.of_int (i + 1))) in
  { state = mix (Int64.logxor s 0x5851F42D4C957F2DL) }

let copy t = { state = t.state }

(* Monolithic for the same reason as [unit_float] below: with the state
   step and finalizer inlined, no intermediate [int64] is boxed, and the
   result is an immediate. Same output sequence as drawing [next_int64]. *)
let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let s = Int64.add t.state golden in
  t.state <- s;
  let z = Int64.(mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  let z = Int64.(logxor z (shift_right_logical z 31)) in
  (* Keep 62 bits so the value fits OCaml's native int (63-bit, signed). *)
  Int64.to_int (Int64.shift_right_logical z 2) mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

(* 53 random mantissa bits, uniform in [0, 1).

   Monolithic on purpose: with [next_int64] called out of line, its
   boxed [int64] return plus the extra [float] wrapper cost ~5 minor
   words per draw; with the state step and finalizer inlined here, the
   intermediates stay unboxed and a draw's only allocations are the
   state store and the [float] result. Same output sequence.  Inlined
   (release profile), so a caller doing float arithmetic on the draw
   never boxes the result. *)
let[@inline] unit_float t =
  let s = Int64.add t.state golden in
  t.state <- s;
  let z = Int64.(mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  let z = Int64.(logxor z (shift_right_logical z 31)) in
  let bits = Int64.to_int (Int64.shift_right_logical z 11) in
  float_of_int bits *. (1.0 /. 9007199254740992.0)

let float t bound = unit_float t *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let bernoulli t p = unit_float t < p

let[@inline] exponential t ~mean =
  if not (mean > 0.0) then invalid_arg "Prng.exponential: mean must be positive";
  let u = 1.0 -. unit_float t in
  -.mean *. log u

let gaussian t ~mu ~sigma =
  let u1 = 1.0 -. unit_float t and u2 = unit_float t in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mu +. (sigma *. z)

let pareto t ~shape ~scale =
  if not (shape > 0.0 && scale > 0.0) then
    invalid_arg "Prng.pareto: shape and scale must be positive";
  let u = 1.0 -. unit_float t in
  scale *. (u ** (-1.0 /. shape))

let choice t a =
  if Array.length a = 0 then invalid_arg "Prng.choice: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
