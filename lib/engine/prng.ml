(* The 64-bit SplitMix state lives unboxed in 8 bytes: a draw reads it,
   steps it and writes it back as a raw int64, so it allocates nothing
   and stores no pointer (a [mutable state : int64] field would box a
   fresh int64 per draw and store it through the write barrier). *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let[@inline] state t = Bytes.get_int64_ne t 0
let[@inline] set_state t s = Bytes.set_int64_ne t 0 s

let of_state s =
  let t = Bytes.create 8 in
  set_state t s;
  t

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* Step the state and return the 64-bit output. Inlined into each draw,
   so the intermediates stay unboxed. *)
let[@inline] next t =
  let s = Int64.add (state t) golden in
  set_state t s;
  mix s

(* The first step is a warm-up draw that decorrelates small consecutive
   seeds; its output is discarded. *)
let create seed = of_state (Int64.add (Int64.of_int seed) golden)

(* Weyl-sequence offset per stream index, then the usual finalizer:
   stream 0, 1, 2, ... are decorrelated from each other and from the
   parent's own output sequence, and the parent is left untouched, so a
   consumer can re-derive any stream at any time. *)
let stream t i =
  if i < 0 then invalid_arg "Prng.stream: negative stream index";
  let s = Int64.add (state t) (Int64.mul golden (Int64.of_int (i + 1))) in
  of_state (mix (Int64.logxor s 0x5851F42D4C957F2DL))

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Keep 62 bits so the value fits OCaml's native int (63-bit, signed). *)
  Int64.to_int (Int64.shift_right_logical (next t) 2) mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

(* 53 random mantissa bits, uniform in [0, 1). Inlined (release
   profile), so a caller doing float arithmetic on the draw never boxes
   the result. *)
let[@inline] unit_float t =
  let bits = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int bits *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (next t) 1L = 1L

let bernoulli t p = unit_float t < p

let[@inline] exponential t ~mean =
  if not (mean > 0.0) then invalid_arg "Prng.exponential: mean must be positive";
  let u = 1.0 -. unit_float t in
  -.mean *. log u

let gaussian t ~mu ~sigma =
  let u1 = 1.0 -. unit_float t and u2 = unit_float t in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mu +. (sigma *. z)
