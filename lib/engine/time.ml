type t = int
type span = int

let zero = 0

let nanoseconds n = n
let microseconds n = n * 1_000
let milliseconds n = n * 1_000_000
let seconds n = n * 1_000_000_000
let minutes n = n * 60_000_000_000

let of_seconds_float s = int_of_float (Float.round (s *. 1e9))
let to_seconds_float t = float_of_int t /. 1e9
let to_milliseconds_float t = float_of_int t /. 1e6

let add t d = t + d
let saturating_add t d = if d > max_int - t then max_int else t + d
let diff later earlier = later - earlier
let scale d f = int_of_float (Float.round (float_of_int d *. f))

let min = Int.min
let max = Int.max
let compare = Int.compare

let pp ppf t =
  let a = abs t in
  if a < 1_000 then Format.fprintf ppf "%dns" t
  else if a < 1_000_000 then Format.fprintf ppf "%.3gus" (float_of_int t /. 1e3)
  else if a < 1_000_000_000 then
    Format.fprintf ppf "%.4gms" (float_of_int t /. 1e6)
  else Format.fprintf ppf "%.6gs" (float_of_int t /. 1e9)

let to_string t = Format.asprintf "%a" pp t
