let unit = 1_000_000

(* Largest service whose scaled value fits: service·unit <= max_int. *)
let max_service = max_int / unit

let weight_of_float w =
  if Float.is_nan w || w <= 0. || w > 1e9 then
    invalid_arg "Vtime.weight_of_float: weight must be in (0, 1e9]";
  let units = Float.to_int (Float.round (w *. 1e6)) in
  if units < 1 then invalid_arg "Vtime.weight_of_float: weight rounds to 0 units";
  units

let to_float units = float_of_int units /. 1e6

let[@inline] scaled ~service ~rem =
  if service > max_service || service * unit > max_int - rem then
    invalid_arg "Vtime.step: service * unit overflows";
  (service * unit) + rem

let[@inline] step ~service ~weight ~rem = scaled ~service ~rem / weight

let[@inline] carry ~service ~weight ~rem ~step =
  (service * unit) + rem - (step * weight)

let[@inline] add a b =
  if b > max_int - a then invalid_arg "Vtime.add: tag overflows max_int";
  a + b

type clock = { mutable v : int; mutable rem : int }

let clock () = { v = 0; rem = 0 }

let advance c ~service ~weight =
  if weight > 0 then begin
    let step = step ~service ~weight ~rem:c.rem in
    c.rem <- carry ~service ~weight ~rem:c.rem ~step;
    c.v <- add c.v step
  end
