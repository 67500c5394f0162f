(* Thread behaviour, as seen by the simulated kernel: see the .mli. *)

open Hsfq_engine

type action =
  | Compute of Time.span
  | Sleep_for of Time.span
  | Sleep_until of Time.t
  | Lock of int
  | Unlock of int
  | Io of int * int
  | Exit

type t = now:Time.t -> action

let forever_compute span : t = fun ~now:_ -> Compute span

let of_list actions : t =
  let remaining = ref actions in
  fun ~now:_ ->
    match !remaining with
    | [] -> Exit
    | a :: rest ->
      remaining := rest;
      a
