(* Shared traced-run path: the CLI [trace] subcommand, the golden-trace
   tests and the documentation examples all produce their dumps through
   these helpers, so their bytes agree by construction. *)

let default_capacity = 65536

let capture ?(capacity = default_capacity) f =
  let tr = Hsfq_obs.Trace.create ~capacity ~enabled:true () in
  let v = Common.with_obs tr f in
  (v, tr)

let traced_compute ?capacity id =
  match Registry.find id with
  | None -> None
  | Some e ->
    let computed, tr = capture ?capacity (fun () -> e.Registry.compute ()) in
    Some (computed, tr)

let text ?capacity id =
  match traced_compute ?capacity id with
  | None -> None
  | Some (_, tr) -> Some (Hsfq_obs.Text_dump.dump tr)
