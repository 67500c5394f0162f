type violation = {
  invariant : string;
  event : string;
  node : string;
  detail : string;
}

exception Violation of violation

type policy = Raise | Collect

type sink = {
  policy : policy;
  limit : int;
  mutable stored : violation list; (* newest first *)
  mutable nstored : int; (* List.length stored, kept so [report] is O(1) *)
  mutable count : int;
}

let create ?(policy = Collect) ?(limit = 1000) () =
  { policy; limit; stored = []; nstored = 0; count = 0 }

let violation_to_string v =
  Printf.sprintf "[%s] %s during %s: %s" v.invariant v.node v.event v.detail

let pp_violation ppf v =
  Format.fprintf ppf "invariant %S violated at %s during %s: %s" v.invariant
    v.node v.event v.detail

let report sink v =
  sink.count <- sink.count + 1;
  match sink.policy with
  | Raise -> raise (Violation v)
  | Collect ->
    if sink.nstored < sink.limit then begin
      sink.stored <- v :: sink.stored;
      sink.nstored <- sink.nstored + 1
    end

let fail sink ~invariant ~node ~event fmt =
  Printf.ksprintf
    (fun detail -> report sink { invariant; event; node; detail })
    fmt

let check sink ~invariant ~node ~event ok fmt =
  if ok then Printf.ikfprintf (fun () -> ()) () fmt
  else fail sink ~invariant ~node ~event fmt

let count sink = sink.count
let violations sink = List.rev sink.stored

let clear sink =
  sink.stored <- [];
  sink.nstored <- 0;
  sink.count <- 0

let summary sink =
  match (sink.count, List.rev sink.stored) with
  | 0, _ -> "0 invariant violations"
  | n, [] -> Printf.sprintf "%d invariant violations" n
  | n, first :: _ ->
    Printf.sprintf "%d invariant violations (first: %s)" n
      (violation_to_string first)
