(* Pass 2 support: which compilation units can run on sweep workers?

   [Par.sweep] executes caller-supplied closures on worker domains, so
   any unit that imports Hsfq_par is a potential worker entrypoint, and
   everything *it* transitively imports can execute there too.  The
   import lists come straight from the .cmt headers; the closure is
   restricted to loaded (project) units — stdlib imports have no cmt in
   our tree and carry no project globals. *)

let imports_par (u : Cmt_index.unit_info) =
  let is_par name =
    String.equal name "Hsfq_par"
    ||
    let lp = String.length "Hsfq_par__" in
    String.length name >= lp
    && String.equal (String.sub name 0 lp) "Hsfq_par__"
  in
  is_par u.modname || List.exists is_par u.imports

(* Generic BFS closure over an explicit adjacency list; nodes absent
   from [nodes] terminate the walk (they are leaves).  Exposed plainly
   so the test suite can drive it with hand-built graphs. *)
let closure ~nodes ~seeds =
  let adj = Hashtbl.create 64 in
  List.iter (fun (n, deps) -> Hashtbl.replace adj n deps) nodes;
  let seen = Hashtbl.create 64 in
  let rec visit n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.replace seen n ();
      match Hashtbl.find_opt adj n with
      | Some deps -> List.iter visit deps
      | None -> ()
    end
  in
  List.iter visit seeds;
  seen

let worker_seeds index =
  Cmt_index.fold index ~init:[] ~f:(fun acc u ->
      if imports_par u then u.modname :: acc else acc)
  |> List.rev

let from_workers index =
  let nodes =
    Cmt_index.fold index ~init:[] ~f:(fun acc u ->
        (u.modname, List.filter (Cmt_index.mem index) u.imports) :: acc)
  in
  closure ~nodes ~seeds:(worker_seeds index)
