(* The suppression list of hsfq_tlint.

   Format: one entry per line, [<rule> <path> <justification...>]; '#'
   starts a comment line, blank lines are skipped.  The justification is
   mandatory — an unexplained suppression is worse than the finding.

   Two whitelist pathologies are hard errors at load time:
   - malformed lines (fewer than three fields);
   - duplicate (rule, path) keys — [Hashtbl.replace] used to shadow the
     earlier entry silently, so a stale justification could linger
     forever behind a newer copy-paste. *)

type entry = {
  lineno : int;
  justification : string;
  mutable used : bool;
}

type t = {
  path : string; (* "" for the empty whitelist *)
  entries : (string * string, entry) Hashtbl.t;
}

let empty = { path = ""; entries = Hashtbl.create 1 }

let load_string ~path src =
  let entries = Hashtbl.create 16 in
  let errors = ref [] in
  let err lineno fmt =
    Printf.ksprintf
      (fun s -> errors := Printf.sprintf "%s:%d: %s" path lineno s :: !errors)
      fmt
  in
  List.iteri
    (fun i raw ->
      let lineno = i + 1 in
      let l = String.trim raw in
      if not (String.equal l "" || Char.equal l.[0] '#') then
        match
          String.split_on_char ' ' l
          |> List.filter (fun s -> not (String.equal s ""))
        with
        | rule :: file :: (_ :: _ as justification) -> (
          let key = (rule, file) in
          match Hashtbl.find_opt entries key with
          | Some prev ->
            err lineno
              "duplicate whitelist entry (%s %s), first seen on line %d — \
               merge the justifications into one line"
              rule file prev.lineno
          | None ->
            Hashtbl.replace entries key
              {
                lineno;
                justification = String.concat " " justification;
                used = false;
              })
        | _ ->
          err lineno
            "malformed whitelist line (want: <rule> <path> <justification...>)")
    (String.split_on_char '\n' src);
  match List.rev !errors with
  | [] -> Ok { path; entries }
  | es -> Error (String.concat "\n" es)

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | src -> load_string ~path src
  | exception Sys_error e -> Error e

let justification t ~rule ~path =
  Option.map
    (fun e -> e.justification)
    (Hashtbl.find_opt t.entries (rule, path))

type outcome = {
  live : Finding.t list;
  suppressed : int;
  stale : (int * string * string) list;
}

let apply t findings =
  let live, suppressed =
    List.partition
      (fun (f : Finding.t) ->
        match Hashtbl.find_opt t.entries (f.rule, f.file) with
        | Some e ->
          e.used <- true;
          false
        | None -> true)
      findings
  in
  let stale =
    Hashtbl.fold
      (fun (rule, file) e acc ->
        if e.used then acc else (e.lineno, rule, file) :: acc)
      t.entries []
    |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
  in
  { live = Finding.sort live; suppressed = List.length suppressed; stale }

let report ~tool ~allow_stale ~scanned t findings =
  let { live; suppressed; stale } = apply t findings in
  List.iter (fun f -> print_endline (Finding.to_string f)) live;
  List.iter
    (fun (lineno, rule, file) ->
      Printf.eprintf "%s: %s:%d: stale whitelist entry (%s %s) matched nothing\n"
        tool t.path lineno rule file)
    stale;
  let stale_fails = stale <> [] && not allow_stale in
  if stale_fails then
    Printf.eprintf
      "%s: %d stale whitelist entr%s — delete %s (or rerun with \
       --allow-stale during a refactor)\n"
      tool (List.length stale)
      (if List.length stale = 1 then "y" else "ies")
      (if List.length stale = 1 then "it" else "them");
  Printf.printf "%s: %s, %d finding(s), %d suppressed\n" tool scanned
    (List.length live) suppressed;
  if live <> [] || stale_fails then 1 else 0
