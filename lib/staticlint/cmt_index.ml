(* Loading dune's .cmt artifacts into an index the typed passes share.

   dune emits one .cmt per module under _build/default (the @check
   alias builds them for executables too); [load ~roots] walks those
   trees, reads every implementation .cmt and keeps, per compilation
   unit: its module name (e.g. "Hsfq_core__Sfq"), the repo-relative
   source path recorded at compile time, the flat import list (the
   basis for the domain-reachability graph), the typedtree itself and,
   when the unit has an .mli, the typed signature from its .cmti. *)

type unit_info = {
  modname : string;
  source : string; (* repo-relative .ml path, "" if unrecorded *)
  imports : string list; (* unit names this module was compiled against *)
  structure : Typedtree.structure;
  interface : (string * Typedtree.signature) option;
}

type t = {
  units : (string, unit_info) Hashtbl.t; (* keyed by modname *)
  mutable order : string list; (* load order, for deterministic walks *)
}

let create () = { units = Hashtbl.create 64; order = [] }

let add_unit t u =
  (* Dune builds some units several times (byte/native, per-executable
     copies of shared test modules); the typedtrees are identical for
     our purposes, so first-loaded wins. *)
  if not (Hashtbl.mem t.units u.modname) then begin
    Hashtbl.replace t.units u.modname u;
    t.order <- u.modname :: t.order
  end

let sourcefile (cmt : Cmt_format.cmt_infos) =
  Option.value cmt.cmt_sourcefile ~default:""

(* The sibling .cmti of an implementation .cmt, if dune emitted one. *)
let interface_of path =
  match Cmt_format.read_cmt (Filename.remove_extension path ^ ".cmti") with
  | { cmt_annots = Interface sg; _ } as cmti -> Some (sourcefile cmti, sg)
  | _ -> None
  | exception _ -> None

let of_cmt_infos ~path (cmt : Cmt_format.cmt_infos) =
  match cmt.cmt_annots with
  | Implementation structure ->
    Some
      {
        modname = cmt.cmt_modname;
        source = sourcefile cmt;
        imports = List.map fst cmt.cmt_imports;
        structure;
        interface = interface_of path;
      }
  | _ -> None

let load_file t path =
  match Cmt_format.read_cmt path with
  | cmt -> (
    match of_cmt_infos ~path cmt with
    | Some u ->
      add_unit t u;
      true
    | None -> false)
  | exception _ ->
    (* interface-only .cmt variants, version skew, truncated files:
       skip rather than abort the whole run *)
    false

let has_suffix s suf =
  let ls = String.length s and lf = String.length suf in
  ls >= lf && String.equal (String.sub s (ls - lf) lf) suf

let rec walk t dir =
  match Sys.readdir dir with
  | entries ->
    Array.sort String.compare entries;
    Array.iter
      (fun name ->
        if not (String.equal name ".git") then begin
          let path = Filename.concat dir name in
          if Sys.is_directory path then walk t path
          else if has_suffix name ".cmt" then ignore (load_file t path)
        end)
      entries
  | exception Sys_error _ -> ()

let load ~roots =
  let t = create () in
  List.iter (walk t) roots;
  t.order <- List.rev t.order;
  t

let of_units units =
  let t = create () in
  List.iter (add_unit t) units;
  t.order <- List.rev t.order;
  t

let mem t modname = Hashtbl.mem t.units modname

let iter t ~f =
  List.iter
    (fun m ->
      match Hashtbl.find_opt t.units m with
      | Some u -> f u
      | None -> ())
    t.order

let fold t ~init ~f =
  List.fold_left
    (fun acc m ->
      match Hashtbl.find_opt t.units m with
      | Some u -> f acc u
      | None -> acc)
    init t.order

let size t = List.length t.order
