(* tl-dead-export: exported values of lib/ units that no other unit
   references.

   The exports are the [val]s of the unit's .cmti, or of its inferred
   signature when it has no .mli. The references are every value
   identifier in every loaded typedtree (lib/, bin/, bench/,
   perfbench/, examples/, test/), qualified by the unit it sits in and
   resolved through module aliases — dune's wrappers ([Hsfq_core.Sfq] is
   [Hsfq_core__Sfq]), the umbrella ([Hsfq.Sfq]) and local [module M =
   ...] — so every spelling of a value lands on one key. A module used
   whole (a functor argument, a packed first-class module, an
   [include]) uses all of its exports. A reference from a unit's own
   code does not count: the export is needed only if another unit asks
   for it.

   An export nobody else references is a finding. One referenced only
   from test/ is reported in a separate list and does not fail. *)

type export = { unit_name : string; name : string; file : string; line : int }

let exports (u : Cmt_index.unit_info) =
  let mk name file (loc : Location.t) =
    { unit_name = u.modname; name; file; line = loc.loc_start.pos_lnum }
  in
  match u.interface with
  | Some (mli, sg) ->
    List.filter_map
      (fun (item : Typedtree.signature_item) ->
        match item.sig_desc with
        | Tsig_value vd -> Some (mk (Ident.name vd.val_id) mli vd.val_loc)
        | _ -> None)
      sg.sig_items
  | None ->
    List.filter_map
      (function
        | Types.Sig_value (id, vd, _) ->
          Some (mk (Ident.name id) u.source vd.val_loc)
        | _ -> None)
      u.structure.str_type

let rec alias_target (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_constraint (inner, _, _, _) -> alias_target inner
  | Tmod_ident (p, _) -> Some p
  | _ -> None

let is_alias me = Option.is_some (alias_target me)

(* Uses, keyed by resolved name ("Hsfq_core__Sfq.select_id", or a bare
   unit name for a whole-module use); [true] once a non-test unit uses
   it. *)
let uses index =
  let env = Mutability.build_env index in
  let used = Hashtbl.create 1024 in
  Cmt_index.iter index ~f:(fun u ->
      let from_test = String.starts_with ~prefix:"test/" u.source in
      (* [let module M = P in ...]: M's unique name -> P, qualified *)
      let local_aliases = Hashtbl.create 8 in
      let rec qualify p =
        let head = Path.head p in
        let name = Path.name p in
        if Ident.persistent head then name
        else
          match Hashtbl.find_opt local_aliases (Ident.unique_name head) with
          | Some target ->
            let hl = String.length (Ident.name head) in
            target ^ String.sub name hl (String.length name - hl)
          | None -> u.modname ^ "." ^ name
      and note p =
        let key = Mutability.resolve env (qualify p) in
        let owner =
          match String.index_opt key '.' with
          | Some i -> String.sub key 0 i
          | None -> key
        in
        if not (String.equal owner u.modname) then
          let before =
            Option.value (Hashtbl.find_opt used key) ~default:false
          in
          Hashtbl.replace used key (before || not from_test)
      in
      let expr (sub : Tast_iterator.iterator) (e : Typedtree.expression) =
        match e.exp_desc with
        | Texp_letmodule (Some id, _, _, me, body) when is_alias me ->
          Option.iter
            (fun p ->
              Hashtbl.replace local_aliases (Ident.unique_name id) (qualify p))
            (alias_target me);
          sub.expr sub body
        | Texp_ident (p, _, _) ->
          note p;
          Tast_iterator.default_iterator.expr sub e
        | _ -> Tast_iterator.default_iterator.expr sub e
      in
      let module_expr sub (me : Typedtree.module_expr) =
        (match me.mod_desc with
        | Tmod_ident (p, _) -> note p
        | _ -> ());
        Tast_iterator.default_iterator.module_expr sub me
      in
      (* An alias binding or an [open] names a module without using its
         values; the uses through it resolve to the target. *)
      let module_binding sub (mb : Typedtree.module_binding) =
        if not (is_alias mb.mb_expr) then
          Tast_iterator.default_iterator.module_binding sub mb
      in
      let open_declaration sub (od : Typedtree.open_declaration) =
        if not (is_alias od.open_expr) then
          Tast_iterator.default_iterator.open_declaration sub od
      in
      let iter =
        {
          Tast_iterator.default_iterator with
          expr;
          module_expr;
          module_binding;
          open_declaration;
        }
      in
      iter.structure iter u.structure);
  used

let scan index =
  let used = uses index in
  let dead, test_only =
    Cmt_index.fold index ~init:([], []) ~f:(fun acc u ->
        if
          String.starts_with ~prefix:"lib/" u.source
          && String.ends_with ~suffix:".ml" u.source
        then
          List.fold_left
            (fun (dead, test_only) e ->
              let key = e.unit_name ^ "." ^ e.name in
              match
                (Hashtbl.find_opt used key, Hashtbl.find_opt used e.unit_name)
              with
              | Some true, _ | _, Some true -> (dead, test_only)
              | Some false, _ | _, Some false -> (dead, e :: test_only)
              | None, None -> (e :: dead, test_only))
            acc (exports u)
        else acc)
  in
  let findings =
    List.map
      (fun e ->
        Finding.make ~rule:"tl-dead-export" ~file:e.file ~line:e.line
          ~msg:
            (Printf.sprintf
               "[%s] is exported but no other unit references it; drop the \
                val (and the definition, if its own unit does not use it)"
               e.name))
      dead
  in
  let by_location a b =
    match String.compare a.file b.file with
    | 0 -> Int.compare a.line b.line
    | c -> c
  in
  (Finding.sort findings, List.sort by_location test_only)
