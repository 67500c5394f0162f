(* Pass 1: the mutable-global inventory.

   Every module-top-level value binding in every loaded unit, classified
   by Mutability.classify.  Downstream, the domain-race pass flags the
   unguarded ones that worker domains can reach; the driver prints the
   inventory (or just its size) for humans. *)

type entry = {
  unit_name : string;
  source : string; (* repo-relative .ml, "" if unrecorded *)
  name : string; (* dotted within the unit: "M.state" for nested modules *)
  line : int;
  verdict : Mutability.verdict;
}

let rec pattern_vars acc (pat : Typedtree.pattern) =
  match pat.pat_desc with
  | Tpat_var (id, _) -> (Ident.name id, pat.pat_loc, pat.pat_type) :: acc
  | Tpat_alias (p, id, _) ->
    pattern_vars ((Ident.name id, pat.pat_loc, pat.pat_type) :: acc) p
  | Tpat_tuple ps -> List.fold_left pattern_vars acc ps
  | Tpat_construct (_, _, ps, _) -> List.fold_left pattern_vars acc ps
  | Tpat_record (fields, _) ->
    List.fold_left (fun acc (_, _, p) -> pattern_vars acc p) acc fields
  | Tpat_array ps -> List.fold_left pattern_vars acc ps
  | Tpat_lazy p -> pattern_vars acc p
  | Tpat_or (a, b, _) -> pattern_vars (pattern_vars acc a) b
  | _ -> acc

let rec scan_struct ~env ~(u : Cmt_index.unit_info) ~prefix acc
    (str : Typedtree.structure) =
  List.fold_left
    (fun acc (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        List.fold_left
          (fun acc (vb : Typedtree.value_binding) ->
            List.fold_left
              (fun acc (name, (loc : Location.t), ty) ->
                let verdict =
                  Mutability.classify ~env ~unit:u.modname ty
                in
                {
                  unit_name = u.modname;
                  source = u.source;
                  name = (if String.equal prefix "" then name
                          else prefix ^ "." ^ name);
                  line = loc.loc_start.pos_lnum;
                  verdict;
                }
                :: acc)
              acc
              (pattern_vars [] vb.vb_pat))
          acc vbs
      | Tstr_module mb -> scan_module ~env ~u ~prefix acc mb
      | Tstr_recmodule mbs ->
        List.fold_left (scan_module ~env ~u ~prefix) acc mbs
      | _ -> acc)
    acc str.str_items

and scan_module ~env ~u ~prefix acc (mb : Typedtree.module_binding) =
  match mb.mb_id with
  | None -> acc
  | Some id -> (
    let sub =
      if String.equal prefix "" then Ident.name id
      else prefix ^ "." ^ Ident.name id
    in
    let rec strip (me : Typedtree.module_expr) =
      match me.mod_desc with
      | Tmod_constraint (inner, _, _, _) -> strip inner
      | d -> d
    in
    match strip mb.mb_expr with
    | Tmod_structure s -> scan_struct ~env ~u ~prefix:sub acc s
    | _ -> acc)

let of_index ?env index =
  let env =
    match env with
    | Some e -> e
    | None -> Mutability.build_env index
  in
  Cmt_index.fold index ~init:[] ~f:(fun acc u ->
      scan_struct ~env ~u ~prefix:"" acc u.structure)
  |> List.sort (fun a b ->
         match String.compare a.source b.source with
         | 0 -> (
           match Int.compare a.line b.line with
           | 0 -> String.compare a.name b.name
           | c -> c)
         | c -> c)

let summary entries =
  let total = List.length entries in
  let count p =
    List.length
      (List.filter
         (fun e -> match e.verdict with
           | Mutability.Mutable q -> p q
           | Mutability.Immutable -> false)
         entries)
  in
  let unguarded = count (fun p -> p = Mutability.Unguarded) in
  let atomic = count (fun p -> p = Mutability.Atomic) in
  let dls = count (fun p -> p = Mutability.Domain_local) in
  let lock = count (fun p -> p = Mutability.Lock_bearing) in
  Printf.sprintf
    "%d top-level binding(s): %d mutable (%d unguarded, %d atomic, %d \
     domain-local, %d lock-bearing)"
    total
    (unguarded + atomic + dls + lock)
    unguarded atomic dls lock
