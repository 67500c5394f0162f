(* Source-hygiene rules over typedtrees, for lib/, bin/, examples/,
   test/ and bench/.

   tl-poly-compare / tl-stdlib-minmax — Stdlib [compare], [min] and
   [max] where the instantiated operand type is not immediate. On an
   int they compile to the integer primitive; on a float, a string or a
   record they are the slow polymorphic walk (and on floats they order
   nan by accident). Seeing the type is what lets [min a b] on ints
   through.

   tl-nan-compare — a Stdlib comparison operator with [nan] as an
   operand: always false (or always true for [<>]).

   tl-obj-magic — any [Obj.magic].

   tl-assert-validation — an [assert] on anything but [false]: asserts
   vanish under -noassert, so they can mark an unreachable branch but
   not validate input.

   tl-hashtbl-find-exn — a [Hashtbl.find] whose [Not_found] is not
   handled at the call. The find-on-hit idiom ([match Hashtbl.find .. with
   exception Not_found -> ..], or [try Hashtbl.find .. with Not_found
   -> ..]) allocates nothing on a hit, where [find_opt] boxes a [Some];
   a bare [find] lets [Not_found] escape to some distant handler.

   tl-missing-mli — a lib/ unit without an interface. A unit whose
   structure holds only module aliases and module types is exempt: an
   .mli would repeat it token for token. *)

let scope = [ "lib/"; "bin/"; "examples/"; "test/"; "bench/" ]

(* Types whose values are never pointers, recognised syntactically: the
   immediate base types, plus the repo's named immediates — simulated
   time ([Time.t = int], [Time.span = int]) and [Event_queue.timer]
   ([@@immediate]) — matched on their last two path components, so
   [Hsfq_engine.Time.t] and a library-local [Time.t] both count. Any
   other alias of [int] counts as a pointer. *)
let is_immediate_type ty =
  match Types.get_desc ty with
  | Tconstr (p, [], _) -> (
    match Path.name p with
    | "int" | "char" | "bool" | "unit" -> true
    | name -> (
      let parts = String.split_on_char '.' name in
      match List.rev parts with
      | ty :: m :: _ -> (
        let m =
          (* dune's wrapped-library mangling: [Lib__Time] is [Time] *)
          match String.rindex_opt m '_' with
          | Some i when i > 0 && m.[i - 1] = '_' ->
            String.sub m (i + 1) (String.length m - i - 1)
          | _ -> m
        in
        match (m, ty) with
        | "Time", ("t" | "span") | "Event_queue", "timer" -> true
        | _ -> false)
      | _ -> false))
  | _ -> false

let is_find (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) ->
    String.equal (Mutability.normalize (Path.name p)) "Hashtbl.find"
  | _ -> false

let rec is_not_found (p : Typedtree.pattern) =
  match p.pat_desc with
  | Tpat_construct (_, cd, [], _) -> String.equal cd.cstr_name "Not_found"
  | Tpat_alias (p, _, _) -> is_not_found p
  | Tpat_or (a, b, _) -> is_not_found a || is_not_found b
  | _ -> false

let guarded_find (e : Typedtree.expression) =
  let find_head (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_apply (head, _) when is_find head -> Some head
    | _ -> None
  in
  match e.exp_desc with
  | Texp_match (scrut, cases, _)
    when List.exists
           (fun (c : Typedtree.computation Typedtree.case) ->
             match Typedtree.split_pattern c.c_lhs with
             | _, Some exn -> is_not_found exn
             | _, None -> false)
           cases ->
    find_head scrut
  | Texp_try (body, cases)
    when List.exists
           (fun (c : Typedtree.value Typedtree.case) -> is_not_found c.c_lhs)
           cases ->
    find_head body
  | _ -> None

let is_nan (arg : Asttypes.arg_label * Typedtree.expression option) =
  match arg with
  | _, Some { exp_desc = Texp_ident (p, _, _); _ } -> (
    match Path.name p with
    | "Stdlib.nan" | "Stdlib.Float.nan" -> true
    | _ -> false)
  | _ -> false

let is_comparison p =
  match Path.name p with
  | "Stdlib.=" | "Stdlib.<>" | "Stdlib.==" | "Stdlib.!=" | "Stdlib.<"
  | "Stdlib.>" | "Stdlib.<=" | "Stdlib.>=" ->
    true
  | _ -> false

(* Only module aliases, module types and attributes (doc comments). *)
let declarations_only (str : Typedtree.structure) =
  List.for_all
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_module { mb_expr = { mod_desc = Tmod_ident _; _ }; _ }
      | Tstr_modtype _ | Tstr_attribute _ ->
        true
      | _ -> false)
    str.str_items

let scan_unit (u : Cmt_index.unit_info) =
  let findings = ref [] in
  let flag rule (loc : Location.t) msg =
    if not loc.loc_ghost then
      findings :=
        Finding.make ~rule ~file:u.source ~line:loc.loc_start.pos_lnum ~msg
        :: !findings
  in
  (* Heads of the finds whose Not_found is handled: the guarding match
     or try is visited before the find inside it. *)
  let handled = ref [] in
  let expr sub (e : Typedtree.expression) =
    (match guarded_find e with
    | Some head -> handled := head :: !handled
    | None -> ());
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> (
      match Path.name p with
      | ("Stdlib.compare" | "Stdlib.min" | "Stdlib.max") as name -> (
        match Types.get_desc e.exp_type with
        | Tarrow (_, operand, _, _) when not (is_immediate_type operand) ->
          let short = String.sub name 7 (String.length name - 7) in
          flag
            (if String.equal short "compare" then "tl-poly-compare"
             else "tl-stdlib-minmax")
            e.exp_loc
            (Printf.sprintf
               "polymorphic [%s] on a non-immediate type; use the element \
                type's own (Float.%s, String.%s, Time.%s, ...)"
               short short short short)
        | _ -> ())
      | "Stdlib.Obj.magic" ->
        flag "tl-obj-magic" e.exp_loc "Obj.magic defeats the type system"
      | _ ->
        if is_find e && not (List.memq e !handled) then
          flag "tl-hashtbl-find-exn" e.exp_loc
            "Hashtbl.find whose Not_found is not handled at the call; match \
             it with [exception Not_found] or use Hashtbl.find_opt")
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
      when is_comparison p && List.exists is_nan args ->
      flag "tl-nan-compare" e.exp_loc
        "comparison against nan is vacuous; use Float.is_nan"
    | Texp_assert ({ exp_desc = Texp_construct (_, cd, []); _ }, _)
      when String.equal cd.cstr_name "false" ->
      ()
    | Texp_assert _ ->
      flag "tl-assert-validation" e.exp_loc
        "assert guards more than an unreachable branch; use invalid_arg for \
         input validation (asserts vanish under -noassert)"
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  if List.exists (fun prefix -> String.starts_with ~prefix u.source) scope
  then begin
    let iter = { Tast_iterator.default_iterator with expr } in
    iter.structure iter u.structure;
    if
      String.starts_with ~prefix:"lib/" u.source
      && String.ends_with ~suffix:".ml" u.source
      && Option.is_none u.interface
      && not (declarations_only u.structure)
    then
      findings :=
        Finding.make ~rule:"tl-missing-mli" ~file:u.source ~line:1
          ~msg:"library module without an interface; add a companion .mli"
        :: !findings
  end;
  !findings

let scan index =
  Cmt_index.fold index ~init:[] ~f:(fun acc u -> scan_unit u @ acc)
  |> Finding.sort
