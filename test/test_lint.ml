(* Tests for the lint stack (lib/staticlint).

   Three layers, mirroring the tools:
   - the token lexer and its rules (hsfq_lint), including the comment /
     quoted-string edge cases and the toplevel-mutable state machine;
   - whitelist semantics: duplicates, malformed lines, stale entries;
   - the typed passes (hsfq_tlint), driven by tiny fixture modules
     typechecked in-process with the same compiler-libs the analyzer
     reads .cmt files with. *)

module Lexlint = Hsfq_staticlint.Lexlint
module Whitelist = Hsfq_staticlint.Whitelist
module Finding = Hsfq_staticlint.Finding
module Cmt_index = Hsfq_staticlint.Cmt_index
module Mutability = Hsfq_staticlint.Mutability
module Inventory = Hsfq_staticlint.Inventory
module Reach = Hsfq_staticlint.Reach
module Hotrules = Hsfq_staticlint.Hotrules
module Allocpass = Hsfq_staticlint.Allocpass
module Typedlint = Hsfq_staticlint.Typedlint

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let toks src = List.map (fun (_, _, _, t) -> t) (Lexlint.tokens src)

let has_rule rule fs =
  List.exists (fun (f : Finding.t) -> String.equal f.rule rule) fs

(* ------------------------------------------------------------------ *)
(* Lexer *)

let test_tokens_basic () =
  Alcotest.(check (list string))
    "dotted paths glue into one token"
    [ "let"; "x"; "Int.compare"; "a"; "b" ]
    (toks "let x = Int.compare a b")

let test_tokens_comments () =
  Alcotest.(check (list string))
    "nested comments skipped" [ "a"; "b" ]
    (toks "a (* one (* two *) still comment *) b");
  Alcotest.(check (list string))
    "string inside comment can hide *)" [ "a"; "b" ]
    (toks "a (* \" *) \" *) b")

let test_tokens_quoted_string_in_comment () =
  (* the historical lexer bug: a {id|...|id} literal inside a comment
     containing [* )] ended the comment early *)
  Alcotest.(check (list string))
    "quoted string inside comment can hide *)" [ "a"; "b" ]
    (toks "a (* {q| *) |q} *) b");
  Alcotest.(check (list string))
    "plain brace inside comment is not a quoted string" [ "a"; "b" ]
    (toks "a (* { not a literal } *) b")

let test_tokens_quoted_string_toplevel () =
  Alcotest.(check (list string))
    "quoted string literal is opaque" [ "x"; "y" ]
    (toks "x {id|let hidden = ref 0|id} y");
  Alcotest.(check (list string))
    "empty-id quoted string" [ "x"; "y" ]
    (toks "x {|let hidden = compare|} y")

let test_tokens_char_literals () =
  Alcotest.(check (list string))
    "char literals don't open strings" [ "a"; "b"; "c" ]
    (toks "a '\\'' b '\"' c");
  Alcotest.(check (list string))
    "type variable quote is not a char" [ "a"; "list"; "t" ]
    (toks "'a list t")

let test_tokens_ops () =
  match Lexlint.tokens "x <- y" with
  | [ _; (_, _, op, tok) ] ->
    Alcotest.(check string) "op run carried" "<-" op;
    Alcotest.(check string) "token after op" "y" tok
  | other -> Alcotest.failf "unexpected token count: %d" (List.length other)

(* ------------------------------------------------------------------ *)
(* Token rules *)

let findings_in ~file src = Lexlint.check_tokens ~file src

let test_rule_poly_compare () =
  let fs = findings_in ~file:"lib/x/a.ml" "let r = compare a b" in
  check_bool "bare compare flagged" true (has_rule "poly-compare" fs);
  let fs = findings_in ~file:"lib/x/a.ml" "let compare = Int.compare" in
  check_int "definition exempt" 0 (List.length fs);
  let fs = findings_in ~file:"lib/x/a.ml" "let r = f ~min:3 ~max:9" in
  check_int "labeled args exempt" 0 (List.length fs)

let test_rule_leaf_retarget () =
  let fs = findings_in ~file:"lib/x/a.ml" "let f th l = th.leaf <- l" in
  check_bool "leaf assignment flagged" true (has_rule "leaf-retarget" fs);
  let fs = findings_in ~file:"lib/x/a.ml" "let f th l = th.left <- l" in
  check_int "other fields fine" 0 (List.length fs)

let test_rule_assert () =
  let fs = findings_in ~file:"lib/x/a.ml" "let f x = assert (x > 0)" in
  check_bool "assert on input flagged" true (has_rule "assert-validation" fs);
  let fs = findings_in ~file:"lib/x/a.ml" "let f () = assert false" in
  check_int "assert false fine" 0 (List.length fs);
  let fs = findings_in ~file:"lib/x/a.ml" "let f () = assert" in
  check_bool "assert at EOF still reported" true
    (has_rule "assert-validation" fs)

let test_rule_toplevel_mutable () =
  let flags src = has_rule "toplevel-mutable" (findings_in ~file:"lib/engine/a.ml" src) in
  check_bool "top-level ref flagged" true (flags "let cell = ref 0");
  check_bool "top-level Hashtbl.create flagged" true
    (flags "let tbl = Hashtbl.create 16");
  check_bool "type annotation tracked through state 3" true
    (flags "let cell : int ref = ref 0");
  check_bool "function body ref is fine" false (flags "let f () =\n  ref 0");
  check_bool "let rec with params is a function, fine" false
    (flags "let rec f x = ref 0");
  check_bool "indented (local) let is fine" false (flags "  let cell = ref 0");
  check_bool "out-of-scope directory is fine" false
    (has_rule "toplevel-mutable"
       (findings_in ~file:"lib/core/a.ml" "let cell = ref 0"))

let test_rule_hot_hashtbl_scope () =
  check_bool "hot module flagged" true
    (has_rule "hot-path-hashtbl"
       (findings_in ~file:"lib/core/sfq.ml" "let t = Hashtbl.create 4"));
  check_bool "cold module fine" false
    (has_rule "hot-path-hashtbl"
       (findings_in ~file:"lib/qos/manager.ml" "let t = Hashtbl.create 4"))

(* ------------------------------------------------------------------ *)
(* Whitelist *)

let test_whitelist_duplicates () =
  let src = "r lib/a.ml first justification\nr lib/a.ml second copy\n" in
  match Whitelist.load_string ~path:"wl" src with
  | Ok _ -> Alcotest.fail "duplicate entries must be a load error"
  | Error msg ->
    check_bool "names the duplicate" true
      (let looking = "duplicate whitelist entry (r lib/a.ml)" in
       let ln = String.length looking in
       let n = String.length msg in
       let rec go i = i + ln <= n && (String.equal (String.sub msg i ln) looking || go (i + 1)) in
       go 0);
    check_bool "names the first line" true
      (let rec contains i sub =
         let ls = String.length sub in
         i + ls <= String.length msg
         && (String.equal (String.sub msg i ls) sub || contains (i + 1) sub)
       in
       contains 0 "line 1")

let test_whitelist_malformed () =
  match Whitelist.load_string ~path:"wl" "rule-without-path\n" with
  | Ok _ -> Alcotest.fail "malformed line must be a load error"
  | Error _ -> ();
  match Whitelist.load_string ~path:"wl" "rule lib/a.ml\n" with
  | Ok _ -> Alcotest.fail "missing justification must be a load error"
  | Error _ -> ()

let test_whitelist_apply_and_stale () =
  let src =
    "# comment\n\
     r2 lib/b.ml never matches\n\
     r1 lib/a.ml matches\n\
     r0 lib/z.ml never matches either\n"
  in
  match Whitelist.load_string ~path:"wl" src with
  | Error e -> Alcotest.fail e
  | Ok wl ->
    let f = Finding.make ~rule:"r1" ~file:"lib/a.ml" ~line:3 ~msg:"m" in
    let live = Finding.make ~rule:"rX" ~file:"lib/c.ml" ~line:9 ~msg:"m" in
    let out = Whitelist.apply wl [ f; live ] in
    check_int "one suppressed" 1 out.suppressed;
    check_int "one live" 1 (List.length out.live);
    Alcotest.(check (list (triple int string string)))
      "stale sorted by whitelist line, deterministically"
      [ (2, "r2", "lib/b.ml"); (4, "r0", "lib/z.ml") ]
      out.stale;
    Alcotest.(check (option string))
      "justification accessor" (Some "matches")
      (Whitelist.justification wl ~rule:"r1" ~path:"lib/a.ml")

(* ------------------------------------------------------------------ *)
(* Typed fixtures: parse + typecheck small modules in-process, then run
   the same passes hsfq_tlint runs over .cmt files. *)

let fixture_env = lazy (Compmisc.init_path (); Compmisc.initial_env ())

let fixture ?(modname = "Fixture") ?(source = "lib/fixture/fixture.ml")
    ?(imports = []) src : Cmt_index.unit_info =
  let env = Lazy.force fixture_env in
  let ast = Parse.implementation (Lexing.from_string src) in
  let structure, _, _, _, _ = Typemod.type_structure env ast in
  { modname; source; imports; structure }

let verdicts_of src =
  let u = fixture src in
  let index = Cmt_index.of_units [ u ] in
  List.map
    (fun (e : Inventory.entry) -> (e.name, Mutability.verdict_to_string e.verdict))
    (Inventory.of_index index)

let test_inventory_classification () =
  Alcotest.(check (list (pair string string)))
    "builtin containers classify"
    [
      ("a", "mutable/unguarded");
      ("b", "mutable/atomic");
      ("c", "mutable/domain-local");
      ("d", "immutable");
      ("e", "mutable/unguarded");
    ]
    (verdicts_of
       "let a = ref 0\n\
        let b = Atomic.make 0\n\
        let c = Domain.DLS.new_key (fun () -> 0)\n\
        let d = 42\n\
        let e : (int, int) Hashtbl.t = Hashtbl.create 4\n")

let test_inventory_records () =
  Alcotest.(check (list (pair string string)))
    "record fields and locks classify"
    [
      ("pool", "mutable/lock-bearing");
      ("frozen", "immutable");
      ("cell", "mutable/unguarded");
    ]
    (verdicts_of
       "type pool = { lock : Mutex.t; mutable jobs : int }\n\
        type frozen = { id : int; name : string }\n\
        type cell = { mutable v : float }\n\
        let pool = { lock = Mutex.create (); jobs = 0 }\n\
        let frozen = { id = 1; name = \"x\" }\n\
        let cell = { v = 0. }\n")

let test_inventory_nested_and_named () =
  (* a named type defined in one fixture unit, used by another: the
     decl map + wrapper-alias resolution has to cross units *)
  let def =
    fixture ~modname:"Fix_def" ~source:"lib/fixture/fix_def.ml"
      "type t = { mutable n : int }\nlet local = { n = 0 }\n"
  in
  let index = Cmt_index.of_units [ def ] in
  let entries = Inventory.of_index index in
  Alcotest.(check (list (pair string string)))
    "nested module globals inventoried"
    [ ("local", "mutable/unguarded") ]
    (List.map
       (fun (e : Inventory.entry) ->
         (e.name, Mutability.verdict_to_string e.verdict))
       entries);
  let nested =
    verdicts_of
      "module Inner = struct\n  let hidden = ref 0\nend\nlet top = 1\n"
  in
  Alcotest.(check (list (pair string string)))
    "nested structs walked"
    [ ("Inner.hidden", "mutable/unguarded"); ("top", "immutable") ]
    nested

let test_reach_closure () =
  let nodes =
    [
      ("worker", [ "core"; "util" ]);
      ("core", [ "util" ]);
      ("util", []);
      ("island", [ "core" ]);
    ]
  in
  let seen = Reach.closure ~nodes ~seeds:[ "worker" ] in
  check_bool "seed reachable" true (Hashtbl.mem seen "worker");
  check_bool "transitive reachable" true (Hashtbl.mem seen "util");
  check_bool "island not reachable" false (Hashtbl.mem seen "island");
  let cyclic = [ ("a", [ "b" ]); ("b", [ "a" ]) ] in
  let seen = Reach.closure ~nodes:cyclic ~seeds:[ "a" ] in
  check_int "cycles terminate" 2 (Hashtbl.length seen)

let test_reach_worker_seeds () =
  let mk name imports =
    fixture ~modname:name ~source:("lib/x/" ^ String.lowercase_ascii name ^ ".ml")
      ~imports "let n = 1\n"
  in
  let index =
    Cmt_index.of_units
      [
        mk "Driver" [ "Hsfq_par"; "Core" ];
        mk "Core" [ "Util" ];
        mk "Util" [];
        mk "Island" [ "Core" ];
      ]
  in
  Alcotest.(check (list string))
    "units importing Hsfq_par seed the walk" [ "Driver" ]
    (Reach.worker_seeds index);
  let reachable = Reach.from_workers index in
  check_bool "imports pull units in" true (Hashtbl.mem reachable "Util");
  check_bool "non-importing unit stays out" false (Hashtbl.mem reachable "Island");
  (* Hsfq_par's own worker loop runs task closures on spawned domains,
     so the library seeds itself alongside every unit that calls it. *)
  let index =
    Cmt_index.of_units
      [
        mk "Hsfq_par" [ "Hsfq_engine" ];
        mk "Sweep_driver" [ "Hsfq_par"; "Core" ];
        mk "Core" [];
      ]
  in
  Alcotest.(check (list string))
    "Hsfq_par itself and sweep callers both seed the walk"
    [ "Hsfq_par"; "Sweep_driver" ]
    (Reach.worker_seeds index)

let test_domain_race_end_to_end () =
  let shared =
    fixture ~modname:"Fix_shared" ~source:"lib/fixture/fix_shared.ml"
      "let table : (int, int) Hashtbl.t = Hashtbl.create 8\n\
       let safe = Atomic.make 0\n"
  in
  let worker =
    fixture ~modname:"Fix_worker" ~source:"lib/fixture/fix_worker.ml"
      ~imports:[ "Hsfq_par"; "Fix_shared" ] "let go () = ()\n"
  in
  let index = Cmt_index.of_units [ shared; worker ] in
  let _, findings = Typedlint.analyze index in
  let race =
    List.filter (fun (f : Finding.t) -> String.equal f.rule "tl-domain-race")
      findings
  in
  check_int "exactly the unguarded global flagged" 1 (List.length race);
  check_bool "at the Hashtbl site" true
    (match race with
    | [ f ] -> String.equal f.file "lib/fixture/fix_shared.ml" && f.line = 1
    | _ -> false)

let test_hotrules_fixture () =
  let hot =
    fixture ~source:"lib/core/sfq.ml"
      "type t = { tbl : (int, int) Hashtbl.t; mutable leaf : int }\n\
       let lookup t k = Hashtbl.find_opt t.tbl k\n\
       let retarget t l = t.leaf <- l\n"
  in
  let fs = Hotrules.scan_unit hot in
  check_bool "Hashtbl.t type rediscovered from types" true
    (List.exists
       (fun (f : Finding.t) ->
         String.equal f.rule "tl-hot-hashtbl" && f.line = 1)
       fs);
  check_bool "Hashtbl op flagged" true
    (List.exists
       (fun (f : Finding.t) ->
         String.equal f.rule "tl-hot-hashtbl" && f.line = 2)
       fs);
  check_bool "leaf setfield flagged" true
    (List.exists
       (fun (f : Finding.t) ->
         String.equal f.rule "tl-leaf-retarget" && f.line = 3)
       fs);
  let cold =
    fixture ~source:"lib/qos/manager.ml"
      "let t : (int, int) Hashtbl.t = Hashtbl.create 4\n"
  in
  check_bool "cold module has no hot findings" false
    (has_rule "tl-hot-hashtbl" (Hotrules.scan_unit cold))

let alloc_findings ?(roots = [ "hot" ]) ?(cold = []) src =
  let u = fixture ~source:"lib/fixture/fixture.ml" src in
  Allocpass.scan_unit { source = u.source; roots; cold } u

let test_allocpass_flags () =
  let fs =
    alloc_findings
      "let hot x =\n\
      \  let f = fun y -> x + y in\n\
      \  let pair = (x, f 1) in\n\
      \  Some pair\n"
  in
  check_bool "closure flagged" true
    (List.exists
       (fun (f : Finding.t) -> String.equal f.rule "tl-hot-alloc" && f.line = 2)
       fs);
  check_bool "tuple flagged" true
    (List.exists
       (fun (f : Finding.t) -> String.equal f.rule "tl-hot-alloc" && f.line = 3)
       fs);
  check_bool "Some flagged" true
    (List.exists
       (fun (f : Finding.t) -> String.equal f.rule "tl-hot-alloc" && f.line = 4)
       fs)

let test_allocpass_clean_and_closure () =
  let fs =
    alloc_findings
      "let helper a = a * 2\n\
       let hot x = if x > 0 then helper x else x - 1\n"
  in
  check_int "arithmetic-only path is clean" 0 (List.length fs);
  let fs =
    alloc_findings
      "let banned x = Printf.sprintf \"%d\" x\n\
       let hot x = banned (x + 1)\n"
  in
  check_bool "banned stdlib family via local call graph" true
    (has_rule "tl-hot-alloc" fs)

let test_allocpass_cold_and_errors () =
  let src =
    "let grow n = Array.make n 0\n\
     let hot x = if x > 1_000_000 then invalid_arg \"too big\" else x + 1\n"
  in
  let fs = alloc_findings ~cold:[ "grow" ] src in
  check_int "cold helper skipped; error path exempt" 0 (List.length fs);
  let fs = alloc_findings src in
  check_bool "same helper flagged when not declared cold" false
    (has_rule "tl-hot-alloc" fs)
  (* [hot] never calls [grow], so reachability keeps it out either way *)

let test_allocpass_float_box () =
  let fs =
    alloc_findings
      "type mixed = { id : int; mutable v : float }\n\
       type flat = { mutable a : float; mutable b : float }\n\
       let hot (m : mixed) (f : flat) x =\n\
      \  m.v <- x;\n\
      \  f.a <- x\n"
  in
  let boxes =
    List.filter (fun (f : Finding.t) -> String.equal f.rule "tl-float-box") fs
  in
  check_int "mixed-record store boxes, flat store doesn't" 1
    (List.length boxes);
  check_bool "at the mixed store" true
    (match boxes with [ f ] -> f.line = 4 | _ -> false);
  let fs =
    alloc_findings
      "let hot x =\n  let y = x +. 1.0 in\n  ignore (Float.to_string y)\n"
  in
  check_bool "float crossing a unit boundary flagged" true
    (has_rule "tl-float-box" fs);
  let fs = alloc_findings "let hot x = Float.of_int x\n" in
  check_bool "fully-applied float primitive doesn't box" false
    (has_rule "tl-float-box" fs)

(* A CPU scan written as a local [let rec] inside a hot root captures the
   root's arguments, so every call builds a closure; hoisted to the top
   level with explicit arguments it allocates nothing, and calling a
   module-local getter of a cached thunk with its full arity is not a
   partial application. *)
let test_allocpass_local_rec () =
  let fs =
    alloc_findings
      "let hot cpus tid =\n\
      \  let rec find i =\n\
      \    if i >= Array.length cpus then -1\n\
      \    else if cpus.(i) = tid then i\n\
      \    else find (i + 1)\n\
      \  in\n\
      \  find 0\n"
  in
  check_bool "capturing local let rec flagged" true
    (List.exists
       (fun (f : Finding.t) -> String.equal f.rule "tl-hot-alloc" && f.line = 2)
       fs);
  let fs =
    alloc_findings
      "let rec find cpus tid i =\n\
      \  if i >= Array.length cpus then -1\n\
      \  else if cpus.(i) = tid then i\n\
      \  else find cpus tid (i + 1)\n\
       let thunk (cell : (unit -> unit) array) _i = cell.(0)\n\
       let hot cpus tid cell = if find cpus tid 0 >= 0 then (thunk cell tid) ()\n"
  in
  check_int "hoisted scan and full-arity thunk getter are clean" 0
    (List.length fs);
  let fs =
    alloc_findings
      "let step a b () = ignore (a + b)\n\
       let hot a = step a 1\n"
  in
  check_bool "local function under-applied is still a closure" true
    (has_rule "tl-hot-alloc" fs)

let test_allocpass_missing_root () =
  let fs = alloc_findings ~roots:[ "nonexistent" ] "let hot x = x\n" in
  check_bool "unknown root reported" true (has_rule "tl-hot-missing" fs)

let test_bench_cross_check () =
  let json =
    "{\n  \"benchmarks\": {\n    \"sfq/Q=512\": {\n      \
     \"ns_per_decision\": 120.5,\n      \"minor_words_per_decision\": \
     2.002\n    },\n    \"other\": { \"minor_words_per_decision\": 99.0 }\n  \
     }\n}\n"
  in
  Alcotest.(check (option (float 0.0001)))
    "number extracted after the right benchmark" (Some 2.002)
    (Typedlint.find_number json ~benchmark:"sfq/Q=512"
       ~key:"minor_words_per_decision");
  Alcotest.(check (option (float 0.0001)))
    "missing benchmark is None" None
    (Typedlint.find_number json ~benchmark:"absent"
       ~key:"minor_words_per_decision")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "lint"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic tokens" `Quick test_tokens_basic;
          Alcotest.test_case "comments" `Quick test_tokens_comments;
          Alcotest.test_case "quoted string in comment" `Quick
            test_tokens_quoted_string_in_comment;
          Alcotest.test_case "quoted string literal" `Quick
            test_tokens_quoted_string_toplevel;
          Alcotest.test_case "char literals" `Quick test_tokens_char_literals;
          Alcotest.test_case "operator runs" `Quick test_tokens_ops;
        ] );
      ( "token-rules",
        [
          Alcotest.test_case "poly-compare" `Quick test_rule_poly_compare;
          Alcotest.test_case "leaf-retarget" `Quick test_rule_leaf_retarget;
          Alcotest.test_case "assert-validation" `Quick test_rule_assert;
          Alcotest.test_case "toplevel-mutable state machine" `Quick
            test_rule_toplevel_mutable;
          Alcotest.test_case "hot-path-hashtbl scope" `Quick
            test_rule_hot_hashtbl_scope;
        ] );
      ( "whitelist",
        [
          Alcotest.test_case "duplicates are errors" `Quick
            test_whitelist_duplicates;
          Alcotest.test_case "malformed lines are errors" `Quick
            test_whitelist_malformed;
          Alcotest.test_case "apply + stale ordering" `Quick
            test_whitelist_apply_and_stale;
        ] );
      ( "typed-inventory",
        [
          Alcotest.test_case "builtin containers" `Quick
            test_inventory_classification;
          Alcotest.test_case "records and locks" `Quick test_inventory_records;
          Alcotest.test_case "nested modules and named types" `Quick
            test_inventory_nested_and_named;
        ] );
      ( "typed-reach",
        [
          Alcotest.test_case "closure over hand graphs" `Quick
            test_reach_closure;
          Alcotest.test_case "worker seeds from imports" `Quick
            test_reach_worker_seeds;
          Alcotest.test_case "domain-race end to end" `Quick
            test_domain_race_end_to_end;
        ] );
      ( "typed-hotrules",
        [ Alcotest.test_case "fixture module" `Quick test_hotrules_fixture ] );
      ( "typed-alloc",
        [
          Alcotest.test_case "allocating constructs" `Quick
            test_allocpass_flags;
          Alcotest.test_case "clean path and banned calls" `Quick
            test_allocpass_clean_and_closure;
          Alcotest.test_case "cold helpers and error paths" `Quick
            test_allocpass_cold_and_errors;
          Alcotest.test_case "float boxing" `Quick test_allocpass_float_box;
          Alcotest.test_case "local let rec in a root" `Quick
            test_allocpass_local_rec;
          Alcotest.test_case "missing root" `Quick test_allocpass_missing_root;
        ] );
      ( "bench-check",
        [ Alcotest.test_case "json extraction" `Quick test_bench_cross_check ]
      );
    ]
