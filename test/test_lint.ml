(* Tests for the lint stack (lib/staticlint, driven by hsfq_tlint).

   - whitelist semantics: duplicates, malformed lines, stale entries;
   - the typed passes, driven by tiny fixture modules typechecked
     in-process with the same compiler-libs the analyzer reads .cmt
     files with: the inventory and domain-race pass, the hot-path rules,
     the allocation pass, the source-hygiene rules (the "token-rules"
     group keeps the cases of the rules first written as a token scan)
     and the dead-export pass. *)

module Whitelist = Hsfq_staticlint.Whitelist
module Finding = Hsfq_staticlint.Finding
module Cmt_index = Hsfq_staticlint.Cmt_index
module Mutability = Hsfq_staticlint.Mutability
module Inventory = Hsfq_staticlint.Inventory
module Reach = Hsfq_staticlint.Reach
module Hotrules = Hsfq_staticlint.Hotrules
module Allocpass = Hsfq_staticlint.Allocpass
module Hygiene = Hsfq_staticlint.Hygiene
module Deadexport = Hsfq_staticlint.Deadexport
module Typedlint = Hsfq_staticlint.Typedlint

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let has_rule rule fs =
  List.exists (fun (f : Finding.t) -> String.equal f.rule rule) fs

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

(* [deps] are earlier fixture units this one compiles against: each is
   bound under its module name as a persistent (compilation-unit)
   module, so references to it carry the same paths as in a real build. *)
let fixture ?(modname = "Fixture") ?(source = "lib/fixture/fixture.ml")
    ?(imports = []) ?(deps = []) src : Cmt_index.unit_info =
  let env =
    List.fold_left
      (fun env (d : Cmt_index.unit_info) ->
        Env.add_module
          (Ident.create_persistent d.modname)
          Types.Mp_present (Types.Mty_signature d.structure.str_type) env)
      (Lazy.force fixture_env) deps
  in
  let ast = Parse.implementation (Lexing.from_string src) in
  let structure, _, _, _, _ = Typemod.type_structure env ast in
  { modname; source; imports; structure; interface = None }

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
  let _, findings, _ = Typedlint.analyze index in
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

let alloc_findings ?(roots = [ "hot" ]) ?(cold = []) ?(barrier_free = []) src =
  let u = fixture ~source:"lib/fixture/fixture.ml" src in
  Allocpass.scan_unit { source = u.source; roots; cold; barrier_free } u

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

(* A barrier-free function may store ints, and floats into a float
   array; a closure or record stored into an array element, a mixed
   record field or a ref is a [caml_modify]. *)
let test_allocpass_barrier () =
  let src =
    "type h = { mutable n : int; mutable f : unit -> unit }\n\
     let sift (a : int array) (fa : float array) i x y = a.(i) <- x; fa.(i) <- y\n\
     let slot (hs : h array) i h = hs.(i) <- h\n\
     let set (h : h) g = h.n <- 0; h.f <- g\n\
     let keep (c : h ref) h = c := h\n\
     let hot x = x\n"
  in
  let barrier_lines fs =
    List.filter_map
      (fun (f : Finding.t) ->
        if String.equal f.rule "tl-hot-barrier" then Some f.line else None)
      fs
  in
  Alcotest.(check (list int))
    "pointer stores flagged, immediate stores clean" [ 3; 4; 5 ]
    (List.sort Int.compare
       (barrier_lines
          (alloc_findings ~barrier_free:[ "sift"; "slot"; "set"; "keep" ] src)));
  check_int "undeclared functions are not checked" 0
    (List.length (barrier_lines (alloc_findings src)));
  check_bool "unknown barrier-free function reported" true
    (has_rule "tl-hot-missing" (alloc_findings ~barrier_free:[ "absent" ] src))

(* The kernel's old interrupt path stored a cancellable handle record
   per slice ([d.completion <- Sim.after ...]): a [caml_modify] on every
   resume. The barrier pass flags that store, while the timer form —
   the time stored as a [Time.t], the timer re-armed by its int id — is
   clean: simulated time and [Event_queue.timer] count as immediates. *)
let test_allocpass_barrier_handle_store () =
  let src =
    "module Time = struct type t = int end\n\
     module Event_queue = struct\n\
    \  type handle = { mutable hstate : int }\n\
    \  type timer = int\n\
     end\n\
     module Sim = struct\n\
    \  let after (_ : int) (_ : unit -> unit) = { Event_queue.hstate = 0 }\n\
    \  let arm_after (_ : Event_queue.timer) (_ : int) = ()\n\
     end\n\
     type dispatch = { mutable completion : Event_queue.handle; mutable resume_at : Time.t }\n\
     let thunk () = ()\n\
     let resume_handle d now = d.resume_at <- now; d.completion <- Sim.after 5 thunk\n\
     let resume_timer d (tm : Event_queue.timer) now = d.resume_at <- now; Sim.arm_after tm 5\n\
     let hot x = x\n"
  in
  let barrier_lines fs =
    List.filter_map
      (fun (f : Finding.t) ->
        if String.equal f.rule "tl-hot-barrier" then Some f.line else None)
      fs
  in
  Alcotest.(check (list int))
    "handle store flagged, timer re-arm clean" [ 12 ]
    (barrier_lines
       (alloc_findings ~barrier_free:[ "resume_handle"; "resume_timer" ] src))

let test_allocpass_missing_root () =
  let fs = alloc_findings ~roots:[ "nonexistent" ] "let hot x = x\n" in
  check_bool "unknown root reported" true (has_rule "tl-hot-missing" fs)

(* ------------------------------------------------------------------ *)
(* Source hygiene. The "token-rules" cases are the ones the rules had
   as a token scan, now checked on typedtrees. *)

(* bin/ is in scope and needs no .mli, so only the rule under test fires *)
let hygiene ?(source = "bin/fixture.ml") src =
  Hygiene.scan_unit (fixture ~source src)

let test_rule_poly_compare () =
  let flags src = has_rule "tl-poly-compare" (hygiene src) in
  check_bool "compare on int accepted" false
    (flags "let r (a : int) b = compare a b");
  check_bool "compare on float flagged" true
    (flags "let r (a : float) b = compare a b");
  check_bool "compare on string flagged" true
    (flags "let r (a : string) b = compare a b");
  check_bool "compare on a record flagged" true
    (flags "type p = { x : int; y : int }\nlet r (a : p) b = compare a b");
  check_bool "Stdlib.compare spelled out is the same function" true
    (flags "let r (a : float) b = Stdlib.compare a b");
  check_int "a local compare is not Stdlib's" 0
    (List.length (hygiene "let compare = Float.compare\nlet r a b = compare a b"));
  check_int "labeled arguments named min/max are not Stdlib's" 0
    (List.length (hygiene "let f ~min ~max = min + max\nlet r = f ~min:3 ~max:9"))

let test_rule_minmax () =
  let flags src = has_rule "tl-stdlib-minmax" (hygiene src) in
  check_bool "Int.min accepted" false (flags "let m a b = Int.min a b");
  check_bool "bare max on ints accepted" false
    (flags "let m (a : int) b = max a b");
  check_bool "bare min on floats flagged" true
    (flags "let m (a : float) b = min a b")

let test_rule_nan_and_magic () =
  let fs = hygiene "let f x = x < nan\nlet g x = Float.is_nan x" in
  check_bool "x < nan flagged" true
    (List.exists
       (fun (f : Finding.t) -> String.equal f.rule "tl-nan-compare" && f.line = 1)
       fs);
  check_int "Float.is_nan accepted" 1 (List.length fs);
  check_bool "Obj.magic flagged" true
    (has_rule "tl-obj-magic" (hygiene "let f (x : int) : float = Obj.magic x"))

(* The find-on-hit idiom handles Not_found at the call; a bare find lets
   it escape. The allocation pass applies the same recognizer, so a
   handled find in a hot root is no allocation either. *)
let find_src =
  "let handled t k = match Hashtbl.find t k with v -> v | exception Not_found -> 0\n\
   let tried t k = try Hashtbl.find t k with Not_found -> 0\n\
   let bare t k : int = Hashtbl.find t k\n"

let test_rule_hashtbl_find () =
  let lines =
    List.filter_map
      (fun (f : Finding.t) ->
        if String.equal f.rule "tl-hashtbl-find-exn" then Some f.line else None)
      (hygiene find_src)
  in
  Alcotest.(check (list int)) "only the bare find flagged" [ 3 ] lines;
  check_bool "a handler for another exception does not count" true
    (has_rule "tl-hashtbl-find-exn"
       (hygiene
          "let f t k = match Hashtbl.find t k with v -> v | exception Exit -> 0"))

let test_allocpass_handled_find () =
  let fs = alloc_findings ~roots:[ "handled"; "tried" ] find_src in
  check_int "handled finds in a hot root allocate nothing" 0 (List.length fs);
  let fs = alloc_findings ~roots:[ "bare" ] find_src in
  check_bool "a bare find in a hot root is a banned call" true
    (has_rule "tl-hot-alloc" fs)

let test_rule_assert () =
  let fs = hygiene "let f x = assert (x > 0)" in
  check_bool "assert on input flagged" true (has_rule "tl-assert-validation" fs);
  let fs = hygiene "let f () = assert false" in
  check_int "assert false fine" 0 (List.length fs)

let test_rule_missing_mli () =
  let flags ?(source = "lib/fixture/fixture.ml") src =
    has_rule "tl-missing-mli" (hygiene ~source src)
  in
  check_bool "lib/ unit with values and no mli flagged" true
    (flags "let x = 1");
  check_bool "module types and aliases only: accepted" false
    (flags "module type S = sig val x : int end\nmodule L = List");
  check_bool "outside lib/ not required" false
    (flags ~source:"test/fixture.ml" "let x = 1");
  check_int "outside the scanned directories nothing is checked" 0
    (List.length (hygiene ~source:"perfbench/fixture.ml" "let f x = assert (x > 0)"))

(* The typed successor of the token rule is the domain-race pass: a
   top-level mutable cell in a unit the worker domains reach. *)
let test_rule_toplevel_mutable () =
  let flags src =
    let shared = fixture ~modname:"Fix_engine" ~source:"lib/engine/fix.ml" src in
    let worker =
      fixture ~modname:"Fix_worker" ~source:"lib/fixture/fix_worker.ml"
        ~imports:[ "Hsfq_par"; "Fix_engine" ] "let go () = ()\n"
    in
    let _, fs, _ = Typedlint.analyze (Cmt_index.of_units [ shared; worker ]) in
    has_rule "tl-domain-race" fs
  in
  check_bool "top-level ref flagged" true (flags "let cell = ref 0");
  check_bool "top-level Hashtbl.create flagged" true
    (flags "let tbl : (int, int) Hashtbl.t = Hashtbl.create 16");
  check_bool "type annotation seen through" true
    (flags "let cell : int ref = ref 0");
  check_bool "function body ref is fine" false (flags "let f () =\n  ref 0");
  check_bool "let rec with params is a function, fine" false
    (flags "let rec f x = if x then ref 0 else f true");
  check_bool "local let is fine" false
    (flags "let f () =\n  let cell = ref 0 in\n  !cell");
  check_bool "unit no worker reaches is fine" false
    (has_rule "tl-domain-race"
       (let _, fs, _ =
          Typedlint.analyze
            (Cmt_index.of_units
               [ fixture ~source:"lib/core/a.ml" "let cell = ref 0" ])
        in
        fs))

let test_rule_leaf_retarget () =
  let src body = "type th = { mutable leaf : int; mutable left : int }\n" ^ body in
  check_bool "leaf assignment flagged" true
    (has_rule "tl-leaf-retarget"
       (Hotrules.scan_unit (fixture (src "let f th l = th.leaf <- l"))));
  check_int "other fields fine" 0
    (List.length (Hotrules.scan_unit (fixture (src "let f th l = th.left <- l"))))

let test_rule_hot_hashtbl_scope () =
  let src = "let t : (int, int) Hashtbl.t = Hashtbl.create 4" in
  check_bool "hot module flagged" true
    (has_rule "tl-hot-hashtbl"
       (Hotrules.scan_unit (fixture ~source:"lib/core/sfq.ml" src)));
  check_bool "cold module fine" false
    (has_rule "tl-hot-hashtbl"
       (Hotrules.scan_unit (fixture ~source:"lib/qos/manager.ml" src)))

(* ------------------------------------------------------------------ *)
(* Dead exports: four units. [Fixlib__A] is a library module; [Fixlib]
   is its dune wrapper (module aliases only); [Fixlib__B] uses one
   export directly and one through the wrapper alias; a test uses a
   third. *)

let test_dead_export () =
  let a =
    fixture ~modname:"Fixlib__A" ~source:"lib/fixlib/a.ml"
      "let used_elsewhere = 1\n\
       let used_inside = 2\n\
       let () = ignore (used_inside + 1)\n\
       let for_tests = 3\n\
       let via_alias = 4\n"
  in
  let wrapper =
    fixture ~modname:"Fixlib" ~source:"lib/fixlib/fixlib.ml-gen" ~deps:[ a ]
      "module A = Fixlib__A\n"
  in
  let b =
    fixture ~modname:"Fixlib__B" ~source:"lib/fixlib/b.ml" ~deps:[ a; wrapper ]
      "let x = Fixlib__A.used_elsewhere + Fixlib.A.via_alias\n"
  in
  let t =
    fixture ~modname:"Dune__exe__Test_a" ~source:"test/test_a.ml"
      ~deps:[ a; wrapper ] "let y = Fixlib.A.for_tests\n"
  in
  let findings, test_only =
    Deadexport.scan (Cmt_index.of_units [ a; wrapper; b; t ])
  in
  let names =
    List.filter_map
      (fun (f : Finding.t) ->
        if String.equal f.file "lib/fixlib/a.ml" then Some f.line else None)
      findings
  in
  Alcotest.(check (list int))
    "only the export used inside its own unit is dead" [ 2 ] names;
  Alcotest.(check (list string))
    "the test-only export is listed, not failed" [ "for_tests" ]
    (List.filter_map
       (fun (e : Deadexport.export) ->
         if String.equal e.unit_name "Fixlib__A" then Some e.name else None)
       test_only)

let bench_msgs json =
  List.map
    (fun (f : Finding.t) -> f.msg)
    (Typedlint.bench_findings ~file:"BENCH_sched.json" json)

let mentions sub msg =
  let ls = String.length sub in
  let rec go i =
    i + ls <= String.length msg
    && (String.equal (String.sub msg i ls) sub || go (i + 1))
  in
  go 0

let bench_json rows =
  "{\n  \"benchmarks\": {\n"
  ^ String.concat ",\n"
      (List.map
         (fun (name, v) ->
           Printf.sprintf
             "    \"%s\": { \"minor_words_per_decision\": %s, \"samples\": \
              [120.5] }"
             name v)
         rows)
  ^ "\n  }\n}\n"

let test_bench_cross_check () =
  let absent = bench_msgs (bench_json []) in
  let over = bench_msgs (bench_json [ ("sfq/Q=512", "2.002"); ("other", "99.0") ]) in
  Alcotest.(check int)
    "an over-budget row replaces its missing-row finding" (List.length absent)
    (List.length over);
  check_bool "number extracted from the right row" true
    (List.exists (mentions "sfq/Q=512 measures minor_words_per_decision 2.002") over);
  Alcotest.(check int)
    "a row within budget is no finding"
    (List.length absent - 1)
    (List.length (bench_msgs (bench_json [ ("sfq/Q=512", "0.5") ])))

let test_bench_missing_row () =
  let absent = bench_msgs "{}" in
  check_bool "every budget row absent from the file is a finding" true
    ((not (List.is_empty absent)) && List.for_all (mentions "has no") absent);
  let json =
    "{ \"benchmarks\": {\n    \"sfq/Q=512\": { \"samples\": [1.0] },\n    \
     \"other\": { \"minor_words_per_decision\": 0.1 }\n} }"
  in
  check_bool "a row without the counter does not borrow the next row's" true
    (List.exists (mentions "row \"sfq/Q=512\" has no") (bench_msgs json))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "lint"
    [
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
      ( "typed-hygiene",
        [
          Alcotest.test_case "stdlib min/max" `Quick test_rule_minmax;
          Alcotest.test_case "nan compare and Obj.magic" `Quick
            test_rule_nan_and_magic;
          Alcotest.test_case "handled Hashtbl.find" `Quick
            test_rule_hashtbl_find;
          Alcotest.test_case "missing mli" `Quick test_rule_missing_mli;
        ] );
      ( "typed-dead-export",
        [ Alcotest.test_case "four units" `Quick test_dead_export ] );
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
          Alcotest.test_case "barrier-free stores" `Quick test_allocpass_barrier;
          Alcotest.test_case "handle store vs timer re-arm" `Quick
            test_allocpass_barrier_handle_store;
          Alcotest.test_case "missing root" `Quick test_allocpass_missing_root;
          Alcotest.test_case "handled Hashtbl.find" `Quick
            test_allocpass_handled_find;
        ] );
      ( "bench-check",
        [
          Alcotest.test_case "json extraction" `Quick test_bench_cross_check;
          Alcotest.test_case "missing row is a finding" `Quick
            test_bench_missing_row;
        ] );
    ]
