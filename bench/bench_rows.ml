(* BENCH_sched.json's one row schema, and the gates over it.

   Every section of the file holds rows of one shape: a name, a set of
   counters and a list of timing samples.  Counters are what a run
   computes rather than times (events, minor words, footprints,
   migrations); timing samples are wall-clock readings in the section's
   unit.  This module is the file's only writer and the reader that the
   diff (hsfq_bench_diff.ml) uses, and it holds the one gate table: the
   diff runs it on the committed and the fresh file, and the smokes in
   main.ml run it on their toy-size rows, so each structural claim is
   written once. *)

module Table = Hsfq_engine.Table

type row = {
  section : string;
  name : string;
  counters : (string * float) list;
  samples : float list;
}

let schema = "hsfq-bench/2"

(* Each section with the unit of its timing samples ("" = the section
   records counters only) and its counters in column order.  A row must
   carry exactly its section's counters, and samples iff it has a unit. *)
let sections =
  [
    ("benchmarks", "ns/decision", [ "minor_words_per_decision" ]);
    ("sim_speed", "", [ "events"; "minor_words_per_event"; "minor_collections" ]);
    ( "scale",
      "ns/decision",
      [
        "live";
        "minor_words_per_decision";
        "peak_footprint_words";
        "end_footprint_words";
      ] );
    ( "smp",
      "ns/event",
      [ "events"; "minor_words_per_event"; "minor_collections"; "migrations" ] );
    ("sweeps", "s", [ "jobs"; "minor_collections" ]);
  ]

let shape r =
  match List.find_opt (fun (s, _, _) -> String.equal s r.section) sections with
  | None -> Error (Printf.sprintf "unknown section %S" r.section)
  | Some (_, unit, keys) ->
    if
      List.compare_lengths keys r.counters <> 0
      || not (List.for_all (fun k -> List.mem_assoc k r.counters) keys)
    then
      Error
        (Printf.sprintf "%s row %S must have the counters %s" r.section r.name
           (String.concat ", " keys))
    else if Bool.equal (String.equal unit "") (not (List.is_empty r.samples)) then
      Error
        (Printf.sprintf "%s row %S must have %s" r.section r.name
           (if String.equal unit "" then "no timing samples"
            else "at least one timing sample"))
    else Ok ()

let counter r key = List.assoc key r.counters

(* Quantile by linear interpolation between the sorted samples. *)
let quantile r p =
  let a = Array.of_list (List.sort Float.compare r.samples) in
  let x = p *. float_of_int (Array.length a - 1) in
  let i = int_of_float x in
  if i + 1 >= Array.length a then a.(i)
  else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median r = quantile r 0.5

(* Integral counters print as integers, everything else to 3 places. *)
let number v =
  if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.3f" v

let rows_of section rows =
  List.filter (fun r -> String.equal r.section section) rows

(* One table per section.  The max column keeps a one-chunk burst in
   sight that the median leaves out: the first of sfq-departure's five
   chunks reads many times the other four at large Q. *)
let print rows =
  List.iter
    (fun (section, unit, keys) ->
      match rows_of section rows with
      | [] -> ()
      | rs ->
        let timed =
          if String.equal unit "" then []
          else [ "median " ^ unit; "min"; "max"; "IQR" ]
        in
        let t = Table.create ((section :: keys) @ timed) in
        List.iter
          (fun r ->
            Table.row t
              ((r.name :: List.map (fun k -> number (counter r k)) keys)
              @
              if List.is_empty r.samples then []
              else
                List.map (Printf.sprintf "%.3f")
                  [
                    median r;
                    quantile r 0.;
                    quantile r 1.;
                    quantile r 0.75 -. quantile r 0.25;
                  ]))
          rs;
        Table.print t)
    sections

(* ------------------------------------------------------------------ *)
(* The file: one section object per entry of [sections], one row per   *)
(* line, each row a flat object of its counters plus "samples".        *)
(* ------------------------------------------------------------------ *)

(* OCaml's escaping, which is JSON's for the ASCII names used here. *)
let quote = Printf.sprintf "%S"

let write path rows =
  List.iter (fun r -> Result.iter_error invalid_arg (shape r)) rows;
  let members l = String.concat ", " l in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc "{\n  \"schema\": %s,\n  \"units\": { %s },\n" (quote schema)
        (members (List.map (fun (s, u, _) -> quote s ^ ": " ^ quote u) sections));
      let last = List.length sections - 1 in
      List.iteri
        (fun i (section, _, keys) ->
          let rs = rows_of section rows in
          Printf.fprintf oc "  %s: {\n" (quote section);
          List.iteri
            (fun j r ->
              Printf.fprintf oc "    %s: { %s }%s\n" (quote r.name)
                (members
                   (List.map (fun k -> quote k ^ ": " ^ number (counter r k)) keys
                   @
                   if List.is_empty r.samples then []
                   else
                     [
                       "\"samples\": ["
                       ^ members (List.map (Printf.sprintf "%.3f") r.samples)
                       ^ "]";
                     ]))
                (if j = List.length rs - 1 then "" else ","))
            rs;
          Printf.fprintf oc "  }%s\n" (if i = last then "" else ","))
        sections;
      Printf.fprintf oc "}\n");
  Printf.printf "\nwrote %s (%s)\n" path
    (members
       (List.map
          (fun (s, _, _) -> Printf.sprintf "%d %s" (List.length (rows_of s rows)) s)
          sections))

(* Just enough JSON for the file above: objects, arrays, strings (a
   backslash takes the next character literally, which undoes [quote]
   on these names) and numbers. *)
type json = Num of float | Str of string | Arr of json list | Obj of (string * json) list

exception Malformed of string

let parse src =
  let n = String.length src and pos = ref 0 in
  let fail what = raise (Malformed (Printf.sprintf "%s at byte %d" what !pos)) in
  let rec peek () =
    if !pos >= n then fail "unexpected end"
    else
      match src.[!pos] with
      | ' ' | '\n' | '\r' | '\t' ->
        incr pos;
        peek ()
      | c -> c
  in
  let expect c =
    if Char.equal (peek ()) c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = src.[!pos] in
      incr pos;
      if Char.equal c '"' then Buffer.contents b
      else begin
        if Char.equal c '\\' && !pos < n then begin
          Buffer.add_char b src.[!pos];
          incr pos
        end
        else Buffer.add_char b c;
        go ()
      end
    in
    go ()
  in
  let rec value () =
    match peek () with
    | '{' ->
      incr pos;
      Obj
        (elements '}' (fun () ->
             let k = string () in
             expect ':';
             (k, value ())))
    | '[' ->
      incr pos;
      Arr (elements ']' value)
    | '"' -> Str (string ())
    | _ -> (
      let start = !pos in
      while
        !pos < n
        && (Char.equal src.[!pos] '-' || String.contains "0123456789.+eE" src.[!pos])
      do
        incr pos
      done;
      match float_of_string_opt (String.sub src start (!pos - start)) with
      | Some v -> Num v
      | None -> fail "expected a value")
  and elements : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    if Char.equal (peek ()) close then begin
      incr pos;
      []
    end
    else
      let rec more acc =
        let acc = item () :: acc in
        let c = peek () in
        incr pos;
        if Char.equal c ',' then more acc
        else if Char.equal c close then List.rev acc
        else fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      more []
  in
  let v = value () in
  match peek () with exception Malformed _ -> v | _ -> fail "trailing data"

let row_of section (name, v) =
  let num = function Num x -> x | _ -> raise (Malformed (name ^ ": not a number")) in
  match v with
  | Obj fields ->
    let samples =
      match List.assoc_opt "samples" fields with
      | None -> []
      | Some (Arr xs) -> List.map num xs
      | Some _ -> raise (Malformed (name ^ ": samples is not an array"))
    in
    let counters =
      List.filter_map
        (fun (k, v) -> if String.equal k "samples" then None else Some (k, num v))
        fields
    in
    let r = { section; name; counters; samples } in
    Result.iter_error (fun e -> raise (Malformed e)) (shape r);
    r
  | _ -> raise (Malformed (name ^ ": a row is an object"))

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | src -> (
    match parse src with
    | exception Malformed e -> Error (path ^ ": " ^ e)
    | Obj fields -> (
      match List.assoc_opt "schema" fields with
      | Some (Str s) when String.equal s schema -> (
        try
          Ok
            (List.concat_map
               (fun (section, v) ->
                 match v with
                 | _ when List.mem section [ "schema"; "units" ] -> []
                 | Obj rows -> List.map (row_of section) rows
                 | _ -> raise (Malformed (section ^ ": a section is an object")))
               fields)
        with Malformed e -> Error (path ^ ": " ^ e))
      | _ -> Error (Printf.sprintf "%s: schema is not %S" path schema))
    | _ -> Error (path ^ ": not a JSON object"))

(* ------------------------------------------------------------------ *)
(* The gate table.                                                      *)
(* ------------------------------------------------------------------ *)

(* Row names are "family/leaf" ("sfq-steady/Q=10000",
   "smp-dispatch/P=1", "experiments/all/serial"); the structural rules
   pair rows through these parts. *)
let family r =
  match String.rindex_opt r.name '/' with Some i -> String.sub r.name 0 i | None -> r.name

let leaf r =
  let n = String.length r.name in
  match String.rindex_opt r.name '/' with
  | Some i -> String.sub r.name (i + 1) (n - i - 1)
  | None -> ""

(* The integer after '=' in the leaf ("Q=10000" -> 10000), or -1. *)
let param r =
  let l = leaf r in
  match String.index_opt l '=' with
  | Some i ->
    Option.value ~default:(-1)
      (int_of_string_opt (String.sub l (i + 1) (String.length l - i - 1)))
  | None -> -1

(* Pairings for ratio rules: each yields (row, name of the row it is
   measured against). *)

(* Each row of the families against the same family's row at the
   next-smaller parameter: one decade of Q apart in the scale rows. *)
let consecutive families rows =
  List.concat_map
    (fun fam ->
      let rec pairs = function
        | a :: (b :: _ as rest) -> (b, a.name) :: pairs rest
        | _ -> []
      in
      pairs
        (List.sort
           (fun a b -> Int.compare (param a) (param b))
           (List.filter (fun r -> String.equal (family r) fam) rows)))
    families

(* Each row whose family satisfies [p] against family [base]'s row with
   the same leaf. *)
let against_family ~p ~base rows =
  List.filter_map
    (fun r -> if p (family r) then Some (r, base ^ "/" ^ leaf r) else None)
    rows

(* Each row against its own family's row with leaf [l]. *)
let against_leaf l rows =
  List.filter_map
    (fun r ->
      if String.equal (leaf r) l then None else Some (r, family r ^ "/" ^ l))
    rows

type quantity = Median | Counter of string

type rule =
  | Exact of string list
      (** Each of these counters equals the baseline's: they repeat
          exactly for one build profile, so any move is a code change. *)
  | At_most of { row : string; key : string; max : float }
      (** The counter of the named row ([""]: every row) is at most
          [max]; a section with rows but without the named one fails. *)
  | Holds of string * (row -> bool)  (** A claim every row satisfies. *)
  | Families of string list
      (** A section with rows has a row of each of these families: the
          ratio rules pair rows through them, and a pairing that finds
          no row checks nothing. *)
  | Ratio of {
      claim : string;
      pairs : row list -> (row * string) list;
      num : quantity;
      den : quantity;
      max : float;
      strict : bool;  (** the ratio must stay below [max], not reach it *)
      drift : float option;
          (** fresh ratio at most this multiple of the baseline's *)
    }

let ratio ?(num = Median) ?(den = Median) ?(strict = false) ?drift claim pairs
    max =
  Ratio { claim; pairs; num; den; max; strict; drift }

let gates =
  [
    (* The end-to-end dispatch path.  The ceilings were set at about 1.2x
       what the --sim-speed-smoke runs measured in the dev profile
       (11.49 / 5.12 / 9.09 minor words per event; 8.39 / 4.64 / 7.95
       today, and the full rows read less, as sample-series growth
       amortizes): per-wake closures in the kernel cycle (+7 words/event
       on timer-churn) break them.  What remains is the workloads' own
       actions and samples and float boxing at -opaque call
       boundaries. *)
    ("sim_speed", Exact [ "events"; "minor_words_per_event" ]);
    ("sim_speed", Holds ("fires events", fun r -> counter r "events" > 0.));
    ( "sim_speed",
      At_most { row = "mpeg+interactive"; key = "minor_words_per_event"; max = 13.8 } );
    ( "sim_speed",
      At_most { row = "svr4-ts+irq"; key = "minor_words_per_event"; max = 6.2 } );
    ( "sim_speed",
      At_most { row = "timer-churn"; key = "minor_words_per_event"; max = 10.9 } );
    (* Churn scaling: O(log n) decisions and O(live) memory.  Footprints
       are array lengths, never GC samples, so they repeat exactly. *)
    ( "scale",
      Families [ "sfq-steady"; "sfq-arrival"; "sfq-departure"; "hierarchy-churn" ]
    );
    ( "scale",
      Exact
        [
          "live";
          "minor_words_per_decision";
          "peak_footprint_words";
          "end_footprint_words";
        ] );
    ("scale", At_most { row = ""; key = "minor_words_per_decision"; max = 16. });
    (* log2(10^5)/log2(10^4) is 1.25; 2.5 leaves room for cache-level
       effects and still catches anything polynomial. *)
    ( "scale",
      ratio "decision cost grows O(log n) across a decade"
        (consecutive [ "sfq-steady"; "hierarchy-churn" ])
        2.5 );
    ( "scale",
      ratio ~num:(Counter "peak_footprint_words")
        ~den:(Counter "end_footprint_words")
        "peak footprint within 2x the steady state"
        (against_family ~p:(String.starts_with ~prefix:"sfq-") ~base:"sfq-steady")
        2. );
    (* Without the shrink path this ratio sits at ~1.0. *)
    ( "scale",
      ratio ~num:(Counter "end_footprint_words")
        ~den:(Counter "end_footprint_words")
        "departure churn is reclaimed to 3/4 of steady"
        (against_family ~p:(String.equal "sfq-departure") ~base:"sfq-steady")
        0.75 );
    (* Dispatch over a CPU set: seeded workloads over simulated time, so
       event and migration counts repeat exactly. *)
    ("smp", Exact [ "events"; "minor_words_per_event"; "migrations" ]);
    ("smp", Holds ("fires events", fun r -> counter r "events" > 0.));
    ( "smp",
      Holds
        ( "P=1 never migrates",
          fun r ->
            (not (String.equal (leaf r) "P=1"))
            || Float.equal (counter r "migrations") 0. ) );
    ( "smp",
      Holds
        ( "P>1 migrates (the idle-claim path runs)",
          fun r -> String.equal (leaf r) "P=1" || counter r "migrations" > 0. ) );
    ("smp", At_most { row = ""; key = "minor_words_per_event"; max = 48. });
    (* Machine-relative: against the same run's P=1 row, so a slow box
       cannot fail it, but an O(P) scan in dispatch will. *)
    ("smp", ratio "per-event cost within 3x of P=1" (against_leaf "P=1") 3.);
    (* A parallel sweep exists only to beat serial. *)
    ( "sweeps",
      ratio ~strict:true ~drift:1.33 "parallel wall time below serial"
        (against_leaf "serial") 1. );
  ]

(* Timing drift between two runs outside this band of the fresh/baseline
   median ratio is reported, never failed: timing noise on shared
   hardware must not fail a build. *)
let timing_band = (0.75, 1.33)

type failure = { sect : string; names : string list; what : string }

let fail sect names what = { sect; names; what }

let describe f = Printf.sprintf "%s %s: %s" f.sect (String.concat " vs " f.names) f.what

let value r = function Median -> median r | Counter k -> counter r k

let find rows name = List.find_opt (fun r -> String.equal r.name name) rows

(* The row of [rows] in [r]'s section with [r]'s name. *)
let twin rows r = find (rows_of r.section rows) r.name

(* The ratio rule's values on one file, keyed by the measured row. *)
let ratios pairs ~num ~den rows =
  List.map
    (fun (r, base) ->
      (r, base, Option.map (fun b -> value r num /. value b den) (find rows base)))
    (pairs rows)

(* Every rule that one file must satisfy on its own. *)
let violations rows =
  let per_row rs what =
    List.filter_map (fun r -> Option.map (fail r.section [ r.name ]) (what r)) rs
  in
  match
    per_row rows (fun r ->
        Result.fold ~ok:(fun () -> None) ~error:Option.some (shape r))
  with
  | _ :: _ as malformed -> malformed
  | [] ->
    per_row rows (fun r ->
        if List.for_all (fun s -> s > 0.) r.samples then None
        else Some "a timing sample is not positive")
    @ List.concat_map
        (fun (sect, rule) ->
          let rs = rows_of sect rows in
          match rule with
          | Exact _ -> []
          | Families fams ->
            List.filter_map
              (fun fam ->
                if
                  List.is_empty rs
                  || List.exists (fun r -> String.equal (family r) fam) rs
                then None
                else Some (fail sect [ fam ] "no row of this family"))
              fams
          | At_most { row; key; max } ->
            (if
               String.equal row "" || List.is_empty rs
               || Option.is_some (find rs row)
             then []
             else
               [ fail sect [ row ] (Printf.sprintf "no row to hold its %s ceiling" key) ])
            @ per_row rs (fun r ->
                let v = counter r key in
                if (String.equal row "" || String.equal row r.name) && v > max
                then
                  Some
                    (Printf.sprintf "%s %s over its %s ceiling" key (number v)
                       (number max))
                else None)
          | Holds (claim, ok) ->
            per_row rs (fun r -> if ok r then None else Some claim)
          | Ratio { claim; pairs; num; den; max; strict; _ } ->
            List.filter_map
              (fun (r, base, v) ->
                match v with
                | None ->
                  Some
                    (fail sect [ r.name ]
                       (Printf.sprintf "%s: no %s row to compare with" claim base))
                | Some v when v > max || (strict && v >= max) ->
                  Some
                    (fail sect [ r.name; base ]
                       (Printf.sprintf "%s: ratio %.3f, bound %s %g" claim v
                          (if strict then "<" else "<=")
                          max))
                | Some _ -> None)
              (ratios pairs ~num ~den rs))
        gates

(* Every rule between a committed baseline and a fresh run: a baseline
   row missing from a section the fresh run measured, an exact counter
   that moved, a ratio that drifted past its bound. *)
let regressions ~baseline ~fresh =
  List.filter_map
    (fun b ->
      if List.is_empty (rows_of b.section fresh) || Option.is_some (twin fresh b)
      then None
      else Some (fail b.section [ b.name ] "missing from the fresh run"))
    baseline
  @ List.concat_map
      (fun (sect, rule) ->
        match rule with
        | Exact keys ->
          List.concat_map
            (fun f ->
              match twin baseline f with
              | None -> []
              | Some b ->
                List.filter_map
                  (fun k ->
                    let was = counter b k and now = counter f k in
                    if Float.equal was now then None
                    else
                      Some
                        (fail sect [ f.name ]
                           (Printf.sprintf
                              "%s moved %s -> %s (deterministic; refresh the \
                               baseline if deliberate)"
                              k (number was) (number now))))
                  keys)
            (rows_of sect fresh)
        | Ratio { claim; pairs; num; den; drift = Some d; _ } ->
          let before = ratios pairs ~num ~den (rows_of sect baseline) in
          List.filter_map
            (fun (r, _, v) ->
              let was =
                List.find_map
                  (fun (b, _, w) -> if String.equal b.name r.name then w else None)
                  before
              in
              match (v, was) with
              | Some v, Some w when v > d *. w ->
                Some
                  (fail sect [ r.name ]
                     (Printf.sprintf "%s: ratio %.3f vs %.3f in the baseline, over %gx"
                        claim v w d))
              | _ -> None)
            (ratios pairs ~num ~den (rows_of sect fresh))
        | _ -> [])
      gates
