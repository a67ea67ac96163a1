(* Tests for lib/json: the printer's number and string forms, the parser,
   the schema registry, the leaves that tools/json_check prints, and the
   agreement between the registry and DESIGN.md's schema table. *)

let str = Alcotest.(check string)

let test_fixed () =
  str "3 decimals" "1.500" (Json.to_string (Json.Fixed (3, 1.5)));
  str "rounds" "2.718" (Json.to_string (Json.Fixed (3, 2.71828)));
  str "zero decimals" "1234568" (Json.to_string (Json.Fixed (0, 1234567.6)));
  str "float noise prints as zero" "0.000000" (Json.to_string (Json.Fixed (6, 1e-10)));
  str "non-finite is null" "null" (Json.to_string (Json.Fixed (3, nan)))

let test_num () =
  str "integer" "42" (Json.to_string (Json.int 42));
  str "negative integer" "-7" (Json.to_string (Json.int (-7)));
  str "large integer" "20210811123" (Json.to_string (Json.int 20210811123));
  str "shortest" "0.1" (Json.to_string (Json.Num 0.1));
  str "shortest keeps every digit" "0.30000000000000004"
    (Json.to_string (Json.Num (0.1 +. 0.2)));
  str "exponent" "1e-10" (Json.to_string (Json.Num 1e-10));
  str "non-finite is null" "null" (Json.to_string (Json.Num infinity))

let test_escapes () =
  str "quote and backslash" {|"a\"b\\c"|} (Json.to_string (Json.Str {|a"b\c|}));
  str "newline" {|"a\nb"|} (Json.to_string (Json.Str "a\nb"));
  str "other control characters" {|"\u0009\u0001\u001f"|}
    (Json.to_string (Json.Str "\t\001\031"));
  str "escaped key" {|{"k\"":1}|} (Json.to_string (Json.Obj [ ({|k"|}, Json.int 1) ]))

let test_empty_containers () =
  str "empty list" "[]" (Json.to_string (Json.List []));
  str "empty object" "{}" (Json.to_string (Json.Obj []));
  str "compact nesting" {|{"a":[],"b":{},"c":[1,true,null]}|}
    (Json.to_string
       (Json.Obj
          [
            ("a", Json.List []); ("b", Json.Obj []);
            ("c", Json.List [ Json.int 1; Json.Bool true; Json.Null ]);
          ]))

let test_roundtrip () =
  List.iter
    (fun s -> str s s (Json.to_string (Json.parse s)))
    [
      {|{"schema":"x/1","n":[1,-2,0.5,1e-10,0.30000000000000004],"s":"a\"\\\n\u0001","o":{},"l":[],"b":[true,false,null]}|};
      {|[{"a":{"b":[[]]}}]|};
      {|"just a string"|};
    ];
  Alcotest.(check bool) "whitespace tolerated" true
    (Json.parse " { \"a\" : [ 1 , 2 ] }\n" = Json.Obj [ ("a", Json.List [ Json.int 1; Json.int 2 ]) ])

let parse_fails s =
  match Json.parse s with _ -> false | exception Json.Parse_error _ -> true

let test_parse_errors () =
  Alcotest.(check bool) "trailing garbage" true (parse_fails {|{"a":1} x|});
  Alcotest.(check bool) "two documents" true (parse_fails "1 2");
  Alcotest.(check bool) "unterminated string" true (parse_fails {|{"a":"b|});
  Alcotest.(check bool) "unterminated escape" true (parse_fails {|"ab\|});
  Alcotest.(check bool) "empty input" true (parse_fails "")

let doc fields = Json.Obj fields

let validate_error j =
  match Json.Schema.validate j with Ok _ -> "" | Error e -> e

let test_schema_validate () =
  let s = Json.Schema.crash_campaign in
  let good =
    Json.Schema.doc s (List.map (fun f -> (f, Json.int 0)) s.Json.Schema.required)
  in
  Alcotest.(check bool) "registered document validates" true
    (Json.Schema.validate good = Ok s);
  let fields = match good with Json.Obj kvs -> kvs | _ -> [] in
  let with_ k v = doc ((k, v) :: List.remove_assoc k fields) in
  Alcotest.(check bool) "unknown name rejected" true
    (validate_error (with_ "schema" (Json.Str "upskip-nonesuch/1")) <> "");
  Alcotest.(check bool) "wrong version in the name rejected" true
    (validate_error (with_ "schema" (Json.Str "upskip-crash-campaign/2")) <> "");
  Alcotest.(check bool) "wrong schema_version rejected" true
    (validate_error (with_ "schema_version" (Json.int 2)) <> "");
  Alcotest.(check bool) "missing required field rejected" true
    (validate_error (doc (List.remove_assoc "replays" fields)) <> "");
  Alcotest.(check bool) "no schema rejected" true
    (validate_error (doc (List.remove_assoc "schema" fields)) <> "");
  Alcotest.(check bool) "doc refuses a missing required field" true
    (match Json.Schema.doc s [] with _ -> false | exception Invalid_argument _ -> true)

(* The SLO report nests per-shard and per-client objects that reuse the
   top-level keys; a read by path must not confuse them. *)
let test_leaves () =
  let j =
    Json.parse
      {|{"shards":[{"lost":3}],"lost":0,"spans":{"count":7,"phases":[{"latency_ns":{"count":9}}],"residual_max_ns":0.000000},"s":"a\tb","e":[],"n":null}|}
  in
  let l = Json.leaves j in
  str "top-level lost" "0" (List.assoc "lost" l);
  str "nested lost" "3" (List.assoc "shards.0.lost" l);
  str "spans.count is not the phase count" "7" (List.assoc "spans.count" l);
  str "phase count" "9" (List.assoc "spans.phases.0.latency_ns.count" l);
  str "fixed residual reads back as zero" "0" (List.assoc "spans.residual_max_ns" l);
  str "string escaped, unquoted" {|a\u0009b|} (List.assoc "s" l);
  str "empty list is a leaf" "[]" (List.assoc "e" l);
  str "null" "null" (List.assoc "n" l)

(* DESIGN.md's "Observability schemas" table names one schema id per row
   in its third column; it must list exactly the registry. *)
let test_design_table () =
  let ic = open_in_bin "../DESIGN.md" in
  let lines = String.split_on_char '\n' (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let rec section = function
    | [] -> []
    | l :: rest when l = "## Observability schemas" ->
        let rec body = function
          | l :: rest when not (String.length l >= 3 && String.sub l 0 3 = "## ") -> l :: body rest
          | _ -> []
        in
        body rest
    | _ :: rest -> section rest
  in
  let ids =
    List.filter_map
      (fun l ->
        match String.split_on_char '|' l with
        | "" :: _ :: _ :: schema :: _ when String.contains schema '`' -> (
            match String.split_on_char '`' schema with
            | _ :: id :: _ -> Some id
            | _ -> None)
        | _ -> None)
      (section lines)
  in
  Alcotest.(check (list string)) "DESIGN.md table = Json.Schema.all"
    (List.sort compare (List.map Json.Schema.id Json.Schema.all))
    (List.sort compare ids)

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "json"
    [
      ( "print",
        [
          case "fixed digits" test_fixed;
          case "shortest numbers and integers" test_num;
          case "string escapes" test_escapes;
          case "empty containers" test_empty_containers;
        ] );
      ( "parse",
        [ case "roundtrip" test_roundtrip; case "errors" test_parse_errors ] );
      ( "schema",
        [
          case "validate" test_schema_validate;
          case "leaves by path" test_leaves;
          case "DESIGN.md table" test_design_table;
        ] );
    ]
