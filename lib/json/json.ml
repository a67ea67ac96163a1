(* The one JSON emitter: every machine-readable document the repository
   writes is a [t] printed by [to_string] and stamped by [Schema.doc]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Fixed of int * float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let int n = Num (float_of_int n)

(* Integers print without a decimal point; any other float prints as the
   shortest decimal that reads back as the same float. *)
let num_to_string f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 0x1p53 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_string = function
  | Null -> "null"
  | Bool x -> string_of_bool x
  | Num f -> num_to_string f
  | Fixed (d, f) -> if Float.is_finite f then Printf.sprintf "%.*f" d f else "null"
  | Str s -> "\"" ^ escape s ^ "\""
  | List l -> "[" ^ String.concat "," (List.map to_string l) ^ "]"
  | Obj kvs ->
      "{" ^ String.concat "," (List.map (fun (k, v) -> to_string (Str k) ^ ":" ^ to_string v) kvs) ^ "}"

let write_file path v =
  let oc = open_out_bin path in
  output_string oc (to_string v);
  output_char oc '\n';
  close_out oc

exception Parse_error of string

let parse s =
  let n = String.length s and pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip () =
    if !pos < n && String.contains " \t\n\r" s.[!pos] then begin
      incr pos;
      skip ()
    end
  in
  let eat c =
    skip ();
    if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string () =
    eat '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' when !pos < n && s.[!pos] = 'u' -> (
          match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) (min 4 (n - !pos - 1))) with
          | Some code when !pos + 5 <= n && Uchar.is_valid code ->
              pos := !pos + 5;
              Buffer.add_utf_8_uchar b (Uchar.of_int code);
              go ()
          | _ -> fail "bad \\u escape")
      | '\\' when !pos < n ->
          let e = s.[!pos] in
          incr pos;
          Buffer.add_char b
            (match e with 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r' | 'b' -> '\b' | 'f' -> '\012' | e -> e);
          go ()
      | '\\' -> fail "unterminated string"
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while !pos < n && String.contains "0123456789+-.eE" s.[!pos] do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f when !pos > start -> Num f
    | _ -> fail "bad number"
  in
  (* the comma-separated items of an array or object, up to [close] *)
  let items close item =
    skip ();
    if peek () = close then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let acc = item () :: acc in
        skip ();
        if peek () = ',' then begin
          incr pos;
          go acc
        end
        else begin
          eat close;
          List.rev acc
        end
      in
      go []
  in
  let rec value () =
    skip ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
        incr pos;
        Obj
          (items '}' (fun () ->
               let k = string () in
               eat ':';
               (k, value ())))
    | '[' ->
        incr pos;
        List (items ']' value)
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing data";
  v

(* Every scalar leaf as (dotted path, value): list elements are numbered
   from 0, strings print escaped but unquoted, and an empty list or
   object is itself a leaf ("[]" or "{}"). What tools/json_check prints. *)
let leaves v =
  let out = ref [] in
  let join path k = if path = "" then k else path ^ "." ^ k in
  let rec go path = function
    | List [] -> out := (path, "[]") :: !out
    | Obj [] -> out := (path, "{}") :: !out
    | List l -> List.iteri (fun i x -> go (join path (string_of_int i)) x) l
    | Obj kvs -> List.iter (fun (k, x) -> go (join path k) x) kvs
    | Str s -> out := (path, escape s) :: !out
    | scalar -> out := (path, to_string scalar) :: !out
  in
  go "" v;
  List.rev !out

module Schema = struct
  type json = t
  type t = { name : string; version : int; required : string list }

  let v name version required = { name; version; required }

  (* [required] names the top-level fields that readers rely on: the
     shell gates, json_check's callers and the layout baseline. *)
  let svc_slo = v "upskip-svc-slo" 5 [ "config"; "latency_ns"; "lost"; "replayed"; "spans" ]
  let svc_spans = v "upskip-svc-spans" 2 [ "config"; "latency_ns"; "spans" ]
  let svc_tail = v "upskip-svc-tail" 2 [ "trials" ]

  let crash_campaign =
    v "upskip-crash-campaign" 1
      [ "trials"; "audit_failures"; "violation_trials"; "replays"; "failures" ]

  let obs_totals = v "upskip-obs-totals" 2 [ "totals" ]
  let obs_metrics = v "upskip-obs-metrics" 4 [ "label"; "seed"; "sections" ]
  let obs_trace = v "upskip-obs-trace" 3 [ "traceEvents"; "droppedEvents" ]
  let bench_samples = v "upskip-bench-samples" 1 [ "label"; "scale"; "figures" ]

  let all =
    [
      svc_slo; svc_spans; svc_tail; crash_campaign; obs_totals;
      obs_metrics; obs_trace; bench_samples;
    ]

  let id s = Printf.sprintf "%s/%d" s.name s.version

  (* The document [fields] stamped with [s]'s "schema" and
     "schema_version"; a missing required field is a bug in the writer. *)
  let doc s fields =
    List.iter
      (fun f ->
        if not (List.mem_assoc f fields) then
          invalid_arg (Printf.sprintf "Json.Schema.doc %s: missing %S" (id s) f))
      s.required;
    Obj (("schema", Str (id s)) :: ("schema_version", int s.version) :: fields)

  (* The registered schema [j] names, if [j] carries its exact version
     and every required field. *)
  let validate (j : json) =
    let fields = match j with Obj kvs -> kvs | _ -> [] in
    match List.assoc_opt "schema" fields with
    | Some (Str sv) -> (
        let name =
          match String.rindex_opt sv '/' with Some i -> String.sub sv 0 i | None -> sv
        in
        match List.find_opt (fun s -> s.name = name) all with
        | None -> Error (Printf.sprintf "unknown schema %S" sv)
        | Some s when sv <> id s || List.assoc_opt "schema_version" fields <> Some (int s.version) ->
            Error (Printf.sprintf "schema %S: the registered version is %s" sv (id s))
        | Some s -> (
            match List.find_opt (fun f -> not (List.mem_assoc f fields)) s.required with
            | Some f -> Error (Printf.sprintf "%s: missing required field %S" sv f)
            | None -> Ok s))
    | _ -> Error "no top-level \"schema\" string"
end
