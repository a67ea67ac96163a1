(* Key tables shared by every [key=value] vocabulary: the combinators that
   build a key, the printer and the tokenizer. See keys.mli. *)

type 'a key = {
  name : string;
  show : 'a -> string;
  parse : string -> 'a -> ('a, string) result;
  tunes : Kv.structure option;
}

let ( let* ) = Result.bind
let key ?tunes name show parse = { name; show; parse; tunes }

let int_key ?tunes ?(min = min_int) ?(max = max_int) name get set =
  key ?tunes name
    (fun s -> string_of_int (get s))
    (fun v s ->
      match int_of_string_opt v with
      | None -> Error (Printf.sprintf "%s: not an integer: %s" name v)
      | Some n when n < min -> Error (Printf.sprintf "%s must be >= %d: %d" name min n)
      | Some n when n > max -> Error (Printf.sprintf "%s must be <= %d: %d" name max n)
      | Some n -> Ok (set s n))

let float_key ?tunes ?(unit_interval = false) ?(positive = false) name get set =
  key ?tunes name
    (fun s -> Json.num_to_string (get s))
    (fun v s ->
      match float_of_string_opt v with
      | None -> Error (Printf.sprintf "%s: not a number: %s" name v)
      | Some f when unit_interval && not (f >= 0.0 && f <= 1.0) ->
          Error (Printf.sprintf "%s: want a probability in [0,1]: %g" name f)
      | Some f when positive && not (f > 0.0 && Float.is_finite f) ->
          Error (Printf.sprintf "%s must be positive: %g" name f)
      | Some f -> Ok (set s f))

let switch_key ?tunes name get set =
  key ?tunes name
    (fun s -> if get s then "on" else "off")
    (fun v s ->
      match v with
      | "on" -> Ok (set s true)
      | "off" -> Ok (set s false)
      | _ -> Error (Printf.sprintf "%s: want on | off: %s" name v))

let spelling_key name of_string to_name get set =
  key name
    (fun s -> to_name (get s))
    (fun v s -> Result.map (set s) (of_string v))

let fields ~default keys s =
  List.filter (fun k -> k.tunes = None || k.show s <> k.show default) keys
  |> List.map (fun k -> (k.name, k.show s))

let to_string ~default keys s =
  String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) (fields ~default keys s))

let of_string ~default keys line =
  let parse_token acc tok =
    let* s = acc in
    match String.index_opt tok '=' with
    | None -> Error (Printf.sprintf "malformed token (expected key=value): %s" tok)
    | Some i -> (
        let name = String.sub tok 0 i in
        let v = String.sub tok (i + 1) (String.length tok - i - 1) in
        match List.find_opt (fun k -> k.name = name) keys with
        | Some k -> k.parse v s
        | None ->
            Error
              (Printf.sprintf "unknown key: %s (want %s)" name
                 (String.concat " | " (List.map (fun k -> k.name) keys))))
  in
  String.split_on_char ' ' (String.trim line)
  |> List.filter (fun t -> t <> "")
  |> List.fold_left parse_token (Ok default)

let reparse keys s =
  let* _ = List.fold_left (fun acc k -> let* t = acc in k.parse (k.show s) t) (Ok s) keys in
  Ok s
