(* Gate tool: validate a JSON document against the schema registry
   ([Json.Schema]) and read it by path, so shell gates never scrape JSON.

   Usage: json_check FILE [PATH...]

   Without PATHs, prints every scalar leaf as "path<TAB>value" (list
   elements are numbered from 0, e.g. "spans.phases.4.name"; strings
   print escaped but unquoted; an empty list or object is a leaf "[]" or
   "{}"). With PATHs, prints the value of each, one per line. Exits 1 if
   the file does not parse, does not validate, or lacks a PATH. *)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] ->
      prerr_endline "usage: json_check FILE [PATH...]";
      exit 2
  | file :: paths -> (
      let fail msg =
        Printf.eprintf "json_check: %s: %s\n" file msg;
        exit 1
      in
      let doc =
        try Json.parse (In_channel.with_open_bin file In_channel.input_all)
        with Json.Parse_error e | Sys_error e -> fail e
      in
      (match Json.Schema.validate doc with Ok _ -> () | Error e -> fail e);
      let leaves = Json.leaves doc in
      match paths with
      | [] -> List.iter (fun (p, v) -> Printf.printf "%s\t%s\n" p v) leaves
      | _ ->
          List.iter
            (fun p ->
              match List.assoc_opt p leaves with
              | Some v -> print_endline v
              | None -> fail (Printf.sprintf "no field %S" p))
            paths)
