(** Key tables: the one way a config record is spelled as [key=value]
    tokens. A table lists one {!key} per field a run can vary, in printed
    order; {!Fault}'s trial spec and [Svc.Config] instantiate it. A key's
    parser holds its bounds; checks that span keys stay with the owner. *)

type 'a key = {
  name : string;
  show : 'a -> string;
  parse : string -> 'a -> ('a, string) result;
      (** the record with the key set, or an error naming the key *)
  tunes : Kv.structure option;
      (** [Some st]: tuning of structure [st], printed only off the
          table's default; [None]: printed always *)
}

val key :
  ?tunes:Kv.structure ->
  string ->
  ('a -> string) ->
  (string -> 'a -> ('a, string) result) ->
  'a key

val int_key :
  ?tunes:Kv.structure -> ?min:int -> ?max:int -> string -> ('a -> int) -> ('a -> int -> 'a) -> 'a key

val float_key :
  ?tunes:Kv.structure ->
  ?unit_interval:bool ->
  ?positive:bool ->
  string ->
  ('a -> float) ->
  ('a -> float -> 'a) ->
  'a key
(** Printed by {!Json.num_to_string}, which reads back exactly;
    [~unit_interval] bounds it to [0,1], [~positive] to [> 0]. *)

val switch_key : ?tunes:Kv.structure -> string -> ('a -> bool) -> ('a -> bool -> 'a) -> 'a key
(** [on | off]. *)

val spelling_key :
  string -> (string -> ('b, string) result) -> ('b -> string) -> ('a -> 'b) -> ('a -> 'b -> 'a) -> 'a key
(** A value named by a spelling table, given as its parser and printer. *)

val fields : default:'a -> 'a key list -> 'a -> (string * string) list
(** Each key's name and printed value, in table order; a tuning key only
    where it differs from [default]. *)

val to_string : default:'a -> 'a key list -> 'a -> string
(** {!fields} as one line of [key=value] tokens. *)

val of_string : default:'a -> 'a key list -> string -> ('a, string) result
(** [default] with each space-separated [key=value] token applied in
    order. An unknown key's error names every key. *)

val reparse : 'a key list -> 'a -> ('a, string) result
(** The record unchanged if every key's printed value parses back within
    the key's bounds; otherwise the first key's error. *)
