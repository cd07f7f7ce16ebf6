(** JSON values and the one printer every JSON report and export uses.

    A value is built in the order it is printed: an [Obj]'s fields come
    out in list order, so a report's field layout is the data that
    builds it. The printer is compact (no whitespace anywhere) and adds
    no trailing newline; a caller that wants one appends it.

    Strings are written byte for byte except for the escapes: ["\""],
    ["\\"], [\n], [\r] and [\t] get their two-character forms, every
    other byte below 0x20 becomes [\u00XX], and every byte from 0x20 up,
    including bytes >= 0x80, passes through unchanged. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** [to_buffer buf v] appends the compact rendering of [v] to [buf]. *)
val to_buffer : Buffer.t -> t -> unit

(** [to_string v] — the compact rendering of [v]. *)
val to_string : t -> string

(** [opt f x] — [Null] for [None], [f v] for [Some v]. *)
val opt : ('a -> t) -> 'a option -> t

(** [list f xs] — [Arr (List.map f xs)]. *)
val list : ('a -> t) -> 'a list -> t

(** [strs xs] — an array of strings. *)
val strs : string list -> t
