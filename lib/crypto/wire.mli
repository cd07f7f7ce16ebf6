(** Length-prefixed string framing for protocol messages.

    Every protocol in the simulation (TLS-like handshake, attestation
    evidence, VPFS metadata) frames its fields with this module so
    parsers are total and tampering yields [None], never a crash. *)

(** [encode fields] frames a list of strings: each field follows its
    length as 8 zero-padded decimal digits ([%08d]). *)
val encode : string list -> string

(** [decode s] recovers the exact field list, or [None] on malformed
    input (wrong lengths, trailing garbage). *)
val decode : string -> string list option

(** [tagged tag fields] frames a message with a leading tag field. *)
val tagged : string -> string list -> string

(** [untag s] splits a tagged message into [(tag, fields)]. *)
val untag : string -> (string * string list) option

(** {2 The length header}

    Shared with {!Speck.Aead}'s record framing. *)

(** [length_prefix n] is the header of a length [n >= 0]: [n] in
    decimal zero-padded to 8 digits, as [%08d] prints it, so with more
    digits from [10^8] up. *)
val length_prefix : int -> string

(** [length_at s off] reads the 8-byte header at [off], with exactly
    the meaning of [int_of_string_opt (String.sub s off 8)]: any spelling
    OCaml accepts ([+], [-], [0x], [0o], [0b], [0u], [_]) reads as its
    value. [None] when the header runs past the end of [s]. *)
val length_at : string -> int -> int option
