(** HMAC-SHA256 (RFC 2104). Tags are 32-byte strings. *)

val tag_size : int
(** 32. *)

(** [mac ~key msg] is the HMAC-SHA256 tag of [msg] under [key]. *)
val mac : key:string -> string -> string

(** [verify ~key ~tag msg] checks [tag] in constant time. *)
val verify : key:string -> tag:string -> string -> bool

(** {2 Prepared keys}

    A key used for many messages is prepared once: its inner and outer
    pads are absorbed into two SHA-256 midstates, and every tag starts
    from copies of them. Tags are the same bytes as {!mac}'s. A prepared
    key is a pure function of the key string; it holds no other state. *)

type prepared

(** [prepare key] absorbs both pads of [key]. *)
val prepare : string -> prepared

(** [mac_with k parts] = [mac ~key (String.concat "" parts)] for the
    key [k] was prepared from, without building the concatenation. *)
val mac_with : prepared -> string list -> string
