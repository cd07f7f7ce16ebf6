(** SHA-256 (FIPS 180-4), pure OCaml.

    Used as the measurement hash for launch chains, PCR extension,
    enclave measurement and Merkle trees. Digests are 32-byte strings. *)

type ctx

val digest_size : int
(** 32. *)

(** [init ()] is a fresh hashing context. *)
val init : unit -> ctx

(** [copy ctx] is an independent context in the same state: feeding
    either leaves the other as it was. {!Hmac} keeps its key pads
    absorbed in a context and copies it per message. *)
val copy : ctx -> ctx

(** [feed ctx s] absorbs [s]. *)
val feed : ctx -> string -> unit

(** [finalize ctx] returns the 32-byte digest; [ctx] must not be reused. *)
val finalize : ctx -> string

(** [digest s] is the one-shot digest of [s]. *)
val digest : string -> string

(** [digest_concat parts] hashes the concatenation of [parts] without
    building the intermediate string. *)
val digest_concat : string list -> string

(** [hex d] renders a digest (or any string) as lowercase hex. *)
val hex : string -> string
