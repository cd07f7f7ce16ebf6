(** SPECK64/128 block cipher with CTR mode and an encrypt-then-MAC AEAD.

    SPECK is chosen because it is tiny, published, and implementable
    without lookup tables — a good stand-in for the AES engines fused
    into the simulated devices. Keys are 16 bytes; nonces 8 bytes. *)

type key

val key_size : int
(** 16 bytes. *)

val nonce_size : int
(** 8 bytes. *)

(** [key_of_string s] builds a key schedule. Raises [Invalid_argument]
    unless [String.length s = 16]; {!Aead.of_key} always passes 16. *)
val key_of_string : string -> key

(** [encrypt_block key (x, y)] encrypts one 64-bit block given as two
    32-bit halves. *)
val encrypt_block : key -> int * int -> int * int

(** [decrypt_block key (x, y)] inverts {!encrypt_block}. *)
val decrypt_block : key -> int * int -> int * int

(** [ctr ~key ~nonce msg] en/decrypts [msg] with the CTR keystream
    (involution: apply twice to recover). Raises [Invalid_argument]
    unless [nonce] is 8 bytes. *)
val ctr : key:key -> nonce:string -> string -> string

(** Authenticated encryption: CTR + HMAC-SHA256 over nonce, associated
    data and ciphertext (encrypt-then-MAC with independent derived keys). *)
module Aead : sig
  type sealed = { nonce : string; ciphertext : string; tag : string }

  (** {2 Keyed contexts}

      A context holds what a master key derives: the CTR round keys and
      the prepared MAC key. Build it once per key and keep it; every
      seal and open under that key then skips the two HKDF derivations.
      A context is a pure function of its master key, so it is a cache:
      it never needs to be snapshotted, digested or restored. *)

  type ctx

  (** [of_key master] derives the cipher and MAC keys from [master]
      (any length; every holder passes 16 or 32 bytes). *)
  val of_key : string -> ctx

  (** [seal ctx ~nonce ~ad msg] encrypts and authenticates [msg]. Raises
      [Invalid_argument] unless [nonce] is {!nonce_size} bytes; every
      holder derives its nonce at that length. *)
  val seal : ctx -> nonce:string -> ad:string -> string -> sealed

  (** [open_ ctx ~ad sealed] is [Some plaintext], or [None] if the nonce
      is not {!nonce_size} bytes or the tag check fails (tampering, wrong
      key or wrong associated data). Never raises. *)
  val open_ : ctx -> ad:string -> sealed -> string option

  (** [seal_wire] is {!seal} followed by {!to_wire}. *)
  val seal_wire : ctx -> nonce:string -> ad:string -> string -> string

  (** [open_wire ctx ~ad wire] is {!of_wire} followed by {!open_}: [None]
      on a malformed or truncated record as on a failed tag. *)
  val open_wire : ctx -> ad:string -> string -> string option

  (** {2 One-shot}

      For a key used once (a TPM seal key depends on the PCR values of
      the moment). Each call derives a fresh context. *)

  (** [encrypt ~key] = [seal (of_key key)]. *)
  val encrypt : key:string -> nonce:string -> ad:string -> string -> sealed

  (** [decrypt ~key] = [open_ (of_key key)]. *)
  val decrypt : key:string -> ad:string -> sealed -> string option

  (** [to_wire s] / [of_wire] give a stable string framing for sending a
      sealed box over the simulated network or storing it on disk. *)
  val to_wire : sealed -> string

  val of_wire : string -> sealed option
end
