(** Apple-style Secure Enclave Processor (§II-B).

    A dedicated coprocessor beside the application CPU: it runs its own
    L4-style kernel, owns a private slice of DRAM accessed through
    inline encryption, and talks to the application processor only over
    a narrow mailbox. Compared to TrustZone this buys:
    - resistance to physical memory attacks (inline DRAM encryption);
    - reduced side channels (no shared cache with the application CPU —
      SEP services never touch the machine's {!Lt_hw.Cache});
    but it stays inflexible: exactly two environments, services fixed at
    integration time ("essentially an on-device HSM").

    The per-device UID key is fused at manufacture and readable only by
    the SEP kernel. *)

type t

type ctx

type handler = ctx -> string -> string

(** [attach machine rng ~private_pages] integrates a SEP: carves its
    private encrypted DRAM, fuses the UID key, boots the SEP kernel. *)
val attach : Lt_hw.Machine.t -> Lt_crypto.Drbg.t -> private_pages:int -> t

(** [register_service t ~name handler] — services are fixed by the
    integrator; there is no runtime code loading on a SEP. *)
val register_service : t -> name:string -> handler -> unit

(** [mailbox_call t ~service req] is the application CPU's only way in.
    Charges mailbox round-trip ticks. *)
val mailbox_call : t -> service:string -> string -> (string, string) result

val mailbox_count : t -> int

(** [private_range t] is [(base, size)] of the encrypted region. *)
val private_range : t -> int * int

(** [provisioning_record t] is the manufacture-time copy of the UID key
    that the device maker retains in its verification database — how a
    remote party can check SEP-backed attestation tags. Not accessible
    to software on the device. *)
val provisioning_record : t -> string

(** {2 Inside the SEP (for handlers)} *)

(** [uid_key ctx] is the fused per-device secret — never exported. *)
val uid_key : ctx -> string

(** [uid_mac ctx msg] = [Hmac.mac ~key:(uid_key ctx) msg], from the UID
    key's HMAC pads, which the SEP absorbs once at {!attach}. *)
val uid_mac : ctx -> string -> string

(** [store ctx ~key data] / [load ctx ~key] persist into the SEP's
    private DRAM (physically ciphertext on the bus). *)
val store : ctx -> key:string -> string -> unit

val load : ctx -> key:string -> string option

(** [derive ctx ~info len] derives key material from the UID key —
    the primitive behind per-file keys, passcode entanglement, etc. *)
val derive : ctx -> info:string -> int -> string

(** Capture services, the protected KV store and the mailbox counter;
    the returned thunk restores them.  The machine (including the
    MEE-encrypted DRAM slice) is captured separately. *)
val take_snapshot : t -> unit -> unit

val state_digest : t -> Lt_world.Digest64.t
