(** Simulated physical memory.

    A flat byte store partitioned into named regions. Regions are either
    on-chip (caches, SRAM scratchpads, boot ROM — shielded from physical
    attackers) or off-chip (DRAM — exposed on the memory bus, per §II-D
    of the paper). Ranges of off-chip memory can be covered by a memory
    encryption engine (MEE), the mechanism behind SGX enclave memory and
    the SEP's inline encryption: CPU-path accesses see plaintext, while
    physical (tamper) accesses see ciphertext, and physical modification
    is detected on the next CPU read via per-block MACs. *)

type t

type region = {
  name : string;
  base : int;
  size : int;
  on_chip : bool;
  writable : bool;  (** ROM regions are not CPU-writable *)
}

exception Bad_address of int

exception Rom_write of int

(** Raised on a CPU read from MEE-covered memory whose integrity MAC no
    longer matches — i.e. a physical attacker patched the ciphertext. *)
exception Integrity_violation of int

(** [create regions] builds memory covering the given non-overlapping
    regions. Raises [Invalid_argument] on overlaps. *)
val create : region list -> t

val regions : t -> region list

(** [region_of t addr] is the region containing [addr]. *)
val region_of : t -> int -> region option

(** [install_mee t ~base ~size ~key] covers [base, base+size) with an
    encryption engine keyed by [key]. The range must be block-aligned
    (64-byte blocks) and lie in a single off-chip region.

    The engine is lazy, and no observer can tell. Install does no
    per-block crypto: each 64-byte block stays {e pending}, its
    plaintext still raw and no MAC yet. A block gets its ciphertext and
    MAC the first time anything reads or writes its raw bytes: a CPU
    access to it, a {!phys_read}, {!phys_write} or {!manufacture_write}
    whose range overlaps it, or any {!take_snapshot} or {!state_digest},
    which materialise every pending block. Every result, exception and
    digest is the one an engine that encrypted the whole range at
    install would give. *)
val install_mee : t -> base:int -> size:int -> key:string -> unit

(** [retire_mee t ~base] drops the engine installed at [base] and
    zero-fills its raw range, without materialising anything (a no-op if
    no engine starts at [base]). *)
val retire_mee : t -> base:int -> unit

(** CPU-path access: applies MEE transparently; enforces ROM immutability. *)
val cpu_read : t -> addr:int -> len:int -> string

val cpu_write : t -> addr:int -> string -> unit

(** Physical-path access ({!Tamper}): raw stored bytes, no MEE, no ROM
    protection for reads; writes to on-chip regions raise [Bad_address]
    (the attacker cannot reach inside the package). *)
val phys_read : t -> addr:int -> len:int -> string

val phys_write : t -> addr:int -> string -> unit

(** [manufacture_write t ~addr s] writes ignoring all protections —
    the factory burning ROM contents before the device ships. Not to be
    used after boot; runtime code goes through {!cpu_write}. *)
val manufacture_write : t -> addr:int -> string -> unit

(** Capture the byte store (copy-on-write: O(chunks)) and MEE state;
    the returned thunk restores both (re-runnable). Materialises every
    pending block first, so a snapshot never holds one. *)
val take_snapshot : t -> unit -> unit

(** Materialises every pending block, then digests the byte store and
    the MAC tables. *)
val state_digest : t -> Lt_world.Digest64.t
