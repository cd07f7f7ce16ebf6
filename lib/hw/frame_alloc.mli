(** Physical frame allocator over a page range (free-list based).

    Used by kernels and enclave managers to hand out 4 KiB frames; frees
    are checked so double-free bugs in substrate code surface early. *)

type t

(** [create ~first_page ~pages] manages [pages] frames starting at
    physical page [first_page]. *)
val create : first_page:int -> pages:int -> t

(** [alloc t] takes a free frame (physical page number). *)
val alloc : t -> int option

(** [alloc_n t n] takes [n] frames, or [None] (and takes nothing) if
    fewer are free. *)
val alloc_n : t -> int -> int list option

(** Why {!alloc_contiguous} refused. *)
type refusal =
  | Too_few  (** fewer frames free than asked for *)
  | Fragmented  (** the frames next in line are not one physical run *)

(** [alloc_contiguous t n] takes the [n] frames {!alloc_n} would take
    when they form one run of consecutive pages, and returns the lowest
    one. On a refusal it takes nothing: the free list and
    {!state_digest} are exactly as before. *)
val alloc_contiguous : t -> int -> (int, refusal) result

(** [free t page] returns a frame. Raises [Invalid_argument] on frames
    not owned or already free. *)
val free : t -> int -> unit

val free_count : t -> int

val total : t -> int

(** Capture the state; the returned thunk restores it (re-runnable). *)
val take_snapshot : t -> unit -> unit

val state_digest : t -> Lt_world.Digest64.t
