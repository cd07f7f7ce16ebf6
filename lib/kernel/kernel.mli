(** The microkernel: MMU-based spatial isolation, badged synchronous IPC,
    and pluggable temporal isolation.

    One [Kernel.t] runs on one {!Lt_hw.Machine.t}. Tasks own an address
    space (their page table over machine DRAM) and a capability space.
    Threads are OCaml closures suspended via effects; every syscall is a
    scheduling point, which models preemption at syscall granularity.

    Capabilities bundle a communication right with a badge — the context
    identification the paper names as the tool against confused deputies
    (§III-D). A thread can only name endpoints present in its task's
    capability space: that is POLA, enforced by construction. *)

type t

type task

type endpoint

type rights = { send : bool; recv : bool }

(** Outcome of {!run}. *)
type quiescence =
  | Quiescent     (** no runnable or sleeping threads remain *)
  | Step_limit    (** stopped at [max_steps] dispatches *)
  | Deadlock      (** threads exist but all are blocked on IPC forever *)

type stats = {
  dispatches : int;
  context_switches : int;
  ipc_messages : int;
  denied_cap_uses : int;  (** syscalls refused for missing caps/rights *)
  faults : int;           (** page faults taken *)
}

(** [create machine policy] boots a kernel on [machine]. *)
val create : Lt_hw.Machine.t -> Sched.t -> t

val machine : t -> Lt_hw.Machine.t

val policy : t -> Sched.t

(** [create_task t ~name ~partition] makes an empty task. [partition]
    labels it for TDMA scheduling and analysis. *)
val create_task : t -> name:string -> partition:string -> task

val task_name : task -> string

val task_partition : task -> string

(** [tasks t] — every task ever created, oldest first. The handle a
    conformance checker needs to walk the de-facto capability state
    ({!caps}, {!task_frames}) of a booted kernel. *)
val tasks : t -> task list

(** Physical memory can run out; the syscall reports it, it never
    panics the kernel. *)
type map_error = Out_of_frames

(** [map_memory t task ~vpage ~pages perm] allocates DRAM frames and maps
    them at [vpage..vpage+pages-1]. [Error Out_of_frames] when physical
    memory is exhausted — the task keeps whatever it already had. *)
val map_memory :
  t -> task -> vpage:int -> pages:int -> Lt_hw.Mmu.perm ->
  (unit, map_error) result

(** [free_frames t] — DRAM frames still free: a caller that must not
    leave a half-built task behind checks it before {!create_task}. *)
val free_frames : t -> int

(** [task_frames t task] lists physical pages mapped into the task, for
    isolation assertions. *)
val task_frames : task -> int list

(** [create_endpoint t ~name] makes a kernel IPC object. *)
val create_endpoint : t -> name:string -> endpoint

val endpoint_name : endpoint -> string

(** [grant t task endpoint ~rights ~badge] mints a capability into the
    task's capability space and returns its slot index — the only name
    user code ever holds for the endpoint. *)
val grant : t -> task -> endpoint -> rights:rights -> badge:int -> int

(** [revoke t task ~slot] deletes a capability. *)
val revoke : t -> task -> slot:int -> unit

(** [derive_cap t task ~slot ~rights] mints an attenuated copy of an
    existing capability into a fresh slot: the new rights must be a
    subset of the original's (monotonicity), and the badge is inherited
    — a task can narrow its authority before delegating, never widen it
    or forge an identity. Returns [Error] on missing caps or widening
    attempts. *)
val derive_cap : t -> task -> slot:int -> rights:rights -> (int, string) result

(** [caps t task] lists [(slot, endpoint name, rights, badge)]. *)
val caps : task -> (int * string * rights * int) list

(** [create_thread t task ~name ~prio body] readies a thread. [body]
    runs with the {!User} wrappers available; lower [prio] value = more
    important (fixed-priority policy only). *)
val create_thread : t -> task -> name:string -> prio:int -> (unit -> unit) -> int

(** [run ?max_steps t] dispatches until quiescence, deadlock or the step
    limit (default 1_000_000 dispatches). *)
val run : ?max_steps:int -> t -> quiescence

val stats : t -> stats

(** [thread_ticks t tid] is simulated CPU time consumed by the thread. *)
val thread_ticks : t -> int -> int

(** [thread_alive t tid]. *)
val thread_alive : t -> int -> bool

(** [thread_crash t tid] is the exception that killed the thread, if it
    died by an uncaught exception (component crash / fault injection). *)
val thread_crash : t -> int -> exn option

(** [thread_count t] — threads the kernel still holds: the live ones
    plus the exited ones nobody {!reap}ed. *)
val thread_count : t -> int

(** [reap t tid] forgets an exited thread: it leaves the thread table,
    the creation order and the ready queue, so the scheduler's scans and
    the snapshot and digest folds no longer visit it. It acts only on a
    [Dead] thread (exited, crashed or killed); on a live or unknown tid
    it does nothing. Afterwards [thread_alive t tid] is [false] and
    [thread_ticks t tid] is [0]; {!thread_crash} still answers. *)
val reap : t -> int -> unit

(** [kill_thread t tid] forcibly terminates a thread (component
    teardown). Safe on already-dead threads. *)
val kill_thread : t -> int -> unit

val pp_quiescence : Format.formatter -> quiescence -> unit

(** Capture tasks, capability spaces, threads and stats; the returned
    thunk restores them (re-runnable).  Contract: capture at a quiescent
    point.  Effect continuations are one-shot, so restore normalizes
    every live thread back to Ready at its original entry point and
    clears endpoint queues; server loops re-block on their next [run]
    and the kernel is observationally the captured one.  The machine
    underneath is captured separately ({!Lt_hw.Machine.take_snapshot}). *)
val take_snapshot : t -> unit -> unit

val state_digest : t -> Lt_world.Digest64.t

(** The kernel as one {!Lt_world.Snapshottable} layer (machine not
    included). *)
val layer : ?name:string -> t -> Lt_world.Snapshottable.layer
