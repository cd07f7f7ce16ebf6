(** One seeded fault schedule under every chaos harness.

    {!Lt_resil.Chaos} kills components and {!Lt_fleet.Fleet_chaos} kills
    machines, and both audit the same thing: a seeded request sequence
    runs while faults land at seeded instants, each request is tallied
    as ok, {e excused} (a fault reached its slice) or {e unexcused} (a
    containment violation), and the components' worst observed impacts
    form the dynamic blast radius that {!Contain.escapes} holds inside
    the static prediction. This module is that loop, its tally and the
    shared part of its report; a layer supplies only its fault
    injectors, its excuse predicate and its own report lines.

    Determinism: instants are drawn from the caller's DRBG in plan
    order, and requests run in order under trace id [i], so equal seeds
    give equal schedules, tallies and trace exports. *)

(** A run in progress: the tally, its tracer and its metrics registry. *)
type t

(** [create ?trace_capacity ~prefix ()] — a fresh run whose outcomes
    count into the [<prefix>/ok], [<prefix>/failed_excused] and
    [<prefix>/failed_unexcused] counters of its own metrics registry,
    traced into a fresh ring of [trace_capacity] spans (default
    65536). *)
val create : ?trace_capacity:int -> prefix:string -> unit -> t

(** [within t f] runs [f] with [t]'s tracer and metrics installed. *)
val within : t -> (unit -> 'a) -> 'a

val tracer : t -> Lt_obs.Trace.t

(** [each rng ~requests faults step] draws each fault's instant,
    [1 + Drbg.int rng (max requests 1)], in plan order, then runs
    [step i due] for every request [i] in [1..requests] under trace id
    [i], where [due] lists the faults drawn for [i] in plan order. *)
val each :
  Lt_crypto.Drbg.t -> requests:int -> 'a list -> (int -> 'a list -> unit) ->
  unit

(** [request ~detail ~target ~service i call] runs [call] inside the
    ["request"] span [target.service] of request [i], failing the span
    with [detail e] when the call answers [Error e]. *)
val request :
  detail:('e -> string) -> target:string -> service:string -> int ->
  (unit -> ('a, 'e) result) -> ('a, 'e) result

(** [kill t i what] logs a fault injected at request [i]. *)
val kill : t -> int -> string -> unit

(** [degrade t c] — component [c] was observed degraded: its requests
    failed on a dead, cut or shed slice. *)
val degrade : t -> string -> unit

(** [settle t i r ~excused ~violation] tallies request [i]'s answer.
    An [Error e] is excused when [excused e] holds; otherwise it is a
    containment violation described by [violation e]. *)
val settle :
  t -> int -> ('a, 'e) result -> excused:('e -> bool) ->
  violation:('e -> string) -> unit

(** {2 The report core} *)

type outcome = {
  ok : int;
  failed_excused : int;  (** failed with a fault in the request's slice *)
  failed_unexcused : int;  (** containment violations *)
  violation_detail : (int * string) list;  (** request, what escaped *)
  kills : (int * string) list;  (** request instant, what was killed *)
  observed : (string * Contain.impact) list;
      (** the dynamic blast radius: worst impact each component was
          observed to suffer, sorted by name; untouched components are
          absent *)
  counters : (string * int) list;
  span_ticks : int;
}

(** [outcome t ~components worst] — the run so far. A component's
    observed impact is [worst c], or [Degraded] when [worst c] is
    [None] and {!degrade} marked it. *)
val outcome :
  t -> components:string list -> (string -> Contain.impact option) -> outcome

(** {3 Shared text lines} *)

(** ["  ok N, failed N (excused N, unexcused N)"] *)
val add_tally : Buffer.t -> outcome -> unit

(** [listing f xs] — the [f x] joined by [", "], or ["-"] when empty:
    how every report line renders a list. *)
val listing : ('a -> string) -> 'a list -> string

(** The kill log as ["what@i, ..."], or ["-"]. *)
val kill_log : outcome -> string

(** ["  observed radius: c impact, ..."] *)
val add_observed : Buffer.t -> outcome -> unit

(** One ["  CONTAINMENT VIOLATION at request i: ..."] line per violation. *)
val add_violations : Buffer.t -> outcome -> unit

(** The counters, then ["verdict: contained"] or ["verdict: NOT CONTAINED"]. *)
val add_verdict : Buffer.t -> outcome -> contained:bool -> unit

(** {3 Shared JSON members} *)

(** [ok], [failed_excused], [failed_unexcused] and [kills], each kill an
    object [{"at": i, <killed>: what}]. *)
val json_tally : outcome -> killed:string -> (string * Lt_obs.Json.t) list

val json_observed : outcome -> string * Lt_obs.Json.t

val json_violations : outcome -> string * Lt_obs.Json.t

(** [contained], then [counters]. *)
val json_verdict : outcome -> contained:bool -> (string * Lt_obs.Json.t) list
