(** Chaos harness: the load engine's scenarios under seeded destruction.

    A chaos run replays a scenario's request mix through a
    {!Supervisor} while killing components at seeded instants — by
    schedule ([kill]), at random ([kill_pct]), repeatedly ([flap]), in
    the middle of a substrate crossing ([mid_ipc_pct], armed through
    {!Lateral.Fault_point}), or by cutting power to the mail scenario's
    legacy storage backend mid-mutation ([kill] on ["legacy_os"]).

    The harness then {e audits containment} rather than mere survival:

    {ul
    {- {b blast radius} — a request may only fail when the run injected
       a fault into it, one of its route's own components is down or
       given up, or its breaker is (rightly) open. Any other failure is
       a containment violation and fails the run.}
    {- {b crash consistency} — after every storage power cut the legacy
       FS is remounted and the VPFS recovered against its trusted root;
       the surviving contents must match the shadow oracle of
       acknowledged writes exactly (the in-flight write may land either
       side of the cut, never torn).}
    {- {b secrecy} — across all crashes, restarts and remounts, neither
       the SEP-held key nor any plaintext mail body may ever appear in
       the bytes the legacy stack observed.}}

    Determinism: everything — kill schedule, request mix, backoff
    jitter, recovery outcomes, tick counts — derives from [seed], so
    equal seeds produce byte-identical reports. *)

type plan = {
  kill : string list;
      (** each name is killed once, at a seeded instant; the pseudo
          component ["legacy_os"] instead cuts storage-backend power
          after a seeded number of block writes (mail only) *)
  kill_pct : int;  (** per-request chance of killing a random live component *)
  flap : string option;
      (** killed again whenever found alive — drives the restart budget
          to give-up and the route's breaker open *)
  mid_ipc_pct : int;
      (** firing percentage for the substrate-layer fault points
          ["microkernel/kill-mid-ipc"] and ["sgx/kill-mid-ecall"] *)
}

val no_chaos : plan

type report = {
  c_scenario : string;
  c_requests : int;
  c_seed : int;
  c_outcome : Lateral.Fault_schedule.outcome;
      (** the tally, the kill log (request instant, component or
          ["legacy_os"]) and the observed radius. A failure is excused
          when the run injected a fault into the request, a component
          of its route was dead or given up, or its breaker was open.
          The observed impacts are [Degraded] (requests failed on a dead
          or breaker-shed slice), [Restarted] and [Failed] (dead or
          given up at end of run). {!Lateral.Contain.escapes} holds the
          radius inside the static prediction for the {!killed}
          components. *)
  c_flap_kills : int;
  c_backend_cuts : int;
  c_recovered : int;         (** power cuts recovered via the redo journal *)
  c_clean : int;             (** power cuts that landed before the journal *)
  c_oracle : string;         (** ["match"], or the first divergence *)
  c_secret_leak : bool;
  c_restarts : (string * int) list;  (** per component, components with > 0 *)
  c_given_up : string list;
  c_router_violations : int;
}

(** [contained r] — no unexcused failure, oracle intact, no leak. *)
val contained : report -> bool

(** A booted scenario with its world forked at the pristine instant:
    build once with {!session}, then every [run ?session] rewinds the
    world in O(dirty) instead of redeploying. *)
type session

(** [session ~scenario ~seed ()] boots the scenario exactly as
    [run ~scenario ~seed] would (the deployment consumes seed-derived
    randomness) and forks the booted world. *)
val session :
  scenario:Lt_load.Load.scenario -> seed:int -> unit ->
  (session, string) result

(** [run ~scenario ~requests ~seed ()] — rewinds a session (a fresh
    one unless [?session] is given), layers a {!Supervisor} over it and
    replays [requests] chaos-perturbed requests on the
    {!Lateral.Fault_schedule}. Returns the report plus the tracer (for
    export), or an error when the deployment cannot boot or the plan
    names unknown components.

    A given session's world is restored to its pristine fork and the
    saved rng mark replayed, so the report is byte-identical to a run
    on a fresh session — provided the session was built for the
    {e same} scenario and seed (anything else is an error). *)
val run :
  ?session:session ->
  ?plan:plan -> ?supervisor:Supervisor.config -> ?trace_capacity:int ->
  scenario:Lt_load.Load.scenario -> requests:int -> seed:int -> unit ->
  (report * Lt_obs.Trace.t, string) result

(** [killed plan r] — every component the run killed, sorted by name,
    with its kill count: scheduled, random ([kill_pct]) and [flap] kills
    alike. The ["legacy_os"] power cut is not a component and never
    appears. The [killed] argument of {!Lateral.Contain.escapes}. *)
val killed : plan -> report -> (string * int) list

val render_report_text : report -> string

val render_report_json : report -> string
