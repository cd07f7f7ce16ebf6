(** Security analysis over an application's trust graph.

    The tooling the paper's call to action asks for (§IV): TCB
    accounting, compromise-propagation prediction, and a static
    confused-deputy detector. All results derive from manifests alone —
    "a map of communication relationships allows to reason about the
    required message protection" (§III-A). *)

(** Result of {!compromise_reach}. *)
type reach = {
  owned : string list;
      (** components fully controlled: same protection domain, or
          vulnerable components reachable through declared channels *)
  invocable : (string * string) list;
      (** (component, service) authority usable but not owned *)
  owned_fraction : float;      (** |owned| / |components| *)
  authority_fraction : float;
      (** services reachable (owned + invocable) / all services *)
}

(** [tcb app ~tcb_of_substrate name] is the component's trusted
    computing base in notional lines of code: its own size, its
    substrate's TCB, and — transitively — every component it connects to
    {e without} a vetting wrapper. Cycles are handled. *)
val tcb : App.t -> tcb_of_substrate:(string -> int) -> string -> int

(** [compromise_reach app name] predicts the blast radius of exploiting
    [name], honoring domains, declared channels and vulnerability
    flags. *)
val compromise_reach : App.t -> string -> reach

(** [confused_deputy_risks app] lists services with two or more distinct
    callers whose component does not discriminate clients — the
    paper's "new vulnerability du jour" (§III-E). *)
val confused_deputy_risks : App.t -> (string * string * string list) list
(** (component, service, callers) *)

(** [attack_surface app name] counts entry points exposed by the
    component: inbound declared channels plus (if network facing) its
    public services. *)
val attack_surface : App.t -> string -> int

(** [domains app] groups components by protection domain. *)
val domains : App.t -> (string * string list) list

val pp_reach : Format.formatter -> reach -> unit
