(** The horizontal application runtime.

    Assembles components (manifest + behaviour) into one application
    and enforces {e communication control}: a call is connected only
    when the caller's manifest declares the (target, service) channel —
    everything else is blocked and recorded, whether the caller is
    honest or compromised. This is the mechanism behind the paper's
    containment claim: a subverted component keeps only its declared
    authority. *)

(** Why a call did not produce an answer, as a routing decision rather
    than a string — supervisors restart on [Crashed], never on [Denied]
    (a policy decision is not a fault). *)
type call_error =
  | Unknown_component of { caller : string; target : string; service : string }
      (** no such component; recorded as a deny-style trace event and the
          [channel/unknown_target] counter, never a raise *)
  | Unknown_service of { target : string; service : string }
  | Denied of { caller : string; target : string; service : string }
  | Crashed of { target : string; reason : string }
  | Failed of { target : string; reason : string }
      (** the component answered on purpose with a refusal
          ({!Substrate.Service_failure}): it is healthy, the request is
          not. Never retried, never restarted. *)

(** What a behaviour receives, built once per component at {!add}. *)
type ctx = {
  self : string;
  call : target:string -> service:string -> string -> (string, call_error) result;
      (** the component's one outbound call, subject to its manifest;
          the failure keeps its class, so a behaviour can cascade a dead
          dependency as a fault and a refusal as its own
          {!Substrate.fail}. String users render it with
          {!render_call_error}. *)
}

(** [behaviour ctx ~service request] handles one entry point. *)
type behaviour = ctx -> service:string -> string -> string

type t

type violation = { v_caller : string; v_target : string; v_service : string }

val create : unit -> t

(** [add t manifest behaviour] registers a component. Raises on
    duplicate names. *)
val add : t -> Manifest.t -> behaviour -> unit

(** [add_stub t manifest] — a component that echoes; for analysis-only
    scenarios. *)
val add_stub : t -> Manifest.t -> unit

(** [validate t] checks every declared connection names an existing
    component and service; returns the dangling ones. *)
val validate : t -> (unit, string list) result

val manifests : t -> Manifest.t list

val manifest : t -> string -> Manifest.t option

(** [set_behaviour t name behaviour] replaces a registered component's
    behaviour in place — the relaunch path after a crash. Raises on
    unknown names. *)
val set_behaviour : t -> string -> behaviour -> unit

(** The one renderer of a {!call_error}: the bytes every report, trace
    and golden carries for each case. *)
val render_call_error : call_error -> string

(** [call_typed t ~caller ~target ~service req] — [caller = None] means
    the outside world (network, user), which may only reach components
    marked [network_facing]. Blocked calls are recorded as
    {!violations}. *)
val call_typed :
  t -> caller:string option -> target:string -> service:string -> string ->
  (string, call_error) result

(** [violations t] — every blocked call so far, oldest first. *)
val violations : t -> violation list

(** [compromise t name] marks a component attacker-controlled; its
    behaviour is replaced by one that attempts every call it can. *)
val compromise : t -> string -> unit

val compromised : t -> string list

(** [exfiltration_attempts t name] — after {!compromise} and a call into
    the component, which (target, service) pairs it managed to invoke
    vs. had blocked. *)
val exfiltration_attempts : t -> string -> (string * string * bool) list

(** [authorized t ~caller ~target ~service] — the channel policy alone:
    would this call be connected? ([caller = None] is the outside world,
    admitted only to [network_facing] targets.) No events, no violation
    records — {!call_typed} is the enforcing path. *)
val authorized :
  t -> caller:string option -> target:string -> service:string -> bool

(** [owned_getter t name] — an allocation-free poll of the component's
    compromise flag, for fast paths that must bail to the enforcing
    route the moment a component is owned. [None] for unknown names. *)
val owned_getter : t -> string -> (unit -> bool) option

(** Captures comps (bindings + per-component behaviour/flags/attempts)
    and the violation log; part of the {!Deploy} world layer. *)
val take_snapshot : t -> unit -> unit

val state_digest : t -> Lt_world.Digest64.t
