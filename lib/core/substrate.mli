(** The unified isolation interface (§III-A).

    "This interface should do for isolation mechanisms what POSIX did
    for the UNIX system call interface: allow application code to be
    independent of the underlying implementation."

    A {!t} is one isolation substrate instance. Trusted components are
    written once against {!facilities} and [launch]ed on any substrate;
    the conformance suite in the tests runs the same component across
    all seven adapters (eight setups: the microkernel runs with and
    without a TPM). [properties] describes the design trade-offs
    (§II-C) so system architects can hand-pick a mechanism by attacker
    model instead of by fashion.

    {b Writing an adapter.} {!Kit} holds everything adapters share: the
    dead-set and crash bookkeeping, the one [invoke] (dead check, trace
    span, typed error), the Wire request dispatch that catches a
    service's exceptions inside the hop ({!Kit.serve}/{!Kit.reply}),
    the mirrored KV store, AEAD sealing, the attestation evidence
    helpers and the snapshot layer. A back-end supplies only what
    differs: how a component is isolated ([launch] builds it with
    {!Kit.component}), how a request enters and leaves it (the hop),
    how code is measured, how the component is attested, and its
    {!properties}. *)

(** Attacker capabilities a substrate defends against (§II-D). *)
type attacker_model =
  | Remote_software        (** exploits over the network *)
  | Local_software         (** compromised colocated OS/apps *)
  | Physical_memory        (** probing/patching the memory bus *)
  | Physical_code_swap     (** replacing firmware/boot code *)

type properties = {
  substrate_name : string;
  concurrent_components : bool;
      (** can several trusted components make progress in parallel? *)
  mutually_isolated : bool;
      (** are components protected from {e each other}, not just from
          the legacy world? (TrustZone: no — one secure world) *)
  defends : attacker_model list;
  tcb : (string * int) list;
      (** trusted pieces and notional sizes (lines of code), for the
          TCB analysis; hardware counts as code per §II-C *)
  shared_cache_with_host : bool;
      (** prime+probe surface (§II-C) *)
  progress_guaranteed : bool;
      (** can the untrusted side starve the component? (SGX: yes it can) *)
}

(** What a trusted component's service code gets from its substrate —
    the write-once-run-anywhere surface. *)
type facilities = {
  f_seal : string -> string;
      (** bind data to this component's identity on this device *)
  f_unseal : string -> string option;
  f_store : key:string -> string -> unit;
      (** substrate-protected storage *)
  f_load : key:string -> string option;
}

(** A service entry point: receives its facilities and a request. *)
type service = facilities -> string -> string

(** Why an {!field-invoke} did not answer. The one failure channel of
    the interface: every adapter returns the same cases for the same
    causes, whatever its transport. *)
type error =
  | Crashed
      (** the component is dead (crashed, or killed under the hop);
          nothing answers until its name is re-[launch]ed *)
  | Refused of string
      (** the service declined on purpose ({!Service_failure}); the
          reason is verbatim *)
  | Dep_crashed of { origin : string; reason : string }
      (** the service found a dependency dead ({!Dependency_crashed});
          [origin] is the component that is down *)
  | Fault of string
      (** anything else: no such entry point, a service that raised, a
          transport that lost the request *)

(** A launched trusted component. *)
type component

type t = {
  properties : properties;
  launch :
    name:string -> code:string -> services:(string * service) list ->
    (component, string) result;
      (** [code] is the measured identity; [services] the entry points.
          Re-launching a crashed component's name revives it: the dead
          mark is cleared and a fresh instance (empty volatile state,
          same sealed identity) answers subsequent invokes. *)
  invoke : component -> fn:string -> string -> (string, error) result;
      (** total: a service's refusal or exception comes back as an
          [Error] inside the hop, after the hop has charged its full
          cost *)
  attest :
    component -> nonce:string -> claim:string ->
    (Attestation.evidence, string) result;
  measure : code:string -> string;
      (** predict the measurement of [code] (verifier side) *)
  destroy : component -> unit;
  crash : component -> unit;
      (** kill the component where it stands (crash-only discipline:
          volatile state is lost, sealed state survives). Subsequent
          {!field-invoke}s fail with [Crashed] until the name is
          re-[launch]ed. Idempotent. *)
  is_alive : component -> bool;
  mutable snap_layers : Lt_world.Snapshottable.layer list;
      (** Snapshottable layers covering {e all} mutable state reachable
          through this adapter — machine blocks, the substrate sim, the
          per-launch service tables, the dead-set. Assembled by each
          adapter's [make]; {!Deploy.world} collects them (deduplicating
          shared adapters) into one forkable world. *)
}

val component_name : component -> string

val component_measurement : component -> string

(** [render_error c e] — the message for [e] raised by [c], as trace
    spans and string-error callers show it. *)
val render_error : component -> error -> string

(** A service declining a request on purpose — bad argument, downstream
    dependency unavailable, policy of its own. Distinct from a crash:
    the component is healthy, a supervisor must not restart it and a
    load run must count the request as failed, not the process as dead.
    Raise it with {!fail} from inside a behaviour; it reaches the
    invoker as [Refused]. *)
exception Service_failure of string

(** [fail msg] aborts the current request with {!Service_failure}. *)
val fail : string -> 'a

(** A behaviour found one of its {e dependencies} dead mid-request.
    Distinct from {!Service_failure} (the callee declined on purpose)
    and from the caller itself crashing: [origin] names the component
    that is actually down, so routers and load reports attribute the
    fault to it instead of to whichever caller tripped over it. Under
    tenant sharding that attribution is what keeps one tenant's crash
    out of another tenant's blast radius. It reaches the invoker as
    [Dep_crashed]. *)
exception Dependency_crashed of { origin : string; reason : string }

(** [dep_crashed ~origin reason] aborts the current request with
    {!Dependency_crashed}. *)
val dep_crashed : origin:string -> string -> 'a

(** The adapter kit: everything the seven adapters share, so a back-end
    supplies only what differs. *)
module Kit : sig
  (** One adapter's crash bookkeeping: its dead-set and the registry of
      per-launch KV tables. Both are snapshot state ({!layer}). *)
  type kit

  val create : unit -> kit

  (** [revive kit name] clears [name]'s dead mark; call it from
      [launch]. *)
  val revive : kit -> string -> unit

  (** [forget kit name] drops [name]'s KV table from the registry. *)
  val forget : kit -> string -> unit

  (** [until_crashed] — the [live] of an instance that only dies by
      [crash]. *)
  val until_crashed : unit -> bool

  (** [component ~name ~measurement ~live ~stop ~attest hop] — a
      launched component. [hop ~fn arg] carries one request across the
      isolation boundary and back; [attest] quotes this component;
      [live] is polled before each hop (a [false] answer is the
      [Fault "component destroyed"] of an instance that died outside
      [crash]); [stop] tears the instance down on [crash] and
      [destroy]. *)
  val component :
    name:string -> measurement:string -> live:(unit -> bool) -> stop:(unit -> unit) ->
    attest:(nonce:string -> claim:string -> (Attestation.evidence, string) result) ->
    (fn:string -> string -> (string, error) result) -> component

  (** [classify exn] — the error a service's exception becomes. *)
  val classify : exn -> error

  (** [run services fac ~fn arg] calls entry point [fn] directly,
      catching the service's exceptions. *)
  val run :
    (string * service) list -> facilities -> fn:string -> string ->
    (string, error) result

  (** [serve services fac request] is the service side of a Wire hop:
      [request] is [Wire.encode [fn; arg]], the answer a reply for
      {!reply}. Never raises. *)
  val serve : (string * service) list -> facilities -> string -> string

  (** [serve_with services build] — {!serve} for a sim that enters the
      service with a context: the facilities are [build ctx] on the
      first request and kept (every context of one service is alike); a
      [build] error is the reply. *)
  val serve_with :
    (string * service) list -> ('ctx -> (facilities, error) result) ->
    'ctx -> string -> string

  (** [reply r] decodes a {!serve} reply on the caller side. *)
  val reply : string -> (string, error) result

  (** [table_blob table] — a KV table as one canonical byte string. *)
  val table_blob : (string, string) Hashtbl.t -> string

  (** [store kit ~name ~cap write] is [(f_store, f_load)] over a fresh
      KV table registered as [name]'s; every store hands the table's
      {!table_blob} to [write] when it fits in [cap] bytes, so the
      bytes physically live where the substrate keeps them. *)
  val store :
    kit -> name:string -> cap:int -> (string -> unit) ->
    (key:string -> string -> unit) * (key:string -> string option)

  (** [facilities ~ad ~salt aead ~store ~load] seals under the AEAD
      context [aead ()] with associated data [ad] and a nonce derived
      from [salt ^ data]. *)
  val facilities :
    ad:string -> salt:string -> (unit -> Lt_crypto.Speck.Aead.ctx) ->
    store:(key:string -> string -> unit) -> load:(key:string -> string option) ->
    facilities

  (** [derived_seal ~secret ~salt ~info] — the AEAD context of a
      16-byte HKDF key, derived on first use and kept. *)
  val derived_seal :
    secret:string -> salt:string -> info:string -> unit -> Lt_crypto.Speck.Aead.ctx

  (** [seal_contexts ()] is a per-adapter cache of seal-key AEAD
      contexts: [get ~comp ~secret derive] returns the context for
      [comp], building it from [derive secret] the first time, or again
      if [secret] differs from the one it was built from. The cache is
      not snapshot state: a context is a pure function of its secret. *)
  val seal_contexts :
    unit -> comp:string -> secret:string -> (string -> string) -> Lt_crypto.Speck.Aead.ctx

  (** [evidence ~substrate ~measurement ~nonce ~claim ~proof sign] —
      [sign] the evidence's {!Attestation.signed_body} and wrap the
      result with [proof]. *)
  val evidence :
    substrate:string -> measurement:string -> nonce:string -> claim:string ->
    proof:(string -> Attestation.proof) -> (string -> (string, string) result) ->
    (Attestation.evidence, string) result

  (** [quote ~substrate ~cert sign] — {!evidence} signed by a certified
      RSA key. *)
  val quote :
    substrate:string -> cert:Lt_crypto.Cert.t -> (string -> string) ->
    measurement:string -> nonce:string -> claim:string ->
    (Attestation.evidence, string) result

  (** [substrate kit ~properties ~span ~measure ~launch] — the adapter.
      [invoke] checks the dead mark and [live], opens a [span]-kind
      trace span tagged with the substrate name, runs the component's
      hop and marks the span failed on an [Error]; a hop answering
      [Crashed] lost its instance in flight and is marked dead. *)
  val substrate :
    kit -> properties:properties -> span:string -> measure:(code:string -> string) ->
    launch:
      (name:string -> code:string -> services:(string * service) list ->
       (component, string) result) ->
    t

  (** [layer kit ~name ()] — the adapter's snapshot layer: the dead-set
      and the KV-table registry; [extra_take] adds more capture thunks
      and [extra_digest] folds adapter-specific state into the digest. *)
  val layer :
    kit -> name:string ->
    ?extra_take:(unit -> unit -> unit) list ->
    ?extra_digest:(Lt_world.Digest64.t -> Lt_world.Digest64.t) ->
    unit ->
    Lt_world.Snapshottable.layer
end

val pp_properties : Format.formatter -> properties -> unit

val pp_attacker_model : Format.formatter -> attacker_model -> unit
