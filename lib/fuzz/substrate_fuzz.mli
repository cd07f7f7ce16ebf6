(** Engine 2: cross-substrate differential fuzzing.

    One fixed three-component application (network-facing [gate],
    plain [worker], refusal-prone [vault]) is deployed on {e every}
    substrate adapter in turn — microkernel, SGX, TrustZone, SEP,
    CHERI, M3 and Flicker — and a random operation sequence (calls
    from declared, undeclared and external callers; crashes; revivals)
    is replayed through each deployment.

    The oracle is a manifest-level reference model: a pure state
    machine over the topology and the alive set predicting each call's
    observable class (reply bytes, denial, unknown target/service,
    dead target, typed refusal). Every substrate must agree with the
    model {e and} with every other substrate — a disagreement means an
    adapter enforces channels, reports crashes or carries the typed
    failure channel ({!Lateral.Substrate.Service_failure}) differently
    from its peers. A refusal or crash whose reason carries a printed
    OCaml exception (["Failure("]) fails the case too: reasons cross
    every hop verbatim.

    The [storm] operation additionally deploys onto a microkernel with
    a tiny frame budget: exhaustion must surface as a typed
    ["out of physical frames"] error, never an exception.

    Payload = one operation per line:
    {v
    call <caller|-> <target> <service> <payload>
    crash <component>
    revive <component>
    storm <dram-pages> <components>
    v} *)

val name : string

val generate : Lt_crypto.Drbg.t -> int -> string

(** [check payload] — [Ok ()] when every substrate agrees with the
    reference model on every operation; [Error what] names the first
    divergence (substrate, operation, expected, got). Never raises. *)
val check : string -> (unit, string) result
