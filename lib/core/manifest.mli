(** Component manifests (§III-A).

    "The unified interface should be part of a larger programming
    framework, where developers can describe the required communication
    channels to other components. Such a manifest enables the isolation
    substrate to establish just the needed channels and block all other
    communication, thereby promoting a POLA design mentality."

    A manifest also carries the attributes the analysis tools reason
    over: protection domain (colocated components share fate), notional
    size, exposure and hardening flags. *)

type connection = {
  target : string;       (** component name *)
  service : string;      (** entry point on the target *)
  vetted : bool;
      (** trusted-wrapper discipline (§III-D): replies are validated
          cryptographically, so this dependency does {e not} extend the
          caller's TCB (e.g. VPFS over the legacy FS) *)
}

(** What the supervisor may do when the component crashes. *)
type restart_policy =
  | Never       (** stay dead; a human decides *)
  | On_failure  (** respawn after a crash, not after a clean destroy *)
  | Always      (** respawn unconditionally *)

type restart = {
  r_policy : restart_policy;
  r_max : int;     (** restarts allowed inside one window before give-up *)
  r_window : int;  (** window length in simulated ticks *)
}

type t = {
  name : string;
  provides : string list;        (** entry points this component offers *)
  connects_to : connection list; (** the {e only} channels it may use *)
  domain : string;
      (** protection domain; a vertical (monolithic) application puts
          every subsystem in one domain, a horizontal design gives each
          component its own *)
  trust_domain : string list;
      (** Tyche-style nestable trust domain, outermost first; [[]] is the
          root domain. The first element names the tenant. Protection
          domains live {e inside} a trust domain: two components in the
          same protection domain must share a trust-domain path (L026),
          and unvetted channels may not cross disjoint trust domains
          (L025), so one tenant's taint or blast radius can never be
          attributed to another. *)
  size_loc : int;                (** notional code size for TCB math *)
  network_facing : bool;         (** parses input from the outside world *)
  vulnerable : bool;
      (** contains an exploitable flaw (fault-injection modelling) *)
  discriminates_clients : bool;
      (** checks IPC badges; [false] on a multi-client service is a
          confused-deputy risk (§III-D) *)
  substrate : string;            (** which isolation substrate hosts it *)
  stateful : bool;
      (** accumulates state across requests (sealed or volatile); what a
          crash actually threatens, and what L019 keys on *)
  restart : restart option;      (** [None]: no supervision declared *)
  placement : string list;
      (** fleet placement spec: selectors naming the hosts or substrate
          classes this component may land on. Empty = anywhere its
          [substrate] is offered. See {!placement_selector_kinds};
          matching semantics live in {!Contain.host_matches_selector}. *)
}

(** A fleet host declaration: a named machine and the isolation
    substrates it offers. Parsed from [host] stanzas by
    {!Manifest_file.parse_fleet}. *)
type host = {
  h_name : string;
  h_substrates : string list;
}

val host : name:string -> substrates:string list -> host

(** The placement selector grammar, one [(selector form, meaning)] row
    per kind — the table docs/FLEET.md must reproduce verbatim (enforced
    by the [@lintdocs] gate). *)
val placement_selector_kinds : (string * string) list

(** The trust-domain stanza grammar, one [(form, meaning)] row per
    construct — the table docs/SCALE.md must reproduce verbatim
    (enforced by the [@lintdocs] gate). *)
val domain_stanza_grammar : (string * string) list

(** ["a/b/c"] for [["a";"b";"c"]], ["/"] for the root domain. *)
val trust_path_string : string list -> string

(** First manifest wins on duplicate names: what {!Flow}, {!Contain}
    and {!Check} apply before they look at a fleet, and the policy
    {!Lint_rules.make_ctx}'s index follows. *)
val dedupe : t list -> t list

(** [(component -> trust path)] lookup over the manifests, first
    manifest wins; unknown names map to the root path. *)
val trust_paths : t list -> string -> string list

(** ["a -> b -> c"]: a witness path as every report prints it. *)
val path_string : string list -> string

(** [is_path_prefix p q] — [p] is a (non-strict) ancestor of [q]. *)
val is_path_prefix : string list -> string list -> bool

(** Neither path contains the other — the cross-tenant case L025 keys
    on. The root domain [[]] is disjoint from nothing. *)
val trust_domains_disjoint : string list -> string list -> bool

(** The tenant (outermost trust-domain element), if any. *)
val tenant_of : t -> string option

(** [default_restart policy] — max 3 restarts per 256-tick window. *)
val default_restart : restart_policy -> restart

val restart_policy_of_string : string -> restart_policy option

val restart_policy_to_string : restart_policy -> string

(** [v ~name ...] builds a manifest with sensible defaults:
    own domain = [name], not network facing, not vulnerable,
    discriminating, substrate "microkernel", stateless, no restart
    policy. *)
val v :
  name:string -> ?provides:string list -> ?connects_to:connection list ->
  ?domain:string -> ?trust_domain:string list -> ?size_loc:int ->
  ?network_facing:bool -> ?vulnerable:bool -> ?discriminates_clients:bool ->
  ?substrate:string -> ?stateful:bool -> ?restart:restart ->
  ?placement:string list -> unit -> t

(** [conn ?vetted target service] — connection shorthand. *)
val conn : ?vetted:bool -> string -> string -> connection

val pp : Format.formatter -> t -> unit
