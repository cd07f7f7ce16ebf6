(** Static blast-radius (fault-containment) analysis.

    The paper's bet is that isolation boundaries make failure
    {e containable by construction}; the chaos harness ({!Lt_resil.Chaos})
    checks that dynamically, after the fact. This module makes the same
    claim statically: from the manifests alone it computes, per
    component, the worst-case {b blast radius} — every component a crash
    can render failed, degraded or restarted — as a fixpoint over
    propagation edges derived from the declared structure (channel
    topology, protection-domain cohabitation, supervision policies,
    statefulness). The chaos harness exports the radius it actually
    observed per run, and a property holds the two together:
    {e observed ⊆ predicted}, the availability twin of the
    kernel-vs-static flow conformance check.

    {2 Impact lattice}

    Untouched < [Degraded] < [Restarted] < [Failed]. A component is
    {e degraded} when its requests can fail but it stays alive,
    {e restarted} when it loses volatile state but supervision brings it
    back, {e failed} when it ends up permanently dead (no restart
    policy, or a give-up cascade). Transfer functions are monotone in
    this order, so the per-root fixpoint is unique and the solve is
    linear in the edge count. *)

type impact = Degraded | Restarted | Failed

(** Untouched = 0, [Degraded] = 1, [Restarted] = 2, [Failed] = 3. *)
val rank : impact -> int

val impact_to_string : impact -> string  (** ["degraded"] etc. *)

type config = {
  supervised : bool;
      (** [true] (default): callers reach dead callees through the
          {!Lt_resil.Supervisor} hardening — per-call deadlines and
          circuit breakers bound the damage to failed requests
          ([channel-bounded] edges). [false]: a caller blocks forever on
          a dead callee ([channel-blocked] edges). *)
  spof_fraction : float;
      (** L021: a component whose crash degrades at least
          [max 3 (ceil (spof_fraction * (n-1)))] other components is a
          single point of failure (default 0.5). *)
}

val default_config : config

(** {2 Propagation edges}

    A directed edge [src -> dst] means: an impact on [src] can impose an
    impact on [dst]. The kinds, their derivation from the manifest and
    their transfer functions are documented in docs/CONTAIN.md, whose
    table is diffed against {!edge_kinds} by the [@lintdocs] gate. *)

type kind =
  | Channel_bounded
      (** [dst] declares a channel to [src] and calls run supervised:
          any impact on [src] degrades [dst] (failed requests), nothing
          worse. Vetted channels too — vetting declassifies data, not
          liveness. *)
  | Channel_blocked
      (** same channel, unsupervised calls: [Failed] propagates as
          [Failed] (the caller blocks forever), anything else degrades. *)
  | Domain_cofate
      (** [src] and [dst] share a protection domain: a crash of [src]
          takes the domain down, so [dst] suffers its own crash impact. *)
  | Substrate_exclusive
      (** [src] and [dst] cohabit an exclusive-session substrate
          (flicker's one-DRTM-session-at-a-time): a crash of [src]
          stalls the slice and degrades [dst]. *)
  | State_loss
      (** [dst] depends unvetted on stateful [src] that never
          effectively restarts, on a substrate that neither seals
          identity nor survives crashes: when [src] crashes its state
          is destroyed for good and [dst] stays degraded. A vetted
          wrapper (the VPFS discipline) re-derives and re-validates, so
          vetted channels are exempt. *)
  | Restart_storm
      (** [src] and [dst] sit on a channel cycle inside one protection
          domain and both auto-restart: each respawn re-kills the other
          through the shared domain until the budgets give up — a crash
          of either ends with both [Failed]. *)

val kind_to_string : kind -> string  (** ["channel-bounded"] etc. *)

(** [(name, one-line trigger/effect)] for every kind — the registry the
    docs table is checked against. *)
val edge_kinds : (string * string) list

type edge = { p_src : string; p_dst : string; p_kind : kind }

(** The propagation edges a manifest set induces (deduplicated
    first-wins like {!Lint_rules.make_ctx}; self-edges and dangling
    targets skipped). Sorted by (src, dst, kind). Pure and total. *)
val prop_edges : config -> Manifest.t list -> edge list

(** {2 Per-root radii} *)

(** What a crash of the component itself costs: [Restarted] under an
    [on-failure]/[always] policy with a positive budget, else
    [Failed]. *)
val crash_impact : Manifest.t -> impact

(** {2 Substrate taxonomy}

    Lives here (rather than in {!Lint_rules}, which re-exports it)
    because the containment analysis is the lowest layer that needs it
    and the linter depends on the analysis, not the other way round. *)

(** [(name, sealed_identity, tcb_loc)] for every substrate the analyses
    know about. *)
val known_substrates : (string * bool * int) list

val substrate_known : string -> bool

(** Can the substrate attest / keep a sealed identity across crashes? *)
val substrate_sealed_identity : string -> bool

(** Notional substrate TCB in lines of code; unknown substrates count
    as a microkernel. *)
val default_tcb_of_substrate : string -> int

(** Substrates that crash with their host software stack. Dedicated
    hardware (sep, trustzone, flicker, m3-noc) does not: those
    components are never spontaneous crash roots, though a radius is
    still computed for them (the chaos harness can kill anything). *)
val crashable_substrates : string list

val substrate_crashable : string -> bool

(** {2 Fleet placement}

    Selector semantics for {!Manifest.t.placement} live next to the
    substrate taxonomy they consult; the user-facing grammar table is
    {!Manifest.placement_selector_kinds}. *)

(** [placement_selector_invalid sel] — [Some reason] when the selector
    is malformed or names an unknown class/substrate. [host:NAME] never
    fails here: whether the host exists is {!Lint_rules}' L024
    business, which needs the declared host list. *)
val placement_selector_invalid : string -> string option

(** [host_matches_selector h sel] — does [h] satisfy one selector?
    [host:N] matches by name, [class:C] if any offered substrate is in
    the class, a bare substrate name if the host offers it. *)
val host_matches_selector : Manifest.host -> string -> bool

(** [host_can_host h m] — [h] offers [m]'s substrate {e and} [m]'s
    placement spec (if any) matches [h]. This is the predicate the
    fleet placer and L024 share. *)
val host_can_host : Manifest.host -> Manifest.t -> bool

(** An example victim outside the crashing component's protection
    domain, witnessing that the damage escapes the domain forever
    (the root never heals). [x_path] is the propagation path, root
    first, victim last, along tight edges — deterministic like
    {!Flow.bfs_paths} witnesses. *)
type escape = {
  x_victim : string;
  x_impact : impact;
  x_outside : int;  (** victims outside the root's domain, total *)
  x_path : string list;
}

type radius = {
  r_root : string;
  r_self : impact;  (** {!crash_impact} of the root *)
  r_hit : (string * impact) list;
      (** every impacted component (root included), sorted by name *)
  r_escape : escape option;
      (** present iff the root's substrate is crashable, [r_self] is
          [Failed] and some victim lies outside the root's domain *)
}

type verdict =
  | Contained
  | Uncontained of string list
      (** the escape roots, sorted — components whose unrecoverable
          crash degrades components in other protection domains *)

type result = {
  radii : radius list;  (** one per component, sorted by root name *)
  edges : edge list;
  verdict : verdict;
}

(** [analyze manifests] — pure, total, deterministic: equal inputs give
    structurally equal results. *)
val analyze : ?config:config -> Manifest.t list -> result

(** {2 Observed ⊆ predicted}

    The one soundness audit every fault harness runs: {!Lt_resil.Chaos}
    through the [test_resil] property and the [contain] hunt engine,
    {!Lt_fleet.Fleet_chaos} on every fleet report. *)

(** [escapes r ~killed observed] — every observed [(component, impact)]
    worse than the worst impact the radii of the [killed] roots allow
    on it, paired with that allowance ([None] = untouched). [killed]
    counts how often each root was killed: a component killed more than
    once may end [Failed] (repeat kills can exhaust its own restart
    budget). Roots without a radius in [r] allow nothing. Order follows
    [observed]. *)
val escapes :
  result -> killed:(string * int) list -> (string * impact) list ->
  (string * impact * impact option) list

(** {2 Reports} *)

val render_text : file:string -> result -> string

val to_json : file:string -> result -> Lt_obs.Json.t

(** Propagation graph in Graphviz DOT: nodes coloured by the component's
    own crash impact, escape roots double-bordered, one edge per kind. *)
val to_dot : Manifest.t list -> result -> string

(** {2 Solver internals}

    Exposed for the incremental {!Check} engine, which re-derives only
    the dirty roots after a delta and must agree with {!analyze}
    structurally (hence byte-for-byte once rendered). *)

(** Prepared adjacency + self-impact tables for a fixed edge list. *)
type graph

val graph : config -> Manifest.t list -> edge list -> graph

(** [radius_of g name] — the full radius of one root; equal to the
    corresponding entry of {!analyze}. Unknown roots get an empty
    radius anchored at [name]. *)
val radius_of : graph -> string -> radius

(** [assemble cfg manifests edges radii] sorts the radii and derives the
    verdict — the shared final step of {!analyze} and the incremental
    engine. *)
val assemble : config -> Manifest.t list -> edge list -> radius list -> result

(** [dirty_roots ~old_edges ~new_edges ~touched] — every root whose
    radius may differ after an edit: the backward closure of the touched
    components and of the endpoints of changed edges, over both the old
    and new propagation graphs. Sorted, deduplicated. *)
val dirty_roots :
  old_edges:edge list -> new_edges:edge list -> touched:string list ->
  string list

(** {2 Per-trust-domain verdicts}

    A blast radius belongs to the tenant (outermost trust-domain
    element) of its root; root-domain components belong to no tenant. *)

(** One verdict per tenant: [Uncontained] lists exactly the escaping
    roots under that tenant. *)
val tenant_verdicts : Manifest.t list -> result -> (string * verdict) list

(** [(root, victim, impact)] triples where the victim's trust-domain
    path is disjoint from the root's — fate-sharing across tenants,
    which a multi-tenant fleet must keep empty. *)
val cross_tenant_radius :
  Manifest.t list -> result -> (string * string * impact) list

(** Text block for the CLI: per-tenant verdicts plus any cross-tenant
    radius; [""] when no manifest declares a trust domain. *)
val render_domain_verdicts : Manifest.t list -> result -> string
