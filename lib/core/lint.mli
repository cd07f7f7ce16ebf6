(** The lint engine: run every registered rule over a manifest set.

    The paper's §III-A manifest — "a map of communication
    relationships" — makes trust hazards statically checkable; this
    engine turns each implicit hazard into an explicit, named,
    severity-ranked {!Diagnostic.t} that CI can gate on. The pass is
    pure and total (no I/O, never raises), so it can batch over
    thousands of manifests. Rules live in {!Lint_rules}. *)

type summary = { errors : int; warnings : int; infos : int }

(** [run manifests] runs every rule in {!Lint_rules.all} and returns
    the merged diagnostics, deduplicated and sorted worst-first
    ({!Diagnostic.compare}). Inconsistent inputs (dangling targets,
    duplicates, self-connections) are reported, not rejected. *)
val run : ?config:Lint_rules.config -> Manifest.t list -> Diagnostic.t list

(** [locate ~file spans diags] attaches a {!Diagnostic.location} to
    every diagnostic whose component appears in [spans] (from
    {!Manifest_file.parse_spanned}); diagnostics anchored to unknown
    components pass through untouched. Re-sorted, since location
    participates in {!Diagnostic.compare}. *)
val locate :
  file:string -> Manifest_file.span list -> Diagnostic.t list -> Diagnostic.t list

(** [locate_all files diags] — {!locate} over a merged multi-file
    report: each diagnostic gets the span of the first file (in argument
    order) that declares its component, first span within a file winning
    as in {!locate}. *)
val locate_all :
  (string * Manifest_file.span list) list -> Diagnostic.t list ->
  Diagnostic.t list

val summarize : Diagnostic.t list -> summary

(** [{"errors":..,"warnings":..,"infos":..}] *)
val summary_json : summary -> Lt_obs.Json.t

(** CI gate: at least one [Error]-severity diagnostic. *)
val has_errors : Diagnostic.t list -> bool

(** Human report: a one-line header, then one indented entry per
    diagnostic with its fix hint. *)
val render_text : file:string -> Diagnostic.t list -> string

(** One JSON object
    [{"file":..,"summary":{..},"diagnostics":[..]}] per manifest file. *)
val to_json : file:string -> Diagnostic.t list -> Lt_obs.Json.t

(** [(id, severity, summary, paper_ref)] for every registered rule. *)
val catalogue : unit -> (string * Diagnostic.severity * string * string) list

(** The catalogue as an aligned table, for [lint --rules]. *)
val catalogue_text : unit -> string

(** Text block for the CLI: per-tenant diagnostic counts (a diagnostic
    belongs to the tenant of the component it anchors to); [""] when no
    manifest declares a trust domain, so flat fleets render
    byte-identically. *)
val render_domain_verdicts : Manifest.t list -> Diagnostic.t list -> string
