(* The lint rule registry: each rule is a pure, total function from a
   parsed manifest set to diagnostics. Rules never raise; a manifest set
   that confuses a rule simply yields no findings from it.

   Rules are *seeded*: [check cfg ctx m] returns the findings whose
   anchor component is [m], and the engine unions the per-seed results
   over every manifest. Each rule also declares a dependency [scope] —
   what slice of the fleet its per-seed result can depend on — which is
   what lets {!Check} re-run only the affected seeds after a delta. *)

type config = {
  max_domain_components : int;
  oversize_loc : int;
  tcb_threshold : int;
  secret_substrates : string list;
  declared_hosts : Manifest.host list;
}

let default_config =
  { max_domain_components = 3;
    oversize_loc = 30_000;
    tcb_threshold = 25_000;
    secret_substrates = [ "sep"; "sgx"; "trustzone"; "flicker" ];
    declared_hosts = [] }

type scope = Component | Neighborhood | Graph

let scope_to_string = function
  | Component -> "component"
  | Neighborhood -> "manifest"
  | Graph -> "graph"

type ctx = {
  manifests : Manifest.t list;
  index : (string, Manifest.t) Hashtbl.t;
  counts : (string, int) Hashtbl.t;
  inbound : (string, (Manifest.t * Manifest.connection * bool) list) Hashtbl.t;
  domain_all : (string, string list) Hashtbl.t;
  domain_dedup : (string, string list) Hashtbl.t;
  app : App.t;
  flow_memo : (Flow.config * Flow.result) list ref;
  contain_memo : (Contain.config * Contain.result) list ref;
  cycles_memo : Diagnostic.t list option ref;
}

let make_ctx manifests =
  let app = App.create () in
  let n = List.length manifests in
  let index = Hashtbl.create (max 16 n) in
  let counts = Hashtbl.create (max 16 n) in
  let inbound = Hashtbl.create (max 16 n) in
  let domain_all = Hashtbl.create (max 16 n) in
  let domain_dedup = Hashtbl.create (max 16 n) in
  List.iter
    (fun m ->
      let name = m.Manifest.name in
      let primary = not (Hashtbl.mem index name) in
      if primary then begin
        Hashtbl.replace index name m;
        App.add_stub app m;
        Hashtbl.replace domain_dedup m.Manifest.domain
          (name
          :: Option.value ~default:[]
               (Hashtbl.find_opt domain_dedup m.Manifest.domain))
      end;
      Hashtbl.replace counts name
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts name));
      Hashtbl.replace domain_all m.Manifest.domain
        (name
        :: Option.value ~default:[] (Hashtbl.find_opt domain_all m.Manifest.domain));
      List.iter
        (fun c ->
          Hashtbl.replace inbound c.Manifest.target
            ((m, c, primary)
            :: Option.value ~default:[] (Hashtbl.find_opt inbound c.Manifest.target)))
        m.Manifest.connects_to)
    manifests;
  (* stored per-domain member lists are built newest-first; flip them to
     declaration order / sorted once, so lookups are allocation-free *)
  Hashtbl.filter_map_inplace (fun _ ms -> Some (List.rev ms)) domain_all;
  Hashtbl.filter_map_inplace
    (fun _ ms -> Some (List.sort compare ms))
    domain_dedup;
  { manifests; index; counts; inbound; domain_all; domain_dedup; app;
    flow_memo = ref []; contain_memo = ref []; cycles_memo = ref None }

type rule = {
  id : string;
  severity : Diagnostic.severity;
  summary : string;
  paper_ref : string;
  scope : scope;
  check : config -> ctx -> Manifest.t -> Diagnostic.t list;
}

(* --- substrate knowledge ---------------------------------------------------
   The taxonomy lives in {!Contain} (the lowest layer that needs it);
   re-exported here because the rule catalogue is where users look. *)

let known_substrates = Contain.known_substrates

let substrate_known = Contain.substrate_known

let substrate_crashable = Contain.substrate_crashable

let substrate_sealed_identity = Contain.substrate_sealed_identity

let default_tcb_of_substrate = Contain.default_tcb_of_substrate

(* --- helpers --------------------------------------------------------------- *)

let diag ~rule ~component ?service message fix_hint =
  Diagnostic.v ~rule_id:rule.id ~severity:rule.severity ~component ?service
    ~message ~fix_hint ()

(* first manifest wins on duplicate names, like {!Manifest.dedupe} *)
let find ctx name = Hashtbl.find_opt ctx.index name

let declared ctx name = Hashtbl.mem ctx.index name

let inbound ctx name =
  Option.value ~default:[] (Hashtbl.find_opt ctx.inbound name)

(* components reachable from [start] along unvetted channels only,
   excluding [start] itself *)
let unvetted_closure ctx start =
  let seen = Hashtbl.create 8 in
  let rec go name =
    match find ctx name with
    | None -> ()
    | Some m ->
      List.iter
        (fun c ->
          if (not c.Manifest.vetted) && not (Hashtbl.mem seen c.Manifest.target)
          then begin
            Hashtbl.replace seen c.Manifest.target ();
            go c.Manifest.target
          end)
        m.Manifest.connects_to
  in
  go start;
  Hashtbl.remove seen start;
  Hashtbl.fold (fun n () acc -> n :: acc) seen [] |> List.sort compare

(* the one Flow.analyze all flow-backed rules share; Check pre-seeds the
   memo with its incrementally maintained result *)
let flow_config (cfg : config) =
  { Flow.secret_substrates = cfg.secret_substrates }

let flow_of_ctx cfg ctx =
  let fc = flow_config cfg in
  match List.assoc_opt fc !(ctx.flow_memo) with
  | Some r -> r
  | None ->
    let r = Flow.analyze ~config:fc ctx.manifests in
    ctx.flow_memo := (fc, r) :: !(ctx.flow_memo);
    r

(* likewise the one Contain.analyze the containment rules share *)
let contain_config (_cfg : config) = Contain.default_config

let contain_of_ctx cfg ctx =
  let cc = contain_config cfg in
  match List.assoc_opt cc !(ctx.contain_memo) with
  | Some r -> r
  | None ->
    let r = Contain.analyze ~config:cc ctx.manifests in
    ctx.contain_memo := (cc, r) :: !(ctx.contain_memo);
    r

let taint_why m =
  match (m.Manifest.network_facing, m.Manifest.vulnerable) with
  | true, true -> "network-facing, vulnerable"
  | true, false -> "network-facing"
  | _ -> "vulnerable"

(* --- the rules ------------------------------------------------------------- *)

let rec l001 =
  { id = "L001-dangling-target";
    severity = Diagnostic.Error;
    summary = "a declared channel points at a component that does not exist";
    paper_ref = "\xc2\xa7III-A";
    scope = Neighborhood;
    check =
      (fun _cfg ctx m ->
        List.filter_map
          (fun c ->
            if declared ctx c.Manifest.target then None
            else
              Some
                (diag ~rule:l001 ~component:m.Manifest.name
                   ~service:c.Manifest.service
                   (Printf.sprintf "connects to %s.%s but no component %S exists"
                      c.Manifest.target c.Manifest.service c.Manifest.target)
                   "declare the missing component or delete the connects line"))
          m.Manifest.connects_to) }

let rec l002 =
  { id = "L002-dangling-service";
    severity = Diagnostic.Error;
    summary = "a declared channel names a service its target does not provide";
    paper_ref = "\xc2\xa7III-A";
    scope = Neighborhood;
    check =
      (fun _cfg ctx m ->
        List.filter_map
          (fun c ->
            match find ctx c.Manifest.target with
            | Some tm
              when not (List.mem c.Manifest.service tm.Manifest.provides) ->
              Some
                (diag ~rule:l002 ~component:m.Manifest.name
                   ~service:c.Manifest.service
                   (Printf.sprintf
                      "connects to %s.%s but %s only provides: %s"
                      c.Manifest.target c.Manifest.service c.Manifest.target
                      (match tm.Manifest.provides with
                       | [] -> "(nothing)"
                       | ps -> String.concat ", " ps))
                   "fix the service name or add it to the target's provides")
            | _ -> None)
          m.Manifest.connects_to) }

let rec l003 =
  { id = "L003-duplicate-component";
    severity = Diagnostic.Error;
    summary = "two components share one name, so channels are ambiguous";
    paper_ref = "\xc2\xa7III-A";
    scope = Component;
    check =
      (fun _cfg ctx m ->
        let name = m.Manifest.name in
        match Hashtbl.find_opt ctx.counts name with
        | Some n when n > 1 ->
          [ diag ~rule:l003 ~component:name
              (Printf.sprintf "component %S is declared %d times" name n)
              "rename one of the components; names key the channel graph" ]
        | _ -> []) }

let rec l004 =
  { id = "L004-self-connection";
    severity = Diagnostic.Error;
    summary = "a component declares a channel to itself";
    paper_ref = "\xc2\xa7III-A";
    scope = Component;
    check =
      (fun _cfg _ctx m ->
        List.filter_map
          (fun c ->
            if c.Manifest.target = m.Manifest.name then
              Some
                (diag ~rule:l004 ~component:m.Manifest.name
                   ~service:c.Manifest.service
                   "component connects to itself; a channel to self grants nothing"
                   "delete the self-connection")
            else None)
          m.Manifest.connects_to) }

let rec l005 =
  { id = "L005-confused-deputy";
    severity = Diagnostic.Error;
    summary =
      "a service has several callers but its component does no badge checks";
    paper_ref = "\xc2\xa7III-D";
    scope = Neighborhood;
    check =
      (fun _cfg ctx m ->
        (* the seed is the *target*; callers come from the deduped
           manifest set, matching Analysis.confused_deputy_risks *)
        match find ctx m.Manifest.name with
        | Some tm when not tm.Manifest.discriminates_clients ->
          let by_service = Hashtbl.create 4 in
          List.iter
            (fun (caller, c, primary) ->
              if primary then begin
                let who =
                  Option.value ~default:[]
                    (Hashtbl.find_opt by_service c.Manifest.service)
                in
                if not (List.mem caller.Manifest.name who) then
                  Hashtbl.replace by_service c.Manifest.service
                    (caller.Manifest.name :: who)
              end)
            (inbound ctx m.Manifest.name);
          Hashtbl.fold
            (fun service who acc ->
              if List.length who >= 2 then
                diag ~rule:l005 ~component:m.Manifest.name ~service
                  (Printf.sprintf
                     "service answers %s without discriminating between callers"
                     (String.concat ", " (List.sort compare who)))
                  "check caller badges in the component, or split the service per caller"
                :: acc
              else acc)
            by_service []
        | _ -> []) }

let rec l006 =
  { id = "L006-taint-flow";
    severity = Diagnostic.Warning;
    summary =
      "an exposed component reaches a secret-holding substrate with no vetted boundary";
    paper_ref = "\xc2\xa7IV";
    scope = Graph;
    check =
      (fun cfg ctx m ->
        let r = flow_of_ctx cfg ctx in
        List.filter_map
          (fun (h : Flow.taint_hit) ->
            if (not h.Flow.t_direct) || h.Flow.t_source <> m.Manifest.name then
              None
            else
              match (find ctx h.Flow.t_source, find ctx h.Flow.t_sink) with
              | Some src, Some dst ->
                Some
                  (diag ~rule:l006 ~component:src.Manifest.name
                     (Printf.sprintf
                        "tainted component (%s) reaches secret-holder %s on %s via %s with no vetted boundary"
                        (taint_why src) dst.Manifest.name dst.Manifest.substrate
                        (String.concat " -> " h.Flow.t_path))
                     "vet a channel on the path (connects-vetted) or remove the route")
              | _ -> None)
          r.Flow.taint_hits) }

let rec l007 =
  { id = "L007-legacy-tcb";
    severity = Diagnostic.Warning;
    summary = "an unvetted legacy-OS dependency inflates the TCB past the threshold";
    paper_ref = "\xc2\xa7III-D";
    scope = Graph;
    check =
      (fun cfg ctx m ->
        let closure = unvetted_closure ctx m.Manifest.name in
        let legacy =
          List.filter
            (fun n ->
              match find ctx n with
              | Some d -> d.Manifest.substrate = "monolithic-os"
              | None -> false)
            closure
        in
        match legacy with
        | [] -> []
        | l :: _ ->
          let tcb =
            Analysis.tcb ctx.app
              ~tcb_of_substrate:default_tcb_of_substrate m.Manifest.name
          in
          if tcb > cfg.tcb_threshold then
            [ diag ~rule:l007 ~component:m.Manifest.name
                (Printf.sprintf
                   "depends on legacy-OS component %s without vetting; TCB is %d loc (threshold %d)"
                   l tcb cfg.tcb_threshold)
                "vet the dependency (connects-vetted) or re-host it off the monolithic OS" ]
          else []) }

let rec l008 =
  { id = "L008-shared-domain-pola";
    severity = Diagnostic.Warning;
    summary = "one protection domain co-locates too many components";
    paper_ref = "\xc2\xa7III-A";
    scope = Neighborhood;
    check =
      (fun cfg ctx m ->
        (* one diag per overfull domain, anchored at the (sorted) first
           member, matching Analysis.domains *)
        match find ctx m.Manifest.name with
        | None -> []
        | Some pm ->
          (match Hashtbl.find_opt ctx.domain_dedup pm.Manifest.domain with
           | Some members
             when List.length members > cfg.max_domain_components
                  && List.hd members = m.Manifest.name ->
             [ diag ~rule:l008 ~component:(List.hd members)
                 (Printf.sprintf
                    "domain %S co-locates %d components (%s); one exploit owns them all"
                    pm.Manifest.domain (List.length members)
                    (String.concat ", " members))
                 "split the domain; least privilege wants one component per domain" ]
           | _ -> [])) }

let rec l009 =
  { id = "L009-channel-cycle";
    severity = Diagnostic.Warning;
    summary = "components form a circular channel dependency";
    paper_ref = "\xc2\xa7III-A";
    scope = Graph;
    check =
      (fun _cfg ctx m ->
        (* cycle detection is inherently whole-graph: compute once per
           ctx, then hand each seed its own anchored findings *)
        let full =
          match !(ctx.cycles_memo) with
          | Some ds -> ds
          | None ->
            let names = List.map (fun m -> m.Manifest.name) ctx.manifests in
            let reach = Hashtbl.create 16 in
            let reachable_from start =
              match Hashtbl.find_opt reach start with
              | Some set -> set
              | None ->
                let seen = Hashtbl.create 8 in
                let rec go n =
                  match find ctx n with
                  | None -> ()
                  | Some m ->
                    List.iter
                      (fun c ->
                        if not (Hashtbl.mem seen c.Manifest.target) then begin
                          Hashtbl.replace seen c.Manifest.target ();
                          go c.Manifest.target
                        end)
                      m.Manifest.connects_to
                in
                go start;
                Hashtbl.replace reach start seen;
                seen
            in
            let in_cycle n = Hashtbl.mem (reachable_from n) n in
            let scc n =
              List.filter
                (fun m ->
                  Hashtbl.mem (reachable_from n) m
                  && Hashtbl.mem (reachable_from m) n)
                names
              |> List.sort compare
            in
            let reported = Hashtbl.create 4 in
            let ds =
              List.filter_map
                (fun n ->
                  if not (in_cycle n) then None
                  else
                    let members = scc n in
                    (* self-loops are L004's business, not a cycle *)
                    if List.length members < 2 then None
                    else
                      let key = String.concat "," members in
                      if Hashtbl.mem reported key then None
                      else begin
                        Hashtbl.replace reported key ();
                        Some
                          (diag ~rule:l009 ~component:(List.hd members)
                             (Printf.sprintf
                                "circular channel dependency among %s"
                                (String.concat ", " members))
                             "break the cycle; authority should flow one way through the app")
                      end)
                names
            in
            ctx.cycles_memo := Some ds;
            ds
        in
        List.filter
          (fun d -> d.Diagnostic.component = m.Manifest.name)
          full) }

let rec l010 =
  { id = "L010-dead-service";
    severity = Diagnostic.Info;
    summary = "a provided service that no component connects to";
    paper_ref = "\xc2\xa7III-A";
    scope = Neighborhood;
    check =
      (fun _cfg ctx m ->
        if m.Manifest.network_facing then []
        else
          let entries = inbound ctx m.Manifest.name in
          let has_caller service =
            List.exists
              (fun (_, c, _) -> c.Manifest.service = service)
              entries
          in
          List.filter_map
            (fun s ->
              if has_caller s then None
              else
                Some
                  (diag ~rule:l010 ~component:m.Manifest.name ~service:s
                     "service is provided but never connected to"
                     "remove the service, or connect the client that should use it"))
            m.Manifest.provides) }

let rec l011 =
  { id = "L011-substrate-mismatch";
    severity = Diagnostic.Warning;
    summary = "a component's substrate cannot supply what its role requires";
    paper_ref = "\xc2\xa7II";
    scope = Neighborhood;
    check =
      (fun _cfg ctx m ->
        let s = m.Manifest.substrate in
        if not (substrate_known s) then
          [ diag ~rule:l011 ~component:m.Manifest.name
              (Printf.sprintf "unknown substrate %S" s)
              (Printf.sprintf "use one of: %s"
                 (String.concat ", "
                    (List.map (fun (n, _, _) -> n) known_substrates))) ]
        else
          let vetted_target =
            List.exists
              (fun (_, c, _) -> c.Manifest.vetted)
              (inbound ctx m.Manifest.name)
          in
          if vetted_target && not (substrate_sealed_identity s) then
            [ diag ~rule:l011 ~component:m.Manifest.name
                (Printf.sprintf
                   "target of a vetted boundary, but substrate %S has no sealed identity to attest"
                   s)
                "host it on an attesting substrate (sep, sgx, trustzone, flicker, m3-noc)" ]
          else []) }

let rec l012 =
  { id = "L012-vulnerable-cohabitant";
    severity = Diagnostic.Warning;
    summary = "a vulnerable component shares its protection domain";
    paper_ref = "\xc2\xa7III-A";
    scope = Neighborhood;
    check =
      (fun _cfg ctx m ->
        if not m.Manifest.vulnerable then []
        else
          let mates =
            Option.value ~default:[]
              (Hashtbl.find_opt ctx.domain_all m.Manifest.domain)
            |> List.filter (fun n -> n <> m.Manifest.name)
            |> List.sort compare
          in
          if mates = [] then []
          else
            [ diag ~rule:l012 ~component:m.Manifest.name
                (Printf.sprintf
                   "vulnerable component shares domain %S with %s; its compromise owns them too"
                   m.Manifest.domain (String.concat ", " mates))
                "move the vulnerable component into its own domain" ]) }

let rec l013 =
  { id = "L013-oversized-component";
    severity = Diagnostic.Info;
    summary = "a component is large enough that decomposition would pay off";
    paper_ref = "\xc2\xa7III-C";
    scope = Component;
    check =
      (fun cfg _ctx m ->
        if m.Manifest.size_loc >= cfg.oversize_loc then
          [ diag ~rule:l013 ~component:m.Manifest.name
              (Printf.sprintf
                 "component is %d loc (threshold %d); lateral designs keep components small"
                 m.Manifest.size_loc cfg.oversize_loc)
              "decompose it into smaller single-purpose components" ]
        else []) }

let rec l014 =
  { id = "L014-label-leak";
    severity = Diagnostic.Error;
    summary =
      "secret material can flow from its holder to an attacker-observable component";
    paper_ref = "\xc2\xa7IV";
    scope = Graph;
    check =
      (fun cfg ctx m ->
        let r = flow_of_ctx cfg ctx in
        List.filter_map
          (fun (l : Flow.leak) ->
            if l.Flow.l_secret <> m.Manifest.name then None
            else
              match (find ctx l.Flow.l_secret, find ctx l.Flow.l_sink) with
              | Some holder, Some sink ->
                Some
                  (diag ~rule:l014 ~component:holder.Manifest.name
                     (Printf.sprintf
                        "secret held behind %s escapes to %s component %s via %s"
                        holder.Manifest.substrate (taint_why sink)
                        sink.Manifest.name
                        (String.concat " -> " l.Flow.l_path))
                     "vet a channel on the path (connects-vetted) or keep replies inside the boundary")
              | _ -> None)
          r.Flow.leaks) }

let rec l015 =
  { id = "L015-dead-declassifier";
    severity = Diagnostic.Info;
    summary = "a vetted boundary between two public-labelled components guards nothing";
    paper_ref = "\xc2\xa7III-D";
    scope = Graph;
    check =
      (fun cfg ctx m ->
        let r = flow_of_ctx cfg ctx in
        let label n =
          Option.value ~default:Flow_lattice.public
            (List.assoc_opt n r.Flow.labels)
        in
        let public n = Flow_lattice.equal (label n) Flow_lattice.public in
        List.filter_map
          (fun c ->
            if
              c.Manifest.vetted
              && c.Manifest.target <> m.Manifest.name
              && declared ctx c.Manifest.target
              && public m.Manifest.name
              && public c.Manifest.target
            then
              Some
                (diag ~rule:l015 ~component:m.Manifest.name
                   ~service:c.Manifest.service
                   (Printf.sprintf
                      "vetted boundary to %s guards nothing: both endpoints are labelled public"
                      c.Manifest.target)
                   "use a plain connects, or revisit why the boundary exists")
            else None)
          m.Manifest.connects_to) }

let rec l016 =
  { id = "L016-transitive-taint-into-enclave";
    severity = Diagnostic.Warning;
    summary =
      "attacker influence reaches a secret holder only through intermediaries";
    paper_ref = "\xc2\xa7IV";
    scope = Graph;
    check =
      (fun cfg ctx m ->
        let r = flow_of_ctx cfg ctx in
        List.filter_map
          (fun (h : Flow.taint_hit) ->
            if h.Flow.t_direct || h.Flow.t_source <> m.Manifest.name then None
            else
              match (find ctx h.Flow.t_source, find ctx h.Flow.t_sink) with
              | Some src, Some dst ->
                Some
                  (diag ~rule:l016 ~component:src.Manifest.name
                     (Printf.sprintf
                        "tainted component (%s) transitively reaches secret-holder %s on %s via %s with no vetted boundary"
                        (taint_why src) dst.Manifest.name dst.Manifest.substrate
                        (String.concat " -> " h.Flow.t_path))
                     "vet a channel on the path (connects-vetted) or remove the route")
              | _ -> None)
          r.Flow.taint_hits) }

let rec l019 =
  { id = "L019-restart-policy-missing";
    severity = Diagnostic.Warning;
    summary =
      "a stateful component on a crashable substrate declares no restart policy";
    paper_ref = "\xc2\xa7III";
    scope = Component;
    check =
      (fun _cfg _ctx m ->
        if
          m.Manifest.stateful
          && substrate_crashable m.Manifest.substrate
          && m.Manifest.restart = None
        then
          [ diag ~rule:l019 ~component:m.Manifest.name
              (Printf.sprintf
                 "stateful component on crashable substrate %S has no restart policy; a crash leaves it dead and its state unreachable"
                 m.Manifest.substrate)
              "declare one: restart on-failure 3 256 (or restart never to accept the loss)" ]
        else []) }

(* --- containment rules (L020-L023) -----------------------------------------
   All four read the shared Contain.analyze result (or, for L023, the
   same manifest facts its state-loss edges are derived from); the
   model is documented in docs/CONTAIN.md. *)

let rec l020 =
  { id = "L020-unbounded-blast-radius";
    severity = Diagnostic.Warning;
    summary =
      "an unrecoverable crash degrades components outside its own protection domain";
    paper_ref = "\xc2\xa7III";
    scope = Graph;
    check =
      (fun cfg ctx m ->
        let r = contain_of_ctx cfg ctx in
        match
          List.find_opt
            (fun (rad : Contain.radius) -> rad.Contain.r_root = m.Manifest.name)
            r.Contain.radii
        with
        | Some { Contain.r_escape = Some x; _ } ->
          [ diag ~rule:l020 ~component:m.Manifest.name
              (Printf.sprintf
                 "a crash never heals (no effective restart policy) and leaves %d component(s) outside its domain degraded forever, worst %s (%s): %s"
                 x.Contain.x_outside x.Contain.x_victim
                 (Contain.impact_to_string x.Contain.x_impact)
                 (String.concat " -> " x.Contain.x_path))
              "declare restart on-failure (with a budget), or decouple the outside dependents" ]
        | _ -> []) }

let rec l021 =
  { id = "L021-single-point-of-failure";
    severity = Diagnostic.Warning;
    summary =
      "a single crash impacts a large fraction of the fleet";
    paper_ref = "\xc2\xa7III";
    scope = Graph;
    check =
      (fun cfg ctx m ->
        let r = contain_of_ctx cfg ctx in
        let n = List.length r.Contain.radii in
        let threshold =
          max 3
            (int_of_float
               (ceil ((contain_config cfg).Contain.spof_fraction
                      *. float_of_int (n - 1))))
        in
        match
          List.find_opt
            (fun (rad : Contain.radius) -> rad.Contain.r_root = m.Manifest.name)
            r.Contain.radii
        with
        | Some rad ->
          let victims = List.length rad.Contain.r_hit - 1 in
          if victims >= threshold then
            [ diag ~rule:l021 ~component:m.Manifest.name
                (Printf.sprintf
                   "single point of failure: a crash impacts %d of %d other components (threshold %d)"
                   victims (n - 1) threshold)
                "split the service, replicate it, or cut dependents over to vetted bounded channels" ]
          else []
        | None -> []) }

let rec l022 =
  { id = "L022-restart-storm-cycle";
    severity = Diagnostic.Error;
    summary =
      "auto-restarting components form a channel cycle inside one protection domain";
    paper_ref = "\xc2\xa7III";
    scope = Graph;
    check =
      (fun cfg ctx m ->
        let r = contain_of_ctx cfg ctx in
        let peers =
          List.filter_map
            (fun (e : Contain.edge) ->
              if e.Contain.p_kind = Contain.Restart_storm
                 && e.Contain.p_src = m.Manifest.name
              then Some e.Contain.p_dst
              else None)
            r.Contain.edges
        in
        match peers with
        | [] -> []
        | _ when List.exists (fun p -> p < m.Manifest.name) peers ->
          [] (* anchored once, at the smallest member *)
        | _ ->
          let members =
            List.sort String.compare (m.Manifest.name :: peers)
          in
          [ diag ~rule:l022 ~component:m.Manifest.name
              (Printf.sprintf
                 "restart storm: %s call each other in a cycle inside domain %S and all auto-restart; one crash re-kills the others until every budget gives up"
                 (String.concat ", " members)
                 m.Manifest.domain)
              "break the cycle, split the domain, or set restart never on one member" ]) }

let rec l023 =
  { id = "L023-stateful-dependency-unshielded";
    severity = Diagnostic.Warning;
    summary =
      "an unvetted dependency on a stateful component whose state a crash destroys";
    paper_ref = "\xc2\xa7III-D";
    scope = Neighborhood;
    check =
      (fun _cfg ctx m ->
        List.filter_map
          (fun c ->
            if c.Manifest.vetted || c.Manifest.target = m.Manifest.name then None
            else
              match find ctx c.Manifest.target with
              | Some t
                when t.Manifest.stateful
                     && substrate_crashable t.Manifest.substrate
                     && (not (substrate_sealed_identity t.Manifest.substrate))
                     && Contain.crash_impact t = Contain.Failed ->
                Some
                  (diag ~rule:l023 ~component:m.Manifest.name
                     ~service:c.Manifest.service
                     (Printf.sprintf
                        "depends unvetted on stateful %S (substrate %S, no effective restart); a crash destroys the state and the loss lands here unshielded"
                        t.Manifest.name t.Manifest.substrate)
                     "vet the channel (a validating VPFS-style wrapper) or move the state to a sealed-identity substrate")
              | _ -> None)
          m.Manifest.connects_to) }

let selector_host_name sel =
  if String.length sel > 5 && String.sub sel 0 5 = "host:" then
    Some (String.sub sel 5 (String.length sel - 5))
  else None

let rec l024 =
  { id = "L024-placement-unsatisfiable";
    severity = Diagnostic.Error;
    summary =
      "a placement spec matches no declared fleet host or substrate class";
    paper_ref = "\xc2\xa7III";
    scope = Component;
    check =
      (fun cfg _ctx m ->
        let bad_selectors =
          List.filter_map
            (fun sel ->
              match Contain.placement_selector_invalid sel with
              | Some reason ->
                Some
                  (diag ~rule:l024 ~component:m.Manifest.name
                     (Printf.sprintf "placement selector %S: %s" sel reason)
                     "use host:NAME, class:tee, class:commodity or a known substrate name")
              | None ->
                (match (selector_host_name sel, cfg.declared_hosts) with
                 | Some name, (_ :: _ as hosts)
                   when not
                          (List.exists
                             (fun h -> h.Manifest.h_name = name)
                             hosts) ->
                   Some
                     (diag ~rule:l024 ~component:m.Manifest.name
                        (Printf.sprintf
                           "placement selector %S names no declared host (declared: %s)"
                           sel
                           (String.concat ", "
                              (List.map (fun h -> h.Manifest.h_name) hosts)))
                        "declare the host or drop the selector")
                 | _ -> None))
            m.Manifest.placement
        in
        if bad_selectors <> [] then bad_selectors
        else
          match cfg.declared_hosts with
          | [] -> []
          | hosts
            when List.exists (fun h -> Contain.host_can_host h m) hosts -> []
          | hosts ->
            [ diag ~rule:l024 ~component:m.Manifest.name
                (Printf.sprintf
                   "no declared host can place it: substrate %S%s matches none of %s"
                   m.Manifest.substrate
                   (if m.Manifest.placement = [] then ""
                    else
                      Printf.sprintf " under place %s"
                        (String.concat " " m.Manifest.placement))
                   (String.concat ", "
                      (List.map (fun h -> h.Manifest.h_name) hosts)))
                "offer the substrate on a host, relax the place selectors, or move the component" ]) }

(* trust domains (Tyche-style, nestable): the root path [] contains
   every other path, so shared root infrastructure never trips these;
   only channels/domains bridging two *disjoint* paths — distinct
   tenants — do *)
let rec l025 =
  { id = "L025-cross-tenant-channel";
    severity = Diagnostic.Error;
    summary = "an unvetted channel crosses disjoint trust domains";
    paper_ref = "\xc2\xa7II-B";
    scope = Neighborhood;
    check =
      (fun _cfg ctx m ->
        List.filter_map
          (fun c ->
            match find ctx c.Manifest.target with
            | Some tm
              when (not c.Manifest.vetted)
                   && Manifest.trust_domains_disjoint m.Manifest.trust_domain
                        tm.Manifest.trust_domain ->
              Some
                (diag ~rule:l025 ~component:m.Manifest.name
                   ~service:c.Manifest.service
                   (Printf.sprintf
                      "unvetted channel to %s.%s crosses trust domains (%s vs %s)"
                      c.Manifest.target c.Manifest.service
                      (Manifest.trust_path_string m.Manifest.trust_domain)
                      (Manifest.trust_path_string tm.Manifest.trust_domain))
                   "vet the channel or move both endpoints under a common trust domain")
            | _ -> None)
          m.Manifest.connects_to) }

let rec l026 =
  { id = "L026-protection-domain-spans-tenants";
    severity = Diagnostic.Error;
    summary = "one protection domain spans disjoint trust domains";
    paper_ref = "\xc2\xa7II-B";
    scope = Neighborhood;
    check =
      (fun _cfg ctx m ->
        match Hashtbl.find_opt ctx.domain_dedup m.Manifest.domain with
        | None -> []
        | Some members ->
          List.filter_map
            (fun peer ->
              match find ctx peer with
              | Some pm
                when peer <> m.Manifest.name
                     && Manifest.trust_domains_disjoint m.Manifest.trust_domain
                          pm.Manifest.trust_domain ->
                Some
                  (diag ~rule:l026 ~component:m.Manifest.name
                     (Printf.sprintf
                        "shares protection domain %S with %s in disjoint trust domain %s (own: %s) — crashes and compromise co-fate across tenants"
                        m.Manifest.domain peer
                        (Manifest.trust_path_string pm.Manifest.trust_domain)
                        (Manifest.trust_path_string m.Manifest.trust_domain))
                     "give each tenant its own protection domain")
              | _ -> None)
            (List.sort String.compare members)) }

let all =
  [ l001; l002; l003; l004; l005; l006; l007; l008; l009; l010; l011; l012;
    l013; l014; l015; l016; l019; l020; l021; l022; l023; l024; l025; l026 ]
