(* Flow: lattice laws (qcheck), the fixpoint solver on the example
   fixtures, kernel capability conformance, and the static-vs-dynamic
   soundness property: every IPC message a provisioned kernel actually
   delivers travels a predicted flow edge. *)

open Lateral
module K = Lt_kernel.Kernel
module User = Lt_kernel.User
module KSys = Lt_kernel.Sys

(* --- lattice laws ----------------------------------------------------------- *)

let gen_label =
  QCheck.Gen.(
    oneof
      [ return Flow_lattice.public;
        return Flow_lattice.tainted;
        (oneofl [ [ "a" ]; [ "b" ]; [ "c" ]; [ "a"; "b" ]; [ "b"; "c" ];
                  [ "a"; "b"; "c" ] ]
         >|= Flow_lattice.secret_of) ])

let arb_label = QCheck.make ~print:Flow_lattice.to_string gen_label

let arb_label3 = QCheck.triple arb_label arb_label arb_label

let prop_partial_order =
  QCheck.Test.make ~name:"leq is a partial order" ~count:500 arb_label3
    (fun (a, b, c) ->
      let open Flow_lattice in
      leq a a
      && ((not (leq a b && leq b a)) || equal a b)
      && ((not (leq a b && leq b c)) || leq a c))

let prop_join_semilattice =
  QCheck.Test.make ~name:"join is commutative, associative, idempotent"
    ~count:500 arb_label3
    (fun (a, b, c) ->
      let open Flow_lattice in
      equal (join a b) (join b a)
      && equal (join a (join b c)) (join (join a b) c)
      && equal (join a a) a
      && equal (join public a) a)

let prop_join_lub =
  QCheck.Test.make ~name:"join is the least upper bound" ~count:500 arb_label3
    (fun (a, b, c) ->
      let open Flow_lattice in
      leq a (join a b)
      && leq b (join a b)
      && ((not (leq a c && leq b c)) || leq (join a b) c))

let test_lattice_basics () =
  let open Flow_lattice in
  Alcotest.(check string) "public" "public" (to_string public);
  Alcotest.(check string) "tainted" "tainted" (to_string tainted);
  Alcotest.(check string) "owners sorted and deduped" "secret{a,b}"
    (to_string (secret_of [ "b"; "a"; "b" ]));
  Alcotest.(check bool) "secrecy dominates taint" true
    (is_secret (join (secret "x") tainted));
  Alcotest.(check bool) "taint survives the join" true
    (is_tainted (join (secret "x") tainted));
  Alcotest.(check bool) "chain public < tainted < secret" true
    (leq public tainted && leq tainted (secret "x")
    && not (leq (secret "x") tainted));
  Alcotest.(check bool) "owner sets ordered by inclusion" true
    (leq (secret "a") (secret_of [ "a"; "b" ])
    && not (leq (secret_of [ "a"; "b" ]) (secret "a")));
  Alcotest.check_raises "empty owner set rejected"
    (Invalid_argument "Flow_lattice.secret_of: empty owner set") (fun () ->
      ignore (Flow_lattice.secret_of []))

(* --- the solver on the fixtures --------------------------------------------- *)

let load_example file =
  match Manifest_file.load ("../examples/" ^ file) with
  | Ok ms -> ms
  | Error e -> Alcotest.fail e

let test_browser_leak () =
  let r = Flow.analyze (load_example "browser.manifest") in
  Alcotest.(check bool) "verdict is a leak" true (Flow.has_leaks r);
  (* the acceptance leak: the cookie jar's secret is readable from the
     compromised js interpreter, one reply edge away *)
  Alcotest.(check bool) "cookies -> js leak with its witness path" true
    (List.exists
       (fun l ->
         l.Flow.l_secret = "cookies" && l.Flow.l_sink = "js"
         && l.Flow.l_path = [ "cookies"; "js" ])
       r.Flow.leaks);
  Alcotest.(check bool) "keystore escapes via tls and net" true
    (List.exists
       (fun l ->
         l.Flow.l_secret = "keystore" && l.Flow.l_sink = "net"
         && l.Flow.l_path = [ "keystore"; "tls"; "net" ])
       r.Flow.leaks);
  (* taint runs the other way: net's influence reaches the keystore *)
  Alcotest.(check bool) "transitive taint into the keystore" true
    (List.exists
       (fun h ->
         h.Flow.t_source = "net" && h.Flow.t_sink = "keystore"
         && (not h.Flow.t_direct)
         && h.Flow.t_path = [ "net"; "tls"; "keystore" ])
       r.Flow.taint_hits);
  (* labels: the sink carries every owner it can observe; the vetted
     legacyfs edge keeps secrets out of the wrapper's dependency *)
  (match List.assoc_opt "js" r.Flow.labels with
   | Some l ->
     Alcotest.(check bool) "js observes the cookie secret" true
       (Flow_lattice.leq (Flow_lattice.secret "cookies") l)
   | None -> Alcotest.fail "js has no label");
  (match List.assoc_opt "legacyfs" r.Flow.labels with
   | Some l ->
     Alcotest.(check bool) "legacyfs stays secret-free" false
       (Flow_lattice.is_secret l)
   | None -> Alcotest.fail "legacyfs has no label")

let test_clean_secure () =
  let r = Flow.analyze (load_example "clean.manifest") in
  Alcotest.(check bool) "no leaks" false (Flow.has_leaks r);
  Alcotest.(check bool) "verdict Secure" true (r.Flow.verdict = Flow.Secure)

let test_deterministic () =
  let ms = load_example "browser.manifest" in
  let a = Flow.analyze ms and b = Flow.analyze ms in
  Alcotest.(check bool) "two runs agree exactly" true (a = b)

let test_vetting_declassifies () =
  (* same two components; only the vetting changes the verdict *)
  let app vetted =
    [ Manifest.v ~name:"gate" ~network_facing:true
        ~connects_to:[ Manifest.conn ~vetted "safe" "use" ] ();
      Manifest.v ~name:"safe" ~provides:[ "use" ] ~substrate:"sep" () ]
  in
  Alcotest.(check bool) "unvetted leaks" true (Flow.has_leaks (Flow.analyze (app false)));
  Alcotest.(check bool) "vetted is secure" false (Flow.has_leaks (Flow.analyze (app true)))

let test_reports () =
  let ms = load_example "browser.manifest" in
  let r = Flow.analyze ms in
  let text = Flow.render_text ~file:"browser.manifest" r in
  let contains ~inside needle =
    let n = String.length needle and h = String.length inside in
    let rec go i = i + n <= h && (String.sub inside i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "text names the verdict" true
    (contains ~inside:text "verdict: LEAK");
  let json = Lt_obs.Json.to_string (Flow.to_json ~file:"browser.manifest" r) in
  Alcotest.(check bool) "json carries the verdict" true
    (contains ~inside:json {|"verdict":"leak"|});
  let dot = Flow.to_dot ms r in
  Alcotest.(check bool) "dot declares the digraph" true
    (contains ~inside:dot "digraph flow");
  Alcotest.(check bool) "dot tags vetted edges" true
    (contains ~inside:dot "(vetted)")

(* --- conformance ------------------------------------------------------------- *)

let provision_ok ms =
  match Flow.provision ms with
  | Ok d -> d
  | Error e -> Alcotest.fail ("provision: " ^ e)

let test_scenarios_conform () =
  (match Lazy.force Scenario_meter.conformance with
   | Ok () -> ()
   | Error e -> Alcotest.fail ("meter: " ^ e));
  (match Lazy.force Scenario_cloud.conformance with
   | Ok () -> ()
   | Error e -> Alcotest.fail ("cloud: " ^ e));
  match Scenario_mail.conformance with
  | (lazy (Ok ())) -> ()
  | (lazy (Error e)) -> Alcotest.fail ("mail: " ^ e)

let test_over_privilege () =
  let ms = Scenario_meter.manifests in
  let d = provision_ok ms in
  let c0 = Flow.conformance ms d.Flow.d_kernel in
  Alcotest.(check bool) "freshly provisioned kernel conforms" true
    (Flow.conforms c0);
  (* seed one undeclared capability: the anonymizer gets a send cap onto
     the meter's endpoint *)
  let anon = List.assoc "anonymizer" d.Flow.d_tasks in
  let meter_ep = List.assoc "meter" d.Flow.d_endpoints in
  ignore
    (K.grant d.Flow.d_kernel anon meter_ep
       ~rights:{ K.send = true; recv = false } ~badge:9);
  let c = Flow.conformance ms d.Flow.d_kernel in
  Alcotest.(check bool) "no longer conforms" false (Flow.conforms c);
  Alcotest.(check bool) "over-privilege names task and endpoint" true
    (List.exists
       (fun o -> o.Flow.o_task = "anonymizer" && o.Flow.o_endpoint = "meter.ep")
       c.Flow.over);
  Alcotest.(check bool) "rendered as an L017 error" true
    (List.exists
       (fun dg ->
         dg.Diagnostic.rule_id = "L017-undeclared-authority"
         && dg.Diagnostic.severity = Diagnostic.Error
         && dg.Diagnostic.component = "anonymizer"
         && dg.Diagnostic.service = Some "meter.ep")
       (Flow.conformance_diagnostics c))

let test_under_provision () =
  let ms = Scenario_meter.manifests in
  let d = provision_ok ms in
  let meter = List.assoc "meter" d.Flow.d_tasks in
  let send_slot =
    List.find_map
      (fun (slot, _, r, _) -> if r.K.send then Some slot else None)
      (K.caps meter)
  in
  (match send_slot with
   | Some slot -> K.revoke d.Flow.d_kernel meter ~slot
   | None -> Alcotest.fail "meter has no send capability");
  let c = Flow.conformance ms d.Flow.d_kernel in
  Alcotest.(check bool) "revoked channel is under-provision" true
    (List.exists
       (fun u ->
         u.Flow.u_caller = "meter" && u.Flow.u_target = "utility"
         && u.Flow.u_services = [ "submit" ])
       c.Flow.under);
  Alcotest.(check bool) "rendered as an L018 warning" true
    (List.exists
       (fun dg ->
         dg.Diagnostic.rule_id = "L018-under-provision"
         && dg.Diagnostic.severity = Diagnostic.Warning)
       (Flow.conformance_diagnostics c))

let test_derive_attenuation_conforms () =
  (* attenuating a declared capability never widens authority, so the
     derived copy conforms exactly when the original did *)
  let ms = Scenario_meter.manifests in
  let d = provision_ok ms in
  let meter = List.assoc "meter" d.Flow.d_tasks in
  let send_slot =
    List.find_map
      (fun (slot, _, r, _) -> if r.K.send then Some slot else None)
      (K.caps meter)
  in
  (match send_slot with
   | Some slot ->
     (match
        K.derive_cap d.Flow.d_kernel meter ~slot
          ~rights:{ K.send = true; recv = false }
      with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("derive_cap: " ^ e))
   | None -> Alcotest.fail "meter has no send capability");
  Alcotest.(check bool) "derived copy still conforms" true
    (Flow.conforms (Flow.conformance ms d.Flow.d_kernel))

let test_badge_collision () =
  let ms =
    [ Manifest.v ~name:"one" ~connects_to:[ Manifest.conn "jar" "get" ] ();
      Manifest.v ~name:"two" ~connects_to:[ Manifest.conn "jar" "get" ] ();
      Manifest.v ~name:"jar" ~provides:[ "get" ] () ]
  in
  let d = provision_ok ms in
  Alcotest.(check bool) "distinct badges conform" true
    (Flow.conforms (Flow.conformance ms d.Flow.d_kernel));
  (* a second cap for a declared channel, but under the other caller's
     badge: the discriminating target can no longer tell them apart *)
  let two = List.assoc "two" d.Flow.d_tasks in
  let jar_ep = List.assoc "jar" d.Flow.d_endpoints in
  let one_badge =
    fst (List.find (fun (_, n) -> n = "one") d.Flow.d_badges)
  in
  ignore
    (K.grant d.Flow.d_kernel two jar_ep
       ~rights:{ K.send = true; recv = false } ~badge:one_badge);
  let c = Flow.conformance ms d.Flow.d_kernel in
  Alcotest.(check bool) "collision breaks conformance" false (Flow.conforms c);
  Alcotest.(check bool) "collision names the shared badge" true
    (List.exists
       (fun o ->
         o.Flow.o_endpoint = "jar.ep"
         && String.length o.Flow.o_reason >= 5
         && String.sub o.Flow.o_reason 0 5 = "badge")
       c.Flow.over)

let test_unknown_task () =
  let ms = Scenario_meter.manifests in
  let d = provision_ok ms in
  let rogue =
    K.create_task d.Flow.d_kernel ~name:"rogue" ~partition:"rogue"
  in
  let utility_ep = List.assoc "utility" d.Flow.d_endpoints in
  ignore
    (K.grant d.Flow.d_kernel rogue utility_ep
       ~rights:{ K.send = true; recv = false } ~badge:7);
  let c = Flow.conformance ms d.Flow.d_kernel in
  Alcotest.(check bool) "undeclared task is over-privilege" true
    (List.exists (fun o -> o.Flow.o_task = "rogue") c.Flow.over)

(* --- soundness: observed IPC ⊆ predicted flow edges -------------------------- *)

(* random well-formed apps: distinct names, no dangling targets, no
   self-connections, all channels unvetted so the declared pairs are
   exactly the request edges of the flow graph *)
let gen_app =
  QCheck.Gen.(
    int_range 2 5 >>= fun n ->
    let names = List.filteri (fun i _ -> i < n) [ "a"; "b"; "c"; "d"; "e" ] in
    let candidates =
      List.concat_map
        (fun src ->
          List.filter_map
            (fun dst -> if src = dst then None else Some (src, dst))
            names)
        names
    in
    list_repeat (List.length candidates) bool >>= fun picks ->
    let chans =
      List.filteri (fun i _ -> List.nth picks i) candidates
    in
    return
      (List.map
         (fun name ->
           Manifest.v ~name ~provides:[ "s" ]
             ~connects_to:
               (List.filter_map
                  (fun (s, d) ->
                    if s = name then Some (Manifest.conn d "s") else None)
                  chans)
             ())
         names))

let print_app ms = Manifest_file.to_text ms

let prop_soundness =
  QCheck.Test.make
    ~name:"observed IPC is a subset of the predicted flow edges" ~count:120
    (QCheck.make ~print:print_app gen_app)
    (fun ms ->
      match Flow.provision ms with
      | Error e -> QCheck.Test.fail_reportf "provision: %s" e
      | Ok d ->
        let k = d.Flow.d_kernel in
        let observed = ref [] in
        let total_send_caps = ref 0 in
        List.iter
          (fun (name, task) ->
            let caps = K.caps task in
            (match
               List.find_map
                 (fun (slot, _, r, _) -> if r.K.recv then Some slot else None)
                 caps
             with
             | Some slot ->
               ignore
                 (K.create_thread k task ~name:(name ^ "-rx") ~prio:1 (fun () ->
                      while true do
                        let badge, _, _ = User.recv ~cap:slot in
                        match List.assoc_opt badge d.Flow.d_badges with
                        | Some caller -> observed := (caller, name) :: !observed
                        | None -> ()
                      done))
             | None -> ());
            List.iter
              (fun (slot, _, r, _) ->
                if r.K.send then begin
                  incr total_send_caps;
                  ignore
                    (K.create_thread k task
                       ~name:(Printf.sprintf "%s-tx%d" name slot) ~prio:1
                       (fun () -> User.send ~cap:slot (KSys.msg "probe")))
                end)
              caps)
          d.Flow.d_tasks;
        ignore (K.run k);
        let predicted =
          List.filter_map
            (fun e ->
              if e.Flow.e_reply then None else Some (e.Flow.e_src, e.Flow.e_dst))
            (Flow.analyze ms).Flow.edges
        in
        List.for_all (fun ob -> List.mem ob predicted) !observed
        && List.length !observed = !total_send_caps)

let suite =
  [ QCheck_alcotest.to_alcotest prop_partial_order;
    QCheck_alcotest.to_alcotest prop_join_semilattice;
    QCheck_alcotest.to_alcotest prop_join_lub;
    Alcotest.test_case "lattice basics" `Quick test_lattice_basics;
    Alcotest.test_case "browser fixture leaks" `Quick test_browser_leak;
    Alcotest.test_case "clean fixture secure" `Quick test_clean_secure;
    Alcotest.test_case "analysis is deterministic" `Quick test_deterministic;
    Alcotest.test_case "vetting declassifies" `Quick test_vetting_declassifies;
    Alcotest.test_case "reports" `Quick test_reports;
    Alcotest.test_case "scenario manifests conform" `Quick test_scenarios_conform;
    Alcotest.test_case "seeded over-privilege detected" `Quick test_over_privilege;
    Alcotest.test_case "revocation is under-provision" `Quick test_under_provision;
    Alcotest.test_case "derived caps conform" `Quick test_derive_attenuation_conforms;
    Alcotest.test_case "badge collision detected" `Quick test_badge_collision;
    Alcotest.test_case "unknown task detected" `Quick test_unknown_task;
    QCheck_alcotest.to_alcotest prop_soundness ]
