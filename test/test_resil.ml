(* Resilience: supervised restart under manifest policies, hardened
   calls (deadline/retry/breaker), and the chaos harness's containment
   audit over the load-engine scenarios. *)

open Lt_crypto
open Lateral
module Sup = Lt_resil.Supervisor
module Chaos = Lt_resil.Chaos
module Load = Lt_load.Load
module Trace = Lt_obs.Trace

(* a one-component deployment for policy-level supervisor tests *)
let small_deploy ?restart () =
  let m = Lt_hw.Machine.create ~dram_pages:256 () in
  let mk, _ =
    Substrate_kernel.make m (Lt_kernel.Sched.Round_robin { quantum = 500 }) ()
  in
  match
    Deploy.deploy
      ~substrates:[ ("microkernel", mk) ]
      [ ( Manifest.v ~name:"svc" ~provides:[ "ping" ] ~network_facing:true
            ~substrate:"microkernel" ?restart (),
          fun _ctx ~service:_ req -> "pong:" ^ req ) ]
  with
  | Ok d -> d
  | Error e -> Alcotest.fail e

let scenario_supervisor ?config scenario seed =
  let rng = Drbg.create seed in
  match Load.deploy_scenario rng scenario with
  | Ok d -> (Sup.create ?config ~seed:(Int64.add seed 1L) d.Load.d_deploy, d)
  | Error e -> Alcotest.fail e

let ok_call sup ?caller ~target ~service req =
  match Sup.call sup ~caller ~target ~service req with
  | Ok r -> r
  | Error e -> Alcotest.fail (App.render_call_error e)

let must = function Ok () -> () | Error e -> Alcotest.fail e

(* --- typed routing errors pass through the supervisor untouched --- *)

let test_unknown_target_typed () =
  let sup, _ = scenario_supervisor Load.Mail 3L in
  (match Sup.call sup ~caller:None ~target:"gopher" ~service:"get" "x" with
   | Error (App.Unknown_component { target; _ }) ->
     Alcotest.(check string) "names the target" "gopher" target
   | Ok r -> Alcotest.fail ("unknown component answered: " ^ r)
   | Error e -> Alcotest.fail (App.render_call_error e));
  Alcotest.(check bool) "policy errors never trip the breaker" true
    (Sup.breaker_state sup ~target:"gopher" ~service:"get" = Sup.Closed)

let test_denied_verbatim () =
  let sup, _ = scenario_supervisor Load.Mail 4L in
  (* the renderer has no channel to the keystore: a deny is a correct
     answer from the reference monitor, not a fault *)
  (match
     Sup.call sup ~caller:(Some "renderer") ~target:"keystore" ~service:"sign"
       "steal"
   with
   | Error (App.Denied _) -> ()
   | Ok r -> Alcotest.fail ("denied probe answered: " ^ r)
   | Error e -> Alcotest.fail (App.render_call_error e));
  Alcotest.(check bool) "deny does not open the breaker" true
    (Sup.breaker_state sup ~target:"keystore" ~service:"sign" = Sup.Closed)

(* --- crash and supervised respawn across every adapter --- *)

let test_crash_surface_all_adapters () =
  List.iter
    (fun scenario ->
      let sup, d = scenario_supervisor scenario 21L in
      let dep = d.Load.d_deploy in
      List.iter
        (fun name ->
          must (Sup.crash sup name);
          Alcotest.(check bool) (name ^ " down") false (Deploy.is_alive dep name);
          Sup.heal sup;
          Alcotest.(check bool) (name ^ " respawned") true
            (Deploy.is_alive dep name))
        (Deploy.components dep);
      Alcotest.(check (list string))
        (Load.scenario_name scenario ^ ": nothing given up")
        [] (Sup.given_up sup))
    Load.all_scenarios

let test_crash_unknown_component () =
  let sup, _ = scenario_supervisor Load.Cloud 2L in
  match Sup.crash sup "gopher" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "crashed a component that does not exist"

let test_restart_transparent_to_caller () =
  let sup, d = scenario_supervisor Load.Mail 5L in
  let dep = d.Load.d_deploy in
  let r1 = ok_call sup ~target:"ui" ~service:"show" "msg-1" in
  must (Sup.crash sup "imap");
  Alcotest.(check bool) "imap down" false (Deploy.is_alive dep "imap");
  (* the fault is healed and retried inside one hardened call *)
  let r2 = ok_call sup ~target:"ui" ~service:"show" "msg-1" in
  Alcotest.(check string) "same answer after respawn" r1 r2;
  Alcotest.(check int) "one supervised restart" 1 (Sup.restarts_of sup "imap");
  Alcotest.(check bool) "imap back" true (Deploy.is_alive dep "imap")

let test_sealed_state_rederived_after_respawn () =
  let sup, _ = scenario_supervisor Load.Mail 6L in
  (* tls replies embed a MAC under the keystore's SEP-sealed key; the
     signature surviving a keystore respawn proves the fresh instance
     re-derived the sealed key rather than minting a new one *)
  let r1 = ok_call sup ~caller:"imap" ~target:"tls" ~service:"transmit" "p" in
  must (Sup.crash sup "keystore");
  let r2 = ok_call sup ~caller:"imap" ~target:"tls" ~service:"transmit" "p" in
  Alcotest.(check string) "signature stable across keystore respawn" r1 r2;
  Alcotest.(check int) "keystore restarted once" 1 (Sup.restarts_of sup "keystore")

(* --- restart policies: never / absent / budget --- *)

let test_no_policy_gives_up () =
  let d = small_deploy () in
  let sup = Sup.create ~seed:9L d in
  must (Sup.crash sup "svc");
  Sup.heal sup;
  Alcotest.(check (list string)) "given up" [ "svc" ] (Sup.given_up sup);
  Alcotest.(check int) "no restarts" 0 (Sup.restarts_of sup "svc");
  (match Sup.call sup ~caller:None ~target:"svc" ~service:"ping" "x" with
   | Error (App.Crashed _) -> ()
   | Ok _ -> Alcotest.fail "dead component answered"
   | Error e -> Alcotest.fail (App.render_call_error e));
  (* operator intervention: revive clears the mark *)
  must (Sup.revive sup "svc");
  Alcotest.(check (list string)) "revived" [] (Sup.given_up sup);
  Alcotest.(check string) "serving again" "pong:x"
    (ok_call sup ~target:"svc" ~service:"ping" "x")

let test_never_policy_gives_up () =
  let d = small_deploy ~restart:(Manifest.default_restart Manifest.Never) () in
  let sup = Sup.create ~seed:10L d in
  must (Sup.crash sup "svc");
  Sup.heal sup;
  Alcotest.(check (list string)) "never: stays dead" [ "svc" ] (Sup.given_up sup);
  Alcotest.(check int) "never restarted" 0 (Sup.restarts_of sup "svc")

let test_restart_budget_spent () =
  let d = small_deploy ~restart:(Manifest.default_restart Manifest.On_failure) () in
  let sup = Sup.create ~seed:11L d in
  for _ = 1 to 3 do
    must (Sup.crash sup "svc");
    Sup.heal sup
  done;
  Alcotest.(check int) "budget of three honoured" 3 (Sup.restarts_of sup "svc");
  Alcotest.(check (list string)) "still supervised" [] (Sup.given_up sup);
  must (Sup.crash sup "svc");
  Sup.heal sup;
  Alcotest.(check int) "fourth refused" 3 (Sup.restarts_of sup "svc");
  Alcotest.(check (list string)) "gave up" [ "svc" ] (Sup.given_up sup)

let test_restart_window_slides () =
  let t = Trace.create () in
  Trace.with_tracer t (fun () ->
      let d =
        small_deploy ~restart:(Manifest.default_restart Manifest.On_failure) ()
      in
      let sup = Sup.create ~seed:12L d in
      for _ = 1 to 3 do
        must (Sup.crash sup "svc");
        Sup.heal sup
      done;
      (* the 256-tick window slides on the ambient clock: after it
         passes, the budget refills instead of giving up *)
      Trace.advance 300;
      must (Sup.crash sup "svc");
      Sup.heal sup;
      Alcotest.(check int) "fourth granted after the window" 4
        (Sup.restarts_of sup "svc");
      Alcotest.(check (list string)) "not given up" [] (Sup.given_up sup))

(* --- circuit breaker: open, fast-fail, half-open probe, close --- *)

let test_breaker_cycle () =
  let t = Trace.create () in
  Trace.with_tracer t (fun () ->
      let d = small_deploy ~restart:(Manifest.default_restart Manifest.Never) () in
      let cfg =
        { Sup.default_config with
          breaker_threshold = 2;
          breaker_cooldown = 64;
          retries = 0
        }
      in
      let sup = Sup.create ~config:cfg ~seed:13L d in
      must (Sup.crash sup "svc");
      let state () = Sup.breaker_state sup ~target:"svc" ~service:"ping" in
      let fail_call () =
        match Sup.call sup ~caller:None ~target:"svc" ~service:"ping" "x" with
        | Error (App.Crashed { reason; _ }) -> reason
        | Ok _ -> Alcotest.fail "dead svc answered"
        | Error e -> Alcotest.fail (App.render_call_error e)
      in
      ignore (fail_call ());
      Alcotest.(check bool) "closed below threshold" true (state () = Sup.Closed);
      ignore (fail_call ());
      Alcotest.(check bool) "open at threshold" true (state () = Sup.Open);
      let reason = fail_call () in
      Alcotest.(check bool) "fast-fail names the open circuit" true
        (String.length reason >= 12 && String.sub reason 0 12 = "circuit open");
      Trace.advance 100;
      (* past the cooldown: exactly one half-open probe, which fails
         against the still-dead component and re-opens the circuit *)
      ignore (fail_call ());
      Alcotest.(check bool) "failed probe re-opens" true (state () = Sup.Open);
      must (Sup.revive sup "svc");
      Trace.advance 100;
      Alcotest.(check string) "successful probe serves the reply" "pong:hello"
        (ok_call sup ~target:"svc" ~service:"ping" "hello");
      Alcotest.(check bool) "closed after successful probe" true
        (state () = Sup.Closed))

(* --- determinism: equal seeds, byte-identical traces and reports --- *)

let test_backoff_schedule_deterministic () =
  let run seed =
    let t = Trace.create () in
    Trace.with_tracer t (fun () ->
        let d =
          small_deploy ~restart:(Manifest.default_restart Manifest.Never) ()
        in
        let sup = Sup.create ~seed d in
        must (Sup.crash sup "svc");
        for _ = 1 to 3 do
          ignore (Sup.call sup ~caller:None ~target:"svc" ~service:"ping" "x")
        done);
    Trace.export_json t
  in
  Alcotest.(check string) "equal seeds give identical backoff traces" (run 99L)
    (run 99L)

let test_chaos_deterministic () =
  let run () =
    match
      Chaos.run
        ~plan:{ Chaos.no_chaos with kill = [ "meter" ]; kill_pct = 5 }
        ~scenario:Load.Meter ~requests:30 ~seed:3 ()
    with
    | Ok (r, _) -> Chaos.render_report_json r
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "byte-identical chaos reports" (run ()) (run ())

(* --- chaos harness: containment end-to-end --- *)

let test_chaos_mail_power_cut_contained () =
  match
    Chaos.run
      ~plan:{ Chaos.no_chaos with kill = [ "imap"; "legacy_os" ] }
      ~scenario:Load.Mail ~requests:40 ~seed:7 ()
  with
  | Error e -> Alcotest.fail e
  | Ok (r, _) ->
    Alcotest.(check int) "one power cut" 1 r.Chaos.c_backend_cuts;
    Alcotest.(check string) "VPFS survivors match the shadow oracle" "match"
      r.Chaos.c_oracle;
    Alcotest.(check bool) "no secret escaped to the legacy stack" false
      r.Chaos.c_secret_leak;
    Alcotest.(check int) "every failure excused by an injected fault" 0
      r.Chaos.c_outcome.failed_unexcused;
    Alcotest.(check bool) "contained" true (Chaos.contained r)

let test_chaos_flap_opens_breaker () =
  match
    Chaos.run
      ~plan:{ Chaos.no_chaos with flap = Some "renderer" }
      ~scenario:Load.Mail ~requests:60 ~seed:11 ()
  with
  | Error e -> Alcotest.fail e
  | Ok (r, _) ->
    Alcotest.(check bool) "flapping drove the restart budget to give-up" true
      (List.mem "renderer" r.Chaos.c_given_up);
    Alcotest.(check bool) "its route's breaker opened" true
      (List.mem_assoc "resil/breaker_open" r.Chaos.c_outcome.counters);
    Alcotest.(check bool) "calls fast-failed while open" true
      (List.mem_assoc "resil/breaker_fastfail" r.Chaos.c_outcome.counters);
    Alcotest.(check bool) "yet the run stayed contained" true (Chaos.contained r)

let test_chaos_rejects_bad_plans () =
  (match
     Chaos.run
       ~plan:{ Chaos.no_chaos with kill = [ "gopher" ] }
       ~scenario:Load.Meter ~requests:10 ~seed:1 ()
   with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown kill target accepted");
  match
    Chaos.run
      ~plan:{ Chaos.no_chaos with kill = [ "legacy_os" ] }
      ~scenario:Load.Meter ~requests:10 ~seed:1 ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "legacy_os power cut accepted outside mail"

(* --- chaos observed radius vs the static Contain prediction --- *)

(* the scenario fleets are fixed, so one Contain.analyze per scenario
   serves every generated kill schedule *)
let static_radii_memo = ref []

let scenario_manifests scenario =
  match Load.deploy_scenario (Drbg.create 1L) scenario with
  | Error e -> Alcotest.fail e
  | Ok dep ->
    let d = dep.Load.d_deploy in
    (List.filter_map (Deploy.manifest d) (Deploy.components d), dep)

let static_radii scenario =
  match List.assoc_opt (Load.scenario_name scenario) !static_radii_memo with
  | Some r -> r
  | None ->
    let ms, _ = scenario_manifests scenario in
    let r = Contain.analyze ms in
    static_radii_memo :=
      (Load.scenario_name scenario, r) :: !static_radii_memo;
    r

let killable = function
  | Load.Mail ->
    [ "ui"; "imap"; "smtp"; "tls"; "keystore"; "storage"; "legacyfs";
      "renderer"; "composer"; "legacy_os" ]
  | Load.Meter -> [ "collector"; "meter"; "utility"; "anonymizer" ]
  | Load.Cloud -> [ "host"; "enclave" ]

let chaos_case_gen =
  QCheck.Gen.(
    Load.all_scenarios |> oneofl >>= fun scenario ->
    let comp = oneofl (killable scenario) in
    tup5 (return scenario)
      (tup2 (int_range 1 500) (int_range 5 40))
      (list_size (int_range 0 3) comp)
      (opt (oneofl (List.filter (fun c -> c <> "legacy_os") (killable scenario))))
      (int_range 0 15))

let print_chaos_case (scenario, (seed, requests), kills, flap, kill_pct) =
  Printf.sprintf "%s seed=%d requests=%d kill=[%s] flap=%s kill-pct=%d"
    (Load.scenario_name scenario) seed requests (String.concat "," kills)
    (match flap with None -> "-" | Some f -> f)
    kill_pct

(* the soundness gate: no impact the harness observes may exceed what
   the static analysis predicts for the components actually killed
   ([Contain.escapes], which licenses Failed on a component killed more
   than once). Mid-IPC faults stay off (they damage requests, not
   components). *)
let prop_observed_inside_static =
  QCheck.Test.make ~count:51 ~name:"chaos observed radius inside static radius"
    (QCheck.make ~print:print_chaos_case chaos_case_gen)
    (fun (scenario, (seed, requests), kills, flap, kill_pct) ->
      let plan = { Chaos.kill = kills; kill_pct; flap; mid_ipc_pct = 0 } in
      match Chaos.run ~plan ~scenario ~requests ~seed () with
      | Error e -> QCheck.Test.fail_reportf "plan rejected: %s" e
      | Ok (r, _) ->
        let killed = Chaos.killed plan r in
        (match Contain.escapes (static_radii scenario) ~killed r.Chaos.c_outcome.observed with
         | [] -> true
         | (y, obs, allowed) :: _ ->
           QCheck.Test.fail_reportf "observed %s on %s, static allows %s (kills [%s])"
             (Contain.impact_to_string obs) y
             (Option.fold ~none:"untouched" ~some:Contain.impact_to_string allowed)
             (String.concat ", " (List.map fst killed))))

(* the static prediction reasons over manifest channels; the harness
   accounts blast per route. The inclusion above is only meaningful if
   every route's slice is reachable from its entry through channels *)
let test_routes_follow_channels () =
  List.iter
    (fun scenario ->
      let ms, dep = scenario_manifests scenario in
      let succ name =
        match List.find_opt (fun m -> m.Manifest.name = name) ms with
        | None -> []
        | Some m ->
          List.map (fun c -> c.Manifest.target) m.Manifest.connects_to
      in
      let rec reach seen = function
        | [] -> seen
        | n :: rest ->
          if List.mem n seen then reach seen rest
          else reach (n :: seen) (succ n @ rest)
      in
      List.iter
        (fun (target, service, deps) ->
          let ok = reach [] [ target ] in
          List.iter
            (fun dep ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: route %s.%s dep %s follows channels"
                   (Load.scenario_name scenario) target service dep)
                true (List.mem dep ok))
            deps)
        dep.Load.d_routes)
    Load.all_scenarios

let suite =
  [ Alcotest.test_case "unknown target: typed error, breaker untouched" `Quick
      test_unknown_target_typed;
    Alcotest.test_case "deny returned verbatim, never retried" `Quick
      test_denied_verbatim;
    Alcotest.test_case "crash + respawn across every adapter" `Quick
      test_crash_surface_all_adapters;
    Alcotest.test_case "crash of unknown component refused" `Quick
      test_crash_unknown_component;
    Alcotest.test_case "restart transparent to the caller" `Quick
      test_restart_transparent_to_caller;
    Alcotest.test_case "sealed state re-derived after respawn" `Quick
      test_sealed_state_rederived_after_respawn;
    Alcotest.test_case "no restart policy: give up" `Quick test_no_policy_gives_up;
    Alcotest.test_case "never policy: give up" `Quick test_never_policy_gives_up;
    Alcotest.test_case "restart budget spent: give up" `Quick
      test_restart_budget_spent;
    Alcotest.test_case "restart window slides on the ambient clock" `Quick
      test_restart_window_slides;
    Alcotest.test_case "breaker: open, fast-fail, probe, close" `Quick
      test_breaker_cycle;
    Alcotest.test_case "backoff schedule is seed-deterministic" `Quick
      test_backoff_schedule_deterministic;
    Alcotest.test_case "chaos reports are seed-deterministic" `Quick
      test_chaos_deterministic;
    Alcotest.test_case "chaos: mail power cut contained" `Quick
      test_chaos_mail_power_cut_contained;
    Alcotest.test_case "chaos: flapping component contained by breaker" `Quick
      test_chaos_flap_opens_breaker;
    Alcotest.test_case "chaos: malformed plans rejected" `Quick
      test_chaos_rejects_bad_plans;
    Alcotest.test_case "routes transit only channel descendants" `Quick
      test_routes_follow_channels;
    QCheck_alcotest.to_alcotest prop_observed_inside_static ]
