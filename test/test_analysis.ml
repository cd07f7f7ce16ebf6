(* Manifests, communication control, trust-graph analysis, secure GUI. *)

open Lateral

(* a small mail client in both shapes (Figure 1) *)
let mail_components ~vertical =
  let domain name = if vertical then "mailapp" else name in
  [ Manifest.v ~name:"imap" ~provides:[ "fetch"; "send" ]
      ~connects_to:[ Manifest.conn "tls" "transmit" ]
      ~domain:(domain "imap") ~size_loc:8000 ~network_facing:true ~vulnerable:true ();
    Manifest.v ~name:"tls" ~provides:[ "transmit" ] ~domain:(domain "tls")
      ~size_loc:3000 ();
    Manifest.v ~name:"renderer" ~provides:[ "render" ] ~domain:(domain "renderer")
      ~size_loc:20000 ~network_facing:true ~vulnerable:true ();
    Manifest.v ~name:"composer" ~provides:[ "compose" ]
      ~connects_to:
        [ Manifest.conn "imap" "send"; Manifest.conn "input" "suggest" ]
      ~domain:(domain "composer") ~size_loc:5000 ();
    Manifest.v ~name:"input" ~provides:[ "suggest" ] ~domain:(domain "input")
      ~size_loc:4000 ();
    Manifest.v ~name:"storage" ~provides:[ "load"; "store" ]
      ~connects_to:[ Manifest.conn ~vetted:true "legacyfs" "io" ]
      ~domain:(domain "storage") ~size_loc:2000 ();
    Manifest.v ~name:"legacyfs" ~provides:[ "io" ] ~domain:(domain "legacyfs")
      ~size_loc:30000 ~vulnerable:true ();
    Manifest.v ~name:"ui" ~provides:[ "show" ]
      ~connects_to:
        [ Manifest.conn "imap" "fetch"; Manifest.conn "renderer" "render";
          Manifest.conn "storage" "load"; Manifest.conn "composer" "compose" ]
      ~domain:(domain "ui") ~size_loc:6000 () ]

(* the string view of a call, as reports and these assertions read it *)
let call app ~caller ~target ~service req =
  Result.map_error App.render_call_error (App.call_typed app ~caller ~target ~service req)

let build_app ~vertical =
  let app = App.create () in
  List.iter (App.add_stub app) (mail_components ~vertical);
  app

let test_validate () =
  let app = build_app ~vertical:false in
  Alcotest.(check bool) "manifests consistent" true (App.validate app = Ok ());
  let broken = App.create () in
  App.add_stub broken
    (Manifest.v ~name:"x" ~connects_to:[ Manifest.conn "ghost" "svc" ] ());
  (match App.validate broken with
   | Error [ msg ] ->
     Alcotest.(check bool) "dangling reported" true
       (String.length msg > 0)
   | _ -> Alcotest.fail "expected one dangling connection")

let test_communication_control () =
  let app = build_app ~vertical:false in
  (* declared channel passes *)
  (match call app ~caller:(Some "ui") ~target:"renderer" ~service:"render" "msg" with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  (* undeclared channel blocked, even though both components exist *)
  (match call app ~caller:(Some "renderer") ~target:"tls" ~service:"transmit" "x" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "undeclared channel allowed!");
  Alcotest.(check int) "violation recorded" 1 (List.length (App.violations app));
  (* external input reaches only network-facing components *)
  (match call app ~caller:None ~target:"imap" ~service:"fetch" "x" with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  (match call app ~caller:None ~target:"tls" ~service:"transmit" "x" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "external input reached an internal component")

let test_compromised_component_contained () =
  let app = build_app ~vertical:false in
  App.compromise app "renderer";
  (* drive the compromised component once *)
  ignore (call app ~caller:(Some "ui") ~target:"renderer" ~service:"render" "evil");
  let attempts = App.exfiltration_attempts app "renderer" in
  Alcotest.(check bool) "attacker swept every service" true (List.length attempts > 5);
  let allowed = List.filter (fun (_, _, ok) -> ok) attempts in
  (* the renderer declares no outbound channels: nothing is reachable *)
  Alcotest.(check int) "renderer exfiltrated nothing" 0 (List.length allowed)

let test_reach_vertical_vs_horizontal () =
  let vertical = build_app ~vertical:true in
  let horizontal = build_app ~vertical:false in
  let rv = Analysis.compromise_reach vertical "renderer" in
  let rh = Analysis.compromise_reach horizontal "renderer" in
  Alcotest.(check int) "vertical: everything owned" 8 (List.length rv.Analysis.owned);
  Alcotest.(check (float 0.01)) "vertical fraction 1.0" 1.0 rv.Analysis.owned_fraction;
  Alcotest.(check int) "horizontal: only the renderer owned" 1
    (List.length rh.Analysis.owned);
  Alcotest.(check bool) "horizontal fraction small" true
    (rh.Analysis.owned_fraction < 0.2)

let test_reach_propagates_through_vulnerable () =
  let app = build_app ~vertical:false in
  (* ui connects to vulnerable imap: owning ui owns imap too, and from
     imap the declared tls channel becomes usable authority *)
  let r = Analysis.compromise_reach app "ui" in
  Alcotest.(check bool) "imap owned via vulnerability" true
    (List.mem "imap" r.Analysis.owned);
  Alcotest.(check bool) "tls invocable but not owned" true
    (List.mem ("tls", "transmit") r.Analysis.invocable
     && not (List.mem "tls" r.Analysis.owned))

let test_tcb_accounting () =
  let app = build_app ~vertical:false in
  let tcb_of_substrate _ = 10_000 in
  (* tls: self + substrate only (no outbound connections) *)
  Alcotest.(check int) "tls tcb" (3000 + 10_000)
    (Analysis.tcb app ~tcb_of_substrate "tls");
  (* storage uses the 30k legacy fs but with a vetting wrapper: excluded *)
  Alcotest.(check int) "storage tcb excludes vetted dependency" (2000 + 10_000)
    (Analysis.tcb app ~tcb_of_substrate "storage");
  (* ui transitively trusts everything it calls unvetted *)
  let ui = Analysis.tcb app ~tcb_of_substrate "ui" in
  Alcotest.(check bool) "ui tcb includes called components" true (ui > 40_000)

let test_tcb_cycles () =
  let app = App.create () in
  App.add_stub app
    (Manifest.v ~name:"a" ~provides:[ "s" ] ~connects_to:[ Manifest.conn "b" "s" ]
       ~size_loc:100 ());
  App.add_stub app
    (Manifest.v ~name:"b" ~provides:[ "s" ] ~connects_to:[ Manifest.conn "a" "s" ]
       ~size_loc:200 ());
  (* shared substrate counted once, both components counted once *)
  Alcotest.(check int) "cyclic tcb terminates" (100 + 200 + 1000)
    (Analysis.tcb app ~tcb_of_substrate:(fun _ -> 1000) "a")

let test_confused_deputy_detector () =
  let app = App.create () in
  App.add_stub app
    (Manifest.v ~name:"store" ~provides:[ "get" ] ~discriminates_clients:false ());
  App.add_stub app
    (Manifest.v ~name:"alice" ~connects_to:[ Manifest.conn "store" "get" ] ());
  App.add_stub app
    (Manifest.v ~name:"bob" ~connects_to:[ Manifest.conn "store" "get" ] ());
  (match Analysis.confused_deputy_risks app with
   | [ ("store", "get", callers) ] ->
     Alcotest.(check (list string)) "both callers listed" [ "alice"; "bob" ] callers
   | other ->
     Alcotest.fail (Printf.sprintf "expected one risk, got %d" (List.length other)));
  (* a discriminating service is not flagged *)
  let app2 = App.create () in
  App.add_stub app2
    (Manifest.v ~name:"store" ~provides:[ "get" ] ~discriminates_clients:true ());
  App.add_stub app2
    (Manifest.v ~name:"alice" ~connects_to:[ Manifest.conn "store" "get" ] ());
  App.add_stub app2
    (Manifest.v ~name:"bob" ~connects_to:[ Manifest.conn "store" "get" ] ());
  Alcotest.(check int) "badge-checking deputy not flagged" 0
    (List.length (Analysis.confused_deputy_risks app2))

let test_attack_surface_and_domains () =
  let app = build_app ~vertical:false in
  Alcotest.(check bool) "imap surface includes network services" true
    (Analysis.attack_surface app "imap" > Analysis.attack_surface app "tls");
  Alcotest.(check int) "eight domains when horizontal" 8
    (List.length (Analysis.domains app));
  let vertical = build_app ~vertical:true in
  Alcotest.(check int) "one domain when vertical" 1
    (List.length (Analysis.domains vertical))

let test_live_behaviour_chain () =
  (* real behaviours calling through ctx, subject to the same checks *)
  let app = App.create () in
  App.add app
    (Manifest.v ~name:"front" ~provides:[ "handle" ] ~network_facing:true
       ~connects_to:[ Manifest.conn "back" "query" ] ())
    (fun ctx ~service:_ req ->
      match ctx.App.call ~target:"back" ~service:"query" req with
      | Ok r -> "front(" ^ r ^ ")"
      | Error e -> "denied:" ^ App.render_call_error e);
  App.add app
    (Manifest.v ~name:"back" ~provides:[ "query" ] ())
    (fun _ ~service:_ req -> "back:" ^ req);
  (match call app ~caller:None ~target:"front" ~service:"handle" "q" with
   | Ok r -> Alcotest.(check string) "chained" "front(back:q)" r
   | Error e -> Alcotest.fail e);
  (* a behaviour attempting an undeclared hop is denied inline *)
  App.add app
    (Manifest.v ~name:"rogue" ~provides:[ "go" ] ~network_facing:true ())
    (fun ctx ~service:_ _ ->
      match ctx.App.call ~target:"back" ~service:"query" "steal" with
      | Ok _ -> "got-through"
      | Error _ -> "blocked");
  (match call app ~caller:None ~target:"rogue" ~service:"go" "" with
   | Ok r -> Alcotest.(check string) "undeclared hop blocked" "blocked" r
   | Error e -> Alcotest.fail e)

let test_behaviour_crash_is_error () =
  let app = App.create () in
  App.add app
    (Manifest.v ~name:"fragile" ~provides:[ "boom" ] ~network_facing:true ())
    (fun _ ~service:_ _ -> failwith "segfault");
  match call app ~caller:None ~target:"fragile" ~service:"boom" "" with
  | Error e ->
    Alcotest.(check bool) "crash surfaced as error" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "crash swallowed"

(* --- secure GUI -------------------------------------------------------------- *)

let test_gui_trusted_indicator () =
  let g = Gui.create () in
  Gui.register_owner g ~owner:"bank" ~light:Gui.Green;
  Gui.register_owner g ~owner:"game" ~light:Gui.Red;
  Gui.open_window g ~owner:"bank" ~title:"Bank";
  Gui.open_window g ~owner:"game" ~title:"Totally Real Bank Login";
  (* phishing attempt: the game draws a fake bank UI *)
  Gui.set_content g ~owner:"game"
    [ "[GREEN] you are talking to: bank"; "Enter your banking password:" ];
  Gui.focus g ~owner:"game";
  (match Gui.indicator_line g with
   | Some line ->
     Alcotest.(check bool) "indicator names the true owner" true
       (line = "[RED] you are talking to: game")
   | None -> Alcotest.fail "no indicator");
  (* the compositor's indicator comes first on screen, above any forgery *)
  (match Gui.render g with
   | first :: _ ->
     Alcotest.(check string) "first line is the truth" "[RED] you are talking to: game"
       first
   | [] -> Alcotest.fail "empty render")

let test_gui_input_routing () =
  let g = Gui.create () in
  Gui.register_owner g ~owner:"bank" ~light:Gui.Green;
  Gui.register_owner g ~owner:"game" ~light:Gui.Red;
  Gui.open_window g ~owner:"bank" ~title:"Bank";
  Gui.open_window g ~owner:"game" ~title:"Game";
  Gui.focus g ~owner:"bank";
  Gui.type_input g "hunter2";
  Alcotest.(check (list string)) "focused owner got the keys" [ "hunter2" ]
    (Gui.received_input g ~owner:"bank");
  Alcotest.(check (list string)) "unfocused owner got nothing" []
    (Gui.received_input g ~owner:"game")

let test_gui_focus_switch_reroutes_input () =
  let g = Gui.create () in
  Gui.register_owner g ~owner:"a" ~light:Gui.Green;
  Gui.register_owner g ~owner:"b" ~light:Gui.Yellow;
  Gui.open_window g ~owner:"a" ~title:"A";
  Gui.open_window g ~owner:"b" ~title:"B";
  Gui.focus g ~owner:"a";
  Gui.type_input g "for-a";
  Gui.focus g ~owner:"b";
  Gui.type_input g "for-b";
  Alcotest.(check (list string)) "a got only its keys" [ "for-a" ]
    (Gui.received_input g ~owner:"a");
  Alcotest.(check (list string)) "b got only its keys" [ "for-b" ]
    (Gui.received_input g ~owner:"b");
  (* indicator follows focus with the registered light *)
  Alcotest.(check (option string)) "indicator shows b"
    (Some "[YELLOW] you are talking to: b")
    (Gui.indicator_line g);
  (* typing with no focus goes nowhere *)
  let g2 = Gui.create () in
  Gui.type_input g2 "void";
  Alcotest.(check (option string)) "no focus, no indicator" None
    (Gui.indicator_line g2)

let test_gui_unregistered_owner_rejected () =
  let g = Gui.create () in
  Alcotest.(check bool) "unregistered owner cannot open windows" true
    (try Gui.open_window g ~owner:"rogue" ~title:"x"; false
     with Invalid_argument _ -> true)

let suite =
  [ Alcotest.test_case "manifest validation" `Quick test_validate;
    Alcotest.test_case "communication control (POLA)" `Quick test_communication_control;
    Alcotest.test_case "compromised component contained at runtime" `Quick
      test_compromised_component_contained;
    Alcotest.test_case "reach: vertical vs horizontal (Figure 1)" `Quick
      test_reach_vertical_vs_horizontal;
    Alcotest.test_case "reach propagates through vulnerable targets" `Quick
      test_reach_propagates_through_vulnerable;
    Alcotest.test_case "tcb accounting with vetted wrappers" `Quick test_tcb_accounting;
    Alcotest.test_case "tcb handles cycles" `Quick test_tcb_cycles;
    Alcotest.test_case "confused deputy detector" `Quick test_confused_deputy_detector;
    Alcotest.test_case "attack surface & domains" `Quick test_attack_surface_and_domains;
    Alcotest.test_case "live behaviours chained through ctx" `Quick
      test_live_behaviour_chain;
    Alcotest.test_case "behaviour crash surfaces as error" `Quick
      test_behaviour_crash_is_error;
    Alcotest.test_case "gui: unforgeable trusted indicator" `Quick
      test_gui_trusted_indicator;
    Alcotest.test_case "gui: input routed to focused owner only" `Quick
      test_gui_input_routing;
    Alcotest.test_case "gui: focus switch reroutes input" `Quick
      test_gui_focus_switch_reroutes_input;
    Alcotest.test_case "gui: unregistered owners rejected" `Quick
      test_gui_unregistered_owner_rejected ]
