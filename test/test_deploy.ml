(* Deployment: the horizontal mail slice running across real substrates,
   with routed cross-substrate calls and manifest enforcement. *)

open Lt_crypto
open Lateral

(* substrates: a microkernel, SGX and a SEP on separate machines *)
let make_substrates () =
  let rng = Drbg.create 808L in
  let ca = Rsa.generate ~bits:512 rng in
  let m1 = Lt_hw.Machine.create ~dram_pages:512 () in
  let mk, _ =
    Substrate_kernel.make m1 (Lt_kernel.Sched.Round_robin { quantum = 500 }) ()
  in
  let m2 = Lt_hw.Machine.create ~dram_pages:128 () in
  let sgx, _ = Substrate_sgx.make m2 rng ~ca_name:"intel" ~ca_key:ca () in
  let m3 = Lt_hw.Machine.create ~dram_pages:64 () in
  let sep, _, sep_uid = Substrate_sep.make m3 rng ~device_id:"sep-1" ~private_pages:4 in
  (ca, sep_uid, [ ("microkernel", mk); ("sgx", sgx); ("sep", sep) ])

(* a three-component slice: ui -> tls -> keystore, renderer isolated *)
let slice () =
  [ ( Manifest.v ~name:"ui" ~provides:[ "show" ]
        ~connects_to:[ Manifest.conn "tls" "transmit" ]
        ~network_facing:true ~substrate:"microkernel" (),
      fun ctx ~service:_ req ->
        match ctx.Deploy.call ~target:"tls" ~service:"transmit" req with
        | Ok r -> "ui:" ^ r
        | Error e -> "ui-error:" ^ App.render_call_error e );
    ( Manifest.v ~name:"tls" ~provides:[ "transmit" ]
        ~connects_to:[ Manifest.conn "keystore" "sign" ]
        ~substrate:"sgx" (),
      fun ctx ~service:_ req ->
        match ctx.Deploy.call ~target:"keystore" ~service:"sign" req with
        | Ok signature -> Printf.sprintf "sent(%s,sig=%s)" req signature
        | Error e -> "tls-error:" ^ App.render_call_error e );
    ( Manifest.v ~name:"keystore" ~provides:[ "sign" ] ~substrate:"sep" (),
      fun ctx ~service:_ req ->
        (* key lives sealed on the SEP *)
        let key =
          match ctx.Deploy.facilities.Substrate.f_load ~key:"k" with
          | Some k -> k
          | None ->
            ctx.Deploy.facilities.Substrate.f_store ~key:"k" "sep-held-key";
            "sep-held-key"
        in
        String.sub (Sha256.hex (Hmac.mac ~key req)) 0 8 );
    ( Manifest.v ~name:"renderer" ~provides:[ "render" ] ~network_facing:true
        ~substrate:"sgx" (),
      fun ctx ~service:_ req ->
        (* the renderer tries to reach the keystore: not in its manifest *)
        match ctx.Deploy.call ~target:"keystore" ~service:"sign" "steal" with
        | Ok _ -> "EXFILTRATED"
        | Error _ -> "render:" ^ req ) ]

let deploy_slice () =
  let _, _, substrates = make_substrates () in
  match Deploy.deploy ~substrates (slice ()) with
  | Ok t -> t
  | Error e -> Alcotest.fail e

let test_cross_substrate_call_chain () =
  let t = deploy_slice () in
  (* external -> ui (microkernel) -> tls (sgx) -> keystore (sep) *)
  match Deploy.call t ~caller:None ~target:"ui" ~service:"show" "mail-body" with
  | Ok r ->
    Alcotest.(check bool) "full chain executed" true
      (String.length r > 10
       && String.sub r 0 8 = "ui:sent(")
  | Error e -> Alcotest.fail e

let test_placements () =
  let t = deploy_slice () in
  Alcotest.(check (option string)) "ui on microkernel" (Some "microkernel")
    (Deploy.substrate_of t "ui");
  Alcotest.(check (option string)) "tls on sgx" (Some "sgx")
    (Deploy.substrate_of t "tls");
  Alcotest.(check (option string)) "keystore on sep" (Some "sep")
    (Deploy.substrate_of t "keystore")

let test_manifest_enforced_across_substrates () =
  let t = deploy_slice () in
  (* the renderer's undeclared keystore call is blocked by the router *)
  (match Deploy.call t ~caller:None ~target:"renderer" ~service:"render" "msg" with
   | Ok r -> Alcotest.(check string) "exfiltration blocked" "render:msg" r
   | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "violation recorded" true
    (List.exists
       (fun v -> v.App.v_caller = "renderer" && v.App.v_target = "keystore")
       (Deploy.violations t));
  (* external input cannot reach internal components *)
  (match Deploy.call t ~caller:None ~target:"keystore" ~service:"sign" "x" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "external call reached the keystore")

let test_attest_deployed_component () =
  let ca, sep_uid, substrates = make_substrates () in
  let t =
    match Deploy.deploy ~substrates (slice ()) with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  (* sgx-hosted tls: RSA evidence chained to intel *)
  (match Deploy.attest t ~component:"tls" ~nonce:"n1" ~claim:"tls-v1" with
   | Ok ev ->
     let policy =
       { Attestation.trusted_cas = [ ("intel", ca.Rsa.pub) ];
         shared_device_keys = [];
         accepted_measurements = [ ev.Attestation.ev_measurement ] }
     in
     (match Attestation.verify policy ~nonce:"n1" ev with
      | Ok () -> ()
      | Error f -> Alcotest.fail (Format.asprintf "%a" Attestation.pp_failure f))
   | Error e -> Alcotest.fail e);
  (* sep-hosted keystore: HMAC evidence under the provisioned uid *)
  (match Deploy.attest t ~component:"keystore" ~nonce:"n2" ~claim:"ks-v1" with
   | Ok ev ->
     let policy =
       { Attestation.trusted_cas = [];
         shared_device_keys = [ ("sep-1", sep_uid) ];
         accepted_measurements = [ ev.Attestation.ev_measurement ] }
     in
     (match Attestation.verify policy ~nonce:"n2" ev with
      | Ok () -> ()
      | Error f -> Alcotest.fail (Format.asprintf "%a" Attestation.pp_failure f))
   | Error e -> Alcotest.fail e);
  (* microkernel-hosted ui: no trust anchor *)
  (match Deploy.attest t ~component:"ui" ~nonce:"n3" ~claim:"ui" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "microkernel component attested without an anchor")

let test_unknown_substrate_rejected () =
  let _, _, substrates = make_substrates () in
  match
    Deploy.deploy ~substrates
      [ (Manifest.v ~name:"x" ~provides:[ "f" ] ~substrate:"fpga" (),
         fun _ ~service:_ r -> r) ]
  with
  | Error e ->
    Alcotest.(check bool) "names the problem" true
      (String.length e > 0)
  | Ok _ -> Alcotest.fail "unknown substrate accepted"

let test_dangling_manifest_rejected () =
  let _, _, substrates = make_substrates () in
  match
    Deploy.deploy ~substrates
      [ (Manifest.v ~name:"a" ~provides:[ "f" ]
           ~connects_to:[ Manifest.conn "ghost" "g" ] ~substrate:"sgx" (),
         fun _ ~service:_ r -> r) ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dangling connection accepted"

let suite =
  [ Alcotest.test_case "cross-substrate call chain" `Quick test_cross_substrate_call_chain;
    Alcotest.test_case "placements honored" `Quick test_placements;
    Alcotest.test_case "manifests enforced across substrates" `Quick
      test_manifest_enforced_across_substrates;
    Alcotest.test_case "deployed components attest from their substrate" `Quick
      test_attest_deployed_component;
    Alcotest.test_case "unknown substrate rejected" `Quick test_unknown_substrate_rejected;
    Alcotest.test_case "dangling manifests rejected" `Quick test_dangling_manifest_rejected ]
