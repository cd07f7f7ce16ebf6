(* TrustZone: worlds, SMC, fused keys, software attestation. *)

open Lt_crypto
module Trustzone = Lt_trustzone.Trustzone

let setup () =
  let machine = Lt_hw.Machine.create ~dram_pages:64 () in
  let r = Drbg.create 77L in
  let vendor = Rsa.generate ~bits:512 r in
  Lt_hw.Fuse.program machine.Lt_hw.Machine.fuses ~name:"device-key"
    ~visibility:Lt_hw.Fuse.Secure_only "per-device-aes-key-0123456789ab";
  let tz = Trustzone.install machine ~secure_pages:4 ~vendor_pub:vendor.Rsa.pub in
  (machine, vendor, tz)

let good_image vendor = Lt_tpm.Boot.sign_stage vendor ~name:"secure-os" "tz-os-v1"

let test_boot_policy () =
  let _, vendor, tz = setup () in
  Alcotest.(check bool) "not booted initially" false (Trustzone.booted tz);
  (* unsigned image refused *)
  (match Trustzone.boot tz ~image:(Lt_tpm.Boot.unsigned_stage ~name:"evil" "rootkit") with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unsigned secure world must not boot");
  Alcotest.(check bool) "still not booted" false (Trustzone.booted tz);
  (* signed image boots *)
  (match Trustzone.boot tz ~image:(good_image vendor) with
   | Ok m -> Alcotest.(check (option string)) "measurement recorded" (Some m)
               (Trustzone.measurement tz)
   | Error e -> Alcotest.fail e)

let test_services_require_boot () =
  let _, _, tz = setup () in
  Alcotest.(check bool) "register before boot rejected" true
    (try Trustzone.register_service tz ~name:"x" (fun _ r -> r); false
     with Invalid_argument _ -> true);
  (match Trustzone.smc tz ~service:"x" "req" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "smc before boot must fail")

let booted_tz () =
  let machine, vendor, tz = setup () in
  (match Trustzone.boot tz ~image:(good_image vendor) with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  (machine, vendor, tz)

let test_smc_dispatch () =
  let machine, _, tz = booted_tz () in
  Trustzone.register_service tz ~name:"echo" (fun _ req -> "echo:" ^ req);
  Alcotest.(check (result string string)) "dispatch" (Ok "echo:hi")
    (Trustzone.smc tz ~service:"echo" "hi");
  (match Trustzone.smc tz ~service:"missing" "x" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown service must fail");
  Alcotest.(check int) "smc counted" 1 (Trustzone.smc_count tz);
  Alcotest.(check bool) "world switches cost time" true
    (Lt_hw.Clock.now machine.Lt_hw.Machine.clock >= 60)

let test_fuse_gating () =
  let machine, _, tz = booted_tz () in
  (* normal world cannot read the fused key *)
  Alcotest.(check (option string)) "normal world denied" None
    (Lt_hw.Fuse.read machine.Lt_hw.Machine.fuses ~name:"device-key" ~secure:false);
  (* secure service can *)
  let got = ref None in
  Trustzone.register_service tz ~name:"keyuser" (fun ctx _ ->
      got := Trustzone.fuse_read ctx ~name:"device-key";
      "done");
  ignore (Trustzone.smc tz ~service:"keyuser" "");
  Alcotest.(check (option string)) "secure world reads fuse"
    (Some "per-device-aes-key-0123456789ab") !got

let test_secure_memory_ns_bit () =
  let _, _, tz = booted_tz () in
  Trustzone.register_service tz ~name:"vault" (fun ctx req ->
      Trustzone.store ctx ~key:"secret" req;
      "stored");
  ignore (Trustzone.smc tz ~service:"vault" "CROWN-JEWELS");
  let base, size = Trustzone.secure_range tz in
  (* normal-world software cannot read any of the secure range *)
  match Trustzone.normal_world_read tz ~addr:base ~len:(min size 64) with
  | Error (Lt_hw.Bus.Secure_only _) -> ()
  | _ -> Alcotest.fail "NS-bit check failed"

let test_physical_attacker_sees_tz_memory () =
  let machine, vendor, tz = setup () in
  (match Trustzone.boot tz ~image:(good_image vendor) with
   | Ok _ -> () | Error e -> Alcotest.fail e);
  Trustzone.register_service tz ~name:"vault" (fun ctx req ->
      Trustzone.store ctx ~key:"secret" req;
      "stored");
  ignore (Trustzone.smc tz ~service:"vault" "CROWN-JEWELS");
  let tamper = Lt_hw.Machine.tamper machine in
  Alcotest.(check bool) "bus probe finds plaintext (paper §II-D)" true
    (Lt_hw.Tamper.scan tamper ~needle:"CROWN-JEWELS" <> [])

let test_store_load_roundtrip () =
  let _, _, tz = booted_tz () in
  let loaded = ref None in
  Trustzone.register_service tz ~name:"s" (fun ctx req ->
      (match req with
       | "put" -> Trustzone.store ctx ~key:"k" "v1"
       | _ -> loaded := Trustzone.load ctx ~key:"k");
      "ok");
  ignore (Trustzone.smc tz ~service:"s" "put");
  ignore (Trustzone.smc tz ~service:"s" "get");
  Alcotest.(check (option string)) "roundtrip" (Some "v1") !loaded

let test_software_attestation () =
  let _, vendor, tz = booted_tz () in
  let expected_measurement =
    Lt_tpm.Boot.measure (good_image vendor)
  in
  Trustzone.register_service tz ~name:"attest" (fun ctx req ->
      match Trustzone.attest ctx ~device_key_name:"device-key" ~nonce:req
              ~claim:"meter-reading=42" with
      | Ok tag -> tag
      | Error e -> "ERR:" ^ e);
  (match Trustzone.smc tz ~service:"attest" "nonce-1" with
   | Ok tag ->
     Alcotest.(check bool) "verifier accepts" true
       (Trustzone.verify_attestation ~device_key:"per-device-aes-key-0123456789ab"
          ~expected_measurement ~nonce:"nonce-1" ~claim:"meter-reading=42" tag);
     Alcotest.(check bool) "claim tampering detected" false
       (Trustzone.verify_attestation ~device_key:"per-device-aes-key-0123456789ab"
          ~expected_measurement ~nonce:"nonce-1" ~claim:"meter-reading=999" tag);
     Alcotest.(check bool) "replay with other nonce fails" false
       (Trustzone.verify_attestation ~device_key:"per-device-aes-key-0123456789ab"
          ~expected_measurement ~nonce:"nonce-2" ~claim:"meter-reading=42" tag);
     Alcotest.(check bool) "wrong expected measurement fails" false
       (Trustzone.verify_attestation ~device_key:"per-device-aes-key-0123456789ab"
          ~expected_measurement:(Sha256.digest "other-os") ~nonce:"nonce-1"
          ~claim:"meter-reading=42" tag)
   | Error e -> Alcotest.fail e)

let test_no_mutual_isolation_in_secure_world () =
  (* two services share the secure world; one breach exposes both *)
  let _, _, tz = booted_tz () in
  Trustzone.register_service tz ~name:"drm" (fun ctx _ ->
      Trustzone.store ctx ~key:"hdcp" "drm-key";
      "ok");
  Trustzone.register_service tz ~name:"payments" (fun ctx _ ->
      Trustzone.store ctx ~key:"wallet" "payment-key";
      "ok");
  ignore (Trustzone.smc tz ~service:"drm" "");
  ignore (Trustzone.smc tz ~service:"payments" "");
  let leaked = Trustzone.breach_service tz ~name:"drm" in
  Alcotest.(check bool) "compromised drm service reads payment keys" true
    (List.exists (fun (svc, _, v) -> svc = "payments" && v = "payment-key") leaked)

(* an install refused for fragmented DRAM takes nothing: the free list
   is exactly what it was *)
let test_fragmented_install_frees_frames () =
  let module Fa = Lt_hw.Frame_alloc in
  let machine = Lt_hw.Machine.create ~dram_pages:16 () in
  let frames = machine.Lt_hw.Machine.dram_frames in
  let all =
    match Fa.alloc_n frames (Fa.free_count frames) with
    | Some all -> all
    | None -> Alcotest.fail "cannot take every frame"
  in
  (* free two frames with a gap between them *)
  Fa.free frames (List.nth all 0);
  Fa.free frames (List.nth all 2);
  let digest0 = Fa.state_digest frames in
  let vendor = Rsa.generate ~bits:512 (Drbg.create 7L) in
  Alcotest.(check bool) "fragmented install refused" true
    (try
       ignore (Trustzone.install machine ~secure_pages:2 ~vendor_pub:vendor.Rsa.pub);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "frames returned" 2 (Fa.free_count frames);
  Alcotest.(check string) "free list unchanged"
    (Lt_world.Digest64.to_hex digest0)
    (Lt_world.Digest64.to_hex (Fa.state_digest frames))

let suite =
  [ Alcotest.test_case "secure boot policy at install" `Quick test_boot_policy;
    Alcotest.test_case "services gated on boot" `Quick test_services_require_boot;
    Alcotest.test_case "smc dispatch & cost" `Quick test_smc_dispatch;
    Alcotest.test_case "fused key gated by NS bit" `Quick test_fuse_gating;
    Alcotest.test_case "secure range blocks normal world" `Quick test_secure_memory_ns_bit;
    Alcotest.test_case "physical attacker sees tz memory" `Quick
      test_physical_attacker_sees_tz_memory;
    Alcotest.test_case "secure store roundtrip" `Quick test_store_load_roundtrip;
    Alcotest.test_case "software attestation with fused key" `Quick test_software_attestation;
    Alcotest.test_case "no mutual isolation inside secure world" `Quick
      test_no_mutual_isolation_in_secure_world;
    Alcotest.test_case "fragmented install frees its frames" `Quick
      test_fragmented_install_frees_frames ]
