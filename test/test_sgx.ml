(* SGX: enclave lifecycle, EPC encryption, sealing, attestation,
   starvation by the untrusted OS, cache side channel surface. *)

open Lt_crypto
module Sgx = Lt_sgx.Sgx

let setup () =
  let machine = Lt_hw.Machine.create ~dram_pages:128 () in
  let r = Drbg.create 2024L in
  let intel = Rsa.generate ~bits:512 r in
  let cpu = Sgx.init_cpu machine r ~ca_name:"intel" ~ca_key:intel in
  (machine, intel, cpu)

let echo_enclave ?(name = "echo") cpu =
  Sgx.create_enclave cpu ~name ~code:"echo-v1" ~epc_pages:2
    ~ecalls:[ ("echo", fun _ arg -> "echo:" ^ arg) ]

let test_ecall_dispatch () =
  let _, _, cpu = setup () in
  let e = echo_enclave cpu in
  Alcotest.(check (result string string)) "ecall" (Ok "echo:hi")
    (Sgx.ecall cpu e ~fn:"echo" "hi");
  (match Sgx.ecall cpu e ~fn:"nope" "x" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown entry point must fail")

let test_measurement_deterministic () =
  let _, _, cpu = setup () in
  let e1 = echo_enclave ~name:"a" cpu in
  let e2 = echo_enclave ~name:"b" cpu in
  Alcotest.(check string) "same code same measurement"
    (Sha256.hex (Sgx.measurement e1)) (Sha256.hex (Sgx.measurement e2));
  Alcotest.(check string) "verifier predicts measurement"
    (Sha256.hex (Sgx.measure_code "echo-v1")) (Sha256.hex (Sgx.measurement e1))

let test_epc_encrypted_against_physical () =
  let machine, _, cpu = setup () in
  let e =
    Sgx.create_enclave cpu ~name:"vault" ~code:"vault-v1" ~epc_pages:2
      ~ecalls:
        [ ("put", fun ctx arg -> Sgx.mem_write ctx ~off:0 arg; "ok");
          ("get", fun ctx _ -> Sgx.mem_read ctx ~off:0 ~len:12) ]
  in
  ignore (Sgx.ecall cpu e ~fn:"put" "ENCLAVE-SECRET");
  let tamper = Lt_hw.Machine.tamper machine in
  Alcotest.(check (list int)) "physical scan finds nothing" []
    (Lt_hw.Tamper.scan tamper ~needle:"ENCLAVE-SECRET");
  (* enclave itself reads plaintext *)
  Alcotest.(check (result string string)) "cpu path plaintext" (Ok "ENCLAVE-SECR")
    (Sgx.ecall cpu e ~fn:"get" "")

let test_epc_integrity () =
  let machine, _, cpu = setup () in
  let e =
    Sgx.create_enclave cpu ~name:"v" ~code:"v1" ~epc_pages:1
      ~ecalls:
        [ ("put", fun ctx arg -> Sgx.mem_write ctx ~off:0 arg; "ok");
          ("get", fun ctx _ -> Sgx.mem_read ctx ~off:0 ~len:4) ]
  in
  ignore (Sgx.ecall cpu e ~fn:"put" "data");
  let base, _ = Sgx.epc_range e in
  Lt_hw.Tamper.patch (Lt_hw.Machine.tamper machine) ~addr:base "XXXX";
  (match Sgx.ecall cpu e ~fn:"get" "" with
   | Error _ -> () (* integrity violation surfaces as an ecall error *)
   | Ok v -> Alcotest.fail ("tampered read returned " ^ v))

let test_sealing () =
  let _, _, cpu = setup () in
  let mk name =
    Sgx.create_enclave cpu ~name ~code:"sealer-v1" ~epc_pages:1
      ~ecalls:
        [ ("seal", fun ctx arg -> Sgx.seal ctx arg);
          ("unseal", fun ctx arg ->
             match Sgx.unseal ctx arg with Some v -> v | None -> "DENIED") ]
  in
  let e1 = mk "inst1" in
  let sealed =
    match Sgx.ecall cpu e1 ~fn:"seal" "persistent-state" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  (* a new instance of the same enclave unseals *)
  let e2 = mk "inst2" in
  Alcotest.(check (result string string)) "same measurement unseals"
    (Ok "persistent-state")
    (Sgx.ecall cpu e2 ~fn:"unseal" sealed);
  (* a different enclave cannot *)
  let other =
    Sgx.create_enclave cpu ~name:"other" ~code:"different-code" ~epc_pages:1
      ~ecalls:
        [ ("unseal", fun ctx arg ->
              match Sgx.unseal ctx arg with Some v -> v | None -> "DENIED") ]
  in
  Alcotest.(check (result string string)) "other enclave denied" (Ok "DENIED")
    (Sgx.ecall cpu other ~fn:"unseal" sealed)

let test_remote_attestation () =
  let _, intel, cpu = setup () in
  let e = echo_enclave cpu in
  let q = Sgx.quote cpu e ~nonce:"challenge-1" ~report_data:"key-fpr" in
  let qe_cert = Sgx.quoting_cert cpu in
  Alcotest.(check bool) "qe cert chains to intel" true
    (Cert.verify ~issuer_pub:intel.Rsa.pub qe_cert);
  Alcotest.(check bool) "quote verifies" true
    (Sgx.verify_quote ~qe_pub:qe_cert.Cert.pubkey q);
  Alcotest.(check bool) "measurement matches reference" true
    (q.Sgx.q_measurement = Sgx.measure_code "echo-v1");
  let forged = { q with Sgx.q_measurement = Sha256.digest "evil" } in
  Alcotest.(check bool) "forged measurement fails" false
    (Sgx.verify_quote ~qe_pub:qe_cert.Cert.pubkey forged)

let test_ocall_untrusted () =
  let _, _, cpu = setup () in
  (* host returns corrupted data; a careful enclave vets it *)
  Sgx.set_ocall_handler cpu (fun req -> if req = "load" then "tampered-blob" else "");
  let e =
    Sgx.create_enclave cpu ~name:"careful" ~code:"c1" ~epc_pages:1
      ~ecalls:
        [ ("work", fun ctx _ ->
              let blob = Sgx.ocall ctx "load" in
              (* vet: expect our own sealed format *)
              match Sgx.unseal ctx blob with
              | Some v -> v
              | None -> "REJECTED-CORRUPT-REPLY") ]
  in
  Alcotest.(check (result string string)) "corrupt ocall reply rejected"
    (Ok "REJECTED-CORRUPT-REPLY")
    (Sgx.ecall cpu e ~fn:"work" "")

let test_os_starves_enclave () =
  let _, _, cpu = setup () in
  let work ctx _ = Sgx.cache_touch ctx 0; "step" in
  let victim =
    Sgx.create_enclave cpu ~name:"victim" ~code:"v" ~epc_pages:1
      ~ecalls:[ ("work", work) ]
  in
  let other =
    Sgx.create_enclave cpu ~name:"other" ~code:"o" ~epc_pages:1
      ~ecalls:[ ("work", work) ]
  in
  let tasks = [ (victim, "work", ""); (other, "work", "") ] in
  let fair = Sgx.run_tasks cpu ~policy:`Fair ~slices:100 tasks in
  Alcotest.(check (option int)) "fair: victim progresses" (Some 50)
    (List.assoc_opt "victim" fair);
  let starved = Sgx.run_tasks cpu ~policy:(`Starve "victim") ~slices:100 tasks in
  Alcotest.(check (option int)) "starved: zero progress (§II-C)" (Some 0)
    (List.assoc_opt "victim" starved);
  Alcotest.(check (option int)) "other takes all slices" (Some 100)
    (List.assoc_opt "other" starved)

let test_destroy_frees_and_blocks () =
  let machine, _, cpu = setup () in
  let free0 = Lt_hw.Frame_alloc.free_count machine.Lt_hw.Machine.dram_frames in
  let e = echo_enclave cpu in
  Sgx.destroy cpu e;
  Alcotest.(check int) "frames returned" free0
    (Lt_hw.Frame_alloc.free_count machine.Lt_hw.Machine.dram_frames);
  (match Sgx.ecall cpu e ~fn:"echo" "x" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "destroyed enclave must not run")

(* a create refused for EPC fragmentation returns every frame it took:
   the free list is exactly what it was *)
let test_fragmented_create_frees_frames () =
  let machine, _, cpu = setup () in
  let frames = machine.Lt_hw.Machine.dram_frames in
  let all =
    match Lt_hw.Frame_alloc.alloc_n frames (Lt_hw.Frame_alloc.free_count frames) with
    | Some all -> all
    | None -> Alcotest.fail "cannot take every frame"
  in
  (* free two frames with a gap between them *)
  Lt_hw.Frame_alloc.free frames (List.nth all 0);
  Lt_hw.Frame_alloc.free frames (List.nth all 2);
  let free0 = Lt_hw.Frame_alloc.free_count frames in
  let digest0 = Lt_hw.Frame_alloc.state_digest frames in
  Alcotest.(check bool) "fragmented create refused" true
    (try ignore (echo_enclave cpu); false with Invalid_argument _ -> true);
  Alcotest.(check int) "frames returned" free0 (Lt_hw.Frame_alloc.free_count frames);
  Alcotest.(check string) "free list unchanged"
    (Lt_world.Digest64.to_hex digest0)
    (Lt_world.Digest64.to_hex (Lt_hw.Frame_alloc.state_digest frames))

let test_cache_footprint_tagged () =
  let machine, _, cpu = setup () in
  let e =
    Sgx.create_enclave cpu ~name:"toucher" ~code:"t" ~epc_pages:1
      ~ecalls:[ ("touch", fun ctx _ -> Sgx.cache_touch ctx (5 * 64); "ok") ]
  in
  ignore (Sgx.ecall cpu e ~fn:"touch" "");
  Alcotest.(check (list int)) "enclave fills set 5" [ 5 ]
    (Lt_hw.Cache.resident_sets machine.Lt_hw.Machine.cache ~domain:"toucher")

let suite =
  [ Alcotest.test_case "ecall dispatch" `Quick test_ecall_dispatch;
    Alcotest.test_case "measurement deterministic & predictable" `Quick
      test_measurement_deterministic;
    Alcotest.test_case "EPC invisible to physical attacker" `Quick
      test_epc_encrypted_against_physical;
    Alcotest.test_case "EPC integrity protected" `Quick test_epc_integrity;
    Alcotest.test_case "sealing bound to measurement" `Quick test_sealing;
    Alcotest.test_case "remote attestation via quoting enclave" `Quick
      test_remote_attestation;
    Alcotest.test_case "ocall replies are untrusted" `Quick test_ocall_untrusted;
    Alcotest.test_case "untrusted OS can starve an enclave" `Quick test_os_starves_enclave;
    Alcotest.test_case "destroy frees EPC and blocks entry" `Quick
      test_destroy_frees_and_blocks;
    Alcotest.test_case "fragmented create frees its frames" `Quick
      test_fragmented_create_frees_frames;
    Alcotest.test_case "cache footprint visible (side channel surface)" `Quick
      test_cache_footprint_tagged ]
