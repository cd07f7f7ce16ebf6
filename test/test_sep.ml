(* SEP: mailbox, UID key, inline-encrypted private memory. *)

open Lt_crypto
module Sep = Lt_sep.Sep

let setup () =
  let machine = Lt_hw.Machine.create ~dram_pages:64 () in
  let r = Drbg.create 31337L in
  let sep = Sep.attach machine r ~private_pages:4 in
  (machine, sep)

let test_mailbox_dispatch () =
  let machine, sep = setup () in
  Sep.register_service sep ~name:"echo" (fun _ req -> "sep:" ^ req);
  Alcotest.(check (result string string)) "call" (Ok "sep:hello")
    (Sep.mailbox_call sep ~service:"echo" "hello");
  (match Sep.mailbox_call sep ~service:"absent" "x" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown service must fail");
  Alcotest.(check int) "calls counted" 1 (Sep.mailbox_count sep);
  Alcotest.(check bool) "mailbox costs time" true
    (Lt_hw.Clock.now machine.Lt_hw.Machine.clock >= 80)

let test_uid_key_confined () =
  let machine, sep = setup () in
  (* application processor (non-secure requester) cannot read the fuse *)
  Alcotest.(check (option string)) "app cpu denied" None
    (Lt_hw.Fuse.read machine.Lt_hw.Machine.fuses ~name:"sep-uid" ~secure:false);
  let k1 = ref "" and k2 = ref "" in
  Sep.register_service sep ~name:"derive" (fun ctx info ->
      k1 := Sep.derive ctx ~info 16;
      k2 := Sep.derive ctx ~info:(info ^ "2") 16;
      ignore (Sep.uid_key ctx);
      "ok");
  ignore (Sep.mailbox_call sep ~service:"derive" "file-key");
  Alcotest.(check bool) "derivations distinct" true (!k1 <> !k2 && !k1 <> "")

let test_private_memory_encrypted () =
  let machine, sep = setup () in
  Sep.register_service sep ~name:"keychain" (fun ctx req ->
      Sep.store ctx ~key:"login" req;
      "stored");
  ignore (Sep.mailbox_call sep ~service:"keychain" "KEYCHAIN-SECRET");
  (* physical attacker scans DRAM: sees only ciphertext *)
  let tamper = Lt_hw.Machine.tamper machine in
  Alcotest.(check (list int)) "inline encryption hides secret" []
    (Lt_hw.Tamper.scan tamper ~needle:"KEYCHAIN-SECRET");
  (* application-CPU software cannot read the range either *)
  let base, _ = Sep.private_range sep in
  (match Lt_hw.Bus.read machine.Lt_hw.Machine.bus
           ~requester:(Lt_hw.Bus.Cpu { secure = false }) ~addr:base ~len:16 with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "app cpu must not read sep memory")

let test_store_load () =
  let _, sep = setup () in
  let out = ref None in
  Sep.register_service sep ~name:"kv" (fun ctx req ->
      match req with
      | "put" -> Sep.store ctx ~key:"x" "42"; "ok"
      | _ -> out := Sep.load ctx ~key:"x"; "ok");
  ignore (Sep.mailbox_call sep ~service:"kv" "put");
  ignore (Sep.mailbox_call sep ~service:"kv" "get");
  Alcotest.(check (option string)) "roundtrip" (Some "42") !out

let test_service_crash_contained () =
  let _, sep = setup () in
  Sep.register_service sep ~name:"buggy" (fun _ _ -> failwith "sep bug");
  (match Sep.mailbox_call sep ~service:"buggy" "x" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "crash should surface as error");
  Sep.register_service sep ~name:"fine" (fun _ _ -> "still alive");
  Alcotest.(check (result string string)) "sep survives" (Ok "still alive")
    (Sep.mailbox_call sep ~service:"fine" "")

let test_no_shared_cache_with_app_cpu () =
  (* SEP services leave no footprint in the application CPU's cache *)
  let machine, sep = setup () in
  Sep.register_service sep ~name:"work" (fun ctx _ ->
      Sep.store ctx ~key:"a" "b";
      "ok");
  ignore (Sep.mailbox_call sep ~service:"work" "");
  Alcotest.(check int) "cache untouched by sep" 0
    (List.length
       (Lt_hw.Cache.resident_sets machine.Lt_hw.Machine.cache ~domain:"sep"))

(* an attach refused for fragmented DRAM takes nothing: the free list
   is exactly what it was *)
let test_fragmented_attach_frees_frames () =
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
  Alcotest.(check bool) "fragmented attach refused" true
    (try
       ignore (Sep.attach machine (Drbg.create 7L) ~private_pages:2);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "frames returned" 2 (Fa.free_count frames);
  Alcotest.(check string) "free list unchanged"
    (Lt_world.Digest64.to_hex digest0)
    (Lt_world.Digest64.to_hex (Fa.state_digest frames))

let suite =
  [ Alcotest.test_case "mailbox dispatch & cost" `Quick test_mailbox_dispatch;
    Alcotest.test_case "uid key confined to sep" `Quick test_uid_key_confined;
    Alcotest.test_case "private memory inline-encrypted" `Quick
      test_private_memory_encrypted;
    Alcotest.test_case "store/load roundtrip" `Quick test_store_load;
    Alcotest.test_case "service crash contained" `Quick test_service_crash_contained;
    Alcotest.test_case "no shared cache side channel" `Quick
      test_no_shared_cache_with_app_cpu;
    Alcotest.test_case "fragmented attach frees its frames" `Quick
      test_fragmented_attach_frees_frames ]
