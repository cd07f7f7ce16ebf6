(* M3-style NoC: DTU endpoints, kernel-only configuration, credits,
   scratchpad privacy. *)

module Noc = Lt_noc.Noc

let make () = Noc.create ~tiles:4 ~scratchpad_size:1024

let wire_echo t ~tile =
  Noc.install_program t ~tile ~code:"echo" (fun req -> "echo:" ^ req);
  Noc.configure t ~by:Noc.kernel_tile ~tile ~ep:0 Noc.Receive

let test_kernel_configures_channels () =
  let t = make () in
  wire_echo t ~tile:1;
  Noc.configure t ~by:Noc.kernel_tile ~tile:2 ~ep:0 (Noc.Send { target = 1; credits = 2 });
  Alcotest.(check (result string string)) "message flows" (Ok "echo:hi")
    (Noc.send t ~from_tile:2 ~ep:0 "hi")

let test_only_kernel_configures () =
  let t = make () in
  Alcotest.(check bool) "compute tile cannot configure a DTU" true
    (try
       Noc.configure t ~by:2 ~tile:3 ~ep:0 (Noc.Send { target = 1; credits = 1 });
       false
     with Noc.Dtu_fault _ -> true)

let test_no_endpoint_no_wire () =
  (* isolation is the default: without a configured endpoint there is
     simply nothing to talk through *)
  let t = make () in
  wire_echo t ~tile:1;
  (match Noc.send t ~from_tile:2 ~ep:0 "sneak" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "tile without an endpoint reached a peer");
  (* and a tile that accepts no messages is unreachable *)
  Noc.configure t ~by:Noc.kernel_tile ~tile:2 ~ep:0 (Noc.Send { target = 3; credits = 1 });
  (match Noc.send t ~from_tile:2 ~ep:0 "x" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "tile without a receive endpoint got a message")

let test_credits_bound_flooding () =
  let t = make () in
  wire_echo t ~tile:1;
  Noc.configure t ~by:Noc.kernel_tile ~tile:2 ~ep:0 (Noc.Send { target = 1; credits = 3 });
  (* one-way flood: only [credits] messages can be in flight *)
  let accepted = ref 0 in
  for _ = 1 to 10 do
    if Noc.post t ~from_tile:2 ~ep:0 "flood" = Ok () then incr accepted
  done;
  Alcotest.(check int) "flood bounded by credits" 3 !accepted;
  Alcotest.(check int) "queue holds exactly the credits" 3 (Noc.queue_length t ~tile:1);
  (* draining restores the credits *)
  let replies = Noc.drain t ~tile:1 in
  Alcotest.(check int) "drained replies" 3 (List.length replies);
  Alcotest.(check (option int)) "credits restored" (Some 3)
    (Noc.credits t ~tile:2 ~ep:0);
  Alcotest.(check bool) "can send again" true (Noc.post t ~from_tile:2 ~ep:0 "x" = Ok ())

let test_synchronous_send_keeps_credits () =
  let t = make () in
  wire_echo t ~tile:1;
  Noc.configure t ~by:Noc.kernel_tile ~tile:2 ~ep:0 (Noc.Send { target = 1; credits = 1 });
  for _ = 1 to 5 do
    Alcotest.(check (result string string)) "sync send" (Ok "echo:x")
      (Noc.send t ~from_tile:2 ~ep:0 "x")
  done;
  Alcotest.(check (option int)) "credit intact" (Some 1) (Noc.credits t ~tile:2 ~ep:0)

let test_scratchpad_private () =
  let t = make () in
  Noc.spm_write t ~tile:1 ~off:0 "TILE-SECRET";
  Alcotest.(check string) "own read" "TILE-SECRET" (Noc.spm_read t ~tile:1 ~off:0 ~len:11);
  Alcotest.(check (list int)) "bus probe sees nothing (on-chip)" []
    (Noc.spm_scan t ~needle:"TILE-SECRET");
  Alcotest.(check bool) "bounds checked" true
    (try ignore (Noc.spm_read t ~tile:1 ~off:1020 ~len:10); false
     with Noc.Dtu_fault _ -> true)

let test_measurement_recorded () =
  let t = make () in
  Alcotest.(check bool) "no program no measurement" true
    (Noc.measurement t ~tile:1 = None);
  wire_echo t ~tile:1;
  Alcotest.(check bool) "measurement recorded" true (Noc.measurement t ~tile:1 <> None)

(* invoke's answer, errors printed as the substrate renders them *)
let answer c =
  Alcotest.(
    result string
      (testable (fun ppf e -> Fmt.string ppf (Lateral.Substrate.render_error c e)) ( = )))

let test_substrate_adapter_conformance_bits () =
  let rng = Lt_crypto.Drbg.create 99L in
  let ca = Lt_crypto.Rsa.generate ~bits:512 rng in
  let t, _chip = Lateral.Substrate_m3.make rng ~ca_name:"mfg" ~ca_key:ca ~tiles:4 () in
  match
    t.Lateral.Substrate.launch ~name:"w" ~code:"w1"
      ~services:[ ("f", fun _ x -> "r:" ^ x) ]
  with
  | Error e -> Alcotest.fail e
  | Ok c ->
    Alcotest.check (answer c) "invoke" (Ok "r:1")
      (t.Lateral.Substrate.invoke c ~fn:"f" "1");
    (match t.Lateral.Substrate.attest c ~nonce:"n" ~claim:"x" with
     | Ok ev ->
       let policy =
         { Lateral.Attestation.trusted_cas = [ ("mfg", ca.Lt_crypto.Rsa.pub) ];
           shared_device_keys = [];
           accepted_measurements =
             [ Lateral.Substrate.component_measurement c ] }
       in
       (match Lateral.Attestation.verify policy ~nonce:"n" ev with
        | Ok () -> ()
        | Error f ->
          Alcotest.fail (Format.asprintf "%a" Lateral.Attestation.pp_failure f))
     | Error e -> Alcotest.fail e);
    (* tiles are finite *)
    let rec exhaust i =
      match
        t.Lateral.Substrate.launch ~name:(Printf.sprintf "x%d" i) ~code:"x"
          ~services:[]
      with
      | Ok _ -> exhaust (i + 1)
      | Error _ -> i
    in
    Alcotest.(check bool) "tile pool exhausts" true (exhaust 0 <= 3)

(* regression: a refused relaunch must not revive the crashed instance *)
let test_refused_relaunch_stays_crashed () =
  let rng = Lt_crypto.Drbg.create 98L in
  let ca = Lt_crypto.Rsa.generate ~bits:512 rng in
  (* tile 0 is the kernel tile: two tiles hold one component *)
  let t, _chip = Lateral.Substrate_m3.make rng ~ca_name:"mfg" ~ca_key:ca ~tiles:2 () in
  let launch () =
    t.Lateral.Substrate.launch ~name:"w" ~code:"w1" ~services:[ ("f", fun _ x -> x) ]
  in
  match launch () with
  | Error e -> Alcotest.fail e
  | Ok c ->
    t.Lateral.Substrate.crash c;
    (match launch () with
     | Error _ -> ()
     | Ok _ -> Alcotest.fail "relaunch should find no free compute tile");
    Alcotest.(check bool) "old instance stays dead" false (t.Lateral.Substrate.is_alive c);
    Alcotest.check (answer c) "old instance answers Crashed"
      (Error Lateral.Substrate.Crashed) (t.Lateral.Substrate.invoke c ~fn:"f" "x")

let suite =
  [ Alcotest.test_case "kernel wires channels" `Quick test_kernel_configures_channels;
    Alcotest.test_case "only the kernel configures DTUs" `Quick test_only_kernel_configures;
    Alcotest.test_case "no endpoint, no wire" `Quick test_no_endpoint_no_wire;
    Alcotest.test_case "credits bound flooding" `Quick test_credits_bound_flooding;
    Alcotest.test_case "synchronous sends keep credits" `Quick
      test_synchronous_send_keeps_credits;
    Alcotest.test_case "scratchpads are on-chip private" `Quick test_scratchpad_private;
    Alcotest.test_case "program measurements recorded" `Quick test_measurement_recorded;
    Alcotest.test_case "m3 substrate adapter" `Quick
      test_substrate_adapter_conformance_bits;
    Alcotest.test_case "refused relaunch stays crashed" `Quick
      test_refused_relaunch_stays_crashed ]
