(* Network: adversary model, TLS-like channel, gateway policies. *)

open Lt_crypto
module Net = Lt_net.Net
module Sc = Lt_net.Secure_channel
module Gateway = Lt_net.Gateway

(* every registration in here is on a fresh address; fail the test
   loudly if that ever stops being true *)
let reg net addr = Result.get_ok (Net.register net addr)

let test_basic_delivery () =
  let net = Net.create () in
  reg net "a";
  reg net "b";
  Net.send net ~src:"a" ~dst:"b" "hi";
  (match Net.recv net "b" with
   | Some p ->
     Alcotest.(check string) "payload" "hi" p.Net.payload;
     Alcotest.(check string) "src" "a" p.Net.src
   | None -> Alcotest.fail "no delivery");
  Alcotest.(check (option Alcotest.reject)) "queue drained" None
    (Option.map (fun _ -> ()) (Net.recv net "b"))

let test_unknown_destination_dropped () =
  let net = Net.create () in
  reg net "a";
  Net.send net ~src:"a" ~dst:"ghost" "x";
  Alcotest.(check int) "dropped" 1 (Net.dropped_count net);
  Alcotest.(check int) "unroutable" 1 (Net.unroutable_count net)

let test_unroutable_vs_adversary_loss () =
  (* partition audits must be able to tell routing loss from adversary
     loss: an adversary Drop is dropped but not unroutable, while an
     unregistered destination counts as both *)
  let net = Net.create () in
  reg net "a";
  reg net "b";
  Net.set_adversary net (fun p -> if p.Net.payload = "cut" then Net.Drop else Net.Deliver);
  Net.send net ~src:"a" ~dst:"b" "cut";
  Alcotest.(check int) "adversary drop counted" 1 (Net.dropped_count net);
  Alcotest.(check int) "adversary drop not unroutable" 0 (Net.unroutable_count net);
  Net.send net ~src:"a" ~dst:"ghost" "hello";
  Net.inject net { Net.src = "x"; dst = "ghost"; payload = "forged" };
  Alcotest.(check int) "both losses dropped" 3 (Net.dropped_count net);
  Alcotest.(check int) "send + inject to ghost unroutable" 2 (Net.unroutable_count net);
  (* snapshot round-trips the counter *)
  let undo = Net.take_snapshot net in
  Net.send net ~src:"a" ~dst:"ghost2" "more";
  Alcotest.(check int) "post-snapshot loss counted" 3 (Net.unroutable_count net);
  undo ();
  Alcotest.(check int) "snapshot restores unroutable" 2 (Net.unroutable_count net)

let test_adversary_tamper_drop () =
  let net = Net.create () in
  reg net "a";
  reg net "b";
  Net.set_adversary net (fun p ->
      if p.Net.payload = "secret" then Net.Tamper "corrupted"
      else if p.Net.payload = "kill" then Net.Drop
      else Net.Deliver);
  Net.send net ~src:"a" ~dst:"b" "secret";
  Net.send net ~src:"a" ~dst:"b" "kill";
  Net.send net ~src:"a" ~dst:"b" "fine";
  Alcotest.(check (list string)) "what b sees" [ "corrupted"; "fine" ]
    (List.filter_map (fun _ -> Option.map (fun p -> p.Net.payload) (Net.recv net "b"))
       [ (); (); () ])

let test_eavesdropping_log () =
  let net = Net.create () in
  reg net "a";
  reg net "b";
  Net.send net ~src:"a" ~dst:"b" "plaintext-password";
  Alcotest.(check bool) "passive attacker reads everything" true
    (List.exists (fun p -> p.Net.payload = "plaintext-password") (Net.observed net))

let test_injection () =
  let net = Net.create () in
  reg net "b";
  Net.inject net { Net.src = "forged-sender"; dst = "b"; payload = "spoof" };
  match Net.recv net "b" with
  | Some p -> Alcotest.(check string) "spoofed source accepted by raw net" "forged-sender" p.Net.src
  | None -> Alcotest.fail "injection failed"

(* --- secure channel ------------------------------------------------------- *)

let handshake_setup ?expected_subject ?(subject = "mail.example.org") () =
  let rng = Drbg.create 4242L in
  let ca = Rsa.generate ~bits:512 rng in
  let server_key = Rsa.generate ~bits:512 rng in
  let cert = Cert.issue ~ca_name:"root-ca" ~ca_key:ca ~subject server_key.Rsa.pub in
  let net = Net.create () in
  reg net "client";
  reg net "server";
  let client = Sc.Client.create rng ~trusted_ca:ca.Rsa.pub ?expected_subject () in
  let server = Sc.Server.create rng ~key:server_key ~cert in
  (net, rng, ca, client, server)

let test_handshake_and_records () =
  let net, _, _, client, server = handshake_setup () in
  match Sc.connect net ~client ~client_addr:"client" ~server ~server_addr:"server" with
  | Error e -> Alcotest.fail e
  | Ok (cs, ss) ->
    (* client -> server record *)
    let r = Sc.send cs "GET INBOX" in
    Alcotest.(check bool) "record is not plaintext" true
      (not (String.length r >= 9 && String.sub r (String.length r - 9) 9 = "GET INBOX"));
    (match Sc.receive ss r with
     | Ok m -> Alcotest.(check string) "server decrypts" "GET INBOX" m
     | Error e -> Alcotest.fail e);
    (* server -> client record *)
    let r2 = Sc.send ss "1 unread" in
    (match Sc.receive cs r2 with
     | Ok m -> Alcotest.(check string) "client decrypts" "1 unread" m
     | Error e -> Alcotest.fail e)

let test_channel_confidential_on_wire () =
  let net, _, _, client, server = handshake_setup () in
  match Sc.connect net ~client ~client_addr:"client" ~server ~server_addr:"server" with
  | Error e -> Alcotest.fail e
  | Ok (cs, ss) ->
    Net.send net ~src:"client" ~dst:"server" (Sc.send cs "password=hunter2");
    (match Net.recv net "server" with
     | Some p ->
       (match Sc.receive ss p.Net.payload with
        | Ok m -> Alcotest.(check string) "delivered" "password=hunter2" m
        | Error e -> Alcotest.fail e)
     | None -> Alcotest.fail "lost");
    (* eavesdropper sees no plaintext anywhere *)
    let contains hay needle =
      let n = String.length needle and h = String.length hay in
      let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "no plaintext on the wire" false
      (List.exists (fun p -> contains p.Net.payload "hunter2") (Net.observed net))

let test_record_tamper_detected () =
  let net, _, _, client, server = handshake_setup () in
  match Sc.connect net ~client ~client_addr:"client" ~server ~server_addr:"server" with
  | Error e -> Alcotest.fail e
  | Ok (cs, ss) ->
    let r = Sc.send cs "transfer 10 EUR" in
    let tampered =
      let b = Bytes.of_string r in
      let i = Bytes.length b - 1 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      Bytes.to_string b
    in
    (match Sc.receive ss tampered with
     | Error _ -> ()
     | Ok _ -> Alcotest.fail "tampered record accepted!")

let test_record_replay_detected () =
  let net, _, _, client, server = handshake_setup () in
  match Sc.connect net ~client ~client_addr:"client" ~server ~server_addr:"server" with
  | Error e -> Alcotest.fail e
  | Ok (cs, ss) ->
    let r = Sc.send cs "pay 5" in
    (match Sc.receive ss r with Ok _ -> () | Error e -> Alcotest.fail e);
    (match Sc.receive ss r with
     | Error _ -> ()
     | Ok _ -> Alcotest.fail "replayed record accepted!")

(* each direction seals under its own context: a record reflected back
   into the sender's own [receive] is refused, even at a matching
   sequence number, and the sender's session is not consumed by it *)
let test_record_reflection_rejected () =
  let net, _, _, client, server = handshake_setup () in
  match Sc.connect net ~client ~client_addr:"client" ~server ~server_addr:"server" with
  | Error e -> Alcotest.fail e
  | Ok (cs, ss) ->
    let r = Sc.send cs "pay 5" in
    (match Sc.receive cs r with
     | Error _ -> ()
     | Ok _ -> Alcotest.fail "client accepted its own record");
    let r' = Sc.send ss "ack" in
    (match Sc.receive ss r' with
     | Error _ -> ()
     | Ok _ -> Alcotest.fail "server accepted its own record");
    (match Sc.receive ss r with
     | Ok m -> Alcotest.(check string) "the real peer still opens it" "pay 5" m
     | Error e -> Alcotest.fail e);
    (match Sc.receive cs r' with
     | Ok m -> Alcotest.(check string) "and the other way" "ack" m
     | Error e -> Alcotest.fail e)

let test_mitm_cert_rejected () =
  (* adversary swaps in a self-signed certificate for their own key *)
  let net, rng, _, client, server = handshake_setup () in
  let mallory_key = Rsa.generate ~bits:512 rng in
  let mallory_cert = Cert.self_signed ~name:"mail.example.org" mallory_key in
  Net.set_adversary net (fun p ->
      match Wire.untag p.Net.payload with
      | Some ("server-hello", [ nonce_s; _ ]) ->
        Net.Tamper (Wire.tagged "server-hello" [ nonce_s; Cert.to_string mallory_cert ])
      | _ -> Net.Deliver);
  match Sc.connect net ~client ~client_addr:"client" ~server ~server_addr:"server" with
  | Error e ->
    Alcotest.(check bool) "client detected the MITM" true
      (String.length e > 0)
  | Ok _ -> Alcotest.fail "MITM succeeded!"

let test_subject_pinning () =
  (* a valid CA-signed cert for the wrong host is rejected when pinning *)
  let net, _, _, client, server =
    handshake_setup ~subject:"evil.example.org" ~expected_subject:"mail.example.org" ()
  in
  match Sc.connect net ~client ~client_addr:"client" ~server ~server_addr:"server" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong subject accepted"

let test_handshake_packet_loss () =
  let net, _, _, client, server = handshake_setup () in
  Net.set_adversary net (fun _ -> Net.Drop);
  match Sc.connect net ~client ~client_addr:"client" ~server ~server_addr:"server" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "handshake can't succeed with all packets dropped"

(* --- gateway --------------------------------------------------------------- *)

let test_handshake_out_of_order () =
  (* a key-exchange before any hello must fail and poison the server *)
  let _, rng, _, _, server = handshake_setup () in
  ignore rng;
  (match Sc.Server.handle server (Wire.tagged "key-exchange" [ "x"; "y" ]) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "out-of-order message accepted");
  (* the state machine stays failed even for a valid hello *)
  (match Sc.Server.handle server (Wire.tagged "hello" [ "nonce" ]) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "failed handshake resumed")

let test_handshake_garbage_messages () =
  let _, _, _, client, server = handshake_setup () in
  ignore (Sc.Client.start client);
  (match Sc.Server.handle server "complete garbage" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "garbage accepted by server");
  (match Sc.Client.handle client (Wire.tagged "finished" [ "early" ]) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "early finished accepted by client")

let test_double_hello_rejected () =
  let _, _, _, _, server = handshake_setup () in
  (match Sc.Server.handle server (Wire.tagged "hello" [ "n1" ]) with
   | Ok (Some _) -> ()
   | _ -> Alcotest.fail "first hello should be answered");
  match Sc.Server.handle server (Wire.tagged "hello" [ "n2" ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "second hello accepted"

let test_tampered_key_exchange_detected () =
  (* flip bits in the client's key-exchange flight: the server must not
     end up with a mismatched session *)
  let net, _, _, client, server = handshake_setup () in
  Net.set_adversary net (fun p ->
      match Wire.untag p.Net.payload with
      | Some ("key-exchange", [ ct; fin ]) ->
        let b = Bytes.of_string ct in
        Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
        Net.Tamper (Wire.tagged "key-exchange" [ Bytes.to_string b; fin ])
      | _ -> Net.Deliver)
  (* either the server's RSA decrypt or the finished check must fail *);
  match Sc.connect net ~client ~client_addr:"client" ~server ~server_addr:"server" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampered key exchange produced a session"

let test_exporter_unique_per_channel () =
  let rng = Drbg.create 4343L in
  let ca = Rsa.generate ~bits:512 rng in
  let server_key = Rsa.generate ~bits:512 rng in
  let cert = Cert.issue ~ca_name:"root-ca" ~ca_key:ca ~subject:"s" server_key.Rsa.pub in
  let mk () =
    let net = Net.create () in
    reg net "c";
    reg net "s";
    let client = Sc.Client.create rng ~trusted_ca:ca.Rsa.pub () in
    let server = Sc.Server.create rng ~key:server_key ~cert in
    match Sc.connect net ~client ~client_addr:"c" ~server ~server_addr:"s" with
    | Ok (cs, ss) -> (cs, ss)
    | Error e -> Alcotest.fail e
  in
  let cs1, ss1 = mk () in
  let cs2, _ = mk () in
  Alcotest.(check bool) "peers agree" true (Sc.exporter cs1 = Sc.exporter ss1);
  Alcotest.(check bool) "channels differ" true (Sc.exporter cs1 <> Sc.exporter cs2)

let test_gateway_whitelist () =
  let net = Net.create () in
  reg net "utility.example.org";
  reg net "victim.example.org";
  let gw =
    Gateway.create ~whitelist:[ "utility.example.org" ] ~tokens_per_tick:1.0
      ~burst:10.0
  in
  Alcotest.(check bool) "whitelisted passes" true
    (Gateway.submit gw net ~now:0 ~src:"meter" ~dst:"utility.example.org" "reading"
     = Gateway.Forwarded);
  Alcotest.(check bool) "ddos target blocked" true
    (Gateway.submit gw net ~now:0 ~src:"meter" ~dst:"victim.example.org" "flood"
     = Gateway.Blocked_destination);
  Alcotest.(check int) "victim got nothing" 0 (Net.pending net "victim.example.org");
  Alcotest.(check int) "utility got the reading" 1
    (Net.pending net "utility.example.org")

let test_gateway_rate_limit () =
  let net = Net.create () in
  reg net "ok.org";
  let gw = Gateway.create ~whitelist:[ "ok.org" ] ~tokens_per_tick:0.1 ~burst:5.0 in
  let sent = ref 0 in
  for _ = 1 to 100 do
    if Gateway.submit gw net ~now:0 ~src:"m" ~dst:"ok.org" "x" = Gateway.Forwarded then
      incr sent
  done;
  Alcotest.(check int) "burst capped" 5 !sent;
  (* tokens refill over time *)
  Alcotest.(check bool) "refilled after 10 ticks" true
    (Gateway.submit gw net ~now:10 ~src:"m" ~dst:"ok.org" "x" = Gateway.Forwarded);
  let s = Gateway.stats gw in
  Alcotest.(check int) "forwarded counted" 6 s.Gateway.forwarded;
  Alcotest.(check int) "rate-limited counted" 95 s.Gateway.rate_limited

let test_gateway_fractional_rate () =
  let net = Net.create () in
  reg net "ok.org";
  (* 0.4 tokens/tick: exact accrual means 5 ticks buy exactly 2 packets,
     and the fraction is never lost to rounding across refills *)
  let gw = Gateway.create ~whitelist:[ "ok.org" ] ~tokens_per_tick:0.4 ~burst:10.0 in
  (* drain the initial burst *)
  while Gateway.submit gw net ~now:0 ~src:"m" ~dst:"ok.org" "x" = Gateway.Forwarded do
    ()
  done;
  let sent_by tick =
    let n = ref 0 in
    for now = 1 to tick do
      while Gateway.submit gw net ~now ~src:"m" ~dst:"ok.org" "x" = Gateway.Forwarded do
        incr n
      done
    done;
    !n
  in
  Alcotest.(check int) "0.4/tick over 10 ticks = 4 packets" 4 (sent_by 10);
  Alcotest.(check bool) "leftover fraction below one token"
    true (Gateway.tokens gw < 1.0)

let test_gateway_burst_clamp () =
  let net = Net.create () in
  reg net "ok.org";
  let gw = Gateway.create ~whitelist:[ "ok.org" ] ~tokens_per_tick:100.0 ~burst:3.0 in
  (* an arbitrarily long idle period must not bank more than burst *)
  ignore (Gateway.submit gw net ~now:1_000_000 ~src:"m" ~dst:"ok.org" "x");
  Alcotest.(check bool) "bucket clamped to burst" true (Gateway.tokens gw <= 3.0);
  let sent = ref 0 in
  for _ = 1 to 50 do
    if Gateway.submit gw net ~now:1_000_000 ~src:"m" ~dst:"ok.org" "x" = Gateway.Forwarded
    then incr sent
  done;
  Alcotest.(check int) "only burst-1 more after the first" 2 !sent

let test_gateway_backwards_clock () =
  let net = Net.create () in
  reg net "ok.org";
  let gw = Gateway.create ~whitelist:[ "ok.org" ] ~tokens_per_tick:1.0 ~burst:5.0 in
  (* drain at the latest time the hostile clock will ever report *)
  let drained = ref 0 in
  while Gateway.submit gw net ~now:100 ~src:"m" ~dst:"ok.org" "x" = Gateway.Forwarded do
    incr drained
  done;
  Alcotest.(check int) "burst drained" 5 !drained;
  (* an oscillating clock (100 -> 0 -> 100 -> ...) must never mint
     tokens: refill only happens when now exceeds the high-water mark *)
  let minted = ref 0 in
  for _ = 1 to 20 do
    if Gateway.submit gw net ~now:0 ~src:"m" ~dst:"ok.org" "x" = Gateway.Forwarded then
      incr minted;
    if Gateway.submit gw net ~now:100 ~src:"m" ~dst:"ok.org" "x" = Gateway.Forwarded then
      incr minted
  done;
  Alcotest.(check int) "oscillating clock mints nothing" 0 !minted;
  Alcotest.(check bool) "tokens stayed non-negative" true (Gateway.tokens gw >= 0.0);
  (* genuine progress past the high-water mark refills normally *)
  Alcotest.(check bool) "real progress refills" true
    (Gateway.submit gw net ~now:101 ~src:"m" ~dst:"ok.org" "x" = Gateway.Forwarded)

let test_gateway_rejects_bad_rates () =
  let rejects ~tokens_per_tick ~burst =
    match Gateway.create ~whitelist:[] ~tokens_per_tick ~burst with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "NaN rate rejected" true
    (rejects ~tokens_per_tick:Float.nan ~burst:5.0);
  Alcotest.(check bool) "NaN burst rejected" true
    (rejects ~tokens_per_tick:1.0 ~burst:Float.nan);
  Alcotest.(check bool) "negative rate rejected" true
    (rejects ~tokens_per_tick:(-1.0) ~burst:5.0);
  Alcotest.(check bool) "negative burst rejected" true
    (rejects ~tokens_per_tick:1.0 ~burst:(-0.5));
  Alcotest.(check bool) "zero rate is a valid (never-refilling) policy" false
    (rejects ~tokens_per_tick:0.0 ~burst:5.0)

(* tenant/shard churn: place → destroy → re-place on the same address
   is clean, and a duplicate is a typed refusal, never an exception *)
let test_register_churn () =
  let net = Net.create () in
  Alcotest.(check bool) "place" true (Net.register net "t1/web" = Ok ());
  Alcotest.(check bool) "duplicate is a typed error" true
    (Net.register net "t1/web" = Error `Duplicate_addr);
  Net.send net ~src:"t1/web" ~dst:"t1/web" "pending";
  Net.unregister net "t1/web";
  Alcotest.(check bool) "re-place after destroy" true
    (Net.register net "t1/web" = Ok ());
  Alcotest.(check (option string)) "destroy dropped the old mailbox" None
    (Option.map (fun p -> p.Net.payload) (Net.recv net "t1/web"))

let suite =
  [ Alcotest.test_case "basic delivery" `Quick test_basic_delivery;
    Alcotest.test_case "unknown destination dropped" `Quick test_unknown_destination_dropped;
    Alcotest.test_case "unroutable vs adversary loss" `Quick
      test_unroutable_vs_adversary_loss;
    Alcotest.test_case "adversary tamper & drop" `Quick test_adversary_tamper_drop;
    Alcotest.test_case "eavesdropping transcript" `Quick test_eavesdropping_log;
    Alcotest.test_case "packet injection" `Quick test_injection;
    Alcotest.test_case "handshake establishes & records flow" `Quick
      test_handshake_and_records;
    Alcotest.test_case "wire confidentiality" `Quick test_channel_confidential_on_wire;
    Alcotest.test_case "record tampering detected" `Quick test_record_tamper_detected;
    Alcotest.test_case "record replay detected" `Quick test_record_replay_detected;
    Alcotest.test_case "reflected record rejected" `Quick test_record_reflection_rejected;
    Alcotest.test_case "MITM certificate rejected" `Quick test_mitm_cert_rejected;
    Alcotest.test_case "certificate pinning" `Quick test_subject_pinning;
    Alcotest.test_case "handshake survives no packets = fails cleanly" `Quick
      test_handshake_packet_loss;
    Alcotest.test_case "out-of-order handshake poisons the session" `Quick
      test_handshake_out_of_order;
    Alcotest.test_case "garbage handshake messages rejected" `Quick
      test_handshake_garbage_messages;
    Alcotest.test_case "double hello rejected" `Quick test_double_hello_rejected;
    Alcotest.test_case "tampered key exchange detected" `Quick
      test_tampered_key_exchange_detected;
    Alcotest.test_case "exporter unique per channel" `Quick
      test_exporter_unique_per_channel;
    Alcotest.test_case "gateway whitelist blocks DDoS" `Quick test_gateway_whitelist;
    Alcotest.test_case "gateway token-bucket rate limit" `Quick test_gateway_rate_limit;
    Alcotest.test_case "gateway fractional refill is exact" `Quick
      test_gateway_fractional_rate;
    Alcotest.test_case "gateway idle time clamps to burst" `Quick
      test_gateway_burst_clamp;
    Alcotest.test_case "gateway backwards clock mints nothing" `Quick
      test_gateway_backwards_clock;
    Alcotest.test_case "gateway rejects NaN and negative policy" `Quick
      test_gateway_rejects_bad_rates;
    Alcotest.test_case "register churn: place, destroy, re-place" `Quick
      test_register_churn ]
