open Lt_crypto

(* the key strings stay for the record nonces and the exporter; the AEAD
   contexts are derived from them once, at the handshake, and are pure
   caches of them *)
type session = {
  send_key : string;
  recv_key : string;
  send_aead : Speck.Aead.ctx;
  recv_aead : Speck.Aead.ctx;
  mutable seq_send : int;
  mutable seq_recv : int;
}

let keyed_session ~send_key ~recv_key =
  { send_key;
    recv_key;
    send_aead = Speck.Aead.of_key send_key;
    recv_aead = Speck.Aead.of_key recv_key;
    seq_send = 0;
    seq_recv = 0 }

let derive_keys ~pms ~nonce_c ~nonce_s =
  let prk = Hkdf.extract ~salt:(nonce_c ^ nonce_s) pms in
  let expand info len = Hkdf.expand ~prk ~info len in
  ( expand "c2s" 16,
    expand "s2c" 16,
    expand "fin-c" 32,
    expand "fin-s" 32 )

let record_nonce key seq =
  String.sub (Sha256.digest (Printf.sprintf "%s|%d" key seq)) 0 Speck.nonce_size

let send s plaintext =
  let seq = s.seq_send in
  let wire =
    Speck.Aead.seal_wire s.send_aead ~nonce:(record_nonce s.send_key seq)
      ~ad:(Printf.sprintf "rec|%d" seq) plaintext
  in
  s.seq_send <- seq + 1;
  Wire.tagged "record" [ wire ]

let receive s msg =
  match Wire.untag msg with
  | Some ("record", [ wire ]) ->
    (match Speck.Aead.of_wire wire with
     | None -> Error "malformed record"
     | Some box ->
       (match Speck.Aead.open_ s.recv_aead ~ad:(Printf.sprintf "rec|%d" s.seq_recv) box with
        | Some plaintext ->
          s.seq_recv <- s.seq_recv + 1;
          Ok plaintext
        | None -> Error "record authentication failed (tamper, replay or reorder)"))
  | _ -> Error "not a record"

let exporter s =
  (* order the two directional keys so client and server agree *)
  let a, b =
    if String.compare s.send_key s.recv_key <= 0 then (s.send_key, s.recv_key)
    else (s.recv_key, s.send_key)
  in
  Hkdf.derive ~secret:(a ^ b) ~salt:"tls-exporter" ~info:"channel-binding" 32

module Server = struct
  type state =
    | Waiting_hello
    | Waiting_kx of { nonce_c : string; nonce_s : string; transcript : string }
    | Established of session
    | Failed

  type t = {
    rng : Drbg.t;
    key : Rsa.keypair;
    cert : Cert.t;
    mutable state : state;
  }

  let create rng ~key ~cert = { rng; key; cert; state = Waiting_hello }

  let session t = match t.state with Established s -> Some s | _ -> None

  let handle t msg =
    match (t.state, Wire.untag msg) with
    | Waiting_hello, Some ("hello", [ nonce_c ]) ->
      let nonce_s = Drbg.bytes t.rng 16 in
      let reply = Wire.tagged "server-hello" [ nonce_s; Cert.to_string t.cert ] in
      let transcript = Sha256.digest_concat [ msg; reply ] in
      t.state <- Waiting_kx { nonce_c; nonce_s; transcript };
      Ok (Some reply)
    | Waiting_kx { nonce_c; nonce_s; transcript }, Some ("key-exchange", [ ct; fin_c ])
      ->
      (match Rsa.decrypt t.key ct with
       | None ->
         t.state <- Failed;
         Error "key exchange decryption failed"
       | Some pms ->
         let c2s, s2c, fin_ck, fin_sk = derive_keys ~pms ~nonce_c ~nonce_s in
         if not (Hmac.verify ~key:fin_ck ~tag:fin_c transcript) then begin
           t.state <- Failed;
           Error "client finished verification failed"
         end
         else begin
           let fin_s = Hmac.mac ~key:fin_sk (transcript ^ fin_c) in
           t.state <- Established (keyed_session ~send_key:s2c ~recv_key:c2s);
           Ok (Some (Wire.tagged "finished" [ fin_s ]))
         end)
    | Failed, _ -> Error "handshake already failed"
    | _, _ ->
      t.state <- Failed;
      Error "unexpected handshake message"
end

module Client = struct
  type state =
    | Fresh
    | Hello_sent of { nonce_c : string; hello : string }
    | Finished_wait of {
        transcript : string;
        fin_c : string;
        fin_sk : string;
        c2s : string;
        s2c : string;
      }
    | Established of session
    | Failed

  type t = {
    rng : Drbg.t;
    trusted_ca : Rsa.public;
    expected_subject : string option;
    mutable state : state;
  }

  let create rng ~trusted_ca ?expected_subject () =
    { rng; trusted_ca; expected_subject; state = Fresh }

  let session t = match t.state with Established s -> Some s | _ -> None

  let start t =
    let nonce_c = Drbg.bytes t.rng 16 in
    let hello = Wire.tagged "hello" [ nonce_c ] in
    t.state <- Hello_sent { nonce_c; hello };
    hello

  let handle t msg =
    match (t.state, Wire.untag msg) with
    | Hello_sent { nonce_c; hello }, Some ("server-hello", [ nonce_s; cert_wire ]) ->
      (match Cert.of_string cert_wire with
       | None ->
         t.state <- Failed;
         Error "malformed certificate"
       | Some cert ->
         if not (Cert.verify ~issuer_pub:t.trusted_ca cert) then begin
           t.state <- Failed;
           Error "certificate not signed by a trusted CA"
         end
         else if
           match t.expected_subject with
           | Some subject -> subject <> cert.Cert.subject
           | None -> false
         then begin
           t.state <- Failed;
           Error "certificate subject mismatch (pinning)"
         end
         else begin
           let pms = Drbg.bytes t.rng 16 in
           let transcript = Sha256.digest_concat [ hello; msg ] in
           let c2s, s2c, fin_ck, fin_sk = derive_keys ~pms ~nonce_c ~nonce_s in
           let fin_c = Hmac.mac ~key:fin_ck transcript in
           let ct = Rsa.encrypt t.rng cert.Cert.pubkey pms in
           t.state <- Finished_wait { transcript; fin_c; fin_sk; c2s; s2c };
           Ok (Some (Wire.tagged "key-exchange" [ ct; fin_c ]))
         end)
    | Finished_wait { transcript; fin_c; fin_sk; c2s; s2c }, Some ("finished", [ fin_s ])
      ->
      if not (Hmac.verify ~key:fin_sk ~tag:fin_s (transcript ^ fin_c)) then begin
        t.state <- Failed;
        Error "server finished verification failed"
      end
      else begin
        t.state <- Established (keyed_session ~send_key:c2s ~recv_key:s2c);
        Ok None
      end
    | Failed, _ -> Error "handshake already failed"
    | _, _ ->
      t.state <- Failed;
      Error "unexpected handshake message"
end

let connect net ~client ~client_addr ~server ~server_addr =
  Net.send net ~src:client_addr ~dst:server_addr (Client.start client);
  (* pump until both sides are established or something fails; bounded
     because each handshake has at most 4 flights *)
  let rec pump budget =
    if budget = 0 then Error "handshake did not complete (messages lost?)"
    else
      match (Client.session client, Server.session server) with
      | Some cs, Some ss -> Ok (cs, ss)
      | _ ->
        let progressed = ref false in
        (match Net.recv net server_addr with
         | Some p ->
           progressed := true;
           (match Server.handle server p.Net.payload with
            | Ok (Some reply) -> Net.send net ~src:server_addr ~dst:client_addr reply
            | Ok None -> ()
            | Error e -> raise (Failure ("server: " ^ e)))
         | None -> ());
        (match Net.recv net client_addr with
         | Some p ->
           progressed := true;
           (match Client.handle client p.Net.payload with
            | Ok (Some reply) -> Net.send net ~src:client_addr ~dst:server_addr reply
            | Ok None -> ()
            | Error e -> raise (Failure ("client: " ^ e)))
         | None -> ());
        if !progressed then pump (budget - 1)
        else Error "handshake stalled (packets dropped)"
  in
  try pump 16 with Failure e -> Error e
