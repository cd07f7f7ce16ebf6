(* The optimised crypto agrees byte for byte with the reference oracle in
   crypto_ref.ml: digests however the input is fed, one-shot and prepared
   HMAC keys on both sides of the 64-byte key normalisation, and keyed
   AEAD contexts against the per-record string-key AEAD. Plus the
   totality of the context-based open on malformed input. *)

open Lt_crypto
module Ref = Crypto_ref

(* lengths that straddle the SHA-256 padding edges (55/56 bytes leave
   room for the length field or not, 63/64/65 fill a block or spill) and
   the CTR block edges, plus a spread up to a few KiB *)
let edge_lengths = [ 0; 1; 7; 8; 9; 55; 56; 57; 63; 64; 65; 119; 120; 127; 128; 129 ]

let gen_len max = QCheck.Gen.(oneof [ oneofl edge_lengths; int_range 0 max ])

let gen_string max = QCheck.Gen.(string_size ~gen:char (gen_len max))

let arb_string max =
  QCheck.make ~print:(fun s -> Printf.sprintf "%d bytes" (String.length s)) (gen_string max)

(* cut [s] at sorted random offsets *)
let gen_split =
  QCheck.Gen.(
    gen_string 1000 >>= fun s ->
    list_size (int_range 0 6) (int_range 0 (String.length s)) >>= fun cuts ->
    let cuts = List.sort_uniq compare cuts in
    let rec pieces prev = function
      | [] -> [ String.sub s prev (String.length s - prev) ]
      | c :: rest -> String.sub s prev (c - prev) :: pieces c rest
    in
    return (s, pieces 0 cuts))

let prop_digest =
  QCheck.Test.make ~name:"sha256 = oracle" ~count:300 (arb_string 4200) (fun s ->
      Sha256.digest s = Ref.Sha256.digest s && Sha256.hex s = Ref.Sha256.hex s)

let prop_feed_splits =
  QCheck.Test.make ~name:"sha256 streamed splits = oracle" ~count:300
    (QCheck.make gen_split) (fun (s, parts) ->
      let ctx = Sha256.init () in
      List.iter (Sha256.feed ctx) parts;
      Sha256.finalize ctx = Ref.Sha256.digest s
      && Sha256.digest_concat parts = Ref.Sha256.digest s)

let prop_copy =
  QCheck.Test.make ~name:"sha256 copy forks an independent state" ~count:200
    (QCheck.make QCheck.Gen.(pair (gen_string 300) (gen_string 300)))
    (fun (a, b) ->
      let ctx = Sha256.init () in
      Sha256.feed ctx a;
      let fork = Sha256.copy ctx in
      Sha256.feed fork b;
      let forked = Sha256.finalize fork in
      Sha256.finalize ctx = Ref.Sha256.digest a && forked = Ref.Sha256.digest (a ^ b))

(* keys of 0-200 bytes cross the 64-byte point where HMAC hashes the key *)
let arb_key_msg = QCheck.make QCheck.Gen.(pair (gen_string 200) (gen_string 1000))

let prop_hmac =
  QCheck.Test.make ~name:"hmac one-shot and prepared = oracle" ~count:300 arb_key_msg
    (fun (key, msg) ->
      let expected = Ref.Hmac.mac ~key msg in
      let k = Hmac.prepare key in
      let half = String.length msg / 2 in
      Hmac.mac ~key msg = expected
      && Hmac.mac_with k [ msg ] = expected
      (* a prepared key serves many messages: the midstates stay put *)
      && Hmac.mac_with k [ msg ] = expected
      && Hmac.mac_with k
           [ String.sub msg 0 half; String.sub msg half (String.length msg - half) ]
         = expected
      && Hmac.verify ~key ~tag:expected msg)

let prop_hkdf =
  QCheck.Test.make ~name:"hkdf = oracle" ~count:100
    (QCheck.make QCheck.Gen.(triple (gen_string 100) (gen_string 100) (int_range 0 100)))
    (fun (secret, info, len) ->
      Hkdf.derive ~secret ~salt:"s" ~info len = Ref.Hkdf.derive ~secret ~salt:"s" ~info len)

let prop_ctr =
  QCheck.Test.make ~name:"speck ctr = oracle" ~count:200
    (QCheck.make QCheck.Gen.(pair (string_size ~gen:char (return 8)) (gen_string 600)))
    (fun (nonce, msg) ->
      let raw = "0123456789abcdef" in
      Speck.ctr ~key:(Speck.key_of_string raw) ~nonce msg
      = Ref.Speck.ctr ~key:(Ref.Speck.key_of_string raw) ~nonce msg)

let gen_aead =
  QCheck.Gen.(
    quad (gen_string 40) (string_size ~gen:char (return 8)) (gen_string 100)
      (gen_string 4200))

let prop_aead =
  QCheck.Test.make ~name:"aead context seal/open = oracle string-key aead" ~count:150
    (QCheck.make gen_aead) (fun (key, nonce, ad, msg) ->
      let ctx = Speck.Aead.of_key key in
      let ours = Speck.Aead.seal ctx ~nonce ~ad msg in
      let theirs = Ref.Speck.Aead.encrypt ~key ~nonce ~ad msg in
      let wire = Ref.Speck.Aead.to_wire theirs in
      ours.Speck.Aead.nonce = theirs.Ref.Speck.Aead.nonce
      && ours.ciphertext = theirs.ciphertext
      && ours.tag = theirs.tag
      && Speck.Aead.to_wire ours = wire
      && Speck.Aead.seal_wire ctx ~nonce ~ad msg = wire
      && Speck.Aead.encrypt ~key ~nonce ~ad msg = ours
      && Speck.Aead.open_wire ctx ~ad wire = Some msg
      && Speck.Aead.open_ ctx ~ad ours = Some msg
      && Speck.Aead.decrypt ~key ~ad ours = Some msg
      && Ref.Speck.Aead.decrypt ~key ~ad theirs = Some msg
      && Speck.Aead.open_ ctx ~ad:(ad ^ "x") ours = None)

(* the context-based open is total: a nonce of the wrong length, a
   truncated or extended wire record, or a flipped byte is [None], never
   an exception *)
let test_open_total () =
  let ctx = Speck.Aead.of_key "0123456789abcdef" in
  let sealed = Speck.Aead.seal ctx ~nonce:"nonce-08" ~ad:"ad" "some record payload" in
  let wire = Speck.Aead.to_wire sealed in
  let opens f = match f () with None -> false | Some _ -> true | exception _ -> true in
  List.iter
    (fun nonce ->
      Alcotest.(check bool)
        (Printf.sprintf "%d-byte nonce refused" (String.length nonce))
        false
        (opens (fun () -> Speck.Aead.open_ ctx ~ad:"ad" { sealed with Speck.Aead.nonce })))
    [ ""; "short"; "nonce-0"; "nonce-089"; String.make 64 'n' ];
  for len = 0 to String.length wire - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "wire truncated to %d bytes refused" len)
      false
      (opens (fun () -> Speck.Aead.open_wire ctx ~ad:"ad" (String.sub wire 0 len)))
  done;
  Alcotest.(check bool) "wire with a trailing byte refused" false
    (opens (fun () -> Speck.Aead.open_wire ctx ~ad:"ad" (wire ^ "x")));
  String.iteri
    (fun i c ->
      let b = Bytes.of_string wire in
      Bytes.set b i (Char.chr (Char.code c lxor 0x40));
      Alcotest.(check bool)
        (Printf.sprintf "byte %d flipped refused" i)
        false
        (opens (fun () -> Speck.Aead.open_wire ctx ~ad:"ad" (Bytes.to_string b))))
    wire;
  Alcotest.(check (option string)) "the intact record opens" (Some "some record payload")
    (Speck.Aead.open_wire ctx ~ad:"ad" wire)

let suite =
  Alcotest.test_case "context open is total on malformed records" `Quick test_open_total
  :: List.map QCheck_alcotest.to_alcotest
       [ prop_digest; prop_feed_splits; prop_copy; prop_hmac; prop_hkdf; prop_ctr;
         prop_aead ]
