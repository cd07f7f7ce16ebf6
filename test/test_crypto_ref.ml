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

(* --- the length header ------------------------------------------------------ *)

(* lengths either side of a new decimal digit and of a 4 KiB page *)
let wire_edges = [ 0; 9; 10; 99; 100; 4095; 4096 ]

let gen_field =
  QCheck.Gen.(
    oneof [ oneofl wire_edges; int_range 0 300 ] >>= fun n ->
    string_size ~gen:char (return n))

let print_fields fields =
  String.concat "," (List.map (fun f -> string_of_int (String.length f)) fields)

let prop_wire_encode =
  QCheck.Test.make ~name:"wire encode = oracle" ~count:300
    (QCheck.make ~print:print_fields QCheck.Gen.(list_size (int_range 0 6) gen_field))
    (fun fields ->
      let wire = Wire.encode fields in
      wire = Ref.Wire.encode fields && Wire.decode wire = Some fields)

let prop_length_prefix =
  QCheck.Test.make ~name:"length prefix = sprintf" ~count:300
    QCheck.(
      make ~print:string_of_int
        Gen.(
          oneof
            [ int_range 0 10_000; int_range 99_999_990 100_000_010;
              int_range 0 (1 lsl 40) ]))
    (fun n -> Wire.length_prefix n = Printf.sprintf "%08d" n)

let binary n = String.init 6 (fun i -> if (n lsr (5 - i)) land 1 = 1 then '1' else '0')

(* 8-byte headers that [int_of_string_opt] may read as [n]: the canonical
   digits, a sign, a base or unsigned prefix, underscores, and a few it
   refuses; spellings that do not fit in 8 bytes are dropped *)
let spellings n =
  List.filter
    (fun s -> String.length s = 8)
    [ Printf.sprintf "%08d" n; Printf.sprintf "+%07d" n; Printf.sprintf "-%07d" n;
      Printf.sprintf "0x%06x" n; Printf.sprintf "0X%06X" n; Printf.sprintf "0o%06o" n;
      "0b" ^ binary n; Printf.sprintf "0u%06d" n; Printf.sprintf "0_%06d" n;
      Printf.sprintf "%04d_%03d" (n / 1000) (n mod 1000); Printf.sprintf "%07d_" n;
      Printf.sprintf "_%07d" n; Printf.sprintf " %07d" n; Printf.sprintf "%07d " n ]

let header_chars = List.of_seq (String.to_seq "0123456789+-_xXobu ")

let gen_header n =
  QCheck.Gen.(
    frequency
      [ (6, oneofl (spellings n));
        (1, oneofl (spellings (n + 1)));
        (1, string_size ~gen:(oneofl header_chars) (return 8));
        (1, string_size ~gen:char (return 8)) ])

(* a frame whose headers are mostly spellings of the right length, with
   now and then a truncated tail or trailing garbage *)
let gen_frame =
  QCheck.Gen.(
    list_size (int_range 0 4) (int_range 0 70 >>= fun n ->
      pair (gen_header n) (string_size ~gen:char (return n)))
    >>= fun parts ->
    let s = String.concat "" (List.map (fun (h, f) -> h ^ f) parts) in
    frequency
      [ (6, return s);
        (1, int_range 0 (String.length s) >|= fun k -> String.sub s 0 k);
        (1, string_size ~gen:char (int_range 1 10) >|= fun tail -> s ^ tail);
        (1, string_size ~gen:char (int_range 0 40)) ])

let prop_wire_decode =
  QCheck.Test.make ~name:"wire decode = oracle on every header spelling" ~count:1000
    (QCheck.make ~print:String.escaped gen_frame) (fun s ->
      Wire.decode s = Ref.Wire.decode s
      && Wire.untag s = Option.bind (Ref.Wire.decode s) (function
           | tag :: fields -> Some (tag, fields)
           | [] -> None))

let gen_record =
  QCheck.Gen.(
    int_range 0 70 >>= fun n ->
    map3
      (fun header body tail -> header ^ body ^ tail)
      (gen_header n)
      (string_size ~gen:char (return (Speck.nonce_size + Hmac.tag_size + n)))
      (frequency [ (6, return ""); (1, string_size ~gen:char (int_range 1 4)) ])
    >>= fun s ->
    frequency [ (6, return s); (1, int_range 0 (String.length s) >|= String.sub s 0) ])

let prop_of_wire =
  QCheck.Test.make ~name:"aead of_wire = oracle on every header spelling" ~count:1000
    (QCheck.make ~print:String.escaped gen_record) (fun s ->
      let ours =
        Option.map
          (fun { Speck.Aead.nonce; ciphertext; tag } -> (nonce, ciphertext, tag))
          (Speck.Aead.of_wire s)
      and theirs =
        Option.map
          (fun { Ref.Speck.Aead.nonce; ciphertext; tag } -> (nonce, ciphertext, tag))
          (Ref.Speck.Aead.of_wire s)
      in
      ours = theirs)

let suite =
  Alcotest.test_case "context open is total on malformed records" `Quick test_open_total
  :: List.map QCheck_alcotest.to_alcotest
       [ prop_digest; prop_feed_splits; prop_copy; prop_hmac; prop_hkdf; prop_ctr;
         prop_aead; prop_wire_encode; prop_length_prefix; prop_wire_decode; prop_of_wire ]
