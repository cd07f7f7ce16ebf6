let key_size = 16

let nonce_size = 8

let rounds = 27

let mask32 = 0xFFFFFFFF

type key = int array (* round keys, 32-bit values *)

let[@inline] ror x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

let[@inline] rol x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

let round k (x, y) =
  let x = (ror x 8 + y) land mask32 lxor k in
  let y = rol y 3 lxor x in
  (x, y)

let unround k (x, y) =
  let y = ror (y lxor x) 3 in
  let x = rol (((x lxor k) - y) land mask32) 8 in
  (x, y)

let word_of s off = Int32.to_int (String.get_int32_be s off) land mask32

(* Precondition, not adversary input: [Aead.of_key] always passes a
   16-byte HKDF output, so only a direct caller with a literal key can
   reach this check. *)
let key_of_string s =
  if String.length s <> key_size then invalid_arg "Speck.key_of_string: need 16 bytes";
  (* key words: k0 plus the l-sequence, expanded with the round function *)
  let k = Array.make rounds 0 in
  let l = Array.make (rounds + 2) 0 in
  k.(0) <- word_of s 12;
  l.(0) <- word_of s 8;
  l.(1) <- word_of s 4;
  l.(2) <- word_of s 0;
  for i = 0 to rounds - 2 do
    let x, y = round i (l.(i), k.(i)) in
    l.(i + 3) <- x;
    k.(i + 1) <- y
  done;
  k

let encrypt_block key (x, y) =
  let state = ref (x land mask32, y land mask32) in
  for i = 0 to rounds - 1 do
    state := round key.(i) !state
  done;
  !state

let decrypt_block key (x, y) =
  let state = ref (x land mask32, y land mask32) in
  for i = rounds - 1 downto 0 do
    state := unround key.(i) !state
  done;
  !state

(* [src] xor the CTR keystream into a fresh string. The rounds run on two
   local ints and each keystream word is xored in as a 32-bit word, so no
   block allocates. The caller has checked that [nonce] is 8 bytes. *)
let keystream_xor key ~nonce src =
  let n_hi = word_of nonce 0 and n_lo = word_of nonce 4 in
  let len = String.length src in
  let out = Bytes.create len in
  let block = ref 0 in
  let pos = ref 0 in
  while !pos < len do
    (* counter block = nonce xor block index, split across the halves *)
    let x = ref (n_hi lxor ((!block lsr 32) land mask32)) in
    let y = ref (n_lo lxor (!block land mask32)) in
    for i = 0 to rounds - 1 do
      x := ((ror !x 8 + !y) land mask32) lxor Array.unsafe_get key i;
      y := rol !y 3 lxor !x
    done;
    let p = !pos in
    if len - p >= 8 then begin
      Bytes.set_int32_be out p (Int32.of_int (word_of src p lxor !x));
      Bytes.set_int32_be out (p + 4) (Int32.of_int (word_of src (p + 4) lxor !y))
    end
    else
      for j = 0 to len - p - 1 do
        let word = if j < 4 then !x else !y in
        let ks = (word lsr (24 - (8 * (j land 3)))) land 0xFF in
        Bytes.set out (p + j) (Char.chr (Char.code src.[p + j] lxor ks))
      done;
    pos := p + 8;
    incr block
  done;
  Bytes.unsafe_to_string out

let check_nonce what nonce =
  if String.length nonce <> nonce_size then invalid_arg (what ^ ": need 8-byte nonce")

let ctr ~key ~nonce msg =
  check_nonce "Speck.ctr" nonce;
  keystream_xor key ~nonce msg

module Aead = struct
  type sealed = { nonce : string; ciphertext : string; tag : string }

  type ctx = { enc : key; mac : Hmac.prepared }

  (* one extraction, two expansions: the same bytes as two full HKDF
     derivations with this salt *)
  let of_key master =
    let prk = Hkdf.extract ~salt:"lt-aead" master in
    { enc = key_of_string (Hkdf.expand ~prk ~info:"enc" key_size);
      mac = Hmac.prepare (Hkdf.expand ~prk ~info:"mac" Hmac.tag_size) }

  (* length-prefix the associated data so (ad, ct) splits are unambiguous *)
  let tag_of ctx ~nonce ~ad ciphertext =
    Hmac.mac_with ctx.mac [ Wire.length_prefix (String.length ad); ad; nonce; ciphertext ]

  (* Precondition, not adversary input: every holder makes its nonce
     [nonce_size] bytes long (a digest prefix or [Drbg.bytes]). A nonce
     read off the wire goes through [open_], which returns [None]. *)
  let seal ctx ~nonce ~ad msg =
    check_nonce "Speck.Aead.seal" nonce;
    let ciphertext = keystream_xor ctx.enc ~nonce msg in
    { nonce; ciphertext; tag = tag_of ctx ~nonce ~ad ciphertext }

  let open_ ctx ~ad { nonce; ciphertext; tag } =
    if String.length nonce <> nonce_size then None
    else if Ct.equal (tag_of ctx ~nonce ~ad ciphertext) tag then
      Some (keystream_xor ctx.enc ~nonce ciphertext)
    else None

  let encrypt ~key ~nonce ~ad msg = seal (of_key key) ~nonce ~ad msg

  let decrypt ~key ~ad sealed = open_ (of_key key) ~ad sealed

  let to_wire { nonce; ciphertext; tag } =
    String.concat ""
      [ Wire.length_prefix (String.length ciphertext); nonce; tag; ciphertext ]

  let of_wire s =
    if String.length s < 8 + nonce_size + Hmac.tag_size then None
    else
      match Wire.length_at s 0 with
      | None -> None
      | Some ct_len ->
        let need = 8 + nonce_size + Hmac.tag_size + ct_len in
        if ct_len < 0 || String.length s <> need then None
        else begin
          let nonce = String.sub s 8 nonce_size in
          let tag = String.sub s (8 + nonce_size) Hmac.tag_size in
          let ciphertext = String.sub s (8 + nonce_size + Hmac.tag_size) ct_len in
          Some { nonce; ciphertext; tag }
        end

  let seal_wire ctx ~nonce ~ad msg = to_wire (seal ctx ~nonce ~ad msg)

  let open_wire ctx ~ad wire = Option.bind (of_wire wire) (open_ ctx ~ad)
end
