(* Reference oracle for the optimised crypto in lib/crypto: the straight
   Int32 SHA-256, the concatenating HMAC, HKDF and the per-record-derived
   SPECK AEAD exactly as they were before keyed contexts and the
   native-int compression landed. The properties in test_crypto_ref.ml
   check that the library still agrees with it byte for byte. Do not
   optimise this file: its value is that it is obviously the old code. *)

module Ct = Lt_crypto.Ct

module Sha256 = struct
  let digest_size = 32

  let k =
    [| 0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl;
       0x59f111f1l; 0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l;
       0x243185bel; 0x550c7dc3l; 0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l;
       0xc19bf174l; 0xe49b69c1l; 0xefbe4786l; 0x0fc19dc6l; 0x240ca1ccl;
       0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal; 0x983e5152l;
       0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
       0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl;
       0x53380d13l; 0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l;
       0xa2bfe8a1l; 0xa81a664bl; 0xc24b8b70l; 0xc76c51a3l; 0xd192e819l;
       0xd6990624l; 0xf40e3585l; 0x106aa070l; 0x19a4c116l; 0x1e376c08l;
       0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al; 0x5b9cca4fl;
       0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
       0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l |]

  type ctx = {
    h : int32 array;           (* 8 chained state words *)
    buf : Bytes.t;             (* 64-byte block buffer *)
    mutable buf_len : int;     (* bytes currently buffered *)
    mutable total : int64;     (* total message length in bytes *)
    w : int32 array;           (* 64-entry message schedule, reused *)
  }

  let init () =
    { h = [| 0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al;
             0x510e527fl; 0x9b05688cl; 0x1f83d9abl; 0x5be0cd19l |];
      buf = Bytes.create 64;
      buf_len = 0;
      total = 0L;
      w = Array.make 64 0l }

  let rotr x n = Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))

  let compress ctx block off =
    let w = ctx.w in
    for i = 0 to 15 do
      let b j = Int32.of_int (Char.code (Bytes.get block (off + (i * 4) + j))) in
      w.(i) <-
        Int32.logor
          (Int32.shift_left (b 0) 24)
          (Int32.logor
             (Int32.shift_left (b 1) 16)
             (Int32.logor (Int32.shift_left (b 2) 8) (b 3)))
    done;
    for i = 16 to 63 do
      let s0 =
        Int32.logxor
          (Int32.logxor (rotr w.(i - 15) 7) (rotr w.(i - 15) 18))
          (Int32.shift_right_logical w.(i - 15) 3)
      in
      let s1 =
        Int32.logxor
          (Int32.logxor (rotr w.(i - 2) 17) (rotr w.(i - 2) 19))
          (Int32.shift_right_logical w.(i - 2) 10)
      in
      w.(i) <- Int32.add (Int32.add w.(i - 16) s0) (Int32.add w.(i - 7) s1)
    done;
    let h = ctx.h in
    let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
    let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
    for i = 0 to 63 do
      let s1 = Int32.logxor (Int32.logxor (rotr !e 6) (rotr !e 11)) (rotr !e 25) in
      let ch = Int32.logxor (Int32.logand !e !f) (Int32.logand (Int32.lognot !e) !g) in
      let t1 = Int32.add (Int32.add (Int32.add !hh s1) (Int32.add ch k.(i))) w.(i) in
      let s0 = Int32.logxor (Int32.logxor (rotr !a 2) (rotr !a 13)) (rotr !a 22) in
      let maj =
        Int32.logxor
          (Int32.logxor (Int32.logand !a !b) (Int32.logand !a !c))
          (Int32.logand !b !c)
      in
      let t2 = Int32.add s0 maj in
      hh := !g; g := !f; f := !e;
      e := Int32.add !d t1;
      d := !c; c := !b; b := !a;
      a := Int32.add t1 t2
    done;
    h.(0) <- Int32.add h.(0) !a; h.(1) <- Int32.add h.(1) !b;
    h.(2) <- Int32.add h.(2) !c; h.(3) <- Int32.add h.(3) !d;
    h.(4) <- Int32.add h.(4) !e; h.(5) <- Int32.add h.(5) !f;
    h.(6) <- Int32.add h.(6) !g; h.(7) <- Int32.add h.(7) !hh

  let feed ctx s =
    let len = String.length s in
    ctx.total <- Int64.add ctx.total (Int64.of_int len);
    let pos = ref 0 in
    (* top up a partially filled block first *)
    if ctx.buf_len > 0 then begin
      let take = min (64 - ctx.buf_len) len in
      Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
      ctx.buf_len <- ctx.buf_len + take;
      pos := take;
      if ctx.buf_len = 64 then begin
        compress ctx ctx.buf 0;
        ctx.buf_len <- 0
      end
    end;
    while len - !pos >= 64 do
      Bytes.blit_string s !pos ctx.buf 0 64;
      compress ctx ctx.buf 0;
      pos := !pos + 64
    done;
    let rest = len - !pos in
    if rest > 0 then begin
      Bytes.blit_string s !pos ctx.buf ctx.buf_len rest;
      ctx.buf_len <- ctx.buf_len + rest
    end

  let finalize ctx =
    let bit_len = Int64.mul ctx.total 8L in
    let pad_len =
      let r = (ctx.buf_len + 1 + 8) mod 64 in
      if r = 0 then 1 + 8 else 1 + 8 + (64 - r)
    in
    let pad = Bytes.make pad_len '\000' in
    Bytes.set pad 0 '\x80';
    for i = 0 to 7 do
      Bytes.set pad (pad_len - 1 - i)
        (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical bit_len (8 * i)) 0xFFL)))
    done;
    feed ctx (Bytes.unsafe_to_string pad);
    assert (ctx.buf_len = 0);
    let out = Bytes.create 32 in
    for i = 0 to 7 do
      let v = ctx.h.(i) in
      let byte j = Char.chr (Int32.to_int (Int32.logand (Int32.shift_right_logical v (24 - (8 * j))) 0xFFl)) in
      for j = 0 to 3 do Bytes.set out ((i * 4) + j) (byte j) done
    done;
    Bytes.unsafe_to_string out

  let digest s =
    let ctx = init () in
    feed ctx s;
    finalize ctx

  let digest_concat parts =
    let ctx = init () in
    List.iter (feed ctx) parts;
    finalize ctx

  let hex s =
    let b = Buffer.create (String.length s * 2) in
    String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
    Buffer.contents b
end

module Hmac = struct
  let tag_size = 32

  let block_size = 64

  let normalize_key key =
    let key = if String.length key > block_size then Sha256.digest key else key in
    let b = Bytes.make block_size '\000' in
    Bytes.blit_string key 0 b 0 (String.length key);
    Bytes.unsafe_to_string b

  let xor_pad key pad =
    String.init block_size (fun i -> Char.chr (Char.code key.[i] lxor pad))

  let mac ~key msg =
    let key = normalize_key key in
    let inner = Sha256.digest_concat [ xor_pad key 0x36; msg ] in
    Sha256.digest_concat [ xor_pad key 0x5c; inner ]

  let verify ~key ~tag msg = Ct.equal (mac ~key msg) tag
end

module Hkdf = struct
  let extract ~salt ikm = Hmac.mac ~key:salt ikm

  let expand ~prk ~info len =
    if len < 0 || len > 255 * Hmac.tag_size then invalid_arg "Hkdf.expand: bad length";
    let out = Buffer.create len in
    let t = ref "" in
    let i = ref 1 in
    while Buffer.length out < len do
      t := Hmac.mac ~key:prk (!t ^ info ^ String.make 1 (Char.chr !i));
      Buffer.add_string out !t;
      incr i
    done;
    String.sub (Buffer.contents out) 0 len

  let derive ~secret ~salt ~info len = expand ~prk:(extract ~salt secret) ~info len
end

module Speck = struct
  let key_size = 16

  let nonce_size = 8

  let rounds = 27

  let mask32 = 0xFFFFFFFF

  type key = int array (* round keys, 32-bit values *)

  let ror x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

  let rol x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

  let round k (x, y) =
    let x = (ror x 8 + y) land mask32 lxor k in
    let y = rol y 3 lxor x in
    (x, y)

  let unround k (x, y) =
    let y = ror (y lxor x) 3 in
    let x = rol (((x lxor k) - y) land mask32) 8 in
    (x, y)

  let word_of s off =
    (Char.code s.[off] lsl 24) lor (Char.code s.[off + 1] lsl 16)
    lor (Char.code s.[off + 2] lsl 8) lor Char.code s.[off + 3]

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

  let ctr ~key ~nonce msg =
    if String.length nonce <> nonce_size then invalid_arg "Speck.ctr: need 8-byte nonce";
    let n_hi = word_of nonce 0 and n_lo = word_of nonce 4 in
    let len = String.length msg in
    let out = Bytes.create len in
    let block = ref 0 in
    let pos = ref 0 in
    while !pos < len do
      (* counter block = nonce xor block index, split across the halves *)
      let ctr_hi = n_hi lxor (!block lsr 32 land mask32) in
      let ctr_lo = n_lo lxor (!block land mask32) in
      let x, y = encrypt_block key (ctr_hi, ctr_lo) in
      let ks = [| x lsr 24; x lsr 16; x lsr 8; x; y lsr 24; y lsr 16; y lsr 8; y |] in
      let k = min 8 (len - !pos) in
      for j = 0 to k - 1 do
        Bytes.set out (!pos + j)
          (Char.chr (Char.code msg.[!pos + j] lxor (ks.(j) land 0xFF)))
      done;
      pos := !pos + k;
      incr block
    done;
    Bytes.unsafe_to_string out

  module Aead = struct
    type sealed = { nonce : string; ciphertext : string; tag : string }

    let derive_keys master =
      let enc = Hkdf.derive ~secret:master ~salt:"lt-aead" ~info:"enc" key_size in
      let mac = Hkdf.derive ~secret:master ~salt:"lt-aead" ~info:"mac" 32 in
      (key_of_string enc, mac)

    let mac_input ~nonce ~ad ciphertext =
      (* length-prefix the associated data so (ad, ct) splits are unambiguous *)
      Printf.sprintf "%08d" (String.length ad) ^ ad ^ nonce ^ ciphertext

    let encrypt ~key ~nonce ~ad msg =
      let enc_key, mac_key = derive_keys key in
      let ciphertext = ctr ~key:enc_key ~nonce msg in
      let tag = Hmac.mac ~key:mac_key (mac_input ~nonce ~ad ciphertext) in
      { nonce; ciphertext; tag }

    let decrypt ~key ~ad { nonce; ciphertext; tag } =
      if String.length nonce <> nonce_size then None
      else begin
        let enc_key, mac_key = derive_keys key in
        if Hmac.verify ~key:mac_key ~tag (mac_input ~nonce ~ad ciphertext) then
          Some (ctr ~key:enc_key ~nonce ciphertext)
        else None
      end

    let to_wire { nonce; ciphertext; tag } =
      Printf.sprintf "%08d" (String.length ciphertext) ^ nonce ^ tag ^ ciphertext

    let of_wire s =
      if String.length s < 8 + nonce_size + Hmac.tag_size then None
      else
        match int_of_string_opt (String.sub s 0 8) with
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
  end
end
