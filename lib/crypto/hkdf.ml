let extract ~salt ikm = Hmac.mac ~key:salt ikm

(* Precondition, not adversary input: every caller in the tree passes a
   literal length of 16 or 32 bytes, and [Speck.Aead.of_key] passes
   [Speck.key_size] and [Hmac.tag_size], so the check cannot fire through
   the keyed contexts. *)
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
