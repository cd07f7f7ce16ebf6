let tag_size = 32

let block_size = 64

(* the key, hashed down if longer than a block, zero-padded to a block
   and xored with [pad] *)
let key_pad key pad =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let b = Bytes.make block_size (Char.chr pad) in
  String.iteri (fun i c -> Bytes.set b i (Char.chr (Char.code c lxor pad))) key;
  Bytes.unsafe_to_string b

(* one-shot: four fresh contexts' worth of work and no copies, which is
   cheaper than preparing a key that is used once *)
let mac ~key msg =
  let inner = Sha256.digest_concat [ key_pad key 0x36; msg ] in
  Sha256.digest_concat [ key_pad key 0x5c; inner ]

let verify ~key ~tag msg = Ct.equal (mac ~key msg) tag

(* both pads absorbed once; each message then starts from copies of
   these midstates and skips two of its compressions *)
type prepared = { inner : Sha256.ctx; outer : Sha256.ctx }

let prepare key =
  let absorbed pad =
    let ctx = Sha256.init () in
    Sha256.feed ctx (key_pad key pad);
    ctx
  in
  { inner = absorbed 0x36; outer = absorbed 0x5c }

let mac_with k parts =
  let ctx = Sha256.copy k.inner in
  List.iter (Sha256.feed ctx) parts;
  let inner = Sha256.finalize ctx in
  let ctx = Sha256.copy k.outer in
  Sha256.feed ctx inner;
  Sha256.finalize ctx
