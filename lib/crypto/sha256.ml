let digest_size = 32

(* Every word lives in a native int masked to 32 bits: Int32 values box
   on each operation unless the compiler can see through them, and this
   compiler cannot. An int is 63 bits wide, so a sum of five words or a
   word shifted left by up to 31 bits still fits before the mask. *)
let mask = 0xFFFFFFFF

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b;
     0x59f111f1; 0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01;
     0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7;
     0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
     0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152;
     0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
     0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
     0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819;
     0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116; 0x1e376c08;
     0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f;
     0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type ctx = {
  h : int array;             (* 8 chained state words *)
  buf : Bytes.t;             (* 64-byte block buffer *)
  mutable buf_len : int;     (* bytes currently buffered *)
  mutable total : int;       (* total message length in bytes *)
  w : int array;             (* 64-entry message schedule, reused *)
}

let init () =
  { h = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
           0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    w = Array.make 64 0 }

let copy ctx =
  { h = Array.copy ctx.h;
    buf = Bytes.copy ctx.buf;
    buf_len = ctx.buf_len;
    total = ctx.total;
    w = Array.make 64 0 }

(* [dup x] is the 32-bit word [x] written twice, side by side, in one
   int (the topmost bit falls off the 63-bit int, and no rotation below
   reads it). Bits [n .. n+31] of it are then [x] rotated right by [n],
   so a rotation is one shift, and the three rotations of a sigma share
   one [dup] and one final mask. *)
let[@inline] dup x = x lor (x lsl 32)

(* one 64-byte block of [block] at [off]; the unsafe accesses index the
   64-entry schedule and constant table with loop bounds of 0..63 *)
let compress ctx block off =
  let w = ctx.w in
  for i = 0 to 15 do
    Array.unsafe_set w i
      (Int32.to_int (Bytes.get_int32_be block (off + (i * 4))) land mask)
  done;
  for i = 16 to 63 do
    let w15 = Array.unsafe_get w (i - 15) and w2 = Array.unsafe_get w (i - 2) in
    let d15 = dup w15 and d2 = dup w2 in
    let s0 = (d15 lsr 7) lxor (d15 lsr 18) lxor (w15 lsr 3) in
    let s1 = (d2 lsr 17) lxor (d2 lsr 19) lxor (w2 lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1) land mask)
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let e' = !e and a' = !a in
    let de = dup e' and da = dup a' in
    let s1 = ((de lsr 6) lxor (de lsr 11) lxor (de lsr 25)) land mask in
    let ch = !g lxor (e' land (!f lxor !g)) in
    let t1 = !hh + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i in
    let s0 = ((da lsr 2) lxor (da lsr 13) lxor (da lsr 22)) land mask in
    let maj = (a' land !b) lor (!c land (a' lor !b)) in
    hh := !g; g := !f; f := e';
    e := (!d + t1) land mask;
    d := !c; c := !b; b := a';
    a := (t1 + s0 + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask; h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask; h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask; h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask; h.(7) <- (h.(7) + !hh) land mask

let feed ctx s =
  let len = String.length s in
  ctx.total <- ctx.total + len;
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
  (* whole blocks straight from the string: compress only reads them *)
  let src = Bytes.unsafe_of_string s in
  while len - !pos >= 64 do
    compress ctx src !pos;
    pos := !pos + 64
  done;
  let rest = len - !pos in
  if rest > 0 then begin
    Bytes.blit_string s !pos ctx.buf ctx.buf_len rest;
    ctx.buf_len <- ctx.buf_len + rest
  end

(* Padding is written in place: 0x80, zeros, then the 64-bit bit length
   in the last 8 bytes of a block. [feed] never leaves a full buffer
   behind, so [buf_len] < 64 on entry and the padded message always ends
   on a block boundary; there is no state left to check afterwards. *)
let finalize ctx =
  let buf = ctx.buf in
  Bytes.set buf ctx.buf_len '\x80';
  if ctx.buf_len >= 56 then begin
    Bytes.fill buf (ctx.buf_len + 1) (63 - ctx.buf_len) '\000';
    compress ctx buf 0;
    Bytes.fill buf 0 56 '\000'
  end
  else Bytes.fill buf (ctx.buf_len + 1) (55 - ctx.buf_len) '\000';
  Bytes.set_int64_be buf 56 (Int64.mul (Int64.of_int ctx.total) 8L);
  compress ctx buf 0;
  ctx.buf_len <- 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (i * 4) (Int32.of_int ctx.h.(i))
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
  let digits = "0123456789abcdef" in
  String.init (String.length s * 2) (fun i ->
      let c = Char.code s.[i / 2] in
      digits.[if i land 1 = 0 then c lsr 4 else c land 15])
