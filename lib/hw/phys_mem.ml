open Lt_crypto
module Cow = Lt_world.Cow

type region = {
  name : string;
  base : int;
  size : int;
  on_chip : bool;
  writable : bool;
}

exception Bad_address of int

exception Rom_write of int

exception Integrity_violation of int

let block_size = 64

type mee = {
  mee_base : int;
  mee_size : int;
  enc_key : string;
  mac_key : Hmac.prepared;
      (* the block-MAC key's pads, absorbed once at install: a pure
         function of the engine key, like [ks_memo] below *)
  macs : (int, string) Hashtbl.t; (* block index -> tag, held on-chip *)
  ks_memo : (int, string) Hashtbl.t;
      (* per-block keystream is a pure function of the fixed engine key,
         recomputed on every load and store otherwise; a cache, invisible
         to snapshots *)
}

type t = {
  data : Cow.t;
  region_list : region list;
  mutable mees : mee list;
}

let create region_list =
  let sorted = List.sort (fun a b -> Stdlib.compare a.base b.base) region_list in
  let rec check = function
    | a :: (b :: _ as rest) ->
      if a.base + a.size > b.base then
        invalid_arg
          (Printf.sprintf "Phys_mem.create: regions %s and %s overlap" a.name b.name);
      check rest
    | _ -> ()
  in
  check sorted;
  List.iter
    (fun r -> if r.base < 0 || r.size <= 0 then invalid_arg "Phys_mem.create: bad region")
    sorted;
  let top =
    List.fold_left (fun acc r -> max acc (r.base + r.size)) 0 sorted
  in
  { data = Cow.create ~len:top; region_list = sorted; mees = [] }

let regions t = t.region_list

let region_of t addr =
  List.find_opt (fun r -> addr >= r.base && addr < r.base + r.size) t.region_list

let check_range t addr len =
  if len < 0 then raise (Bad_address addr);
  (* every byte of the range must belong to some region *)
  let rec covered a remaining =
    remaining = 0
    ||
    match region_of t a with
    | None -> false
    | Some r ->
      let in_region = min remaining (r.base + r.size - a) in
      covered (a + in_region) (remaining - in_region)
  in
  if not (covered addr len) then raise (Bad_address addr)

let find_mee t addr =
  List.find_opt (fun m -> addr >= m.mee_base && addr < m.mee_base + m.mee_size) t.mees

(* keystream for one block: SHA-256(key || index) twice gives 64 bytes *)
let keystream m block_index =
  match Hashtbl.find_opt m.ks_memo block_index with
  | Some ks -> ks
  | None ->
    let label i = Printf.sprintf "%s|%d|%d" m.enc_key block_index i in
    let ks = Sha256.digest (label 0) ^ Sha256.digest (label 1) in
    Hashtbl.replace m.ks_memo block_index ks;
    ks

let block_mac m block_index ciphertext =
  Hmac.mac_with m.mac_key [ Printf.sprintf "%d|" block_index; ciphertext ]

let raw_block t m block_index =
  let addr = m.mee_base + (block_index * block_size) in
  Cow.sub_string t.data ~pos:addr ~len:block_size

(* decrypt-and-verify one covered block *)
let load_block t m block_index =
  let ct = raw_block t m block_index in
  (match Hashtbl.find_opt m.macs block_index with
   | Some tag when Ct.equal tag (block_mac m block_index ct) -> ()
   | Some _ -> raise (Integrity_violation (m.mee_base + (block_index * block_size)))
   | None -> raise (Integrity_violation (m.mee_base + (block_index * block_size))));
  let ks = keystream m block_index in
  String.init block_size (fun i -> Char.chr (Char.code ct.[i] lxor Char.code ks.[i]))

let store_block t m block_index plaintext =
  let ks = keystream m block_index in
  let ct =
    String.init block_size (fun i -> Char.chr (Char.code plaintext.[i] lxor Char.code ks.[i]))
  in
  let addr = m.mee_base + (block_index * block_size) in
  Cow.blit_string ct t.data ~pos:addr;
  Hashtbl.replace m.macs block_index (block_mac m block_index ct)

let install_mee t ~base ~size ~key =
  if base mod block_size <> 0 || size mod block_size <> 0 || size <= 0 then
    invalid_arg "Phys_mem.install_mee: range must be 64-byte aligned";
  (match region_of t base with
   | Some r when not r.on_chip && base + size <= r.base + r.size -> ()
   | _ -> invalid_arg "Phys_mem.install_mee: range must lie in one off-chip region");
  if List.exists
       (fun m -> base < m.mee_base + m.mee_size && m.mee_base < base + size)
       t.mees
  then invalid_arg "Phys_mem.install_mee: overlapping engine";
  let m =
    { mee_base = base;
      mee_size = size;
      enc_key = Hkdf.derive ~secret:key ~salt:"mee" ~info:"enc" 32;
      mac_key = Hmac.prepare (Hkdf.derive ~secret:key ~salt:"mee" ~info:"mac" 32);
      macs = Hashtbl.create 64;
      ks_memo = Hashtbl.create 64 }
  in
  t.mees <- m :: t.mees;
  (* encrypt current contents in place *)
  for b = 0 to (size / block_size) - 1 do
    let plaintext = Cow.sub_string t.data ~pos:(base + (b * block_size)) ~len:block_size in
    store_block t m b plaintext
  done

let remove_mee t ~base =
  t.mees <- List.filter (fun m -> m.mee_base <> base) t.mees

(* iterate a range in chunks that never cross a block boundary *)
let iter_chunks addr len f =
  let pos = ref addr in
  let stop = addr + len in
  while !pos < stop do
    let block_end = ((!pos / block_size) + 1) * block_size in
    let chunk = min (stop - !pos) (block_end - !pos) in
    f !pos chunk;
    pos := !pos + chunk
  done

let cpu_read t ~addr ~len =
  check_range t addr len;
  let out = Buffer.create len in
  iter_chunks addr len (fun a n ->
      match find_mee t a with
      | None -> Buffer.add_string out (Cow.sub_string t.data ~pos:a ~len:n)
      | Some m ->
        let block_index = (a - m.mee_base) / block_size in
        let plain = load_block t m block_index in
        let off = (a - m.mee_base) mod block_size in
        Buffer.add_string out (String.sub plain off n));
  Buffer.contents out

let cpu_write t ~addr s =
  let len = String.length s in
  check_range t addr len;
  (* refuse writes that touch a non-writable (ROM) region *)
  iter_chunks addr len (fun a _ ->
      match region_of t a with
      | Some r when not r.writable -> raise (Rom_write a)
      | _ -> ());
  let src = ref 0 in
  iter_chunks addr len (fun a n ->
      (match find_mee t a with
       | None -> Cow.blit_string (String.sub s !src n) t.data ~pos:a
       | Some m ->
         let block_index = (a - m.mee_base) / block_size in
         let plain = Bytes.of_string (load_block t m block_index) in
         let off = (a - m.mee_base) mod block_size in
         Bytes.blit_string s !src plain off n;
         store_block t m block_index (Bytes.unsafe_to_string plain));
      src := !src + n)

let phys_read t ~addr ~len =
  check_range t addr len;
  iter_chunks addr len (fun a _ ->
      match region_of t a with
      | Some r when r.on_chip -> raise (Bad_address a)
      | _ -> ());
  Cow.sub_string t.data ~pos:addr ~len

let phys_write t ~addr s =
  let len = String.length s in
  check_range t addr len;
  iter_chunks addr len (fun a _ ->
      match region_of t a with
      | Some r when r.on_chip -> raise (Bad_address a)
      | _ -> ());
  Cow.blit_string s t.data ~pos:addr

let zero t ~addr ~len = cpu_write t ~addr (String.make len '\000')

let manufacture_write t ~addr s =
  check_range t addr (String.length s);
  Cow.blit_string s t.data ~pos:addr

(* --- Snapshottable ---------------------------------------------------- *)

(* the byte store is copy-on-write: capture is O(chunks) pointer copies,
   plus the (small, on-chip) MAC tables of any installed engines *)
let take_snapshot t =
  let data = Cow.snapshot t.data in
  let mees = t.mees in
  let macs = List.map (fun m -> Lt_world.Snapshottable.save_hashtbl m.macs) mees in
  fun () ->
    Cow.restore t.data data;
    t.mees <- mees;
    List.iter (fun restore -> restore ()) macs

let state_digest t =
  let open Lt_world in
  let d = Cow.digest t.data in
  List.fold_left
    (fun d m ->
      Snapshottable.digest_hashtbl ~key:string_of_int ~value:Fun.id m.macs
        (Digest64.int (Digest64.int d m.mee_base) m.mee_size))
    d
    (List.sort (fun a b -> Stdlib.compare a.mee_base b.mee_base) t.mees)
