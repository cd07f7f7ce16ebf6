open Lt_crypto
open Lt_hw

let mailbox_cost = 40

type t = {
  machine : Machine.t;
  base : int;
  size : int;
  uid : string;
  uid_mac : Hmac.prepared;  (* [uid]'s HMAC pads, absorbed once *)
  services : (string, handler) Hashtbl.t;
  kv : (string * string, string) Hashtbl.t;
  mutable calls : int;
}

and ctx = { sep : t; svc : string }

and handler = ctx -> string -> string

let attach machine rng ~private_pages =
  let page = Mmu.page_size in
  match Frame_alloc.alloc_n machine.Machine.dram_frames private_pages with
  | None -> invalid_arg "Sep.attach: not enough DRAM"
  | Some frames ->
    let sorted = List.sort Stdlib.compare frames in
    let contiguous =
      List.for_all2 (fun p i -> p = List.hd sorted + i) sorted
        (List.init private_pages (fun i -> i))
    in
    if not contiguous then invalid_arg "Sep.attach: non-contiguous frames";
    let base = List.hd sorted * page in
    let size = private_pages * page in
    let uid = Drbg.bytes rng 32 in
    Fuse.program machine.Machine.fuses ~name:"sep-uid" ~visibility:Fuse.Secure_only uid;
    (* inline encryption between SEP and its DRAM slice *)
    Phys_mem.install_mee machine.Machine.mem ~base ~size
      ~key:(Hkdf.derive ~secret:uid ~salt:"sep-inline" ~info:"dram" 32);
    (* the slice is also invisible to the application CPU's software *)
    Bus.mark_secure machine.Machine.bus ~base ~size;
    { machine;
      base;
      size;
      uid;
      uid_mac = Hmac.prepare uid;
      services = Hashtbl.create 8;
      kv = Hashtbl.create 16;
      calls = 0 }

let register_service t ~name handler = Hashtbl.replace t.services name handler

let flush_store t =
  let buf = Buffer.create 256 in
  Hashtbl.iter
    (fun (svc, key) v ->
      Buffer.add_string buf
        (Printf.sprintf "%03d%s%03d%s%06d%s" (String.length svc) svc
           (String.length key) key (String.length v) v))
    t.kv;
  let data = Buffer.contents buf in
  if String.length data > t.size then invalid_arg "Sep: private store overflow";
  (* SEP-side write: lands in DRAM through the inline encryption engine *)
  Phys_mem.cpu_write t.machine.Machine.mem ~addr:t.base data

let mailbox_call t ~service req =
  match Hashtbl.find_opt t.services service with
  | None -> Error (Printf.sprintf "sep: unknown service %S" service)
  | Some handler ->
    t.calls <- t.calls + 1;
    Clock.advance t.machine.Machine.clock mailbox_cost;
    let result =
      try Ok (handler { sep = t; svc = service } req)
      with exn -> Error (Printexc.to_string exn)
    in
    Clock.advance t.machine.Machine.clock mailbox_cost;
    result

let mailbox_count t = t.calls

let private_range t = (t.base, t.size)

let provisioning_record t = t.uid

let uid_key ctx = ctx.sep.uid

let uid_mac ctx msg = Hmac.mac_with ctx.sep.uid_mac [ msg ]

let store ctx ~key data =
  Hashtbl.replace ctx.sep.kv (ctx.svc, key) data;
  flush_store ctx.sep

let load ctx ~key = Hashtbl.find_opt ctx.sep.kv (ctx.svc, key)

let derive ctx ~info len = Hkdf.derive ~secret:ctx.sep.uid ~salt:"sep-derive" ~info len

(* --- Snapshottable ---------------------------------------------------- *)

let take_snapshot t =
  let services = Lt_world.Snapshottable.save_hashtbl t.services in
  let kv = Lt_world.Snapshottable.save_hashtbl t.kv in
  let calls = t.calls in
  fun () ->
    services ();
    kv ();
    t.calls <- calls

let state_digest t =
  let open Lt_world in
  Digest64.string Digest64.basis t.uid
  |> Snapshottable.digest_hashtbl ~key:(fun (s, k) -> s ^ "\x00" ^ k) ~value:Fun.id
       t.kv
  |> Snapshottable.digest_hashtbl ~key:Fun.id ~value:(fun _ -> "") t.services
  |> Fun.flip Digest64.int t.calls
