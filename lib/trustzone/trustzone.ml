open Lt_crypto
open Lt_hw

let world_switch_cost = 30

type t = {
  machine : Machine.t;
  vendor_pub : Rsa.public;
  sec_base : int;
  sec_size : int;
  services : (string, handler) Hashtbl.t;
  (* mirror of the serialized secure store; the bytes of record live in
     the protected DRAM range *)
  kv : (string * string, string) Hashtbl.t;
  mutable image_hash : string option;
  mutable smcs : int;
}

and ctx = { tz : t; svc : string }

and handler = ctx -> string -> string

let rom_stub = "tz-boot-rom: verify secure world image signature, then jump"

let install machine ~secure_pages ~vendor_pub =
  let page = Mmu.page_size in
  (* the protection controller guards one contiguous range *)
  (match Frame_alloc.alloc_contiguous machine.Machine.dram_frames secure_pages with
   | Error Frame_alloc.Too_few ->
     invalid_arg "Trustzone.install: not enough DRAM for secure world"
   | Error Frame_alloc.Fragmented ->
     invalid_arg "Trustzone.install: non-contiguous frames"
   | Ok first ->
     let base = first * page in
     let size = secure_pages * page in
     Bus.mark_secure machine.Machine.bus ~base ~size;
     Machine.load_rom machine ~off:0 rom_stub;
     { machine;
       vendor_pub;
       sec_base = base;
       sec_size = size;
       services = Hashtbl.create 8;
       kv = Hashtbl.create 16;
       image_hash = None;
       smcs = 0 })

let boot t ~image =
  let open Lt_tpm in
  match Boot.run_chain (Boot.Secure_boot { vendor_pub = t.vendor_pub }) [ image ] with
  | { refused = Some (_, reason); _ } ->
    Error (Printf.sprintf "secure world refused: %s" reason)
  | { refused = None; _ } ->
    let m = Boot.measure image in
    t.image_hash <- Some m;
    Ok m

let booted t = t.image_hash <> None

let measurement t = t.image_hash

let register_service t ~name handler =
  if not (booted t) then invalid_arg "Trustzone.register_service: world not booted";
  Hashtbl.replace t.services name handler

(* serialize the whole key-value store into the protected range so the
   secrets physically exist in DRAM (visible to a physical attacker,
   invisible to normal-world software) *)
let flush_store t =
  let buf = Buffer.create 256 in
  Hashtbl.iter
    (fun (svc, key) v ->
      Buffer.add_string buf
        (Printf.sprintf "%03d%s%03d%s%06d%s" (String.length svc) svc
           (String.length key) key (String.length v) v))
    t.kv;
  let data = Buffer.contents buf in
  let data =
    if String.length data > t.sec_size then
      invalid_arg "Trustzone: secure store overflow"
    else data
  in
  match
    Bus.write t.machine.Machine.bus ~requester:(Bus.Cpu { secure = true })
      ~addr:t.sec_base data
  with
  | Ok () -> ()
  | Error _ -> assert false (* the secure world can always reach its range *)

let store_ctx t svc key data =
  Hashtbl.replace t.kv (svc, key) data;
  flush_store t

let load_ctx t svc key = Hashtbl.find_opt t.kv (svc, key)

let smc t ~service request =
  if not (booted t) then Error "secure world not booted"
  else
    match Hashtbl.find_opt t.services service with
    | None -> Error (Printf.sprintf "unknown secure service %S" service)
    | Some handler ->
      t.smcs <- t.smcs + 1;
      Clock.advance t.machine.Machine.clock world_switch_cost;
      let response = handler { tz = t; svc = service } request in
      Clock.advance t.machine.Machine.clock world_switch_cost;
      Ok response

let smc_count t = t.smcs

let fuse_read ctx ~name = Fuse.read ctx.tz.machine.Machine.fuses ~name ~secure:true

let store ctx ~key data = store_ctx ctx.tz ctx.svc key data

let load ctx ~key = load_ctx ctx.tz ctx.svc key

let attestation_body ~measurement ~nonce ~claim =
  Printf.sprintf "tz-attest|%s|%s|%s" (Sha256.hex measurement) nonce claim

let attest ctx ~device_key_name ~nonce ~claim =
  match fuse_read ctx ~name:device_key_name with
  | None -> Error (Printf.sprintf "no fused key %S" device_key_name)
  | Some key ->
    (match ctx.tz.image_hash with
     | None -> Error "no measurement"
     | Some m -> Ok (Hmac.mac ~key (attestation_body ~measurement:m ~nonce ~claim)))

let verify_attestation ~device_key ~expected_measurement ~nonce ~claim tag =
  Hmac.verify ~key:device_key ~tag
    (attestation_body ~measurement:expected_measurement ~nonce ~claim)

let normal_world_read t ~addr ~len =
  Bus.read t.machine.Machine.bus ~requester:(Bus.Cpu { secure = false }) ~addr ~len

let secure_range t = (t.sec_base, t.sec_size)

let breach_service t ~name =
  ignore name;
  (* inside the secure world there is no wall between services *)
  Hashtbl.fold (fun (svc, key) v acc -> (svc, key, v) :: acc) t.kv []
  |> List.sort Stdlib.compare

(* --- Snapshottable ---------------------------------------------------- *)

let take_snapshot t =
  let services = Lt_world.Snapshottable.save_hashtbl t.services in
  let kv = Lt_world.Snapshottable.save_hashtbl t.kv in
  let image_hash = t.image_hash in
  let smcs = t.smcs in
  fun () ->
    services ();
    kv ();
    t.image_hash <- image_hash;
    t.smcs <- smcs

let state_digest t =
  let open Lt_world in
  Digest64.int Digest64.basis t.smcs
  |> Fun.flip (Digest64.option Digest64.string) t.image_hash
  |> Snapshottable.digest_hashtbl ~key:(fun (s, k) -> s ^ "\x00" ^ k) ~value:Fun.id
       t.kv
  |> Snapshottable.digest_hashtbl ~key:Fun.id ~value:(fun _ -> "") t.services
