open Lt_crypto
module Trustzone = Lt_trustzone.Trustzone

let properties =
  { Substrate.substrate_name = "trustzone";
    concurrent_components = false;
    mutually_isolated = false;
    defends = [ Substrate.Remote_software; Substrate.Local_software ];
    tcb =
      [ ("boot-rom", 1_000); ("secure-world-os", 15_000); ("trustzone-hw", 3_000) ];
    shared_cache_with_host = true;
    progress_guaranteed = true }

let make machine ~vendor ~image ~device_id ~device_key_name ~secure_pages =
  let tz = Trustzone.install machine ~secure_pages ~vendor_pub:vendor in
  match Trustzone.boot tz ~image with
  | Error e -> Error e
  | Ok world_measurement ->
    let seal_context = Substrate.Kit.seal_contexts () in
    let facilities ~comp ctx =
      match Trustzone.fuse_read ctx ~name:device_key_name with
      | None -> Error (Substrate.Fault "device key not fused")
      | Some device_key ->
        let aead () =
          seal_context ~comp ~secret:device_key (fun k ->
              Hkdf.derive ~secret:k ~salt:"tz-seal" ~info:comp 16)
        in
        Ok
          (Substrate.Kit.facilities ~ad:"tz-seal" ~salt:comp aead
             ~store:(Trustzone.store ctx) ~load:(Trustzone.load ctx))
    in
    (* crash marks the secure service dead; the secure world itself keeps
       running, so fused keys and secure storage survive for the relaunch *)
    let kit = Substrate.Kit.create () in
    (* the tag is computed inside the secure world via a hidden service *)
    let sign body =
      Trustzone.register_service tz ~name:"__lt_attest" (fun ctx arg ->
          match Trustzone.fuse_read ctx ~name:device_key_name with
          | Some key -> Hmac.mac ~key arg
          | None -> "");
      match Trustzone.smc tz ~service:"__lt_attest" body with
      | Ok "" -> Error "device key not fused"
      | r -> r
    in
    let attest =
      Substrate.Kit.evidence ~substrate:"trustzone" ~measurement:world_measurement
        ~proof:(fun tag -> Attestation.Hmac_tag { device = device_id; tag })
        sign
    in
    let launch ~name ~code ~services =
      ignore code;
      Substrate.Kit.revive kit name;
      (* TrustZone measures the world, not the component: code identity
         is the booted secure-world image for every service. One secure
         service per component dispatches its entry points, so all entry
         points share the component's store namespace. *)
      Trustzone.register_service tz ~name
        (Substrate.Kit.serve_with services (facilities ~comp:name));
      Ok
        (Substrate.Kit.component ~name ~measurement:world_measurement
           ~live:Substrate.Kit.until_crashed ~stop:ignore ~attest
           (fun ~fn arg ->
             match Trustzone.smc tz ~service:name (Wire.encode [ fn; arg ]) with
             | Error e -> Error (Substrate.Fault e)
             | Ok reply -> Substrate.Kit.reply reply))
    in
    let t =
      Substrate.Kit.substrate kit ~properties ~span:"smc" ~launch
        ~measure:(fun ~code -> ignore code; world_measurement)
    in
    t.Substrate.snap_layers <-
      [ Lt_hw.Machine.layer machine;
        Lt_world.Snapshottable.make ~name:"trustzone"
          ~take:(fun () -> Trustzone.take_snapshot tz)
          ~digest:(fun () -> Trustzone.state_digest tz);
        Substrate.Kit.layer kit ~name:"substrate:trustzone" () ];
    Ok (t, tz)
