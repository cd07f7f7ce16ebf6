open Lt_crypto
module Noc = Lt_noc.Noc

let properties =
  { Substrate.substrate_name = "m3-noc";
    concurrent_components = true;
    mutually_isolated = true;
    defends =
      [ Substrate.Remote_software; Substrate.Local_software;
        Substrate.Physical_memory ];
    tcb = [ ("m3-kernel-tile", 6_000); ("dtu-hardware", 2_000) ];
    shared_cache_with_host = false;
    progress_guaranteed = true }

let measure_code code = Sha256.digest ("m3-tile-program|" ^ code)

let make rng ~ca_name ~ca_key ~tiles () =
  let chip = Noc.create ~tiles ~scratchpad_size:8192 in
  let kernel_key = Rsa.generate ~bits:512 rng in
  let kernel_cert = Cert.issue ~ca_name ~ca_key ~subject:"m3-kernel" kernel_key.Rsa.pub in
  let quote =
    Substrate.Kit.quote ~substrate:"m3-noc" ~cert:kernel_cert (Rsa.sign kernel_key)
  in
  let session_secret = Drbg.bytes rng 32 in
  let next_tile = ref 1 in
  let kit = Substrate.Kit.create () in
  (* crash marks the tile's program dead; the tile itself is not reused.
     A relaunch gets a fresh tile with an empty scratchpad but the same
     measurement-derived seal key. *)
  let launch ~name ~code ~services =
    Substrate.Kit.revive kit name;
    if !next_tile >= tiles then Error "m3: no free compute tile"
    else begin
      let tile = !next_tile in
      incr next_tile;
      let measurement = measure_code code in
      (* state lives in the tile's on-chip scratchpad *)
      let store, load =
        Substrate.Kit.store kit ~name ~cap:8192 (Noc.spm_write chip ~tile ~off:0)
      in
      let facilities =
        Substrate.Kit.facilities ~ad:"m3-seal" ~salt:""
          (Substrate.Kit.derived_seal ~secret:session_secret ~salt:"m3-seal"
             ~info:measurement)
          ~store ~load
      in
      Noc.install_program chip ~tile ~code (Substrate.Kit.serve services facilities);
      (* the kernel wires the channels: the tile accepts messages and the
         kernel tile gets a send endpoint towards it *)
      Noc.configure chip ~by:Noc.kernel_tile ~tile ~ep:0 Noc.Receive;
      Noc.configure chip ~by:Noc.kernel_tile ~tile:Noc.kernel_tile ~ep:tile
        (Noc.Send { target = tile; credits = 8 });
      (* the kernel tile signs what it loaded and measured *)
      let attest ~nonce ~claim =
        match Noc.measurement chip ~tile with
        | None -> Error "tile has no program"
        | Some measurement -> quote ~measurement ~nonce ~claim
      in
      Ok
        (Substrate.Kit.component ~name ~measurement ~live:Substrate.Kit.until_crashed
           ~stop:ignore ~attest (fun ~fn arg ->
             match
               Noc.send chip ~from_tile:Noc.kernel_tile ~ep:tile (Wire.encode [ fn; arg ])
             with
             | Error e -> Error (Substrate.Fault e)
             | Ok reply -> Substrate.Kit.reply reply))
    end
  in
  let t =
    Substrate.Kit.substrate kit ~properties ~span:"dtu-send" ~launch
      ~measure:(fun ~code -> measure_code code)
  in
  t.Substrate.snap_layers <-
    [ Lt_world.Snapshottable.make ~name:"noc"
        ~take:(fun () -> Noc.take_snapshot chip)
        ~digest:(fun () -> Noc.state_digest chip);
      Substrate.Kit.layer kit ~name:"substrate:m3-noc"
        ~extra_take:[ (fun () -> Lt_world.Snapshottable.save_ref next_tile) ]
        ~extra_digest:(fun d -> Lt_world.Digest64.int d !next_tile)
        () ];
  (t, chip)
