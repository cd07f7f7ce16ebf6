open Lt_crypto
module Sep = Lt_sep.Sep

let properties =
  { Substrate.substrate_name = "sep";
    concurrent_components = false;
    mutually_isolated = false;
    defends =
      [ Substrate.Remote_software; Substrate.Local_software;
        Substrate.Physical_memory ];
    tcb = [ ("sep-kernel", 8_000); ("sep-hardware", 4_000); ("boot-rom", 1_000) ];
    shared_cache_with_host = false;
    progress_guaranteed = true }

let measure_code code = Sha256.digest ("sep-service|" ^ code)

let make machine rng ~device_id ~private_pages =
  let sep = Sep.attach machine rng ~private_pages in
  let measurements : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let seal_context = Substrate.Kit.seal_contexts () in
  let facilities ~comp ctx =
    let aead () =
      seal_context ~comp ~secret:(Sep.uid_key ctx) (fun _ ->
          Sep.derive ctx ~info:("seal|" ^ comp) 16)
    in
    Ok
      (Substrate.Kit.facilities ~ad:"sep-seal" ~salt:comp aead ~store:(Sep.store ctx)
         ~load:(Sep.load ctx))
  in
  (* crash marks the mailbox service dead; the SEP itself keeps running,
     so secure-world storage and the UID key survive for the relaunch *)
  let kit = Substrate.Kit.create () in
  (* the UID-key MAC is computed inside the SEP via a hidden service *)
  let sign body =
    Sep.register_service sep ~name:"__lt_attest" (fun ctx arg -> Sep.uid_mac ctx arg);
    Sep.mailbox_call sep ~service:"__lt_attest" body
  in
  let launch ~name ~code ~services =
    Substrate.Kit.revive kit name;
    let measurement = measure_code code in
    Hashtbl.replace measurements name measurement;
    (* one mailbox service per component dispatches its entry points so
       they share the component's store namespace *)
    Sep.register_service sep ~name
      (Substrate.Kit.serve_with services (facilities ~comp:name));
    Ok
      (Substrate.Kit.component ~name ~measurement ~live:Substrate.Kit.until_crashed
         ~stop:ignore
         ~attest:
           (Substrate.Kit.evidence ~substrate:"sep" ~measurement
              ~proof:(fun tag -> Attestation.Hmac_tag { device = device_id; tag })
              sign)
         (fun ~fn arg ->
           match Sep.mailbox_call sep ~service:name (Wire.encode [ fn; arg ]) with
           | Error e -> Error (Substrate.Fault e)
           | Ok reply -> Substrate.Kit.reply reply))
  in
  let t =
    Substrate.Kit.substrate kit ~properties ~span:"mailbox" ~launch
      ~measure:(fun ~code -> measure_code code)
  in
  t.Substrate.snap_layers <-
    [ Lt_hw.Machine.layer machine;
      Lt_world.Snapshottable.make ~name:"sep"
        ~take:(fun () -> Sep.take_snapshot sep)
        ~digest:(fun () -> Sep.state_digest sep);
      Substrate.Kit.layer kit ~name:"substrate:sep"
        ~extra_take:
          [ (fun () -> Lt_world.Snapshottable.save_hashtbl measurements) ]
        ~extra_digest:(fun d ->
          Lt_world.Snapshottable.digest_hashtbl
            ~key:(fun k -> k) ~value:(fun v -> v) measurements d)
        () ];
  (t, sep, Sep.provisioning_record sep)
