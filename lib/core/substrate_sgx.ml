module Sgx = Lt_sgx.Sgx

let properties =
  { Substrate.substrate_name = "sgx";
    concurrent_components = true;
    mutually_isolated = true;
    defends =
      [ Substrate.Remote_software; Substrate.Local_software;
        Substrate.Physical_memory ];
    tcb = [ ("sgx-microcode", 20_000); ("cpu-hardware", 5_000) ];
    shared_cache_with_host = true;
    progress_guaranteed = false }

let make machine rng ~ca_name ~ca_key ?(epc_pages = 2) () =
  let cpu = Sgx.init_cpu machine rng ~ca_name ~ca_key in
  let kit = Substrate.Kit.create () in
  (* per-component facilities persist across invocations so f_store
     state survives between ecalls *)
  let facilities_cache : (string, Substrate.facilities) Hashtbl.t =
    Hashtbl.create 8
  in
  let facilities_of name ctx =
    match Hashtbl.find_opt facilities_cache name with
    | Some fac -> fac
    | None ->
      (* key-value store mirrored into EPC so the bytes physically live
         in encrypted DRAM *)
      let f_store, f_load =
        Substrate.Kit.store kit ~name ~cap:(epc_pages * 4096) (Sgx.mem_write ctx ~off:0)
      in
      let fac =
        { Substrate.f_seal = Sgx.seal ctx; f_unseal = Sgx.unseal ctx; f_store; f_load }
      in
      Hashtbl.replace facilities_cache name fac;
      fac
  in
  (* Sgx.ecall would stringify a service's exception; each ecall catches
     its own instead and leaves the typed error here for the hop *)
  let failed = ref None in
  let quote =
    Substrate.Kit.quote ~substrate:"sgx" ~cert:(Sgx.quoting_cert cpu) (fun body ->
        Sgx.qe_sign cpu ~body)
  in
  let launch ~name ~code ~services =
    let ecalls =
      List.map
        (fun (fn, service) ->
          ( fn,
            fun ctx arg ->
              match service (facilities_of name ctx) arg with
              | out -> out
              | exception e ->
                failed := Some (Substrate.Kit.classify e);
                "" ))
        services
    in
    match Sgx.create_enclave cpu ~name ~code ~epc_pages ~ecalls with
    | exception Invalid_argument m -> Error m
    | e ->
      Substrate.Kit.revive kit name;
      let measurement = Sgx.measurement e in
      (* crash = the enclave is torn down where it stands: EPC zeroed
         and freed, volatile store gone. Sealed blobs survive because
         the seal key is derived from the measurement, which a relaunch
         reproduces. *)
      let stop () =
        Hashtbl.remove facilities_cache name;
        Substrate.Kit.forget kit name;
        Sgx.destroy cpu e
      in
      Ok
        (Substrate.Kit.component ~name ~measurement ~live:Substrate.Kit.until_crashed
           ~stop ~attest:(quote ~measurement)
           (fun ~fn arg ->
             (* the untrusted host pulls the enclave out from under the
                in-flight ecall (SGX guarantees no progress, §II-C) *)
             if Fault_point.fires "sgx/kill-mid-ecall" then Error Substrate.Crashed
             else
               match Sgx.ecall cpu e ~fn arg with
               | Error m -> Error (Substrate.Fault m)
               | Ok out ->
                 (match !failed with
                  | None -> Ok out
                  | Some err ->
                    failed := None;
                    Error err)))
  in
  let t =
    Substrate.Kit.substrate kit ~properties ~span:"ecall" ~launch
      ~measure:(fun ~code -> Sgx.measure_code code)
  in
  t.Substrate.snap_layers <-
    [ Lt_hw.Machine.layer machine;
      Lt_world.Snapshottable.make ~name:"sgx"
        ~take:(fun () -> Sgx.take_snapshot cpu)
        ~digest:(fun () -> Sgx.state_digest cpu);
      Substrate.Kit.layer kit ~name:"substrate:sgx"
        ~extra_take:
          [ (fun () -> Lt_world.Snapshottable.save_hashtbl facilities_cache) ]
        ~extra_digest:(fun d ->
          (* facilities are closures; their keys pin the cache shape *)
          Lt_world.Snapshottable.digest_hashtbl
            ~key:(fun k -> k)
            ~value:(fun _ -> "")
            facilities_cache d)
        () ];
  (t, cpu)
