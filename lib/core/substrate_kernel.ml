open Lt_crypto
open Lt_kernel
open Lt_tpm

let measure_code code = Sha256.digest ("microkernel-task|" ^ code)

let store_pages = 2

let properties ~with_tpm =
  { Substrate.substrate_name =
      (if with_tpm then "microkernel+tpm" else "microkernel");
    concurrent_components = true;
    mutually_isolated = true;
    defends =
      ([ Substrate.Remote_software; Substrate.Local_software ]
       @ if with_tpm then [ Substrate.Physical_code_swap ] else []);
    tcb =
      ([ ("microkernel", 10_000); ("mmu+iommu-hardware", 2_000) ]
       @ if with_tpm then [ ("tpm", 5_000) ] else []);
    shared_cache_with_host = true;
    progress_guaranteed = true }

let make machine policy ?tpm ?(boot_pcr = 10) ?(rng = Drbg.create 0x6b65726eL) () =
  let k = Kernel.create machine policy in
  (* software sealing root when no TPM is present: lost at reboot and
     not bound to hardware -- exactly as weak as the paper implies *)
  let session_secret = Drbg.bytes rng 32 in
  let kit = Substrate.Kit.create () in
  let properties = properties ~with_tpm:(tpm <> None) in
  let attest =
    match tpm with
    | None ->
      fun ~measurement:_ ~nonce:_ ~claim:_ ->
        Error "microkernel substrate has no hardware trust anchor (attach a TPM)"
    | Some tpm ->
      Substrate.Kit.quote ~substrate:"microkernel+tpm" ~cert:(Tpm.ek_cert tpm)
        (fun body -> Tpm.ak_sign tpm ~body)
  in
  let invoke_counter = ref 0 in
  let launch ~name ~code ~services =
    let measurement = measure_code code in
    (match tpm with
     | Some tpm -> Tpm.extend tpm boot_pcr measurement
     | None -> ());
    let task = Kernel.create_task k ~name ~partition:name in
    match Kernel.map_memory k task ~vpage:0 ~pages:store_pages Lt_hw.Mmu.rw with
    | Error Kernel.Out_of_frames ->
      Error (Printf.sprintf "launch %s: out of physical frames" name)
    | Ok () ->
    let endpoint = Kernel.create_endpoint k ~name:(name ^ ".ep") in
    let recv_cap =
      Kernel.grant k task endpoint ~rights:{ send = false; recv = true } ~badge:0
    in
    (* persist the store into the task's own pages: plain DRAM, which is
       what makes the physical-attack experiment interesting *)
    let store, load =
      Substrate.Kit.store kit ~name ~cap:(store_pages * Lt_hw.Mmu.page_size)
        (User.mem_write ~vaddr:0)
    in
    (* with a TPM sealing is bound to the PCRs; without one the seal key
       is derived from the measurement, once, on the first seal *)
    let facilities =
      match tpm with
      | Some tpm ->
        { Substrate.f_seal =
            (fun data -> Tpm.sealed_to_wire (Tpm.seal tpm ~selection:[ boot_pcr ] data));
          f_unseal = (fun wire -> Option.bind (Tpm.sealed_of_wire wire) (Tpm.unseal tpm));
          f_store = store;
          f_load = load }
      | None ->
        Substrate.Kit.facilities ~ad:"mk-seal" ~salt:name
          (Substrate.Kit.derived_seal ~secret:session_secret ~salt:"mk-seal"
             ~info:measurement)
          ~store ~load
    in
    let server () =
      let rec loop () =
        let _badge, m, reply = User.recv ~cap:recv_cap in
        let response = Substrate.Kit.serve services facilities m.Sys.payload in
        (match reply with
         | Some handle -> User.reply handle (Sys.msg response)
         | None -> ());
        loop ()
      in
      loop ()
    in
    let server_tid = Kernel.create_thread k task ~name:(name ^ ".srv") ~prio:5 server in
    Substrate.Kit.revive kit name;
    let hop ~fn arg =
      incr invoke_counter;
      let client_task =
        Kernel.create_task k
          ~name:(Printf.sprintf "client%d" !invoke_counter)
          ~partition:(Kernel.task_partition task)
      in
      let send_cap =
        Kernel.grant k client_task endpoint
          ~rights:{ send = true; recv = false } ~badge:!invoke_counter
      in
      let result = ref (Error (Substrate.Fault "component did not reply")) in
      let _ =
        Kernel.create_thread k client_task ~name:"call" ~prio:5 (fun () ->
            let r = User.call ~cap:send_cap (Sys.msg (Wire.encode [ fn; arg ])) in
            result := Substrate.Kit.reply r.Sys.payload)
      in
      (* seeded chaos point: the kernel kills the server task after the
         client has committed to the send — a death mid-IPC, observed by
         the caller as a reply that never comes *)
      if Fault_point.fires "microkernel/kill-mid-ipc" then begin
        Kernel.kill_thread k server_tid;
        Lt_obs.Trace.event ~kind:"fault" ~name:"kill-mid-ipc"
          ~attrs:(Lt_obs.Trace.attr "component" name)
          ()
      end;
      ignore (Kernel.run k);
      !result
    in
    (* crash = the server thread is killed where it stands; any in-flight
       IPC never gets its reply. The sealing root survives (session
       secret or TPM), so a relaunched instance can unseal its
       predecessor's blobs. *)
    Ok
      (Substrate.Kit.component ~name ~measurement ~attest:(attest ~measurement)
         ~live:(fun () -> Kernel.thread_alive k server_tid)
         ~stop:(fun () -> Kernel.kill_thread k server_tid)
         hop)
  in
  let t =
    Substrate.Kit.substrate kit ~properties ~span:"ipc-rpc" ~launch
      ~measure:(fun ~code -> measure_code code)
  in
  t.Substrate.snap_layers <-
    [ Lt_hw.Machine.layer machine;
      Kernel.layer k;
      Substrate.Kit.layer kit ~name:"substrate:microkernel"
        ~extra_take:
          [ (fun () -> Lt_world.Snapshottable.save_ref invoke_counter) ]
        ~extra_digest:(fun d -> Lt_world.Digest64.int d !invoke_counter)
        () ]
    @ (match tpm with Some tpm -> [ Tpm.layer tpm ] | None -> []);
  (t, k)
