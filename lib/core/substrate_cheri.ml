open Lt_crypto
module Cheri = Lt_cheri.Cheri

let compartment_bytes = 8192

let measure_code code = Sha256.digest ("cheri-compartment|" ^ code)

let properties =
  { Substrate.substrate_name = "cheri";
    concurrent_components = true;
    mutually_isolated = true;
    defends = [ Substrate.Remote_software; Substrate.Local_software ];
    tcb = [ ("capability-hardware", 4_000); ("compartment-loader", 1_500) ];
    shared_cache_with_host = true;
    progress_guaranteed = true }

let no_anchor ~nonce:_ ~claim:_ = Error "capability machine has no hardware trust anchor"

let make rng ~size () =
  let machine = Cheri.create ~size in
  let root = Cheri.root machine in
  let session_secret = Drbg.bytes rng 32 in
  let next_off = ref 0 in
  let kit = Substrate.Kit.create () in
  (* crash marks the compartment dead; its memory region is simply never
     handed out again. Sealed blobs survive because the seal key is
     derived from the measurement, which a relaunch reproduces. *)
  let launch ~name ~code ~services =
    Substrate.Kit.revive kit name;
    if !next_off + compartment_bytes > Cheri.length root then
      Error "cheri: out of compartment memory"
    else begin
      let region =
        Cheri.derive root ~off:!next_off ~len:compartment_bytes
          ~perms:{ Cheri.load = true; store = true }
      in
      next_off := !next_off + compartment_bytes;
      let measurement = measure_code code in
      (* the component's state physically lives inside its bounds *)
      let store, load =
        Substrate.Kit.store kit ~name ~cap:compartment_bytes
          (Cheri.store machine region ~off:0)
      in
      let facilities =
        Substrate.Kit.facilities ~ad:"cheri-seal" ~salt:""
          (Substrate.Kit.derived_seal ~secret:session_secret ~salt:"cheri-seal"
             ~info:measurement)
          ~store ~load
      in
      Ok
        (Substrate.Kit.component ~name ~measurement ~live:Substrate.Kit.until_crashed
           ~stop:ignore ~attest:no_anchor (Substrate.Kit.run services facilities))
    end
  in
  let t =
    Substrate.Kit.substrate kit ~properties ~span:"ccall" ~launch
      ~measure:(fun ~code -> measure_code code)
  in
  t.Substrate.snap_layers <-
    [ Lt_world.Snapshottable.make ~name:"cheri"
        ~take:(fun () -> Cheri.take_snapshot machine)
        ~digest:(fun () -> Cheri.state_digest machine);
      Substrate.Kit.layer kit ~name:"substrate:cheri"
        ~extra_take:[ (fun () -> Lt_world.Snapshottable.save_ref next_off) ]
        ~extra_digest:(fun d -> Lt_world.Digest64.int d !next_off)
        () ];
  (t, machine, root)
