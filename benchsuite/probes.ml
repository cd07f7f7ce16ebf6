(* Single-layer probes: the cost of one crossing or one operation of a
   layer, measured on its own, the way Tyche reports its monitor's
   per-transition cost. Every traced run measures all of them, so each
   per-layer metric exists for every workload; the workload's own
   breakdown comes from its spans (the *.self_share metrics).

   Each probe is the median over batches of the CPU time per call. Lt_obs
   tracers are installed only where the traced cost is wanted:
   Deploy.call_fast silently takes the slow path under a tracer. *)

open Lateral
module Load = Lt_load.Load
module World = Lt_world.World
module Drbg = Lt_crypto.Drbg
module Rsa = Lt_crypto.Rsa
module Trace = Lt_obs.Trace
module Metrics = Lt_obs.Metrics
module Net = Lt_net.Net
module Gateway = Lt_net.Gateway
module Sc = Lt_net.Secure_channel
module Sgx = Lt_sgx.Sgx
module Kernel = Lt_kernel.Kernel
module Fuzz = Lt_fuzz.Substrate_fuzz
module H = Harness

let ok what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ e)

(* CPU seconds per call of [f], median over batches. [f i time] runs
   iteration [i]; only what it passes to [time] is clocked. [reset] runs
   untimed before each batch: the simulated kernel keeps state per call,
   so a long series would otherwise measure its own history. *)
let per_call_partial (ctx : H.ctx) ?(batches = 5) ?(reset = ignore) ~iters f =
  let iters = H.size ctx iters and batches = if ctx.smoke then 1 else batches in
  H.median
    (Array.init batches (fun b ->
         reset ();
         let acc = ref 0.0 in
         let time g =
           let t0 = H.cpu () in
           let x = g () in
           acc := !acc +. (H.cpu () -. t0);
           x
         in
         for i = 1 to iters do
           f ((b * iters) + i) time
         done;
         !acc /. float_of_int iters))

let per_call ctx ?batches ?reset ~iters f =
  per_call_partial ctx ?batches ?reset ~iters (fun i time -> time (fun () -> f i))

let tracing f =
  Metrics.with_metrics (Metrics.create ()) (fun () ->
      Trace.with_tracer (Trace.create ()) f)

let us s = s *. 1e6

(* --- the booted mail world: World, Deploy, Trace ------------------------ *)

(* one-hop leaf routes of the mail world, one per substrate *)
let leaf_routes =
  [ ("microkernel", "storage", "legacyfs", "io");
    ("sgx", "ui", "renderer", "render");
    ("sep", "tls", "keystore", "sign") ]

let mail ctx problems =
  let dep = ok "mail boot" (Load.deploy_scenario (Drbg.create (Int64.of_int ctx.H.seed)) Load.Mail) in
  let w = dep.Load.d_world and d = dep.Load.d_deploy in
  let rng = Drbg.create (Int64.of_int (ctx.H.seed + 1)) in
  let request i =
    let target, service, payload = dep.Load.d_mix rng i in
    ignore (Deploy.call d ~caller:None ~target ~service payload)
  in
  request 0;
  let pristine = World.fork w in
  let fork = per_call ctx ~iters:40 (fun _ -> ignore (Sys.opaque_identity (World.fork w))) in
  let restore =
    per_call_partial ctx ~iters:20 (fun i time ->
        request i;
        time (fun () -> World.restore w pristine))
  in
  let k = H.size ctx 50 in
  let snaps =
    Array.init k (fun i ->
        World.restore w pristine;
        request i;
        World.fork w)
  in
  let heap_words =
    float_of_int
      (Obj.reachable_words (Obj.repr (pristine, snaps))
      - Obj.reachable_words (Obj.repr pristine))
    /. float_of_int k
  in
  World.restore w pristine;
  (* the call exactly as the router makes it: traced, inside a request span *)
  let router_call =
    tracing (fun () ->
        per_call ctx ~iters:40 (fun i ->
            let target, service, payload = dep.Load.d_mix rng i in
            ignore
              (Trace.with_span ~kind:"request" ~name:(target ^ "." ^ service)
                 ~attrs:[ ("tenant", "tenant-0"); ("shard", "shard-0");
                          ("request", string_of_int i) ]
                 (fun () -> Deploy.call d ~caller:None ~target ~service payload))))
  in
  let reset () = World.restore w pristine in
  let leaves =
    List.map
      (fun (s, caller, target, service) ->
        let caller = Some caller and payload = "probe" in
        let slow () =
          match Deploy.call d ~caller ~target ~service payload with
          | Ok r -> r
          | Error e -> failwith (Printf.sprintf "mail %s.%s: %s" target service e)
        in
        (* a route's first successful slow call arms its fast path *)
        let route = ref None in
        let reset_fast () =
          reset ();
          let r = Deploy.resolve d ~caller ~target ~service in
          route := r;
          H.check problems (Deploy.call_fast d (Option.get r) payload = slow ())
            "call_fast differs from Deploy.call on %s" s
        in
        let fast =
          per_call ctx ~reset:reset_fast ~iters:2000 (fun _ ->
              ignore (Sys.opaque_identity (Deploy.call_fast d (Option.get !route) payload)))
        in
        let untraced = per_call ctx ~reset ~iters:200 (fun _ -> ignore (slow ())) in
        let traced =
          tracing (fun () -> per_call ctx ~reset ~iters:200 (fun _ -> ignore (slow ())))
        in
        (s, fast, untraced, traced))
      leaf_routes
  in
  Deploy.destroy d;
  let sum f = List.fold_left (fun a l -> a +. f l) 0.0 leaves in
  [ ("world.fork_us", us fork);
    ("world.restore_us", us restore);
    ("world.heap_words_per_tenant", heap_words);
    ("deploy.call_us", us router_call);
    ("trace.overhead_frac",
     (sum (fun (_, _, _, t) -> t) /. sum (fun (_, _, u, _) -> u)) -. 1.0) ]
  @ List.concat_map
      (fun (s, fast, untraced, traced) ->
        [ ("deploy.call_fast_ns." ^ s, fast *. 1e9);
          ("deploy.call_untraced_us." ^ s, us untraced);
          ("deploy.call_traced_us." ^ s, us traced) ])
      leaves

(* --- gateway, net, tracer, metrics --------------------------------------- *)

let plumbing ctx =
  let fresh () =
    let net = Net.create () in
    ignore (Net.register net "dst");
    net
  in
  let net = fresh () in
  let gate = Gateway.create ~whitelist:[ "dst" ] ~tokens_per_tick:1.0 ~burst:32.0 in
  let submit =
    per_call ctx ~iters:2000 (fun i ->
        match Gateway.submit gate net ~now:i ~src:"probe" ~dst:"dst" "payload" with
        | Gateway.Forwarded -> ignore (Net.recv net "dst")
        | Gateway.Rate_limited | Gateway.Blocked_destination -> ())
  in
  let net = fresh () in
  let send_recv =
    per_call ctx ~iters:2000 (fun _ ->
        Net.send net ~src:"probe" ~dst:"dst" "payload";
        ignore (Net.recv net "dst"))
  in
  let span =
    tracing (fun () ->
        per_call ctx ~iters:5000 (fun _ ->
            Trace.with_span ~kind:"probe" ~name:"probe" (fun () -> ())))
  in
  let incr =
    Metrics.with_metrics (Metrics.create ()) (fun () ->
        per_call ctx ~iters:10000 (fun _ -> Metrics.incr "probe/incr"))
  in
  [ ("gateway.submit_us", us submit);
    ("net.send_recv_us", us send_recv);
    ("trace.span_ns", span *. 1e9);
    ("metrics.incr_ns", incr *. 1e9) ]

(* --- all seven substrates: hops, relaunch, kernel IPC, SGX, channels ----- *)

let substrates rng ca =
  let mk, kernel =
    Substrate_kernel.make (Lt_hw.Machine.create ~dram_pages:256 ())
      (Lt_kernel.Sched.Round_robin { quantum = 500 }) ()
  in
  let sgx, _ = Substrate_sgx.make (Lt_hw.Machine.create ~dram_pages:128 ()) rng ~ca_name:"intel" ~ca_key:ca () in
  let m_tz = Lt_hw.Machine.create ~dram_pages:64 () in
  Lt_hw.Fuse.program m_tz.Lt_hw.Machine.fuses ~name:"devkey"
    ~visibility:Lt_hw.Fuse.Secure_only (Drbg.bytes rng 32);
  let tz, _ =
    ok "trustzone boot"
      (Substrate_trustzone.make m_tz ~vendor:ca.Rsa.pub
         ~image:(Lt_tpm.Boot.sign_stage ca ~name:"tz-os" "tz-os-v1")
         ~device_id:"dev" ~device_key_name:"devkey" ~secure_pages:8)
  in
  let sep, _, _ = Substrate_sep.make (Lt_hw.Machine.create ~dram_pages:64 ()) rng ~device_id:"dev" ~private_pages:8 in
  let cheri, _, _ = Substrate_cheri.make rng ~size:(1 lsl 17) () in
  let m3, _ = Substrate_m3.make rng ~ca_name:"m3-mfg" ~ca_key:ca ~tiles:8 () in
  let tpm = Lt_tpm.Tpm.manufacture rng ~ca_name:"tpm-vendor" ~ca_key:ca ~serial:"1" in
  ( [ ("microkernel", mk); ("sgx", sgx); ("trustzone", tz); ("sep", sep);
      ("cheri", cheri); ("m3", m3); ("flicker", Substrate_flicker.make tpm ()) ],
    kernel )

let leaf s = "leaf-" ^ s

(* a front component on the microkernel and one echo leaf per substrate;
   a hop is the routed call front -> leaf, one substrate invocation *)
let hops ctx problems =
  let rng = Drbg.create (Int64.of_int ctx.H.seed) in
  let ca = Rsa.generate ~bits:512 rng in
  let subs, kernel = substrates rng ca in
  let names = List.map fst subs in
  let components =
    ( Manifest.v ~name:"front" ~provides:[ "in" ] ~network_facing:true
        ~connects_to:(List.map (fun s -> Manifest.conn (leaf s) "echo") names)
        ~substrate:"microkernel" (),
      fun _ ~service:_ r -> r )
    :: List.map
         (fun s ->
           (Manifest.v ~name:(leaf s) ~provides:[ "echo" ] ~substrate:s (), fun _ ~service:_ r -> r))
         names
  in
  let d = ok "hop app deploy" (Deploy.deploy ~substrates:subs components) in
  let hop s () =
    match Deploy.call d ~caller:(Some "front") ~target:(leaf s) ~service:"echo" "probe" with
    | Ok "probe" -> ()
    | Ok r -> H.check problems false "hop to %s answered %S" s r
    | Error e -> H.check problems false "hop to %s: %s" s e
  in
  let world = Deploy.world d in
  let pristine = World.fork world in
  let reset () = World.restore world pristine in
  (* a Flicker session costs milliseconds, every other hop microseconds *)
  let iters s = if s = "flicker" then 20 else 200 in
  let hop_us =
    List.map (fun s -> (s, per_call ctx ~reset ~iters:(iters s) (fun _ -> hop s ()))) names
  in
  reset ();
  let n = H.size ctx 200 in
  let k0 = Kernel.stats kernel in
  for _ = 1 to n do
    hop "microkernel" ()
  done;
  let k1 = Kernel.stats kernel in
  let per_hop a b = float_of_int (b - a) /. float_of_int n in
  let relaunch_us =
    List.map
      (fun s ->
        let t =
          per_call ctx ~reset ~iters:4 (fun _ ->
              ok "crash" (Deploy.crash d (leaf s));
              ok "relaunch" (Deploy.relaunch d (leaf s)))
        in
        hop s ();
        (s, t))
      names
  in
  reset ();
  (* a direct ecall, without the adapter or the router *)
  let cpu = Sgx.init_cpu (Lt_hw.Machine.create ~dram_pages:64 ()) rng ~ca_name:"intel" ~ca_key:ca in
  let enclave =
    Sgx.create_enclave cpu ~name:"probe" ~code:"probe-v1" ~epc_pages:4
      ~ecalls:[ ("echo", fun _ s -> s) ]
  in
  let ecall = per_call ctx ~iters:500 (fun _ -> ignore (Sgx.ecall cpu enclave ~fn:"echo" "probe")) in
  (* a TLS-like session and RA evidence bound to it *)
  let server_key = Rsa.generate ~bits:512 rng in
  let cert = Lt_crypto.Cert.issue ~ca_name:"ca" ~ca_key:ca ~subject:"srv" server_key.Rsa.pub in
  let net = Net.create () in
  ignore (Net.register net "c");
  ignore (Net.register net "s");
  let cs, ss =
    ok "secure channel"
      (Sc.connect net ~client:(Sc.Client.create rng ~trusted_ca:ca.Rsa.pub ())
         ~client_addr:"c" ~server:(Sc.Server.create rng ~key:server_key ~cert)
         ~server_addr:"s")
  in
  (* one 1 KiB record sealed and opened per iteration; [timed_seal]
     picks which half is clocked *)
  let kib = String.make 1024 'k' in
  let record ~timed_seal =
    per_call_partial ctx ~iters:100 (fun _ time ->
        let record = ref "" and opened = ref (Error "not opened") in
        let seal () = record := Sc.send cs kib in
        let open_ () = opened := Sc.receive ss !record in
        if timed_seal then (time seal; open_ ()) else (seal (); time open_);
        match !opened with
        | Ok p -> H.check problems (p = kib) "channel round trip differs"
        | Error e -> H.check problems false "channel open: %s" e)
  in
  let sealed = record ~timed_seal:true and opened = record ~timed_seal:false in
  let sgx = List.assoc "sgx" subs in
  let comp = ok "ra launch" (sgx.Substrate.launch ~name:"ra-probe" ~code:"ra-v1" ~services:[ ("f", fun _ x -> x) ]) in
  let policy =
    { Attestation.trusted_cas = [ ("intel", ca.Rsa.pub) ];
      shared_device_keys = [];
      accepted_measurements = [ Substrate.component_measurement comp ] }
  in
  let ra =
    per_call_partial ctx ~iters:20 (fun _ time ->
        let challenge, nonce = Ra_channel.request rng cs in
        let response = ok "ra respond" (Ra_channel.respond ss sgx comp ~challenge) in
        ok "ra check" (time (fun () -> Ra_channel.check cs ~policy ~nonce ~response)))
  in
  (* the fleet's app on one machine, over the substrate classes a fleet
     host offers, traced as the fleet runs it *)
  let local =
    ok "local fleet app"
      (Deploy.deploy
         ~substrates:(List.filter (fun (s, _) -> List.mem s [ "microkernel"; "sgx"; "sep" ]) subs)
         (Lt_fleet.Fleet_chaos.scenario_components ()))
  in
  let local_call =
    tracing (fun () ->
        per_call ctx ~iters:200 (fun i ->
            let p = Printf.sprintf "req-%d" i in
            match Deploy.call local ~caller:None ~target:"gate" ~service:"ingress" p with
            | Ok r -> H.check problems (r = "gated:exec(" ^ p ^ ")") "local fleet app answered %S" r
            | Error e -> H.check problems false "local fleet app: %s" e))
  in
  List.map (fun (s, t) -> ("substrate.hop_us." ^ s, us t)) hop_us
  @ List.map (fun (s, t) -> ("deploy.relaunch_us." ^ s, us t)) relaunch_us
  @ [ ("kernel.ipc_messages_per_hop", per_hop k0.Kernel.ipc_messages k1.Kernel.ipc_messages);
      ("kernel.context_switches_per_hop",
       per_hop k0.Kernel.context_switches k1.Kernel.context_switches);
      ("sgx.ecall_us", us ecall);
      ("channel.seal_us_per_kib", us sealed);
      ("channel.open_us_per_kib", us opened);
      ("ra.check_us", us ra);
      ("fleet.local_call_us", us local_call) ]

(* --- Check, Lint, Flow, Contain -------------------------------------------- *)

let analyses ctx =
  let n = H.size ctx Manifest_churn.fleet_size in
  let base = Manifest_churn.fleet n in
  let ms f = per_call ctx ~batches:1 ~iters:1 (fun _ -> ignore (f ())) *. 1e3 in
  let create = ms (fun () -> Check.create base) in
  let lint = ms (fun () -> Lint.run base) in
  let flow = ms (fun () -> Flow.analyze base) in
  let contain = ms (fun () -> Contain.analyze base) in
  let rng = Drbg.create (Int64.of_int ctx.H.seed) in
  let st = ref (Check.create base) and stash = ref None in
  let times = Hashtbl.create 4 in
  List.iter
    (fun k ->
      let delta = Manifest_churn.pick rng n (Check.manifests !st) stash k in
      let (st', _), t = H.timed (fun () -> Check.apply delta !st) in
      st := st';
      Hashtbl.add times (Manifest_churn.kind_name k) (us t))
    Manifest_churn.[ Flag; Connect; Disconnect; Churn; Flag; Connect; Disconnect; Churn; Flag; Flag ];
  let kind k = H.median (Array.of_list (Hashtbl.find_all times k)) in
  [ ("check.create_ms", create);
    ("check.apply_us.flag", kind "flag");
    ("check.apply_us.topology", kind "topology");
    ("check.apply_us.remove", kind "remove");
    ("check.topology_over_batch", kind "topology" /. ((lint +. flow +. contain) *. 1e3));
    ("lint.batch_ms", lint);
    ("flow.batch_ms", flow);
    ("contain.batch_ms", contain) ]

(* --- the substrate fuzzing engine ------------------------------------------ *)

let hunt ctx problems =
  Hunt_substrate.boot ();
  let master = Drbg.create (Int64.of_int (ctx.H.seed + 7)) in
  let gen i = Fuzz.generate (Drbg.substream master i) i in
  let generate = per_call ctx ~iters:200 (fun i -> ignore (Sys.opaque_identity (gen i))) in
  let payloads = Array.init 1000 gen in
  (* a revive relaunches a component on all seven substrates; the cases
     with one cost an order of magnitude more than the rest *)
  let revives, plain = List.partition Hunt_substrate.has_revive (Array.to_list payloads) in
  let check_us l cap =
    let l = List.filteri (fun i _ -> i < cap) l in
    H.median
      (Array.of_list
         (List.map
            (fun p ->
              let r, t = H.timed (fun () -> Fuzz.check p) in
              (match r with Ok () -> () | Error e -> H.check problems false "probe hunt: %s" e);
              us t)
            l))
  in
  [ ("hunt.generate_us", us generate);
    ("hunt.check_us.plain", check_us plain (H.size ctx 60));
    ("hunt.check_us.revive", check_us revives (H.size ctx 30));
    ("hunt.revive_frac",
     float_of_int (List.length revives) /. float_of_int (Array.length payloads)) ]

let all ctx problems =
  let groups =
    [ ("mail world", mail); ("plumbing", fun ctx _ -> plumbing ctx); ("substrates", hops);
      ("analyses", fun ctx _ -> analyses ctx); ("hunt", hunt) ]
  in
  List.concat_map
    (fun (name, g) ->
      let m, t = H.timed (fun () -> g ctx problems) in
      Printf.printf "probes %-10s %6.2f s CPU\n" name t;
      m)
    groups
