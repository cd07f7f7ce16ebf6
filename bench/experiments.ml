(* The experiment harness: one section per table/figure/claim in the
   paper, as indexed in DESIGN.md. Each experiment prints its table and
   a SHAPE line asserting the qualitative claim it reproduces. *)

open Lt_crypto
open Lateral
module Net = Lt_net.Net
module Gateway = Lt_net.Gateway
module Block = Lt_storage.Block
module Fs = Lt_storage.Legacy_fs
module Vpfs = Lt_storage.Vpfs
module Sgx = Lt_sgx.Sgx
open Lt_kernel

let header id title =
  Printf.printf "\n## %s — %s\n" id title

(* scenarios stage onto simulated substrates and may refuse to; a refusal
   here is an experiment-harness bug, so surface it and stop *)
let scenario_ok = function
  | Ok v -> v
  | Error e ->
    prerr_endline ("experiment staging failed: " ^ e);
    exit 1

let shape ok fmt =
  Printf.ksprintf
    (fun s ->
      Printf.printf "SHAPE %s: %s\n" (if ok then "PASS" else "FAIL") s;
      ok)
    fmt

(* ------------------------------------------------------------------ *)
(* fig1-containment: vertical vs horizontal blast radius (Figure 1)   *)
(* ------------------------------------------------------------------ *)

let fig1_containment () =
  header "fig1-containment" "attack containment, vertical vs horizontal (Figure 1)";
  let table = scenario_ok (Scenario_mail.containment_table ()) in
  Printf.printf "%-12s %-18s %-18s\n" "exploited" "vertical-owned" "horizontal-owned";
  List.iter
    (fun (name, v, h) ->
      Printf.printf "%-12s %-18.2f %-18.2f\n" name v h)
    table;
  let vertical_total = List.for_all (fun (_, v, _) -> v >= 0.999) table in
  let horizontal_max =
    List.fold_left (fun acc (_, _, h) -> Float.max acc h) 0.0 table
  in
  (* cross-check the static prediction against the live runtime: a
     compromised component sweeping every service must get through on
     exactly its declared channels, nothing else *)
  let runtime_matches_manifests =
    List.for_all
      (fun name ->
        let app = scenario_ok (Scenario_mail.build ~vertical:false) in
        App.compromise app name;
        (* drive the component once through any inbound edge *)
        let man = Option.get (App.manifest app name) in
        (match man.Manifest.provides with
         | svc :: _ ->
           (* find some caller or use the external world if it is exposed *)
           let caller =
             List.find_map
               (fun m ->
                 if
                   List.exists
                     (fun c -> c.Manifest.target = name && c.Manifest.service = svc)
                     m.Manifest.connects_to
                 then Some m.Manifest.name
                 else None)
               (App.manifests app)
           in
           (match (caller, man.Manifest.network_facing) with
            | Some c, _ -> ignore (App.call_typed app ~caller:(Some c) ~target:name ~service:svc "x")
            | None, true -> ignore (App.call_typed app ~caller:None ~target:name ~service:svc "x")
            | None, false -> ())
         | [] -> ());
        let allowed =
          App.exfiltration_attempts app name
          |> List.filter (fun (_, _, ok) -> ok)
          |> List.map (fun (t, s, _) -> (t, s))
          |> List.sort_uniq Stdlib.compare
        in
        let declared =
          List.map (fun c -> (c.Manifest.target, c.Manifest.service)) man.Manifest.connects_to
          |> List.sort_uniq Stdlib.compare
        in
        allowed = declared || allowed = [])
      Scenario_mail.component_names
  in
  Printf.printf
    "runtime sweep: every compromised component reached exactly its declared channels: %b\n"
    runtime_matches_manifests;
  shape
    (vertical_total && horizontal_max < 0.5 && runtime_matches_manifests)
    "every vertical exploit owns 100%%; worst horizontal exploit owns %.0f%%; runtime authority = declared channels"
    (100. *. horizontal_max)

(* ------------------------------------------------------------------ *)
(* fig2-template: one component, five substrates (Figure 2, §II-B)    *)
(* ------------------------------------------------------------------ *)

let echo_services =
  [ ("echo", fun _fac (req : string) -> "echo:" ^ req);
    ("seal", fun fac req -> fac.Substrate.f_seal req) ]

let fig2_template () =
  header "fig2-template" "structural template: one component on every substrate (Figure 2)";
  let rng = Drbg.create 21L in
  let ca = Rsa.generate ~bits:512 rng in
  let build_all () =
    let acc = ref [] in
    let m1 = Lt_hw.Machine.create ~dram_pages:128 () in
    let sgx, _ = Substrate_sgx.make m1 rng ~ca_name:"intel" ~ca_key:ca () in
    acc := (sgx, m1.Lt_hw.Machine.clock) :: !acc;
    let m2 = Lt_hw.Machine.create ~dram_pages:64 () in
    Lt_hw.Fuse.program m2.Lt_hw.Machine.fuses ~name:"devkey"
      ~visibility:Lt_hw.Fuse.Secure_only (Drbg.bytes rng 32);
    (match
       Substrate_trustzone.make m2 ~vendor:ca.Rsa.pub
         ~image:(Lt_tpm.Boot.sign_stage ca ~name:"tz-os" "tz-os-v1")
         ~device_id:"d" ~device_key_name:"devkey" ~secure_pages:4
     with
     | Ok (tz, _) -> acc := (tz, m2.Lt_hw.Machine.clock) :: !acc
     | Error e -> failwith e);
    let m3 = Lt_hw.Machine.create ~dram_pages:64 () in
    let sep, _, _ = Substrate_sep.make m3 rng ~device_id:"d" ~private_pages:4 in
    acc := (sep, m3.Lt_hw.Machine.clock) :: !acc;
    let flicker_clock = Lt_hw.Clock.create () in
    let tpm = Lt_tpm.Tpm.manufacture rng ~ca_name:"tpm-vendor" ~ca_key:ca ~serial:"1" in
    acc := (Substrate_flicker.make tpm ~clock:flicker_clock (), flicker_clock) :: !acc;
    let m4 = Lt_hw.Machine.create ~dram_pages:512 () in
    let mk, _ = Substrate_kernel.make m4 (Sched.Round_robin { quantum = 500 }) () in
    acc := (mk, m4.Lt_hw.Machine.clock) :: !acc;
    (* the two substrates without machine clocks charge no ticks *)
    let cheri_clock = Lt_hw.Clock.create () in
    let cheri, _, _ = Substrate_cheri.make rng ~size:(1 lsl 17) () in
    acc := (cheri, cheri_clock) :: !acc;
    let m3_clock = Lt_hw.Clock.create () in
    let m3, _ = Substrate_m3.make rng ~ca_name:"m3-mfg" ~ca_key:ca ~tiles:8 () in
    acc := (m3, m3_clock) :: !acc;
    List.rev !acc
  in
  let subs = build_all () in
  Printf.printf "%-13s %-9s %-11s %-7s %-9s %-8s %-16s %s\n" "substrate" "conform"
    "concurrent" "mutual" "progress" "tcb-loc" "ticks/invoke" "defends";
  let all_ok = ref true in
  List.iter
    (fun ((s : Substrate.t), clock) ->
      let p = s.Substrate.properties in
      let conform, ticks =
        match s.Substrate.launch ~name:"bench" ~code:"bench-v1" ~services:echo_services with
        | Error _ -> (false, 0.0)
        | Ok c ->
          let ok = s.Substrate.invoke c ~fn:"echo" "x" = Ok "echo:x" in
          let n = 50 in
          let t0 = Lt_hw.Clock.now clock in
          for _ = 1 to n do
            ignore (s.Substrate.invoke c ~fn:"echo" "x")
          done;
          (ok, float_of_int (Lt_hw.Clock.now clock - t0) /. float_of_int n)
      in
      if not conform then all_ok := false;
      Printf.printf "%-13s %-9b %-11b %-7b %-9b %-8d %-16.1f %s\n"
        p.Substrate.substrate_name conform p.Substrate.concurrent_components
        p.Substrate.mutually_isolated p.Substrate.progress_guaranteed
        (List.fold_left (fun a (_, n) -> a + n) 0 p.Substrate.tcb)
        ticks
        (String.concat ","
           (List.map (fun m -> Format.asprintf "%a" Substrate.pp_attacker_model m)
              p.Substrate.defends)))
    subs;
  shape !all_ok "the identical component ran unmodified on all %d substrates"
    (List.length subs)

(* ------------------------------------------------------------------ *)
(* fig3-smartmeter: distributed trust end to end (Figure 3)            *)
(* ------------------------------------------------------------------ *)

let fig3_smartmeter () =
  header "fig3-smartmeter" "smart meter <-> utility server tamper matrix (Figure 3)";
  Printf.printf "%-26s %-11s %-6s %-9s %-5s %-8s\n" "scenario" "anonymizer"
    "sent" "accepted" "rows" "id-leak";
  let outcomes =
    List.map (fun t -> (t, scenario_ok (Scenario_meter.run t))) Scenario_meter.all_tampers
  in
  List.iter
    (fun (t, o) ->
      Printf.printf "%-26s %-11b %-6b %-9b %-5d %-8b\n" (Scenario_meter.tamper_name t)
        o.Scenario_meter.anonymizer_verified o.Scenario_meter.reading_sent
        o.Scenario_meter.reading_accepted o.Scenario_meter.anonymized_rows
        o.Scenario_meter.customer_id_leaked)
    outcomes;
  let get t = List.assoc t outcomes in
  let genuine = get Scenario_meter.Genuine in
  let ok =
    genuine.Scenario_meter.reading_accepted
    && (not genuine.Scenario_meter.customer_id_leaked)
    && List.for_all
         (fun (t, o) ->
           t = Scenario_meter.Genuine || not o.Scenario_meter.reading_accepted)
         outcomes
    && not
         (get Scenario_meter.Manipulated_anonymizer).Scenario_meter.reading_sent
  in
  shape ok "only the genuine configuration bills; every attack is rejected"

(* ------------------------------------------------------------------ *)
(* tcb-size: per-component trusted computing base (§I, §III-B)        *)
(* ------------------------------------------------------------------ *)

let tcb_size () =
  header "tcb-size" "per-component TCB, monolithic vs decomposed";
  let rows = scenario_ok (Scenario_mail.tcb_comparison ()) in
  Printf.printf "%-12s %-12s %-12s %-8s\n" "component" "monolithic" "decomposed" "factor";
  List.iter
    (fun (name, mono, dec) ->
      Printf.printf "%-12s %-12d %-12d %-8.1f\n" name mono dec
        (float_of_int mono /. float_of_int (max dec 1)))
    rows;
  let _, mono_k, dec_k = List.find (fun (n, _, _) -> n = "keystore") rows in
  let all_smaller = List.for_all (fun (_, m, d) -> d < m) rows in
  shape
    (all_smaller && dec_k * 9 < mono_k)
    "decomposition shrinks every TCB; keystore by %.0fx (order of magnitude)"
    (float_of_int mono_k /. float_of_int dec_k)

(* ------------------------------------------------------------------ *)
(* confused-deputy: ambient authority vs badged capabilities (§III-D) *)
(* ------------------------------------------------------------------ *)

let confused_deputy () =
  header "confused-deputy" "confused deputy: ambient authority vs badges (§III-D)";
  let trials = 100 in
  let run_variant ~badged =
    (* a storage deputy serves two clients; mallory asks for alice's data *)
    let successes = ref 0 in
    for trial = 1 to trials do
      let mach = Lt_hw.Machine.create ~dram_pages:64 () in
      let k = Kernel.create mach (Sched.Round_robin { quantum = 200 }) in
      let deputy_task = Kernel.create_task k ~name:"deputy" ~partition:"d" in
      let alice_task = Kernel.create_task k ~name:"alice" ~partition:"a" in
      let mallory_task = Kernel.create_task k ~name:"mallory" ~partition:"m" in
      let ep = Kernel.create_endpoint k ~name:"store" in
      let d_cap = Kernel.grant k deputy_task ep ~rights:{ send = false; recv = true } ~badge:0 in
      let a_cap = Kernel.grant k alice_task ep ~rights:{ send = true; recv = false } ~badge:1 in
      let m_cap = Kernel.grant k mallory_task ep ~rights:{ send = true; recv = false } ~badge:2 in
      let secret = Printf.sprintf "alice-secret-%d" trial in
      let store : (string, string) Hashtbl.t = Hashtbl.create 4 in
      let _ =
        Kernel.create_thread k deputy_task ~name:"deputy" ~prio:1 (fun () ->
            for _ = 1 to 2 do
              let badge, m, reply = User.recv ~cap:d_cap in
              (* request: "<claimed-client>|put|data" or "<claimed-client>|get" *)
              let parts = String.split_on_char '|' m.Sys.payload in
              let client_id =
                if badged then string_of_int badge
                else match parts with c :: _ -> c | [] -> "?"
              in
              let response =
                match parts with
                | [ _; "put"; data ] ->
                  Hashtbl.replace store client_id data;
                  "stored"
                | [ _; "get" ] ->
                  Option.value ~default:"(nothing)" (Hashtbl.find_opt store client_id)
                | _ -> "bad request"
              in
              match reply with
              | Some h -> User.reply h (Sys.msg response)
              | None -> ()
            done)
      in
      let stolen = ref "" in
      let _ =
        Kernel.create_thread k alice_task ~name:"alice" ~prio:1 (fun () ->
            ignore (User.call ~cap:a_cap (Sys.msg (Printf.sprintf "1|put|%s" secret))))
      in
      let _ =
        Kernel.create_thread k mallory_task ~name:"mallory" ~prio:2 (fun () ->
            (* mallory claims to be client 1 (alice) *)
            User.sleep 50;
            let r = User.call ~cap:m_cap (Sys.msg "1|get") in
            stolen := r.Sys.payload)
      in
      ignore (Kernel.run k);
      if !stolen = secret then incr successes
    done;
    !successes
  in
  let ambient = run_variant ~badged:false in
  let badged = run_variant ~badged:true in
  Printf.printf "%-32s %d/%d attacks succeeded\n" "ambient authority (name in msg):" ambient trials;
  Printf.printf "%-32s %d/%d attacks succeeded\n" "badged capabilities:" badged trials;
  shape
    (ambient = trials && badged = 0)
    "claimed identities are forged every time; kernel badges cannot be"

(* ------------------------------------------------------------------ *)
(* vpfs: trusted wrapper over an untrusted FS (§III-D)                 *)
(* ------------------------------------------------------------------ *)

let vpfs_experiment () =
  header "vpfs" "VPFS trusted wrapper: attacks and overhead (§III-D)";
  (* attack matrix *)
  let fresh () =
    let dev = Block.create ~blocks:2048 in
    let fs = Fs.format dev in
    (dev, fs, Vpfs.create ~master_key:"bench-master-key" fs)
  in
  let detected name f =
    let result = f () in
    Printf.printf "%-28s %s\n" name (if result then "DETECTED" else "MISSED");
    result
  in
  let contents = String.init 3000 (fun i -> Char.chr (i mod 251)) in
  let r1 =
    detected "corrupt chunk on read" (fun () ->
        let _, fs, v = fresh () in
        (match Vpfs.write v "/f" contents with Ok () -> () | Error _ -> ());
        Fs.set_evil fs (Fs.Corrupt_reads (Drbg.create 3L));
        match Vpfs.read v "/f" with Error (Vpfs.Integrity _) -> true | _ -> false)
  in
  let r2 =
    detected "serve stale version" (fun () ->
        let _, fs, v = fresh () in
        ignore (Vpfs.write v "/f" "v1");
        ignore (Vpfs.write v "/f" "v2");
        Fs.set_evil fs Fs.Serve_stale;
        match Vpfs.read v "/f" with Error (Vpfs.Integrity _) -> true | _ -> false)
  in
  let r3 =
    detected "cross-file splice" (fun () ->
        let _, fs, v = fresh () in
        ignore (Vpfs.write v "/a" "contents-a");
        ignore (Vpfs.write v "/b" "contents-b");
        (match Fs.read fs "/b" with
         | Ok cipher -> ignore (Fs.write fs "/a" cipher)
         | Error _ -> ());
        match Vpfs.read v "/a" with Error (Vpfs.Integrity _) -> true | _ -> false)
  in
  let r4 =
    detected "whole-fs rollback" (fun () ->
        let dev, fs, v = fresh () in
        ignore (Vpfs.write v "/f" "old");
        Fs.sync fs;
        let snaps = List.init (Block.blocks dev) (Block.snapshot dev) in
        ignore (Vpfs.write v "/f" "new");
        let root = Vpfs.root v in
        List.iteri (fun i s -> Block.rollback dev i s) snaps;
        match Fs.mount dev with
        | Error _ -> true
        | Ok fs2 ->
          (match Vpfs.open_ ~master_key:"bench-master-key" ~expected_root:root fs2 with
           | Error (Vpfs.Integrity _) -> true
           | _ -> false))
  in
  let r5 =
    detected "plaintext exposure" (fun () ->
        let _, fs, v = fresh () in
        ignore (Vpfs.write v "/f" "THE-PLAINTEXT-SECRET");
        not (Fs.observed_contains fs ~needle:"THE-PLAINTEXT-SECRET"))
  in
  (* overhead: block IO amplification *)
  let file = String.make 4096 'd' in
  let io_cost use_vpfs =
    let dev = Block.create ~blocks:4096 in
    let fs = Fs.format dev in
    let v = if use_vpfs then Some (Vpfs.create ~master_key:"k" fs) else None in
    let r0 = Block.reads dev and w0 = Block.writes dev in
    for i = 1 to 20 do
      let path = Printf.sprintf "/f%d" i in
      (match v with
       | Some v -> ignore (Vpfs.write v path file)
       | None -> ignore (Fs.write fs path file));
      match v with
      | Some v -> ignore (Vpfs.read v path)
      | None -> ignore (Fs.read fs path)
    done;
    (Block.reads dev - r0, Block.writes dev - w0)
  in
  let raw_r, raw_w = io_cost false in
  let vp_r, vp_w = io_cost true in
  Printf.printf "block IO for 20 x 4KiB write+read: raw fs %d reads / %d writes, vpfs %d / %d\n"
    raw_r raw_w vp_r vp_w;
  let amplification =
    float_of_int (vp_r + vp_w) /. float_of_int (max 1 (raw_r + raw_w))
  in
  Printf.printf "IO amplification: %.2fx\n" amplification;
  shape
    (r1 && r2 && r3 && r4 && r5 && amplification < 10.0)
    "all five attacks detected, zero plaintext leaked, overhead %.1fx bounded"
    amplification

(* ------------------------------------------------------------------ *)
(* secure-launch: boot policies under code tampering (§II-D)           *)
(* ------------------------------------------------------------------ *)

let secure_launch () =
  header "secure-launch" "secure vs authenticated boot under tampering (§II-D)";
  let rng = Drbg.create 31L in
  let vendor = Rsa.generate ~bits:512 rng in
  let ca = Rsa.generate ~bits:512 rng in
  let open Lt_tpm in
  let stage_names = [ "bootloader"; "kernel"; "app" ] in
  let chain tampered =
    List.map
      (fun name ->
        if Some name = tampered then Boot.unsigned_stage ~name (name ^ "-evil")
        else Boot.sign_stage vendor ~name (name ^ "-v1"))
      stage_names
  in
  let reference_pcr =
    (* the verifier's known-good PCR value for the genuine chain *)
    Pcr.expected_value (List.map Boot.measure (chain None))
  in
  Printf.printf "%-12s %-28s %-28s %-14s\n" "tampered" "secure-boot" "authenticated-boot"
    "sealed-key";
  let ok = ref true in
  List.iter
    (fun tampered ->
      let stages = chain tampered in
      let sb = Boot.run_chain (Boot.Secure_boot { vendor_pub = vendor.Rsa.pub }) stages in
      let tpm = Tpm.manufacture rng ~ca_name:"v" ~ca_key:ca ~serial:"x" in
      (* seal a key to the genuine state first *)
      ignore (Boot.run_chain (Boot.Authenticated_boot { tpm; pcr = 0 }) (chain None));
      let sealed = Tpm.seal tpm ~selection:[ 0 ] "disk-key" in
      Pcr.power_cycle (Tpm.pcrs tpm);
      let ab = Boot.run_chain (Boot.Authenticated_boot { tpm; pcr = 0 }) stages in
      let measured = Pcr.read (Tpm.pcrs tpm) 0 in
      let detected = measured <> reference_pcr in
      let key_released = Tpm.unseal tpm sealed <> None in
      let sb_desc =
        match sb.Boot.refused with
        | Some (s, _) -> Printf.sprintf "refused at %s" s
        | None -> Printf.sprintf "booted %d stages" (List.length sb.Boot.ran)
      in
      let ab_desc =
        Printf.sprintf "booted %d; log %s" (List.length ab.Boot.ran)
          (if detected then "EXPOSES tamper" else "matches reference")
      in
      Printf.printf "%-12s %-28s %-28s %-14s\n"
        (Option.value tampered ~default:"(none)")
        sb_desc ab_desc
        (if key_released then "released" else "withheld");
      (match tampered with
       | None -> if sb.Boot.refused <> None || detected || not key_released then ok := false
       | Some _ ->
         if sb.Boot.refused = None || not detected || key_released
            || List.length ab.Boot.ran <> 3
         then ok := false))
    [ None; Some "bootloader"; Some "kernel"; Some "app" ];
  shape !ok
    "secure boot refuses tampered stages; authenticated boot runs them but the log exposes them and keys stay sealed"

(* ------------------------------------------------------------------ *)
(* temporal-isolation: scheduler covert channel + SGX starvation       *)
(* ------------------------------------------------------------------ *)

let covert_channel policy =
  let nbits = 128 in
  let rng = Drbg.create 71L in
  let bits = Array.init nbits (fun _ -> Drbg.bool rng) in
  let mach = Lt_hw.Machine.create ~dram_pages:64 () in
  let k = Kernel.create mach policy in
  let sender_task = Kernel.create_task k ~name:"sender" ~partition:"S" in
  let receiver_task = Kernel.create_task k ~name:"receiver" ~partition:"R" in
  let samples = ref [] in
  let _ =
    Kernel.create_thread k sender_task ~name:"sender" ~prio:1 (fun () ->
        (* one dummy bit to align the receiver's first gap *)
        User.consume 60;
        User.yield ();
        Array.iter
          (fun b ->
            if b then User.consume 60;
            User.yield ())
          bits)
  in
  let _ =
    Kernel.create_thread k receiver_task ~name:"receiver" ~prio:1 (fun () ->
        for _ = 0 to nbits do
          samples := User.time () :: !samples;
          User.yield ()
        done)
  in
  ignore (Kernel.run k);
  let samples = Array.of_list (List.rev !samples) in
  let correct = ref 0 in
  let n = min nbits (Array.length samples - 1) in
  for i = 0 to n - 1 do
    let gap = samples.(i + 1) - samples.(i) in
    let decoded = gap > 30 in
    if decoded = bits.(i) then incr correct
  done;
  if n = 0 then 0.0 else float_of_int !correct /. float_of_int n

let temporal_isolation () =
  header "temporal-isolation"
    "scheduler covert channel and SGX starvation (§II-C)";
  let policies =
    [ ("round-robin", Sched.Round_robin { quantum = 100 });
      ("fixed-priority", Sched.Fixed_priority { quantum = 100 });
      ("tdma", Sched.Tdma { slots = [ ("S", 100); ("R", 100) ] }) ]
  in
  Printf.printf "%-16s %-18s\n" "scheduler" "bit accuracy";
  let acc =
    List.map
      (fun (name, p) ->
        let a = covert_channel p in
        Printf.printf "%-16s %-18s\n" name (Printf.sprintf "%.0f%%" (100. *. a));
        (name, a))
      policies
  in
  (* SGX starvation *)
  let rng = Drbg.create 72L in
  let ca = Rsa.generate ~bits:512 rng in
  let mach = Lt_hw.Machine.create ~dram_pages:64 () in
  let cpu = Sgx.init_cpu mach rng ~ca_name:"intel" ~ca_key:ca in
  let work _ctx _arg = "step" in
  let victim = Sgx.create_enclave cpu ~name:"victim" ~code:"v" ~epc_pages:1
      ~ecalls:[ ("work", work) ] in
  let other = Sgx.create_enclave cpu ~name:"other" ~code:"o" ~epc_pages:1
      ~ecalls:[ ("work", work) ] in
  let tasks = [ (victim, "work", ""); (other, "work", "") ] in
  let fair = Sgx.run_tasks cpu ~policy:`Fair ~slices:200 tasks in
  let starved = Sgx.run_tasks cpu ~policy:(`Starve "victim") ~slices:200 tasks in
  let get l k = Option.value ~default:0 (List.assoc_opt k l) in
  Printf.printf "sgx enclave progress: fair=%d/200 slices, starved by OS=%d/200 slices\n"
    (get fair "victim") (get starved "victim");
  let rr = List.assoc "round-robin" acc and tdma = List.assoc "tdma" acc in
  shape
    (rr > 0.95 && tdma < 0.65 && get starved "victim" = 0)
    "round-robin leaks %.0f%% of bits, TDMA closes the channel to ~chance (%.0f%%); the OS starves SGX to zero"
    (100. *. rr) (100. *. tdma)

(* ------------------------------------------------------------------ *)
(* tdma-overhead: what interference freedom costs (§II-C ablation)     *)
(* ------------------------------------------------------------------ *)

let tdma_overhead () =
  header "tdma-overhead" "the throughput price of time partitioning (§II-C ablation)";
  (* an asymmetric workload: partition A busy, partition B mostly idle.
     RR gives B's unused time to A; TDMA burns it to stay silent. *)
  let run policy =
    let mach = Lt_hw.Machine.create ~dram_pages:64 () in
    let k = Kernel.create mach policy in
    let ta = Kernel.create_task k ~name:"busy" ~partition:"A" in
    let tb = Kernel.create_task k ~name:"idle" ~partition:"B" in
    let _ =
      Kernel.create_thread k ta ~name:"busy" ~prio:1 (fun () ->
          for _ = 1 to 100 do
            User.consume 50;
            User.yield ()
          done)
    in
    let _ =
      Kernel.create_thread k tb ~name:"light" ~prio:1 (fun () ->
          for _ = 1 to 5 do
            User.consume 10;
            User.sleep 200
          done)
    in
    ignore (Kernel.run k);
    Lt_hw.Clock.now mach.Lt_hw.Machine.clock
  in
  let rr = run (Sched.Round_robin { quantum = 100 }) in
  let rows =
    List.map
      (fun slot ->
        let ticks = run (Sched.Tdma { slots = [ ("A", slot); ("B", slot) ] }) in
        (slot, ticks))
      [ 25; 100; 400 ]
  in
  Printf.printf "%-26s %-14s %-10s\n" "scheduler" "total ticks" "overhead";
  Printf.printf "%-26s %-14d %-10s\n" "round-robin (leaky)" rr "1.00x";
  List.iter
    (fun (slot, ticks) ->
      Printf.printf "%-26s %-14d %.2fx\n"
        (Printf.sprintf "tdma slot=%d (silent)" slot)
        ticks
        (float_of_int ticks /. float_of_int rr))
    rows;
  let worst = List.fold_left (fun acc (_, t) -> max acc t) 0 rows in
  shape
    (List.for_all (fun (_, t) -> t >= rr) rows && worst > rr)
    "interference freedom is not free: TDMA costs up to %.1fx wall clock on this workload"
    (float_of_int worst /. float_of_int rr)

(* ------------------------------------------------------------------ *)
(* cache-sidechannel: prime+probe against an SGX enclave (§II-C)       *)
(* ------------------------------------------------------------------ *)

let cache_attack ~partitioned =
  let sets = 64 and secret_bits = 32 in
  let rng = Drbg.create 73L in
  let ca = Rsa.generate ~bits:512 rng in
  let mach = Lt_hw.Machine.create ~dram_pages:64 ~cache_sets:sets ~cache_ways:2 () in
  let cache = mach.Lt_hw.Machine.cache in
  if partitioned then begin
    Lt_hw.Cache.partition cache ~domain:"attacker" ~lo:0 ~hi:(sets / 2 - 1);
    Lt_hw.Cache.partition cache ~domain:"victim" ~lo:(sets / 2) ~hi:(sets - 1)
  end;
  let cpu = Sgx.init_cpu mach rng ~ca_name:"intel" ~ca_key:ca in
  let secret = Array.init secret_bits (fun _ -> Drbg.bool rng) in
  let victim =
    (* the enclave's memory access pattern depends on its secret:
       bit i touches set 2i (0) or 2i+1 (1) — a table lookup pattern *)
    Sgx.create_enclave cpu ~name:"victim" ~code:"crypto-v1" ~epc_pages:1
      ~ecalls:
        [ ("process",
           fun ctx arg ->
             let i = int_of_string arg in
             let set = (2 * i) + Bool.to_int secret.(i) in
             Sgx.cache_touch ctx (set * Lt_hw.Cache.line_size);
             "done") ]
  in
  let line = Lt_hw.Cache.line_size in
  let correct = ref 0 in
  for i = 0 to secret_bits - 1 do
    (* prime: fill both candidate sets (2 ways each) with attacker lines *)
    List.iter
      (fun set ->
        ignore (Lt_hw.Cache.access cache ~domain:"attacker" ~addr:(set * line));
        ignore
          (Lt_hw.Cache.access cache ~domain:"attacker" ~addr:((set + sets) * line)))
      [ 2 * i; (2 * i) + 1 ];
    (* victim computes *)
    ignore (Sgx.ecall cpu victim ~fn:"process" (string_of_int i));
    (* probe: which candidate set lost an attacker line? *)
    let evicted set =
      not
        (Lt_hw.Cache.probe cache ~domain:"attacker" ~addr:(set * line)
         && Lt_hw.Cache.probe cache ~domain:"attacker" ~addr:((set + sets) * line))
    in
    let guess =
      if evicted ((2 * i) + 1) then true
      else if evicted (2 * i) then false
      else false (* no signal: guess 0 *)
    in
    if guess = secret.(i) then incr correct
  done;
  float_of_int !correct /. float_of_int secret_bits

let cache_sidechannel () =
  header "cache-sidechannel" "prime+probe key recovery vs cache partitioning (§II-C)";
  let shared = cache_attack ~partitioned:false in
  let partitioned = cache_attack ~partitioned:true in
  Printf.printf "%-22s %-16s\n" "cache configuration" "bits recovered";
  Printf.printf "%-22s %-16s\n" "shared (sgx default)"
    (Printf.sprintf "%.0f%%" (100. *. shared));
  Printf.printf "%-22s %-16s\n" "partitioned"
    (Printf.sprintf "%.0f%%" (100. *. partitioned));
  shape
    (shared > 0.95 && partitioned < 0.75)
    "shared cache leaks the key (%.0f%%); partitioning reduces to ~chance (%.0f%%)"
    (100. *. shared) (100. *. partitioned)

(* ------------------------------------------------------------------ *)
(* physical-attack: bus probing vs memory encryption (§II-D)           *)
(* ------------------------------------------------------------------ *)

let physical_attack () =
  header "physical-attack" "bus-probe secret recovery per substrate (§II-D)";
  let secret = "PHYSICAL-ATTACK-TARGET-SECRET" in
  let rng = Drbg.create 41L in
  let ca = Rsa.generate ~bits:512 rng in
  let store_services =
    [ ("put", fun fac req -> fac.Substrate.f_store ~key:"s" req; "ok") ]
  in
  let run name (machine : Lt_hw.Machine.t) (sub : Substrate.t) =
    (match sub.Substrate.launch ~name:"holder" ~code:"holder-v1"
             ~services:store_services with
     | Ok c -> ignore (sub.Substrate.invoke c ~fn:"put" secret)
     | Error e -> failwith e);
    let found =
      Lt_hw.Tamper.scan (Lt_hw.Machine.tamper machine) ~needle:secret <> []
    in
    Printf.printf "%-13s %-32s\n" name
      (if found then "secret RECOVERED from DRAM" else "ciphertext only");
    found
  in
  Printf.printf "%-13s %-32s\n" "substrate" "physical bus probe";
  let m1 = Lt_hw.Machine.create ~dram_pages:512 () in
  let mk, _ = Substrate_kernel.make m1 (Sched.Round_robin { quantum = 500 }) () in
  let mk_found = run "microkernel" m1 mk in
  let m2 = Lt_hw.Machine.create ~dram_pages:64 () in
  Lt_hw.Fuse.program m2.Lt_hw.Machine.fuses ~name:"devkey"
    ~visibility:Lt_hw.Fuse.Secure_only (Drbg.bytes rng 32);
  let tz_found =
    match
      Substrate_trustzone.make m2 ~vendor:ca.Rsa.pub
        ~image:(Lt_tpm.Boot.sign_stage ca ~name:"tz" "tz-v1") ~device_id:"d"
        ~device_key_name:"devkey" ~secure_pages:4
    with
    | Ok (tz, _) -> run "trustzone" m2 tz
    | Error e -> failwith e
  in
  let m3 = Lt_hw.Machine.create ~dram_pages:128 () in
  let sgx, _ = Substrate_sgx.make m3 rng ~ca_name:"intel" ~ca_key:ca () in
  let sgx_found = run "sgx" m3 sgx in
  let m4 = Lt_hw.Machine.create ~dram_pages:64 () in
  let sep, _, _ = Substrate_sep.make m4 rng ~device_id:"d" ~private_pages:4 in
  let sep_found = run "sep" m4 sep in
  shape
    (mk_found && tz_found && (not sgx_found) && not sep_found)
    "MMU and TrustZone protection stops at the package boundary; SGX/SEP memory encryption does not"

(* ------------------------------------------------------------------ *)
(* latelaunch: serialized PALs vs concurrent enclaves (§II-B)          *)
(* ------------------------------------------------------------------ *)

let latelaunch () =
  header "latelaunch" "Flicker serialized PALs vs SGX concurrent enclaves (§II-B)";
  let rng = Drbg.create 51L in
  let ca = Rsa.generate ~bits:512 rng in
  let invocations = 200 in
  let workers = 4 in
  (* flicker: every invocation stops the world *)
  let tpm = Lt_tpm.Tpm.manufacture rng ~ca_name:"v" ~ca_key:ca ~serial:"1" in
  let clock = Lt_hw.Clock.create () in
  let flicker = Substrate_flicker.make tpm ~clock () in
  let pals =
    List.init workers (fun i ->
        match
          flicker.Substrate.launch ~name:(Printf.sprintf "pal%d" i)
            ~code:(Printf.sprintf "worker-%d" i)
            ~services:[ ("work", fun _ arg -> arg) ]
        with
        | Ok c -> c
        | Error e -> failwith e)
  in
  for i = 1 to invocations do
    let c = List.nth pals (i mod workers) in
    ignore (flicker.Substrate.invoke c ~fn:"work" "x")
  done;
  let flicker_ticks = Lt_hw.Clock.now clock in
  (* sgx: enclaves coexist; no stop-the-world *)
  let mach = Lt_hw.Machine.create ~dram_pages:128 () in
  let sgx, _ = Substrate_sgx.make mach rng ~ca_name:"intel" ~ca_key:ca () in
  let enclaves =
    List.init workers (fun i ->
        match
          sgx.Substrate.launch ~name:(Printf.sprintf "e%d" i)
            ~code:(Printf.sprintf "worker-%d" i)
            ~services:[ ("work", fun _ arg -> arg) ]
        with
        | Ok c -> c
        | Error e -> failwith e)
  in
  let t0 = Lt_hw.Clock.now mach.Lt_hw.Machine.clock in
  for i = 1 to invocations do
    let c = List.nth enclaves (i mod workers) in
    ignore (sgx.Substrate.invoke c ~fn:"work" "x")
  done;
  let sgx_ticks = Lt_hw.Clock.now mach.Lt_hw.Machine.clock - t0 in
  let f_per = float_of_int flicker_ticks /. float_of_int invocations in
  let s_per = float_of_int sgx_ticks /. float_of_int invocations in
  Printf.printf "%-10s %-10s %-14s %-12s %s\n" "substrate" "workers" "invocations"
    "total ticks" "ticks/invocation";
  Printf.printf "%-10s %-10d %-14d %-12d %.1f (world stop+measure+resume each)\n"
    "flicker" workers invocations flicker_ticks f_per;
  Printf.printf "%-10s %-10d %-14d %-12d %.1f (plus %d-way concurrency available)\n"
    "sgx" workers invocations sgx_ticks s_per workers;
  shape
    (f_per > 4.0 *. s_per)
    "late launch costs %.0fx more per invocation and cannot overlap work" (f_per /. s_per)

(* ------------------------------------------------------------------ *)
(* gateway: IoT DDoS containment (§III-C)                              *)
(* ------------------------------------------------------------------ *)

let gateway_experiment () =
  header "gateway" "exclusive-NIC gateway vs IoT flood (§III-C)";
  let direct, gated_victims, gated_utility = Scenario_meter.gateway_demo () in
  Printf.printf "%-28s %-10s\n" "configuration" "packets at victims";
  Printf.printf "%-28s %-10d\n" "compromised android, raw NIC" direct;
  Printf.printf "%-28s %-10d\n" "through gateway" gated_victims;
  Printf.printf "legitimate telemetry delivered through gateway: %d\n" gated_utility;
  shape
    (direct > 100 && gated_victims = 0 && gated_utility > 0)
    "whitelist blocks 100%% of flood traffic while telemetry flows"

(* ------------------------------------------------------------------ *)
(* dma-attack: malicious devices vs the IOMMU (§II-D)                  *)
(* ------------------------------------------------------------------ *)

let dma_attack () =
  header "dma-attack" "malicious device DMA vs the IOMMU (§II-D)";
  let attempt ~iommu_enabled =
    let machine = Lt_hw.Machine.create ~dram_pages:64 ~iommu_enabled () in
    let bus = machine.Lt_hw.Machine.bus in
    let page = Lt_hw.Mmu.page_size in
    (* a victim's data page and the NIC's legitimate ring buffer *)
    let victim_page =
      match Lt_hw.Frame_alloc.alloc machine.Lt_hw.Machine.dram_frames with
      | Some p -> p
      | None -> failwith "oom"
    in
    let ring_page =
      match Lt_hw.Frame_alloc.alloc machine.Lt_hw.Machine.dram_frames with
      | Some p -> p
      | None -> failwith "oom"
    in
    ignore
      (Lt_hw.Bus.write bus ~requester:(Lt_hw.Bus.Cpu { secure = false })
         ~addr:(victim_page * page) "victim-data");
    if iommu_enabled then
      Lt_hw.Iommu.grant machine.Lt_hw.Machine.iommu ~device:"nic"
        ~ppage:ring_page ~writable:true;
    (* legitimate DMA into the ring *)
    let ring_ok =
      Lt_hw.Bus.write bus ~requester:(Lt_hw.Bus.Device "nic") ~addr:(ring_page * page)
        "packet"
      = Ok ()
    in
    (* the attack: the driver points the NIC at the victim's page *)
    let attack_ok =
      Lt_hw.Bus.write bus ~requester:(Lt_hw.Bus.Device "nic") ~addr:(victim_page * page)
        "OWNED-BY-NIC"
      = Ok ()
    in
    let victim_after =
      match
        Lt_hw.Bus.read bus ~requester:(Lt_hw.Bus.Cpu { secure = false })
          ~addr:(victim_page * page) ~len:11
      with
      | Ok d -> d
      | Error _ -> "?"
    in
    (ring_ok, attack_ok, victim_after)
  in
  let off_ring, off_attack, off_victim = attempt ~iommu_enabled:false in
  let on_ring, on_attack, on_victim = attempt ~iommu_enabled:true in
  Printf.printf "%-14s %-12s %-14s %s\n" "iommu" "ring DMA" "attack DMA" "victim data after";
  Printf.printf "%-14s %-12b %-14b %S\n" "disabled" off_ring off_attack off_victim;
  Printf.printf "%-14s %-12b %-14b %S\n" "enabled" on_ring on_attack on_victim;
  shape
    (off_attack && on_ring && (not on_attack) && on_victim = "victim-data")
    "without an IOMMU any driver owns all of DRAM; with it the device touches only its ring"

(* ------------------------------------------------------------------ *)
(* cheri-compartments: guarded pointers vs buffer overflow (§III-D)    *)
(* ------------------------------------------------------------------ *)

let cheri_compartments () =
  header "cheri-compartments" "hardware capabilities vs buffer over-reads (§III-D)";
  let module Cheri = Lt_cheri.Cheri in
  let trials = 100 in
  let rng = Drbg.create 61L in
  let flat_leaks = ref 0 and cheri_traps = ref 0 in
  for _ = 1 to trials do
    let m = Cheri.create ~size:4096 in
    let root = Cheri.root m in
    let buf_len = 32 + Drbg.int rng 64 in
    Cheri.store m root ~off:0 (String.make buf_len 'P');
    Cheri.store m root ~off:buf_len "NEIGHBOUR-SECRET";
    let overread = buf_len + 1 + Drbg.int rng 15 in
    (* conventional machine: unchecked pointer arithmetic *)
    let flat = Cheri.flat_read m ~addr:0 ~len:overread in
    if String.length flat > buf_len && flat.[buf_len] = 'N' then incr flat_leaks;
    (* capability machine: the parser holds a bounded view *)
    let view =
      Cheri.derive root ~off:0 ~len:buf_len ~perms:{ Cheri.load = true; store = false }
    in
    (try ignore (Cheri.load m view ~off:0 ~len:overread)
     with Cheri.Capability_fault _ -> incr cheri_traps)
  done;
  Printf.printf "%-26s %d/%d over-reads leaked the neighbour\n" "flat memory:" !flat_leaks trials;
  Printf.printf "%-26s %d/%d over-reads trapped\n" "guarded pointers:" !cheri_traps trials;
  shape
    (!flat_leaks = trials && !cheri_traps = trials)
    "every overflow leaks on flat memory and traps on the capability machine"

(* ------------------------------------------------------------------ *)
(* vetting-ablation: trusted wrappers and the TCB (§III-D)             *)
(* ------------------------------------------------------------------ *)

let vetting_ablation () =
  header "vetting-ablation" "trusted-wrapper discipline ablated (§III-D)";
  let build ~vetted =
    let app = App.create () in
    List.iter
      (fun m ->
        let m =
          if m.Manifest.name = "storage" then
            { m with
              Manifest.connects_to =
                List.map
                  (fun c -> { c with Manifest.vetted })
                  m.Manifest.connects_to }
          else m
        in
        App.add_stub app m)
      (Scenario_mail.manifests ~vertical:false);
    app
  in
  let tcb_of_substrate _ = 10_000 in
  let with_wrapper = Analysis.tcb (build ~vetted:true) ~tcb_of_substrate "storage" in
  let without = Analysis.tcb (build ~vetted:false) ~tcb_of_substrate "storage" in
  Printf.printf "%-42s %d loc\n" "storage TCB with VPFS-style vetting:" with_wrapper;
  Printf.printf "%-42s %d loc\n" "storage TCB trusting the legacy fs directly:" without;
  Printf.printf "the 30 kloc legacy stack %s the TCB\n"
    (if without - with_wrapper >= 30_000 then "re-enters" else "does not re-enter");
  shape
    (without - with_wrapper >= 30_000)
    "dropping the wrapper grows the storage TCB by the whole legacy stack (%d -> %d)"
    with_wrapper without

(* ------------------------------------------------------------------ *)
(* cloud-enclave: untrusted data-center host (§II-B)                   *)
(* ------------------------------------------------------------------ *)

let cloud_enclave () =
  header "cloud-enclave" "customer code on an untrusted cloud host (§II-B)";
  Printf.printf "%-24s %-9s %-6s %-6s %-10s\n" "host behaviour" "attested" "jobs"
    "leak" "regressed";
  let outcomes =
    List.map (fun a -> (a, scenario_ok (Scenario_cloud.run a))) Scenario_cloud.all_attacks
  in
  List.iter
    (fun (a, o) ->
      Printf.printf "%-24s %-9b %-6d %-6b %-10b\n" (Scenario_cloud.attack_name a)
        o.Scenario_cloud.attested o.Scenario_cloud.jobs_completed
        o.Scenario_cloud.secret_leaked o.Scenario_cloud.state_regressed)
    outcomes;
  let no_counter =
    scenario_ok
      (Scenario_cloud.run ~with_counter:false Scenario_cloud.Rollback_sealed_state)
  in
  Printf.printf "rollback without monotonic counter: regressed=%b\n"
    no_counter.Scenario_cloud.state_regressed;
  let get a = List.assoc a outcomes in
  let ok =
    (get Scenario_cloud.Honest_host).Scenario_cloud.jobs_completed = 3
    && List.for_all (fun (_, o) -> not o.Scenario_cloud.secret_leaked) outcomes
    && not (get Scenario_cloud.Swap_enclave_code).Scenario_cloud.attested
    && (get Scenario_cloud.Starve_enclave).Scenario_cloud.jobs_completed = 0
    && (not (get Scenario_cloud.Rollback_sealed_state).Scenario_cloud.state_regressed)
    && no_counter.Scenario_cloud.state_regressed
  in
  shape ok
    "the host never sees the secret; starvation costs availability only; sealing alone permits rollback, the counter closes it"

(* ------------------------------------------------------------------ *)
(* interchangeability: discrete TPM vs TrustZone-hosted fTPM (§II-C)   *)
(* ------------------------------------------------------------------ *)

let interchangeability () =
  header "interchangeability" "one verifier, chip TPM vs software fTPM (§II-C)";
  let rng = Drbg.create 81L in
  let ca = Rsa.generate ~bits:512 rng in
  let measurement = Sha256.digest "kernel-v1" in
  (* the same verifier-side routine for both implementations *)
  let verify ~ek_pub quote reference =
    Lt_tpm.Tpm.verify_quote ~ek_pub quote
    && quote.Lt_tpm.Tpm.q_nonce = "challenge"
    && quote.Lt_tpm.Tpm.q_composite = reference
  in
  (* discrete chip *)
  let tpm = Lt_tpm.Tpm.manufacture rng ~ca_name:"mfg" ~ca_key:ca ~serial:"chip" in
  Lt_tpm.Tpm.extend tpm 0 measurement;
  let chip_quote = Lt_tpm.Tpm.quote tpm ~nonce:"challenge" ~selection:[ 0 ] in
  let chip_ok =
    verify
      ~ek_pub:(Lt_tpm.Tpm.ek_cert tpm).Cert.pubkey
      chip_quote
      (Lt_tpm.Pcr.composite (Lt_tpm.Tpm.pcrs tpm) [ 0 ])
  in
  (* software fTPM inside TrustZone *)
  let machine = Lt_hw.Machine.create ~dram_pages:64 () in
  let vendor = Rsa.generate ~bits:512 rng in
  let tz =
    Lt_trustzone.Trustzone.install machine ~secure_pages:4 ~vendor_pub:vendor.Rsa.pub
  in
  (match
     Lt_trustzone.Trustzone.boot tz
       ~image:(Lt_tpm.Boot.sign_stage vendor ~name:"tz" "tz-v1")
   with
   | Ok _ -> ()
   | Error e -> failwith e);
  let ftpm =
    match Lt_trustzone.Ftpm.install tz rng ~ca_name:"mfg" ~ca_key:ca with
    | Ok f -> f
    | Error e -> failwith e
  in
  (match Lt_trustzone.Ftpm.extend ftpm 0 measurement with
   | Ok () -> ()
   | Error e -> failwith e);
  let ftpm_quote, ftpm_reference =
    match
      ( Lt_trustzone.Ftpm.quote ftpm ~nonce:"challenge" ~selection:[ 0 ],
        Lt_trustzone.Ftpm.read_pcr ftpm 0 )
    with
    | Ok q, Ok _ ->
      (* the reference composite: same computation as for the chip *)
      let scratch = Lt_tpm.Pcr.create () in
      Lt_tpm.Pcr.extend scratch 0 measurement;
      (q, Lt_tpm.Pcr.composite scratch [ 0 ])
    | Error e, _ | _, Error e -> failwith e
  in
  let ftpm_ok =
    verify ~ek_pub:(Lt_trustzone.Ftpm.ek_cert ftpm).Cert.pubkey ftpm_quote
      ftpm_reference
  in
  Printf.printf "%-28s quote verified: %b\n" "discrete TPM chip" chip_ok;
  Printf.printf "%-28s quote verified: %b\n" "fTPM (TrustZone software)" ftpm_ok;
  Printf.printf "same composite value reported: %b\n"
    (chip_quote.Lt_tpm.Tpm.q_composite = ftpm_quote.Lt_tpm.Tpm.q_composite);
  shape
    (chip_ok && ftpm_ok
     && chip_quote.Lt_tpm.Tpm.q_composite = ftpm_quote.Lt_tpm.Tpm.q_composite)
    "the verifier cannot and need not tell chip from software"

(* ------------------------------------------------------------------ *)

let all : (string * (unit -> bool)) list =
  [ ("fig1-containment", fig1_containment);
    ("fig2-template", fig2_template);
    ("fig3-smartmeter", fig3_smartmeter);
    ("tcb-size", tcb_size);
    ("confused-deputy", confused_deputy);
    ("vpfs", vpfs_experiment);
    ("secure-launch", secure_launch);
    ("temporal-isolation", temporal_isolation);
    ("tdma-overhead", tdma_overhead);
    ("cache-sidechannel", cache_sidechannel);
    ("physical-attack", physical_attack);
    ("latelaunch", latelaunch);
    ("gateway", gateway_experiment);
    ("dma-attack", dma_attack);
    ("cheri-compartments", cheri_compartments);
    ("vetting-ablation", vetting_ablation);
    ("cloud-enclave", cloud_enclave);
    ("interchangeability", interchangeability) ]
