(* The benchmark's contract: workloads, end-to-end metrics with their
   regression bounds, and per-layer metrics. BENCHMARK.json at the repo
   root is this module rendered by [suite.exe spec]; the smoke run fails
   when the two drift apart. *)

type better = Higher | Lower

let better_string = function Higher -> "higher" | Lower -> "lower"

let run_seconds = 15

let command =
  [ "dune"; "exec"; "--root"; "."; "--display"; "quiet"; "--";
    "./benchsuite/suite.exe" ]

let paths = [ "benchsuite" ]

let workloads =
  [ ( "tenants-mail",
      "Scale.run mail, 200 tenants on 2 shards, batch 8: the deepest \
       cross-substrate chain (IPC, SGX, SEP); p50/p90 come from a replay of \
       its calls, gated to cost what Scale.run does" );
    ( "tenants-churn",
      "Scale.run cloud, 3000 tenants on 2 shards, batch 1: World.restore + \
       World.fork per request before a one-hop SGX call; p50/p90 come from a \
       replay gated to cost what Scale.run does" );
    ( "fleet-attested",
      "1500 Fleet.call per fresh 3-host fleet, 16-2048 B payloads: \
       Secure_channel seal/open, Net and the remote agent hop run on every \
       op; long enough to show per-call drift" );
    ( "manifest-churn",
      "80 seeded Check.apply deltas per fresh 300-component fleet: flag \
       flips take the incremental slice, topology deltas re-solve; the \
       analyses with no runtime at all" );
    ( "hunt-substrate",
      "hunt steps of 8 Substrate_fuzz cases: crash, revive and storm ops \
       relaunch components on all seven adapters after a World.restore; \
       CHERI, M3, Flicker, TrustZone run only here" ) ]

type e2e = { e_name : string; e_unit : string; e_better : better; e_bound : float }

let end_to_end =
  [ { e_name = "ops_per_s"; e_unit = "op/s"; e_better = Higher; e_bound = 0.25 };
    { e_name = "op_p50_us"; e_unit = "us"; e_better = Lower; e_bound = 0.25 };
    { e_name = "op_p90_us"; e_unit = "us"; e_better = Lower; e_bound = 0.25 };
    { e_name = "setup_s"; e_unit = "s"; e_better = Lower; e_bound = 0.25 };
    { e_name = "peak_heap_mb"; e_unit = "MB"; e_better = Lower; e_bound = 0.10 } ]

let substrates_all =
  [ "microkernel"; "sgx"; "trustzone"; "sep"; "cheri"; "m3"; "flicker" ]

let leaf_substrates = [ "microkernel"; "sgx"; "sep" ]

let layer_shares =
  [ "load"; "gateway"; "world"; "deploy"; "trace"; "fleet"; "check"; "fuzz" ]

(* (name, unit, better); the layer each measures and the end-to-end
   metric it should move are tabled in benchsuite/README.md *)
let per_layer =
  let l = Lower and h = Higher in
  let per sub prefix unit = List.map (fun s -> (prefix ^ "." ^ s, unit, l)) sub in
  [ ("trace.op_us", "us", l);
    ("trace.layer_cover", "frac", h);
    ("bench.trace_overhead_frac", "frac", l);
    ("host.wall_over_cpu", "x", l);
    ("gc.minor_words_per_op", "words", l);
    ("gc.promoted_words_per_op", "words", l);
    ("gc.major_per_kop", "count", l) ]
  @ List.map (fun s -> (s ^ ".self_share", "frac", l)) layer_shares
  @ [ ("scale.forks_per_request", "count", l);
      ("fleet.drift_x", "x", l);
      ("net.log_packets", "count", l);
      ("gateway.submit_us", "us", l);
      ("net.send_recv_us", "us", l);
      ("world.fork_us", "us", l);
      ("world.restore_us", "us", l);
      ("world.heap_words_per_tenant", "words", l);
      ("deploy.call_us", "us", l) ]
  @ per leaf_substrates "deploy.call_fast_ns" "ns"
  @ per leaf_substrates "deploy.call_untraced_us" "us"
  @ per leaf_substrates "deploy.call_traced_us" "us"
  @ [ ("trace.overhead_frac", "frac", l) ]
  @ per substrates_all "deploy.relaunch_us" "us"
  @ per substrates_all "substrate.hop_us" "us"
  @ [ ("kernel.ipc_messages_per_hop", "count", l);
      ("kernel.context_switches_per_hop", "count", l);
      ("sgx.ecall_us", "us", l);
      ("trace.span_ns", "ns", l);
      ("metrics.incr_ns", "ns", l);
      ("channel.seal_us_per_kib", "us", l);
      ("channel.open_us_per_kib", "us", l);
      ("ra.check_us", "us", l);
      ("fleet.local_call_us", "us", l);
      ("check.create_ms", "ms", l);
      ("check.apply_us.flag", "us", l);
      ("check.apply_us.topology", "us", l);
      ("check.apply_us.remove", "us", l);
      ("check.topology_over_batch", "x", l);
      ("lint.batch_ms", "ms", l);
      ("flow.batch_ms", "ms", l);
      ("contain.batch_ms", "ms", l);
      ("hunt.generate_us", "us", l);
      ("hunt.check_us.plain", "us", l);
      ("hunt.check_us.revive", "us", l);
      ("hunt.revive_frac", "frac", l) ]

(* printed beside the metrics, but not part of the benchmark *)
let informational = [ ("op_p99_us", "us"); ("scale.replay_fidelity", "x") ]

let unit_of name =
  match List.find_opt (fun e -> e.e_name = name) end_to_end with
  | Some e -> e.e_unit
  | None ->
    (match List.find_opt (fun (n, _, _) -> n = name) per_layer with
     | Some (_, u, _) -> u
     | None -> Option.value (List.assoc_opt name informational) ~default:"")

(* BENCHMARK.json, byte for byte *)
let benchmark_json () =
  let b = Buffer.create 8192 in
  let add fmt = Printf.bprintf b fmt in
  let strings l = String.concat ", " (List.map (Printf.sprintf "%S") l) in
  let rows f l = String.concat ",\n" (List.map f l) in
  add "{\n";
  add "  \"command\": [%s],\n" (strings command);
  add "  \"paths\": [%s],\n" (strings paths);
  add "  \"run_seconds\": %d,\n" run_seconds;
  add "  \"workloads\": [\n%s\n  ],\n"
    (rows
       (fun (n, why) -> Printf.sprintf "    {\"name\": %S, \"why\": %S}" n why)
       workloads);
  add "  \"end_to_end\": [\n%s\n  ],\n"
    (rows
       (fun e ->
         Printf.sprintf
           "    {\"name\": %S, \"unit\": %S, \"better\": %S, \"bound\": %.2f}"
           e.e_name e.e_unit (better_string e.e_better) e.e_bound)
       end_to_end);
  add "  \"per_layer\": [\n%s\n  ]\n"
    (rows
       (fun (n, u, bt) ->
         Printf.sprintf "    {\"name\": %S, \"unit\": %S, \"better\": %S}" n u
           (better_string bt))
       per_layer);
  add "}\n";
  Buffer.contents b
