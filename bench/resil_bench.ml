(* Self-timed micro-benchmark of the resilience layer's fast path: the
   same traced Deploy.call workload as trace_bench (cloud host ->
   enclave, a routed call crossing a microkernel IPC and an SGX ecall),
   timed bare and wrapped in Supervisor.call with every component
   healthy — so the wrapper pays only its route lookup, closed-breaker
   check and deadline bookkeeping, never a retry or a restart. The
   committed record lives in BENCH_resil.json at the repo root (refresh
   with `dune exec bench/resil_bench.exe`); the median overhead must
   stay below 5% of the traced baseline. The same run also reports the
   median supervised recovery cost in simulated ticks: crash the
   enclave, issue one hardened call, and count ambient ticks until the
   reply (restart cost + backoff + the retried crossing). *)

open Lt_crypto
open Lateral

let rng = Drbg.create 0xc4a05L

let ca = Rsa.generate ~bits:512 rng

(* a restart budget that never runs out: recovery cycles are the point *)
let lavish =
  { Manifest.r_policy = Manifest.On_failure; r_max = 1_000_000; r_window = 256 }

let build_deployment () =
  let m1 = Lt_hw.Machine.create ~dram_pages:512 () in
  let mk, _ =
    Substrate_kernel.make m1 (Lt_kernel.Sched.Round_robin { quantum = 500 }) ()
  in
  let m2 = Lt_hw.Machine.create ~dram_pages:256 () in
  let sgx, _ = Substrate_sgx.make m2 rng ~ca_name:"intel" ~ca_key:ca () in
  let substrates = [ ("microkernel", mk); ("sgx", sgx) ] in
  let components =
    [ ( Manifest.v ~name:"host" ~provides:[ "submit" ] ~network_facing:true
          ~connects_to:[ Manifest.conn ~vetted:true "enclave" "ecall" ]
          ~substrate:"microkernel" ~restart:lavish (),
        fun ctx ~service:_ job ->
          match ctx.Deploy.call ~target:"enclave" ~service:"ecall" job with
          | Ok r -> r
          | Error e -> failwith (App.render_call_error e) );
      ( Manifest.v ~name:"enclave" ~provides:[ "ecall" ] ~substrate:"sgx"
          ~restart:lavish (),
        fun _ctx ~service:_ job ->
          String.sub (Sha256.hex (Hmac.mac ~key:"bench" job)) 0 8 ) ]
  in
  match Deploy.deploy ~substrates components with
  | Ok d -> d
  | Error e -> failwith e

let calls_per_run = 250
let runs = 15
let repeats = 3 (* per-configuration repeats inside a pair; fastest wins *)
let ring_capacity = 4096
let warm_calls = 25

let issue_bare dep i =
  match
    Deploy.call dep ~caller:None ~target:"host" ~service:"submit"
      (Printf.sprintf "job-%d" i)
  with
  | Ok _ -> ()
  | Error e -> failwith e

let issue_supervised sup i =
  match
    Lt_resil.Supervisor.call sup ~caller:None ~target:"host" ~service:"submit"
      (Printf.sprintf "job-%d" i)
  with
  | Ok _ -> ()
  | Error e -> failwith (App.render_call_error e)

let time_run issue =
  for i = 1 to warm_calls do
    issue (-i)
  done;
  Gc.full_major ();
  let t0 = Sys.time () in
  for i = 1 to calls_per_run do
    issue i
  done;
  Sys.time () -. t0

(* both configurations run fully traced: the budget is the cost of the
   supervisor wrapper, not of observability (that is BENCH_trace's) *)
let traced f =
  let tracer = Lt_obs.Trace.create ~capacity:ring_capacity () in
  let metrics = Lt_obs.Metrics.create () in
  Lt_obs.Trace.with_tracer tracer (fun () ->
      Lt_obs.Metrics.with_metrics metrics f)

let baseline_run dep () = traced (fun () -> time_run (issue_bare dep))

let supervised_run dep () =
  let sup = Lt_resil.Supervisor.create ~seed:7L dep in
  traced (fun () -> time_run (issue_supervised sup))

let median xs =
  let sorted = List.sort compare xs in
  List.nth sorted (List.length xs / 2)

let recovery_cycles = 31

(* ambient ticks from killing the enclave to the next served reply:
   heal (restart cost) + backoff + the successful retry's crossing *)
let measure_recovery () =
  let dep = build_deployment () in
  let sup = Lt_resil.Supervisor.create ~seed:11L dep in
  let tracer = Lt_obs.Trace.create ~capacity:ring_capacity () in
  let metrics = Lt_obs.Metrics.create () in
  Lt_obs.Trace.with_tracer tracer (fun () ->
      Lt_obs.Metrics.with_metrics metrics (fun () ->
          let ticks = ref [] in
          for i = 1 to recovery_cycles do
            (match Lt_resil.Supervisor.crash sup "enclave" with
             | Ok () -> ()
             | Error e -> failwith e);
            let t0 = Lt_obs.Trace.ambient_now () in
            issue_supervised sup i;
            ticks := (Lt_obs.Trace.ambient_now () - t0) :: !ticks
          done;
          median !ticks))

let () =
  ignore (baseline_run (build_deployment ()) ());
  ignore (supervised_run (build_deployment ()) ());
  let baseline = ref [] and supervised = ref [] and ratios = ref [] in
  for i = 1 to runs do
    let b = ref infinity and s = ref infinity in
    for j = 1 to repeats do
      let db = build_deployment () and ds = build_deployment () in
      if (i + j) mod 2 = 0 then begin
        b := min !b (baseline_run db ());
        s := min !s (supervised_run ds ())
      end
      else begin
        s := min !s (supervised_run ds ());
        b := min !b (baseline_run db ())
      end
    done;
    baseline := !b :: !baseline;
    supervised := !s :: !supervised;
    ratios := (!s /. !b) :: !ratios
  done;
  let mb = median !baseline and ms = median !supervised in
  let us_per_call t = t *. 1e6 /. float_of_int calls_per_run in
  let overhead_pct = 100.0 *. (median !ratios -. 1.0) in
  let recovery_ticks = measure_recovery () in
  Printf.printf
    "{\"benchmark\":\"resil-overhead\",\"workload\":\"cloud host->enclave \
     Deploy.call, traced\",\"calls_per_run\":%d,\"runs\":%d,\"repeats\":%d,\"baseline_median_us_per_call\":%.3f,\"supervised_median_us_per_call\":%.3f,\"median_overhead_pct\":%.2f,\"budget_pct\":5.0,\"recovery_cycles\":%d,\"median_recovery_ticks\":%d}\n"
    calls_per_run runs repeats (us_per_call mb) (us_per_call ms) overhead_pct
    recovery_cycles recovery_ticks
