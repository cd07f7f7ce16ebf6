(* tenants-mail and tenants-churn: the sharded multi-tenant router.

   End-to-end numbers come from Scale.run itself. A run times Scale.run
   with 0 requests a few times (the set-up: shard boot and tenant
   table), then the full Scale.run once per round; a round's requests/s
   is requests / (its CPU - the median set-up CPU).

   Scale.run is a batch runner: it exposes no per-request hook. So the
   per-request latencies and the traced per-layer numbers come from a
   replay that makes the same public calls in the same order — boot the
   shards from the same Drbg substreams, visit tenants shard-major,
   install Lt_obs Trace and Metrics as Scale.run does, then
   World.restore -> Gateway.submit / Net.recv -> Deploy.call x batch ->
   World.fork. In every run the replay must reproduce Scale.run's
   per-tenant traffic digests byte for byte, and its CPU per request
   must match Scale.run's within 10% (see [fidelity]). A change to
   Scale.run's own loop that the replay does not copy then fails the
   run, instead of leaving the replayed latencies behind. *)

open Lateral
module Scale = Lt_scale.Scale
module Load = Lt_load.Load
module World = Lt_world.World
module Digest64 = Lt_world.Digest64
module Drbg = Lt_crypto.Drbg
module Trace = Lt_obs.Trace
module Metrics = Lt_obs.Metrics
module Net = Lt_net.Net
module Gateway = Lt_net.Gateway
module H = Harness

type shape = {
  scenario : Load.scenario;
  tenants : int;
  shards : int;
  batch : int;
  per_tenant : int;
  round_s : float;  (* CPU seconds of one Scale.run on the reference host *)
  fixed_s : float;  (* CPU seconds of a run's set-ups and replays there *)
}

let mail =
  { scenario = Load.Mail; tenants = 200; shards = 2; batch = 8; per_tenant = 16;
    round_s = 1.7; fixed_s = 4.8 }

let churn =
  { scenario = Load.Cloud; tenants = 3000; shards = 2; batch = 1; per_tenant = 2;
    round_s = 1.6; fixed_s = 4.4 }

(* Scale.run with 0 requests (the set-up) runs this many times per run,
   and the latency replay this many *)
let setup_samples = 3
let replays = 2

(* the default admission (1 token per tick, burst 32) never throttles a
   closed loop that advances the gateway clock one tick per request *)
let config (ctx : H.ctx) s =
  { Scale.default with
    sc_scenario = s.scenario;
    sc_tenants = H.size ctx s.tenants;
    sc_shards = s.shards;
    sc_batch = s.batch;
    sc_requests_per_tenant = s.per_tenant;
    sc_seed = ctx.seed }

let visits_per_tenant cfg =
  (cfg.Scale.sc_requests_per_tenant + cfg.sc_batch - 1) / cfg.sc_batch

let requests cfg = cfg.Scale.sc_tenants * cfg.sc_requests_per_tenant

let failures (r : Scale.report) =
  r.s_errors + r.s_throttled + r.s_refused + r.s_degraded

let digests (r : Scale.report) =
  List.map (fun t -> t.Scale.tr_traffic) r.s_tenant_reports

(* --- the replay ----------------------------------------------------------- *)

type shard = { dep : Load.deployed; template : World.snap; entry : string }

type replay = { master : Drbg.t; shards : shard array }

let boot cfg =
  let master = Drbg.create (Int64.of_int cfg.Scale.sc_seed) in
  let deploy_rng = Drbg.split master in
  let shards =
    Array.init cfg.sc_shards (fun k ->
        match Load.deploy_scenario (Drbg.substream deploy_rng k) cfg.sc_scenario with
        | Ok dep ->
          { dep; template = World.fork dep.Load.d_world;
            entry = Printf.sprintf "shard-%d" k }
        | Error e -> failwith (Printf.sprintf "replay shard %d: %s" k e))
  in
  { master; shards }

type tenant = {
  id : int;
  shard : int;
  rng : Drbg.t;
  mutable snap : World.snap;
  mutable issued : int;
  mutable digest : Digest64.t;
}

(* The latency samples are CPU per request over windows of [window]
   consecutive requests, not over one request: Scale.run pays a minor
   collection about every 4 (mail) or 17 (churn) requests, so one
   request's time mostly says whether it paid one, and a percentile near
   that share flipped between runs (churn p90: 186-241 us over ten
   seeds). *)
let window = 32

(* [windows cpu n] — visit [i] took [cpu.(i)] seconds for [n.(i)]
   requests; the last window may be short *)
let windows cpu n =
  let out = ref [] and c = ref 0.0 and k = ref 0 in
  let flush () =
    out := (!c *. 1e6 /. float_of_int !k) :: !out;
    c := 0.0;
    k := 0
  in
  Array.iteri
    (fun i t ->
      c := !c +. t;
      k := !k + n.(i);
      if !k >= window then flush ())
    cpu;
  if !k > 0 then flush ();
  Array.of_list (List.rev !out)

type pass = {
  p_run : H.pass;             (* the request loop *)
  p_window_us : float array;  (* CPU per request over each window *)
  p_digests : string list;
  p_forks : int;
  p_restores : int;
  p_failed : int;
}

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* One pass over the whole configuration, as Scale.run drives it: boot,
   then the request loop, timed. No collection runs in between, so the
   loop pays the boot's GC debt as Scale.run's does. *)
let run_pass cfg =
  Gc.full_major ();
  let r = boot cfg in
  let span = H.Spans.span in
  let nets =
    Array.map
      (fun sh ->
        let net = Net.create () in
        (match Net.register net sh.entry with
         | Ok () | Error `Duplicate_addr -> ());
        net)
      r.shards
  in
  let gates =
    Array.map
      (fun sh ->
        Gateway.create ~whitelist:[ sh.entry ] ~tokens_per_tick:cfg.sc_admit_rate
          ~burst:cfg.sc_admit_burst)
      r.shards
  in
  let ticks = Array.make cfg.sc_shards 0 in
  let tenants =
    Array.init cfg.sc_tenants (fun i ->
        let k = Scale.shard_of_tenant ~shards:cfg.sc_shards i in
        { id = i; shard = k; rng = Drbg.substream r.master i;
          snap = r.shards.(k).template; issued = 0; digest = Digest64.basis })
  in
  let forks = ref 0 and restores = ref 0 and failed = ref 0 in
  let visit_cpu = Array.make (cfg.sc_tenants * visits_per_tenant cfg) 0.0 in
  let visit_n = Array.make (Array.length visit_cpu) 0 in
  let nvisits = ref 0 in
  let visit tn n =
    let k = tn.shard in
    let sh = r.shards.(k) in
    let tid = Printf.sprintf "tenant-%d" tn.id in
    span "world" "World.restore" (fun () -> World.restore sh.dep.Load.d_world tn.snap);
    incr restores;
    for _ = 1 to n do
      tn.issued <- tn.issued + 1;
      let target, service, payload =
        span "load" "Load.d_mix" (fun () -> sh.dep.Load.d_mix tn.rng tn.issued)
      in
      tn.digest <-
        Digest64.(string (string (string tn.digest target) service) payload);
      ticks.(k) <- ticks.(k) + 1;
      match
        span "gateway" "Gateway.submit" (fun () ->
            Gateway.submit gates.(k) nets.(k) ~now:ticks.(k) ~src:tid
              ~dst:sh.entry payload)
      with
      | Gateway.Rate_limited | Gateway.Blocked_destination ->
        incr failed;
        Metrics.incr "scale/throttled"
      | Gateway.Forwarded ->
        span "gateway" "Net.recv" (fun () -> ignore (Net.recv nets.(k) sh.entry));
        Metrics.incr "scale/admitted";
        Metrics.incr_grouped ~group:"shard" sh.entry;
        let reply =
          span "trace" "Trace.with_span" (fun () ->
              Trace.with_span ~kind:"request"
                ~name:(target ^ "." ^ service)
                ~attrs:
                  [ ("tenant", tid); ("shard", sh.entry);
                    ("request", string_of_int tn.issued) ]
                (fun () ->
                  span "deploy" "Deploy.call" (fun () ->
                      match
                        Deploy.call sh.dep.Load.d_deploy ~caller:None ~target
                          ~service payload
                      with
                      | Ok r -> Ok r
                      | Error e ->
                        Trace.fail_span e;
                        Error e)))
        in
        (match reply with
         | Ok s when has_prefix ~prefix:"rate-limited" s ->
           incr failed;
           Metrics.incr "scale/degraded"
         | Ok _ -> Metrics.incr "scale/ok"
         | Error _ ->
           incr failed;
           Metrics.incr "scale/errors")
    done;
    tn.snap <- span "world" "World.fork" (fun () -> World.fork sh.dep.Load.d_world);
    incr forks
  in
  let metrics = Metrics.create () in
  let tracer = Trace.create () in
  let p_run =
    H.measure_pass ~settle:false ~ops:(requests cfg) (fun () ->
        Metrics.with_metrics metrics (fun () ->
            Trace.with_tracer tracer (fun () ->
                for _ = 1 to visits_per_tenant cfg do
                  for k = 0 to cfg.sc_shards - 1 do
                    Array.iter
                      (fun tn ->
                        if tn.shard = k then begin
                          let n =
                            min cfg.sc_batch (cfg.sc_requests_per_tenant - tn.issued)
                          in
                          if n > 0 then begin
                            let v = !nvisits in
                            let t0 = H.cpu () in
                            H.Spans.op v (fun () -> visit tn n);
                            visit_cpu.(v) <- H.cpu () -. t0;
                            visit_n.(v) <- n;
                            incr nvisits
                          end
                        end)
                      tenants
                  done
                done);
            (* Scale.run scrubs its shards before it returns *)
            Array.iter (fun sh -> Deploy.destroy sh.dep.Load.d_deploy) r.shards))
  in
  { p_run;
    p_window_us = windows (Array.sub visit_cpu 0 !nvisits) visit_n;
    p_digests = Array.to_list (Array.map (fun t -> Digest64.to_hex t.digest) tenants);
    p_forks = !forks; p_restores = !restores; p_failed = !failed }

(* --- Scale.run rounds --------------------------------------------------- *)

type scale_run = { report : Scale.report; cpu : float; peak_mb : float }

(* one Scale.run in a fresh child *)
let scale_run cfg =
  H.in_child (fun () ->
      Gc.full_major ();
      match H.timed (fun () -> Scale.run cfg) with
      | Ok report, cpu -> { report; cpu; peak_mb = H.peak_heap_mb () }
      | Error e, _ -> failwith ("Scale.run: " ^ e))

let setup_cpu cfg = (scale_run { cfg with Scale.sc_requests_per_tenant = 0 }).cpu

let gate_run problems cfg sr =
  let r = sr.report in
  let visits = cfg.Scale.sc_tenants * visits_per_tenant cfg in
  H.check problems (Scale.contained r) "Scale.run not contained";
  H.check problems (r.s_restores = visits) "restores %d, expected %d" r.s_restores visits;
  H.check problems (r.s_forks = cfg.sc_shards + visits) "forks %d, expected %d"
    r.s_forks (cfg.sc_shards + visits)

let gate_pass problems cfg ~expect p =
  let visits = cfg.Scale.sc_tenants * visits_per_tenant cfg in
  H.check problems (p.p_digests = expect) "replay traffic digests differ from Scale.run's";
  H.check problems (p.p_forks = visits && p.p_restores = visits)
    "replay forks/restores %d/%d, expected %d" p.p_forks p.p_restores visits

(* The replay must cost what Scale.run does per request, or its
   latencies do not describe Scale.run. [runs] are the Scale.run CPU
   times less the set-up, [replays] the replay's timed loops over the
   same requests; the fidelity is the ratio of their medians. One pass's
   CPU varies by up to 15% on a busy host, so a band on the medians alone
   would fail runs on noise: the gate fails when every replay costs over
   1.1x, or every one under 0.9x, every Scale.run of the run. *)
let fidelity problems (ctx : H.ctx) ~runs ~replays =
  let lo = List.fold_left Float.min infinity and hi = List.fold_left Float.max neg_infinity in
  let med l = H.median (Array.of_list l) in
  let fid = med replays /. med runs in
  if not ctx.smoke then
    H.check problems
      (lo replays <= 1.1 *. hi runs && hi replays >= 0.9 *. lo runs)
      "scale.replay_fidelity %.3f: every replay (%.3f-%.3f s) costs over 1.1x or under 0.9x \
       every Scale.run (%.3f-%.3f s); the replay no longer makes Scale.run's calls"
      fid (lo replays) (hi replays) (lo runs) (hi runs);
  ( fid,
    Printf.sprintf "replay CPU/request over Scale.run's; replays %s s, runs %s s"
      (String.concat " " (List.map (Printf.sprintf "%.3f") replays))
      (String.concat " " (List.map (Printf.sprintf "%.3f") runs)) )

(* A run: Scale.run with 0 requests a few times (the set-up), then the
   full Scale.run once per round, the first rounds each followed by a
   replay for the per-request latencies; each in its own child. *)
let run (ctx : H.ctx) s =
  let cfg = config ctx s in
  let problems = ref [] in
  let some n = if ctx.smoke then 1 else n in
  let setups = Array.init (some setup_samples) (fun _ -> setup_cpu cfg) in
  let rounds =
    List.init (H.rounds ctx ~fixed_s:s.fixed_s ~round_s:s.round_s) (fun i ->
        let sr = scale_run cfg in
        (sr, if i < some replays then Some (H.in_child (fun () -> run_pass cfg)) else None))
  in
  let passes = List.filter_map snd rounds and rounds = List.map fst rounds in
  let expect = digests (List.hd rounds).report in
  List.iter
    (fun sr ->
      gate_run problems cfg sr;
      H.check problems (digests sr.report = expect) "digests differ across rounds")
    rounds;
  List.iter (gate_pass problems cfg ~expect) passes;
  (* the set-up is subtracted as its median: the same work each time,
     so its noise need not enter every round *)
  let setup = H.median setups in
  let rs =
    List.map
      (fun sr -> { H.r_ops = sr.report.s_requests; r_op_cpu = sr.cpu -. setup; r_peak_mb = sr.peak_mb })
      rounds
  in
  let fid, note =
    fidelity problems ctx
      ~runs:(List.map (fun r -> r.H.r_op_cpu) rs)
      ~replays:(List.map (fun p -> p.p_run.H.p_cpu) passes)
  in
  { H.problems = !problems;
    attempted = List.fold_left (fun a r -> a + r.H.r_ops) 0 rs;
    failed = List.fold_left (fun a sr -> a + failures sr.report) 0 rounds;
    metrics =
      H.end_to_end rs ~setup_s:setups
        ~latency_us:(Array.concat (List.map (fun p -> p.p_window_us) passes))
      @ [ ("scale.replay_fidelity", fid, note) ] }

(* Traced: pairs of one Scale.run and one spans-off replay, run back to
   back so that both halves see the same host, then the replay with
   spans on; each in its own child. *)
let traced (ctx : H.ctx) s =
  let cfg = config ctx s in
  let problems = ref [] in
  let setup = H.median (Array.init 2 (fun _ -> setup_cpu cfg)) in
  let pairs =
    List.init (if ctx.smoke then 1 else 3) (fun _ ->
        let sr = scale_run cfg in
        (sr, H.in_child (fun () -> run_pass cfg)))
  in
  let on, layers, roots = H.in_child (fun () -> H.with_spans ctx (fun () -> run_pass cfg)) in
  let expect = digests (fst (List.hd pairs)).report in
  List.iter
    (fun (sr, off) ->
      gate_run problems cfg sr;
      gate_pass problems cfg ~expect off)
    pairs;
  gate_pass problems cfg ~expect on;
  let fid, note =
    fidelity problems ctx
      ~runs:(List.map (fun (sr, _) -> sr.cpu -. setup) pairs)
      ~replays:(List.map (fun (_, off) -> off.p_run.H.p_cpu) pairs)
  in
  let off = snd (List.hd pairs) in
  let n = requests cfg in
  { H.t_outcome =
      { H.problems = !problems;
        attempted = (List.length pairs + 1) * n;
        failed = List.fold_left (fun a (_, p) -> a + p.p_failed) on.p_failed pairs;
        metrics =
          [ ("scale.forks_per_request", float_of_int off.p_forks /. float_of_int n, "");
            ("scale.replay_fidelity", fid, note) ] };
    t_off = off.p_run;
    t_on_cpu = on.p_run.H.p_cpu;
    t_layers = layers;
    t_roots = roots }
