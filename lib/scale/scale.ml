open Lateral
module World = Lt_world.World
module Digest64 = Lt_world.Digest64
module Drbg = Lt_crypto.Drbg
module Trace = Lt_obs.Trace
module Metrics = Lt_obs.Metrics
module Json = Lt_obs.Json
module Load = Lt_load.Load
module Net = Lt_net.Net
module Gateway = Lt_net.Gateway

type config = {
  sc_scenario : Load.scenario;
  sc_tenants : int;
  sc_shards : int;
  sc_requests_per_tenant : int;
  sc_batch : int;
  sc_seed : int;
  sc_admit_rate : float;
  sc_admit_burst : float;
  sc_kill_shards : int list;
  sc_kill_after : int;
}

let default =
  { sc_scenario = Load.Mail;
    sc_tenants = 100;
    sc_shards = 4;
    sc_requests_per_tenant = 8;
    sc_batch = 4;
    sc_seed = 1;
    sc_admit_rate = 1.0;
    sc_admit_burst = 32.0;
    sc_kill_shards = [];
    sc_kill_after = 0 }

let shard_of_tenant ~shards i = i mod shards

let domain_of_tenant ~shards i =
  [ Printf.sprintf "shard-%d" (shard_of_tenant ~shards i);
    Printf.sprintf "tenant-%d" i ]

type tenant_report = {
  tr_tenant : int;
  tr_shard : int;
  tr_domain : string list;
  tr_ok : int;
  tr_degraded : int;
  tr_errors : int;
  tr_throttled : int;
  tr_refused : int;
  tr_traffic : string;
}

type report = {
  s_scenario : string;
  s_tenants : int;
  s_shards : int;
  s_requests_per_tenant : int;
  s_requests : int;
  s_seed : int;
  s_ok : int;
  s_degraded : int;
  s_errors : int;
  s_throttled : int;
  s_refused : int;
  s_killed_shards : int list;
  s_cross_domain_failures : (int * string) list;
  s_forks : int;
  s_restores : int;
  s_counters : (string * int) list;
  s_tenant_reports : tenant_report list;
}

let contained r = r.s_cross_domain_failures = []

let validate cfg =
  if cfg.sc_tenants <= 0 then Error "tenants must be positive"
  else if cfg.sc_shards <= 0 then Error "shards must be positive"
  else if cfg.sc_shards > cfg.sc_tenants then
    Error "shards must not exceed tenants"
  else if cfg.sc_requests_per_tenant < 0 then
    Error "requests per tenant must be non-negative"
  else if cfg.sc_batch <= 0 then Error "batch must be positive"
  else if cfg.sc_admit_rate < 0.0 || cfg.sc_admit_rate <> cfg.sc_admit_rate
  then Error "admit rate must be non-negative"
  else if cfg.sc_admit_burst < 1.0 || cfg.sc_admit_burst <> cfg.sc_admit_burst
  then Error "admit burst must be at least 1"
  else if cfg.sc_kill_after < 0 then Error "kill round must be non-negative"
  else
    match
      List.find_opt
        (fun k -> k < 0 || k >= cfg.sc_shards)
        cfg.sc_kill_shards
    with
    | Some k -> Error (Printf.sprintf "kill shard %d out of range" k)
    | None -> Ok ()

(* --- per-shard state ---------------------------------------------------------- *)

type shard = {
  sh_id : int;
  sh_dep : Load.deployed;
  sh_template : World.snap;  (* the pristine booted deployment *)
  sh_gate : Gateway.t;
  sh_net : Net.t;            (* admission net fronting the shard *)
  sh_entry : string;
  mutable sh_tick : int;     (* gateway clock: one tick per admission *)
  mutable sh_alive : bool;
}

let boot_shard rng cfg k =
  match Load.deploy_scenario (Drbg.substream rng k) cfg.sc_scenario with
  | Error e -> Error (Printf.sprintf "shard %d: %s" k e)
  | Ok dep ->
    let net = Net.create () in
    let entry = Printf.sprintf "shard-%d" k in
    (match Net.register net entry with
     | Ok () -> ()
     | Error `Duplicate_addr -> () (* fresh net: unreachable *));
    let gate =
      Gateway.create ~whitelist:[ entry ]
        ~tokens_per_tick:cfg.sc_admit_rate ~burst:cfg.sc_admit_burst
    in
    Ok
      { sh_id = k;
        sh_dep = dep;
        sh_template = World.fork dep.Load.d_world;
        sh_gate = gate;
        sh_net = net;
        sh_entry = entry;
        sh_tick = 0;
        sh_alive = true }

let rec boot_shards rng cfg k =
  if k >= cfg.sc_shards then Ok []
  else
    match boot_shard rng cfg k with
    | Error _ as e -> e
    | Ok sh ->
      (match boot_shards rng cfg (k + 1) with
       | Error _ as e -> e
       | Ok rest -> Ok (sh :: rest))

(* --- per-tenant state --------------------------------------------------------- *)

type tenant = {
  tn_id : int;
  tn_shard : int;
  tn_rng : Drbg.t;          (* substream master i — pool-size independent *)
  mutable tn_snap : World.snap;
  mutable tn_issued : int;  (* requests drawn from the mix so far *)
  mutable tn_digest : Digest64.t;
  mutable tn_ok : int;
  mutable tn_degraded : int;
  mutable tn_errors : int;
  mutable tn_throttled : int;
  mutable tn_refused : int;
}

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* --- the run loop ------------------------------------------------------------- *)

let run cfg =
  match validate cfg with
  | Error _ as e -> e
  | Ok () ->
    let master = Drbg.create (Int64.of_int cfg.sc_seed) in
    let deploy_rng = Drbg.split master in
    (match boot_shards deploy_rng cfg 0 with
     | Error _ as e -> e
     | Ok shards ->
       let shard = Array.of_list shards in
       let forks = ref (Array.length shard) and restores = ref 0 in
       let tenants =
         Array.init cfg.sc_tenants (fun i ->
             let k = shard_of_tenant ~shards:cfg.sc_shards i in
             { tn_id = i;
               tn_shard = k;
               tn_rng = Drbg.substream master i;
               tn_snap = shard.(k).sh_template;
               tn_issued = 0;
               tn_digest = Digest64.basis;
               tn_ok = 0;
               tn_degraded = 0;
               tn_errors = 0;
               tn_throttled = 0;
               tn_refused = 0 })
       in
       let metrics = Metrics.create () in
       let killed = ref [] in
       let kill_shards () =
         List.iter
           (fun k ->
             if shard.(k).sh_alive then begin
               shard.(k).sh_alive <- false;
               killed := k :: !killed;
               Metrics.incr "scale/shard_kills";
               Trace.event ~kind:"chaos"
                 ~name:(Printf.sprintf "kill-shard-%d" k) ()
             end)
           cfg.sc_kill_shards
       in
       let visit tn n =
         let sh = shard.(tn.tn_shard) in
         let tid = Printf.sprintf "tenant-%d" tn.tn_id in
         if sh.sh_alive then begin
           (* enter the tenant's instance: rewind the shard's world to
              this tenant's fork of the template *)
           World.restore sh.sh_dep.Load.d_world tn.tn_snap;
           incr restores
         end;
         for _ = 1 to n do
           tn.tn_issued <- tn.tn_issued + 1;
           let target, service, payload =
             sh.sh_dep.Load.d_mix tn.tn_rng tn.tn_issued
           in
           (* the traffic digest covers every generated request, before
              admission or chaos can interfere — it is a pure function
              of (seed, tenant id, request index) *)
           tn.tn_digest <-
             Digest64.(
               string (string (string tn.tn_digest target) service) payload);
           if not sh.sh_alive then begin
             tn.tn_refused <- tn.tn_refused + 1;
             Metrics.incr "scale/refused";
             Trace.event ~kind:"refused" ~name:tid ()
           end
           else begin
             sh.sh_tick <- sh.sh_tick + 1;
             match
               Gateway.submit sh.sh_gate sh.sh_net ~now:sh.sh_tick ~src:tid
                 ~dst:sh.sh_entry payload
             with
             | Gateway.Rate_limited | Gateway.Blocked_destination ->
               tn.tn_throttled <- tn.tn_throttled + 1;
               Metrics.incr "scale/throttled"
             | Gateway.Forwarded ->
               ignore (Net.recv sh.sh_net sh.sh_entry);
               Metrics.incr "scale/admitted";
               Metrics.incr_grouped ~group:"shard" sh.sh_entry;
               let r =
                 Trace.with_span ~kind:"request"
                   ~name:(target ^ "." ^ service)
                   ~attrs:
                     [ ("tenant", tid); ("shard", sh.sh_entry);
                       ("request", string_of_int tn.tn_issued) ]
                   (fun () ->
                     match
                       Deploy.call sh.sh_dep.Load.d_deploy ~caller:None
                         ~target ~service payload
                     with
                     | Ok r -> Ok r
                     | Error e ->
                       Trace.fail_span e;
                       Error e)
               in
               (match r with
                | Ok reply when has_prefix ~prefix:"rate-limited" reply ->
                  tn.tn_degraded <- tn.tn_degraded + 1;
                  Metrics.incr "scale/degraded"
                | Ok _ ->
                  tn.tn_ok <- tn.tn_ok + 1;
                  Metrics.incr "scale/ok"
                | Error _ ->
                  tn.tn_errors <- tn.tn_errors + 1;
                  Metrics.incr "scale/errors")
           end
         done;
         if sh.sh_alive then begin
           (* leave: capture the tenant's state so the next visit (or
              another tenant's) cannot observe it *)
           tn.tn_snap <- World.fork sh.sh_dep.Load.d_world;
           incr forks
         end
       in
       let tracer = Trace.create () in
       Metrics.with_metrics metrics (fun () ->
           Trace.with_tracer tracer (fun () ->
               let rounds =
                 if cfg.sc_requests_per_tenant = 0 then 0
                 else
                   (cfg.sc_requests_per_tenant + cfg.sc_batch - 1)
                   / cfg.sc_batch
               in
               for round = 1 to rounds do
                 if cfg.sc_kill_after > 0 && round = cfg.sc_kill_after then
                   kill_shards ();
                 (* shard-major: all of a shard's tenants run as one
                    batch train before the router moves on *)
                 Array.iter
                   (fun sh ->
                     Array.iter
                       (fun tn ->
                         if tn.tn_shard = sh.sh_id then begin
                           let remaining =
                             cfg.sc_requests_per_tenant - tn.tn_issued
                           in
                           let n = min cfg.sc_batch remaining in
                           if n > 0 then visit tn n
                         end)
                       tenants)
                   shard
               done;
               if cfg.sc_kill_after > 0 && rounds < cfg.sc_kill_after then
                 kill_shards ()));
       let killed = List.sort compare !killed in
       let tenant_reports =
         Array.to_list
           (Array.map
              (fun tn ->
                { tr_tenant = tn.tn_id;
                  tr_shard = tn.tn_shard;
                  tr_domain = domain_of_tenant ~shards:cfg.sc_shards tn.tn_id;
                  tr_ok = tn.tn_ok;
                  tr_degraded = tn.tn_degraded;
                  tr_errors = tn.tn_errors;
                  tr_throttled = tn.tn_throttled;
                  tr_refused = tn.tn_refused;
                  tr_traffic = Digest64.to_hex tn.tn_digest })
              tenants)
       in
       (* the audit: every failure must be attributable to the failing
          tenant's own trust domain — and a domain only fails when its
          shard was killed *)
       let cross =
         List.filter_map
           (fun tr ->
             let failures = tr.tr_errors + tr.tr_refused in
             if failures > 0 && not (List.mem tr.tr_shard killed) then
               Some
                 ( tr.tr_tenant,
                   Printf.sprintf
                     "%d failure(s) in live domain %s (errors %d, refused %d)"
                     failures
                     (Manifest.trust_path_string tr.tr_domain)
                     tr.tr_errors tr.tr_refused )
             else None)
           tenant_reports
       in
       let sum f = List.fold_left (fun a tr -> a + f tr) 0 tenant_reports in
       Array.iter (fun sh -> Deploy.destroy sh.sh_dep.Load.d_deploy) shard;
       Ok
         { s_scenario = Load.scenario_name cfg.sc_scenario;
           s_tenants = cfg.sc_tenants;
           s_shards = cfg.sc_shards;
           s_requests_per_tenant = cfg.sc_requests_per_tenant;
           s_requests = cfg.sc_tenants * cfg.sc_requests_per_tenant;
           s_seed = cfg.sc_seed;
           s_ok = sum (fun t -> t.tr_ok);
           s_degraded = sum (fun t -> t.tr_degraded);
           s_errors = sum (fun t -> t.tr_errors);
           s_throttled = sum (fun t -> t.tr_throttled);
           s_refused = sum (fun t -> t.tr_refused);
           s_killed_shards = killed;
           s_cross_domain_failures = cross;
           s_forks = !forks;
           s_restores = !restores;
           s_counters = Metrics.counters metrics;
           s_tenant_reports = tenant_reports })

(* --- the static fleet --------------------------------------------------------- *)

let clone_for_tenant ~shards i (m : Manifest.t) =
  let pre n = Printf.sprintf "t%d.%s" i n in
  { m with
    Manifest.name = pre m.Manifest.name;
    domain = pre m.Manifest.domain;
    trust_domain = domain_of_tenant ~shards i;
    connects_to =
      List.map
        (fun c -> { c with Manifest.target = pre c.Manifest.target })
        m.Manifest.connects_to }

let fleet_manifests cfg =
  match validate cfg with
  | Error _ as e -> e
  | Ok () ->
    let rng = Drbg.create (Int64.of_int cfg.sc_seed) in
    (match Load.deploy_scenario (Drbg.split rng) cfg.sc_scenario with
     | Error e -> Error e
     | Ok dep ->
       let template =
         List.filter_map
           (Deploy.manifest dep.Load.d_deploy)
           (Deploy.components dep.Load.d_deploy)
       in
       Deploy.destroy dep.Load.d_deploy;
       Ok
         (List.concat_map
            (fun i ->
              List.map
                (clone_for_tenant ~shards:cfg.sc_shards i)
                template)
            (List.init cfg.sc_tenants (fun i -> i))))

(* --- rendering ---------------------------------------------------------------- *)

let render_report_text r =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "lateral scale %s: %d tenants over %d shards, %d req/tenant, seed %d\n"
    r.s_scenario r.s_tenants r.s_shards r.s_requests_per_tenant r.s_seed;
  add "  ok %d, degraded %d, errors %d, throttled %d, refused %d (of %d)\n"
    r.s_ok r.s_degraded r.s_errors r.s_throttled r.s_refused r.s_requests;
  add "  worlds: %d forks, %d restores\n" r.s_forks r.s_restores;
  add "  killed shards: %s\n"
    (if r.s_killed_shards = [] then "-"
     else String.concat ", " (List.map string_of_int r.s_killed_shards));
  (match r.s_cross_domain_failures with
   | [] -> add "  blast radius: contained to the killed shards' domain set\n"
   | l ->
     List.iter
       (fun (t, d) -> add "  CROSS-DOMAIN FAILURE: tenant %d: %s\n" t d)
       l);
  add "counters:\n";
  List.iter (fun (k, v) -> add "  %-32s %8d\n" k v) r.s_counters;
  let shown = min 10 (List.length r.s_tenant_reports) in
  add "tenants (first %d of %d):\n" shown r.s_tenants;
  List.iteri
    (fun i tr ->
      if i < shown then
        add "  %-12s shard %d ok %d degraded %d errors %d throttled %d refused %d traffic %s\n"
          (Printf.sprintf "tenant-%d" tr.tr_tenant)
          tr.tr_shard tr.tr_ok tr.tr_degraded tr.tr_errors tr.tr_throttled
          tr.tr_refused tr.tr_traffic)
    r.s_tenant_reports;
  Buffer.contents buf

let render_report_json r =
  Json.(
    to_string
      (Obj
         [ ("scenario", Str r.s_scenario); ("tenants", Int r.s_tenants);
           ("shards", Int r.s_shards);
           ("requests_per_tenant", Int r.s_requests_per_tenant);
           ("requests", Int r.s_requests); ("seed", Int r.s_seed);
           ("ok", Int r.s_ok); ("degraded", Int r.s_degraded);
           ("errors", Int r.s_errors); ("throttled", Int r.s_throttled);
           ("refused", Int r.s_refused);
           ("killed_shards", list (fun k -> Int k) r.s_killed_shards);
           ( "cross_domain_failures",
             list
               (fun (t, d) -> Obj [ ("tenant", Int t); ("detail", Str d) ])
               r.s_cross_domain_failures );
           ("contained", Bool (contained r)); ("forks", Int r.s_forks);
           ("restores", Int r.s_restores);
           ("counters", Metrics.counters_json r.s_counters);
           ( "tenants_detail",
             list
               (fun tr ->
                 Obj
                   [ ("tenant", Int tr.tr_tenant); ("shard", Int tr.tr_shard);
                     ("domain", Str (Manifest.trust_path_string tr.tr_domain));
                     ("ok", Int tr.tr_ok); ("degraded", Int tr.tr_degraded);
                     ("errors", Int tr.tr_errors); ("throttled", Int tr.tr_throttled);
                     ("refused", Int tr.tr_refused); ("traffic", Str tr.tr_traffic) ])
               r.s_tenant_reports ) ]))
