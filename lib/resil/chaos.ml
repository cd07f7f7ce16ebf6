open Lt_crypto
open Lateral
module Load = Lt_load.Load
module Trace = Lt_obs.Trace
module Json = Lt_obs.Json

type plan = {
  kill : string list;
  kill_pct : int;
  flap : string option;
  mid_ipc_pct : int;
}

let no_chaos = { kill = []; kill_pct = 0; flap = None; mid_ipc_pct = 0 }

type report = {
  c_scenario : string;
  c_requests : int;
  c_seed : int;
  c_outcome : Fault_schedule.outcome;
  c_flap_kills : int;
  c_backend_cuts : int;
  c_recovered : int;
  c_clean : int;
  c_oracle : string;
  c_secret_leak : bool;
  c_restarts : (string * int) list;
  c_given_up : string list;
  c_router_violations : int;
}

let contained r =
  r.c_outcome.failed_unexcused = 0 && r.c_oracle = "match" && not r.c_secret_leak

(* the legacy-OS storage backend is not a deployed component; killing it
   is a power cut in the block-device stack under the VPFS wrapper *)
let backend_name = "legacy_os"

let fault_sites pct =
  [ ("microkernel/kill-mid-ipc", pct); ("sgx/kill-mid-ecall", pct) ]

let validate_plan plan dep comps =
  let known name =
    name = backend_name || List.mem name comps
  in
  let bad = List.filter (fun n -> not (known n)) plan.kill in
  let bad =
    match plan.flap with
    | Some f when not (List.mem f comps) -> f :: bad
    | _ -> bad
  in
  if bad <> [] then
    Error
      (Printf.sprintf "chaos plan names unknown components: %s (known: %s)"
         (String.concat ", " bad) (String.concat ", " comps))
  else if
    List.mem backend_name plan.kill && dep.Load.d_storage = None
  then
    Error
      (Printf.sprintf "%s chaos needs the mail scenario's storage backend"
         backend_name)
  else if plan.kill_pct < 0 || plan.kill_pct > 100 then
    Error "kill-pct must be in [0, 100]"
  else if plan.mid_ipc_pct < 0 || plan.mid_ipc_pct > 100 then
    Error "mid-ipc must be in [0, 100]"
  else Ok ()

(* A chaos session: the scenario booted once and its world forked at
   the pristine instant, so every subsequent [run ?session] rewinds in
   O(dirty) instead of redeploying.  The session pins (scenario, seed)
   — the deployment itself consumed seed-derived randomness — and also
   saves the post-deploy rng mark so each run replays the exact stream
   a fresh deployment would see: session runs are byte-identical to
   sessionless ones. *)
type session = {
  s_scenario : Load.scenario;
  s_seed : int;
  s_rng : Drbg.t;
  s_rng_mark : int64;
  s_dep : Load.deployed;
  s_pristine : Lt_world.World.snap;
}

let session ~scenario ~seed () =
  let rng = Drbg.create (Int64.of_int seed) in
  let deploy_rng = Drbg.split rng in
  match Load.deploy_scenario deploy_rng scenario with
  | Error e -> Error e
  | Ok dep ->
    Ok
      { s_scenario = scenario;
        s_seed = seed;
        s_rng = rng;
        s_rng_mark = Drbg.save rng;
        s_dep = dep;
        s_pristine = Lt_world.World.fork dep.Load.d_world }

let run ?session:sess ?(plan = no_chaos)
    ?(supervisor = Supervisor.default_config) ?trace_capacity ~scenario
    ~requests ~seed () =
  let prepared =
    if requests < 0 then Error "requests must be non-negative"
    else
      match sess with
      | None -> session ~scenario ~seed ()
      | Some s when Load.scenario_name s.s_scenario <> Load.scenario_name scenario ->
        Error "chaos session was built for a different scenario"
      | Some s when s.s_seed <> seed -> Error "chaos session was built for a different seed"
      | Some s -> Ok s
  in
  match prepared with
  | Error e -> Error e
  | Ok s ->
    Lt_world.World.restore s.s_dep.Load.d_world s.s_pristine;
    Drbg.restore s.s_rng s.s_rng_mark;
    let rng = s.s_rng and dep = s.s_dep in
    let d = dep.Load.d_deploy in
    let comps = Deploy.components d in
    (match validate_plan plan dep comps with
     | Error e -> Error e
     | Ok () ->
       let sup =
         Supervisor.create ~config:supervisor ~seed:(Int64.of_int (seed + 1)) d
       in
       let run = Fault_schedule.create ?trace_capacity ~prefix:"chaos" () in
       let faults =
         if plan.mid_ipc_pct > 0 then
           Some (Fault_point.create ~seed:(seed + 2) (fault_sites plan.mid_ipc_pct))
         else None
       in
       let fired_total () =
         match faults with
         | None -> 0
         | Some f -> List.fold_left (fun acc (_, n) -> acc + n) 0 (Fault_point.fired f)
       in
       let deps_of target service =
         match
           List.find_opt (fun (t, s, _) -> t = target && s = service) dep.Load.d_routes
         with
         | Some (_, _, deps) -> deps
         | None -> [ target ]
       in
       let flap_kills = ref 0 in
       let backend_cuts = ref 0 and recovered = ref 0 and clean = ref 0 in
       let backend_armed = ref false in
       let oracle = ref "match" in
       let oracle_note note = if !oracle = "match" then oracle := note in
       let crash i name =
         ignore (Supervisor.crash sup name);
         Fault_schedule.kill run i name
       in
       (* the storage power cut is not a deployed component: power fails
          inside (or right before) the next VPFS mutation's 4-write
          journal window *)
       let cut_power i st =
         st.Load.st_crash_backend (Drbg.int rng 4);
         backend_armed := true;
         incr backend_cuts;
         Fault_schedule.kill run i backend_name;
         Trace.event ~kind:"fault" ~name:"power-cut"
           ~attrs:(Trace.attr "backend" "legacy-fs") ()
       in
       let recover what =
         match what with
         | Ok "recovered" -> incr recovered
         | Ok _ -> incr clean
         | Error e -> oracle_note e
       in
       let step i due =
         let injected = ref (due <> []) in
         List.iter
           (fun name ->
             if name <> backend_name then crash i name
             else Option.iter (cut_power i) dep.Load.d_storage)
           due;
         if plan.kill_pct > 0 && Drbg.int rng 100 < plan.kill_pct then begin
           match List.filter (Deploy.is_alive d) comps with
           | [] -> ()
           | live ->
             injected := true;
             crash i (List.nth live (Drbg.int rng (List.length live)))
         end;
         (match plan.flap with
          | Some f when Deploy.is_alive d f ->
            injected := true;
            incr flap_kills;
            ignore (Supervisor.crash sup f)
          | _ -> ());
         let target, service, payload = dep.Load.d_mix rng i in
         let route_deps = deps_of target service in
         if !backend_armed && List.mem "storage" route_deps then injected := true;
         let breaker_open =
           Supervisor.breaker_state sup ~target ~service = Supervisor.Open
         in
         let fired_before = fired_total () in
         let down_before = List.exists (fun c -> not (Deploy.is_alive d c)) route_deps in
         let r =
           Fault_schedule.request ~detail:App.render_call_error ~target ~service i
             (fun () -> Supervisor.call sup ~caller:None ~target ~service payload)
         in
         if fired_total () > fired_before then injected := true;
         (* a storage power cut surfaces as a failed store; remount,
            recover against the trusted root, audit immediately *)
         (match dep.Load.d_storage with
          | Some st when not (st.Load.st_backend_alive ()) ->
            injected := true;
            backend_armed := false;
            let at e = Printf.sprintf "request %d: %s" i e in
            recover (Result.map_error at (st.Load.st_recover ()));
            Result.iter_error (fun e -> oracle_note (at e)) (st.Load.st_check ())
          | _ -> ());
         Fault_schedule.settle run i r
           ~excused:(fun _ ->
             let given_up = Supervisor.given_up sup in
             let down_now =
               List.exists
                 (fun c -> (not (Deploy.is_alive d c)) || List.mem c given_up)
                 route_deps
             in
             let hurt = down_before || down_now || breaker_open in
             if hurt then Fault_schedule.degrade run target;
             !injected || hurt)
           ~violation:(fun e ->
             Printf.sprintf "%s.%s failed with no fault in its slice: %s" target
               service (App.render_call_error e))
       in
       let body () =
         Fault_schedule.each rng ~requests plan.kill step;
         (* end-of-run audit: storage must be recoverable and faithful
            even if the last cut never got a follow-up request *)
         Option.iter
           (fun st ->
             let final e = "final: " ^ e in
             if not (st.Load.st_backend_alive ()) then
               recover (Result.map_error final (st.Load.st_recover ()));
             Result.iter_error (fun e -> oracle_note (final e)) (st.Load.st_check ()))
           dep.Load.d_storage
       in
       Fault_schedule.within run (fun () ->
           match faults with None -> body () | Some f -> Fault_point.with_plan f body);
       let secret_leak =
         match dep.Load.d_storage with
         | None -> false
         | Some st ->
           st.Load.st_leaked ~needle:"sep-held-key" || st.Load.st_leaked ~needle:"mail(msg-"
       in
       let restarts =
         List.filter_map
           (fun c ->
             match Supervisor.restarts_of sup c with 0 -> None | n -> Some (c, n))
           comps
       in
       (* the dynamic blast radius: the worst impact each component was
          observed to suffer, comparable against Contain.analyze radii *)
       let given_up = Supervisor.given_up sup in
       let worst c =
         if List.mem c given_up then Some Contain.Failed
         else if not (Deploy.is_alive d c) then
           (* dead at end of run: permanently failed only when
              supervision cannot bring it back — under a live restart
              policy the respawn is merely pending *)
           (match Deploy.manifest d c with
            | Some m when Contain.crash_impact m = Contain.Restarted -> Some Contain.Restarted
            | _ -> Some Contain.Failed)
         else if Supervisor.restarts_of sup c > 0 then Some Contain.Restarted
         else None
       in
       Ok
         ( { c_scenario = Load.scenario_name scenario;
             c_requests = requests;
             c_seed = seed;
             c_outcome = Fault_schedule.outcome run ~components:comps worst;
             c_flap_kills = !flap_kills;
             c_backend_cuts = !backend_cuts;
             c_recovered = !recovered;
             c_clean = !clean;
             c_oracle = !oracle;
             c_secret_leak = secret_leak;
             c_restarts = restarts;
             c_given_up = given_up;
             c_router_violations = List.length (Deploy.violations d) },
           Fault_schedule.tracer run ))

(* every component the run killed, with how often: scheduled, random
   and flap kills alike; the storage power cut is not a component *)
let killed plan r =
  let flapped = if r.c_flap_kills > 0 then Option.to_list plan.flap else [] in
  let count n =
    List.length (List.filter (fun (_, k) -> k = n) r.c_outcome.kills)
    + if List.mem n flapped then r.c_flap_kills else 0
  in
  List.map snd r.c_outcome.kills @ flapped
  |> List.filter (fun n -> n <> backend_name)
  |> List.sort_uniq compare
  |> List.map (fun n -> (n, count n))

(* --- rendering ------------------------------------------------------------ *)

let render_report_text r =
  let o = r.c_outcome in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "lateral chaos %s: %d requests, seed %d\n" r.c_scenario
    r.c_requests r.c_seed;
  Fault_schedule.add_tally buf o;
  Printf.bprintf buf "  kills: %s; flap kills %d\n" (Fault_schedule.kill_log o)
    r.c_flap_kills;
  Printf.bprintf buf
    "  power cuts %d (journal-recovered %d, clean %d); storage oracle: %s; secret leak: %s\n"
    r.c_backend_cuts r.c_recovered r.c_clean r.c_oracle
    (if r.c_secret_leak then "LEAKED" else "none");
  Printf.bprintf buf "  restarts: %s; given up: %s\n"
    (Fault_schedule.listing (fun (c, n) -> Printf.sprintf "%s %d" c n) r.c_restarts)
    (Fault_schedule.listing Fun.id r.c_given_up);
  Fault_schedule.add_observed buf o;
  Printf.bprintf buf "  router violations: %d; ticks: %d\n" r.c_router_violations
    o.span_ticks;
  Fault_schedule.add_violations buf o;
  Fault_schedule.add_verdict buf o ~contained:(contained r);
  Buffer.contents buf

let render_report_json r =
  let o = r.c_outcome in
  Json.(
    to_string
      (Obj
         ([ ("scenario", Str r.c_scenario); ("requests", Int r.c_requests);
            ("seed", Int r.c_seed) ]
          @ Fault_schedule.json_tally o ~killed:"component"
          @ [ ("flap_kills", Int r.c_flap_kills); ("backend_cuts", Int r.c_backend_cuts);
              ("recovered", Int r.c_recovered); ("clean", Int r.c_clean);
              ("oracle", Str r.c_oracle); ("secret_leak", Bool r.c_secret_leak);
              ("restarts", Obj (List.map (fun (c, n) -> (c, Int n)) r.c_restarts));
              ("given_up", strs r.c_given_up); Fault_schedule.json_observed o;
              ("router_violations", Int r.c_router_violations);
              ("span_ticks", Int o.span_ticks); Fault_schedule.json_violations o ]
          @ Fault_schedule.json_verdict o ~contained:(contained r))))
  ^ "\n"
