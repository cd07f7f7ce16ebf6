open Lt_crypto
open Lateral
module Load = Lt_load.Load
module Trace = Lt_obs.Trace
module Metrics = Lt_obs.Metrics
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
  c_ok : int;
  c_failed_excused : int;
  c_failed_unexcused : int;
  c_violation_detail : (int * string) list;
  c_kills : (int * string) list;
  c_flap_kills : int;
  c_backend_cuts : int;
  c_recovered : int;
  c_clean : int;
  c_oracle : string;
  c_secret_leak : bool;
  c_restarts : (string * int) list;
  c_given_up : string list;
  c_observed : (string * Contain.impact) list;
  c_router_violations : int;
  c_counters : (string * int) list;
  c_span_ticks : int;
}

let contained r =
  r.c_failed_unexcused = 0 && r.c_oracle = "match" && not r.c_secret_leak

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
    ?(supervisor = Supervisor.default_config) ?(trace_capacity = 65536)
    ~scenario ~requests ~seed () =
  if requests < 0 then Error "requests must be non-negative"
  else begin
    let prepared =
      match sess with
      | None ->
        let rng = Drbg.create (Int64.of_int seed) in
        let deploy_rng = Drbg.split rng in
        (match Load.deploy_scenario deploy_rng scenario with
         | Error e -> Error e
         | Ok dep -> Ok (rng, dep))
      | Some s ->
        if Load.scenario_name s.s_scenario <> Load.scenario_name scenario then
          Error "chaos session was built for a different scenario"
        else if s.s_seed <> seed then
          Error "chaos session was built for a different seed"
        else begin
          Lt_world.World.restore s.s_dep.Load.d_world s.s_pristine;
          Drbg.restore s.s_rng s.s_rng_mark;
          Ok (s.s_rng, s.s_dep)
        end
    in
    match prepared with
    | Error e -> Error e
    | Ok (rng, dep) ->
      let d = dep.Load.d_deploy in
      let comps = Deploy.components d in
      (match validate_plan plan dep comps with
       | Error e -> Error e
       | Ok () ->
         let sup =
           Supervisor.create ~config:supervisor
             ~seed:(Int64.of_int (seed + 1)) d
         in
         let tracer = Trace.create ~capacity:trace_capacity () in
         let metrics = Metrics.create () in
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
         (* the seeded instants the scheduled kills land on *)
         let schedule =
           List.map
             (fun name -> (1 + Drbg.int rng (max requests 1), name))
             plan.kill
         in
         let deps_of target service =
           match
             List.find_opt
               (fun (t, s, _) -> t = target && s = service)
               dep.Load.d_routes
           with
           | Some (_, _, deps) -> deps
           | None -> [ target ]
         in
         let ok = ref 0 and excused = ref 0 and unexcused = ref 0 in
         (* components whose requests failed because their slice was dead
            or breaker-shed — the dynamic "degraded" observations *)
         let degraded = Hashtbl.create 16 in
         let violation_detail = ref [] in
         let kills = ref [] and flap_kills = ref 0 in
         let backend_cuts = ref 0 and recovered = ref 0 and clean = ref 0 in
         let backend_armed = ref false in
         let oracle = ref "match" in
         let oracle_note note = if !oracle = "match" then oracle := note in
         let body () =
           for i = 1 to requests do
             Trace.set_trace i;
             let injected = ref false in
             List.iter
               (fun (at, name) ->
                 if at = i then begin
                   injected := true;
                   if name = backend_name then begin
                     match dep.Load.d_storage with
                     | None -> ()
                     | Some st ->
                       (* power fails inside (or right before) the next
                          VPFS mutation's 4-write journal window *)
                       st.Load.st_crash_backend (Drbg.int rng 4);
                       backend_armed := true;
                       incr backend_cuts;
                       kills := (i, backend_name) :: !kills;
                       Trace.event ~kind:"fault" ~name:"power-cut"
                         ~attrs:(Trace.attr "backend" "legacy-fs") ()
                   end
                   else begin
                     ignore (Supervisor.crash sup name);
                     kills := (i, name) :: !kills
                   end
                 end)
               schedule;
             if plan.kill_pct > 0 && Drbg.int rng 100 < plan.kill_pct then begin
               let live = List.filter (Deploy.is_alive d) comps in
               if live <> [] then begin
                 let name = List.nth live (Drbg.int rng (List.length live)) in
                 injected := true;
                 ignore (Supervisor.crash sup name);
                 kills := (i, name) :: !kills
               end
             end;
             (match plan.flap with
              | Some f when Deploy.is_alive d f ->
                injected := true;
                incr flap_kills;
                ignore (Supervisor.crash sup f)
              | _ -> ());
             let target, service, payload = dep.Load.d_mix rng i in
             let route_deps = deps_of target service in
             if !backend_armed && List.mem "storage" route_deps then
               injected := true;
             let breaker_open =
               Supervisor.breaker_state sup ~target ~service = Supervisor.Open
             in
             let fired_before = fired_total () in
             let down_before =
               List.exists (fun c -> not (Deploy.is_alive d c)) route_deps
             in
             let r =
               Trace.with_span ~kind:"request"
                 ~name:(target ^ "." ^ service)
                 ~attrs:[ ("request", string_of_int i) ]
                 (fun () ->
                   match
                     Supervisor.call sup ~caller:None ~target ~service payload
                   with
                   | Ok _ as r -> r
                   | Error e ->
                     Trace.fail_span (App.render_call_error e);
                     Error e)
             in
             if fired_total () > fired_before then injected := true;
             (* a storage power cut surfaces as a failed store; remount,
                recover against the trusted root, audit immediately *)
             (match dep.Load.d_storage with
              | Some st when not (st.Load.st_backend_alive ()) ->
                injected := true;
                backend_armed := false;
                (match st.Load.st_recover () with
                 | Ok "recovered" -> incr recovered
                 | Ok _ -> incr clean
                 | Error e -> oracle_note (Printf.sprintf "request %d: %s" i e));
                (match st.Load.st_check () with
                 | Ok () -> ()
                 | Error e -> oracle_note (Printf.sprintf "request %d: %s" i e))
              | _ -> ());
             match r with
             | Ok _ ->
               incr ok;
               Metrics.incr "chaos/ok"
             | Error e ->
               let given_up = Supervisor.given_up sup in
               let down_now =
                 List.exists
                   (fun c ->
                     (not (Deploy.is_alive d c)) || List.mem c given_up)
                   route_deps
               in
               if down_before || down_now || breaker_open then
                 Hashtbl.replace degraded target ();
               if !injected || down_before || down_now || breaker_open then begin
                 incr excused;
                 Metrics.incr "chaos/failed_excused"
               end
               else begin
                 incr unexcused;
                 Metrics.incr "chaos/failed_unexcused";
                 violation_detail :=
                   (i,
                    Printf.sprintf "%s.%s failed with no fault in its slice: %s"
                      target service (App.render_call_error e))
                   :: !violation_detail
               end
           done;
           (* end-of-run audit: storage must be recoverable and faithful
              even if the last cut never got a follow-up request *)
           match dep.Load.d_storage with
           | None -> ()
           | Some st ->
             if not (st.Load.st_backend_alive ()) then begin
               match st.Load.st_recover () with
               | Ok "recovered" -> incr recovered
               | Ok _ -> incr clean
               | Error e -> oracle_note ("final: " ^ e)
             end;
             (match st.Load.st_check () with
              | Ok () -> ()
              | Error e -> oracle_note ("final: " ^ e))
         in
         Metrics.with_metrics metrics (fun () ->
             Trace.with_tracer tracer (fun () ->
                 match faults with
                 | None -> body ()
                 | Some f -> Fault_point.with_plan f body));
         let secret_leak =
           match dep.Load.d_storage with
           | None -> false
           | Some st ->
             st.Load.st_leaked ~needle:"sep-held-key"
             || st.Load.st_leaked ~needle:"mail(msg-"
         in
         let restarts =
           List.filter_map
             (fun c ->
               match Supervisor.restarts_of sup c with
               | 0 -> None
               | n -> Some (c, n))
             comps
         in
         (* the dynamic blast radius: the worst impact each component was
            observed to suffer, comparable against Contain.analyze radii *)
         let given_up = Supervisor.given_up sup in
         let observed =
           List.sort compare
             (List.filter_map
                (fun c ->
                  if List.mem c given_up then Some (c, Contain.Failed)
                  else if not (Deploy.is_alive d c) then
                    (* dead at end of run: permanently failed only when
                       supervision cannot bring it back — under a live
                       restart policy the respawn is merely pending *)
                    (match Deploy.manifest d c with
                     | Some m when Contain.crash_impact m = Contain.Restarted
                       ->
                       Some (c, Contain.Restarted)
                     | _ -> Some (c, Contain.Failed))
                  else if Supervisor.restarts_of sup c > 0 then
                    Some (c, Contain.Restarted)
                  else if Hashtbl.mem degraded c then Some (c, Contain.Degraded)
                  else None)
                comps)
         in
         Ok
           ( { c_scenario = Load.scenario_name scenario;
               c_requests = requests;
               c_seed = seed;
               c_ok = !ok;
               c_failed_excused = !excused;
               c_failed_unexcused = !unexcused;
               c_violation_detail = List.rev !violation_detail;
               c_kills = List.rev !kills;
               c_flap_kills = !flap_kills;
               c_backend_cuts = !backend_cuts;
               c_recovered = !recovered;
               c_clean = !clean;
               c_oracle = !oracle;
               c_secret_leak = secret_leak;
               c_restarts = restarts;
               c_given_up = given_up;
               c_observed = observed;
               c_router_violations = List.length (Deploy.violations d);
               c_counters = Metrics.counters metrics;
               c_span_ticks = Trace.now tracer },
             tracer ))
  end

(* every component the run killed, with how often: scheduled, random
   and flap kills alike; the storage power cut is not a component *)
let killed plan r =
  let flapped = if r.c_flap_kills > 0 then Option.to_list plan.flap else [] in
  let count n =
    List.length (List.filter (fun (_, k) -> k = n) r.c_kills)
    + if List.mem n flapped then r.c_flap_kills else 0
  in
  List.map snd r.c_kills @ flapped
  |> List.filter (fun n -> n <> backend_name)
  |> List.sort_uniq compare
  |> List.map (fun n -> (n, count n))

(* --- rendering ------------------------------------------------------------ *)

let render_report_text r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "lateral chaos %s: %d requests, seed %d\n" r.c_scenario
       r.c_requests r.c_seed);
  Buffer.add_string buf
    (Printf.sprintf "  ok %d, failed %d (excused %d, unexcused %d)\n"
       r.c_ok
       (r.c_failed_excused + r.c_failed_unexcused)
       r.c_failed_excused r.c_failed_unexcused);
  Buffer.add_string buf
    (Printf.sprintf "  kills: %s; flap kills %d\n"
       (if r.c_kills = [] then "-"
        else
          String.concat ", "
            (List.map (fun (i, n) -> Printf.sprintf "%s@%d" n i) r.c_kills))
       r.c_flap_kills);
  Buffer.add_string buf
    (Printf.sprintf
       "  power cuts %d (journal-recovered %d, clean %d); storage oracle: %s; secret leak: %s\n"
       r.c_backend_cuts r.c_recovered r.c_clean r.c_oracle
       (if r.c_secret_leak then "LEAKED" else "none"));
  Buffer.add_string buf
    (Printf.sprintf "  restarts: %s; given up: %s\n"
       (if r.c_restarts = [] then "-"
        else
          String.concat ", "
            (List.map (fun (c, n) -> Printf.sprintf "%s %d" c n) r.c_restarts))
       (if r.c_given_up = [] then "-" else String.concat ", " r.c_given_up));
  Buffer.add_string buf
    (Printf.sprintf "  observed radius: %s\n"
       (if r.c_observed = [] then "-"
        else
          String.concat ", "
            (List.map
               (fun (c, im) ->
                 Printf.sprintf "%s %s" c (Contain.impact_to_string im))
               r.c_observed)));
  Buffer.add_string buf
    (Printf.sprintf "  router violations: %d; ticks: %d\n" r.c_router_violations
       r.c_span_ticks);
  List.iter
    (fun (i, detail) ->
      Buffer.add_string buf
        (Printf.sprintf "  CONTAINMENT VIOLATION at request %d: %s\n" i detail))
    r.c_violation_detail;
  Metrics.add_counters_text buf r.c_counters;
  Buffer.add_string buf
    (Printf.sprintf "verdict: %s\n"
       (if contained r then "contained" else "NOT CONTAINED"));
  Buffer.contents buf

let render_report_json r =
  Json.(
    let at i field v = Obj [ ("at", Int i); (field, Str v) ] in
    to_string
      (Obj
         [ ("scenario", Str r.c_scenario); ("requests", Int r.c_requests);
           ("seed", Int r.c_seed); ("ok", Int r.c_ok);
           ("failed_excused", Int r.c_failed_excused);
           ("failed_unexcused", Int r.c_failed_unexcused);
           ("kills", list (fun (i, n) -> at i "component" n) r.c_kills);
           ("flap_kills", Int r.c_flap_kills); ("backend_cuts", Int r.c_backend_cuts);
           ("recovered", Int r.c_recovered); ("clean", Int r.c_clean);
           ("oracle", Str r.c_oracle); ("secret_leak", Bool r.c_secret_leak);
           ("restarts", Obj (List.map (fun (c, n) -> (c, Int n)) r.c_restarts));
           ("given_up", strs r.c_given_up);
           ( "observed",
             Obj
               (List.map
                  (fun (c, im) -> (c, Str (Contain.impact_to_string im)))
                  r.c_observed) );
           ("router_violations", Int r.c_router_violations);
           ("span_ticks", Int r.c_span_ticks);
           ("violations", list (fun (i, d) -> at i "detail" d) r.c_violation_detail);
           ("contained", Bool (contained r));
           ("counters", Metrics.counters_json r.c_counters) ]))
  ^ "\n"
