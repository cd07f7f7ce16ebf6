open Lateral
module Drbg = Lt_crypto.Drbg
module Load = Lt_load.Load
module Chaos = Lt_resil.Chaos

let name = "contain"

(* ---------------------------------------------------------------- *)
(* payload: a chaos plan over a scenario, then a manifest block      *)
(* ---------------------------------------------------------------- *)

(* Two sections, both line-based so the shrinker can drop lines:
   plan directives (scenario/seed/requests/kill/flap/kill-pct) up to
   the first `component` line, then a Manifest_file block. Either
   section may be empty: a plan-only payload checks dynamic inclusion,
   a manifest-only payload checks the static analysis. *)

type plan_spec = {
  ps_scenario : Load.scenario option;
  ps_seed : int;
  ps_requests : int;
  ps_kill : string list;
  ps_flap : string option;
  ps_kill_pct : int;
}

let parse_payload text =
  let lines = String.split_on_char '\n' text in
  let tokens l =
    String.split_on_char ' '
      (String.map (fun c -> if c = '\t' then ' ' else c) l)
    |> List.filter (fun s -> s <> "")
  in
  let rec split_plan acc = function
    | [] -> (List.rev acc, [])
    | l :: rest when (match tokens l with
                      | "component" :: _ -> true
                      | _ -> false) ->
      (List.rev acc, l :: rest)
    | l :: rest -> split_plan (l :: acc) rest
  in
  let plan_lines, block_lines = split_plan [] lines in
  let spec =
    ref
      { ps_scenario = None; ps_seed = 1; ps_requests = 10; ps_kill = [];
        ps_flap = None; ps_kill_pct = 0 }
  in
  let bad what = Error (Printf.sprintf "bad payload: %s" what) in
  let rec go = function
    | [] -> Ok ()
    | l :: rest ->
      (match tokens l with
       | [] -> go rest
       | [ "scenario"; s ] ->
         (match Load.scenario_of_string s with
          | Ok sc ->
            spec := { !spec with ps_scenario = Some sc };
            go rest
          | Error e -> bad e)
       | [ "seed"; n ] ->
         (match int_of_string_opt n with
          | Some v -> spec := { !spec with ps_seed = v }; go rest
          | None -> bad (Printf.sprintf "bad seed %S" n))
       | [ "requests"; n ] ->
         (match int_of_string_opt n with
          | Some v when v >= 1 && v <= 60 ->
            spec := { !spec with ps_requests = v };
            go rest
          | _ -> bad (Printf.sprintf "bad requests %S (1-60)" n))
       | [ "kill"; c ] ->
         spec := { !spec with ps_kill = !spec.ps_kill @ [ c ] };
         go rest
       | [ "flap"; c ] -> spec := { !spec with ps_flap = Some c }; go rest
       | [ "kill-pct"; n ] ->
         (match int_of_string_opt n with
          | Some v when v >= 0 && v <= 100 ->
            spec := { !spec with ps_kill_pct = v };
            go rest
          | _ -> bad (Printf.sprintf "bad kill-pct %S" n))
       | w :: _ -> bad (Printf.sprintf "unknown plan directive %S" w))
  in
  match go plan_lines with
  | Error _ as e -> e
  | Ok () -> Ok (!spec, String.concat "\n" block_lines)

(* ---------------------------------------------------------------- *)
(* generation                                                        *)
(* ---------------------------------------------------------------- *)

(* real per-scenario names (plus some misses: an unknown name must be
   a typed plan rejection, never a crash) *)
let scenario_comps = function
  | Load.Mail ->
    [| "ui"; "imap"; "smtp"; "tls"; "keystore"; "storage"; "legacyfs";
       "renderer"; "composer"; "legacy_os" |]
  | Load.Meter -> [| "collector"; "meter"; "utility"; "anonymizer" |]
  | Load.Cloud -> [| "host"; "enclave" |]

let name_pool = [| "alpha"; "beta"; "gamma"; "delta"; "epsilon"; "zeta" |]

let service_pool = [| "ping"; "store"; "query"; "io" |]

let substrate_pool =
  [| "microkernel"; "sgx"; "sep"; "trustzone"; "monolithic-os"; "cheri";
     "flicker"; "m3-noc"; "weird-metal" |]

let pick rng a = a.(Drbg.int rng (Array.length a))

let gen_plan rng b =
  let scenario = List.nth Load.all_scenarios (Drbg.int rng 3) in
  Buffer.add_string b
    (Printf.sprintf "scenario %s\nseed %d\nrequests %d\n"
       (Load.scenario_name scenario) (Drbg.int rng 1000)
       (1 + Drbg.int rng 40));
  let comps = scenario_comps scenario in
  for _ = 1 to Drbg.int rng 3 do
    let victim =
      if Drbg.int rng 8 = 0 then pick rng name_pool else pick rng comps
    in
    Buffer.add_string b (Printf.sprintf "kill %s\n" victim)
  done;
  if Drbg.int rng 4 = 0 then
    Buffer.add_string b (Printf.sprintf "flap %s\n" (pick rng comps));
  if Drbg.int rng 4 = 0 then
    Buffer.add_string b (Printf.sprintf "kill-pct %d\n" (Drbg.int rng 20))

(* a fleet aimed at every propagation-edge kind: shared domains,
   exclusive and non-crashable substrates, restart policies, stateful
   members, channel cycles; dangling targets allowed *)
let gen_block rng b =
  let n = 1 + Drbg.int rng (Array.length name_pool) in
  for i = 0 to n - 1 do
    let cname = name_pool.(i) in
    Buffer.add_string b (Printf.sprintf "component %s\n" cname);
    if Drbg.int rng 2 = 0 then
      Buffer.add_string b
        (Printf.sprintf "  domain shared%d\n" (Drbg.int rng 2));
    if Drbg.int rng 2 = 0 then
      Buffer.add_string b
        (Printf.sprintf "  substrate %s\n" (pick rng substrate_pool));
    if Drbg.int rng 3 = 0 then Buffer.add_string b "  stateful\n";
    (match Drbg.int rng 4 with
     | 0 -> Buffer.add_string b "  restart on-failure 3 256\n"
     | 1 -> Buffer.add_string b "  restart always 2\n"
     | 2 -> Buffer.add_string b "  restart never\n"
     | _ -> ());
    Buffer.add_string b (Printf.sprintf "  provides %s\n" (pick rng service_pool));
    Array.iter
      (fun target ->
        if target <> cname && Drbg.int rng 3 = 0 then
          Buffer.add_string b
            (Printf.sprintf "  %s %s.%s\n"
               (if Drbg.int rng 4 = 0 then "connects-vetted" else "connects")
               target (pick rng service_pool)))
      name_pool
  done

let generate rng _case =
  let b = Buffer.create 256 in
  (match Drbg.int rng 4 with
   | 0 -> gen_plan rng b
   | 1 -> gen_block rng b
   | _ ->
     gen_plan rng b;
     gen_block rng b);
  Buffer.contents b

(* ---------------------------------------------------------------- *)
(* the properties                                                    *)
(* ---------------------------------------------------------------- *)

let raised what exn =
  Error (Printf.sprintf "%s raised %s" what (Printexc.to_string exn))

(* static: analyze is total and deterministic, every root sits in its
   own radius at its own crash impact, and the supervised radii are
   contained in the unsupervised ones (hardening only shrinks damage) *)
let check_static ms =
  match Contain.analyze ms with
  | exception exn -> raised "Contain.analyze" exn
  | r ->
    let r2 = Contain.analyze ms in
    if r <> r2 then Error "analyze is not deterministic"
    else begin
      match
        ( Contain.render_text ~file:"fuzz" r,
          Lt_obs.Json.to_string (Contain.to_json ~file:"fuzz" r),
          Contain.to_dot ms r )
      with
      | exception exn -> raised "contain renderers" exn
      | _ ->
        let unsup =
          Contain.analyze
            ~config:{ Contain.default_config with Contain.supervised = false }
            ms
        in
        let radius_of (res : Contain.result) root =
          List.find_opt (fun x -> x.Contain.r_root = root) res.Contain.radii
        in
        let rec roots = function
          | [] -> Ok ()
          | (x : Contain.radius) :: rest ->
            let root = x.Contain.r_root in
            (match List.assoc_opt root x.Contain.r_hit with
             | None ->
               Error (Printf.sprintf "%s missing from its own radius" root)
             | Some self
               when Contain.rank self < Contain.rank x.Contain.r_self ->
               (* a restart storm may escalate the root past its own
                  crash impact, but never below it *)
               Error
                 (Printf.sprintf "%s: self impact %s but radius says %s" root
                    (Contain.impact_to_string x.Contain.r_self)
                    (Contain.impact_to_string self))
             | Some _ ->
               (match radius_of unsup root with
                | None ->
                  Error
                    (Printf.sprintf "%s absent from the unsupervised radii"
                       root)
                | Some ux ->
                  let escapee =
                    List.find_opt
                      (fun (victim, im) ->
                        match List.assoc_opt victim ux.Contain.r_hit with
                        | None -> true
                        | Some uim -> Contain.rank uim < Contain.rank im)
                      x.Contain.r_hit
                  in
                  (match escapee with
                   | Some (victim, im) ->
                     Error
                       (Printf.sprintf
                          "%s: supervised radius exceeds unsupervised at %s \
                           (%s)"
                          root victim (Contain.impact_to_string im))
                   | None -> roots rest)))
        in
        roots r.Contain.radii
    end

(* dynamic: every impact the chaos harness observes must lie inside
   the static prediction for the components the plan actually killed *)
let check_dynamic spec =
  match spec.ps_scenario with
  | None -> Ok ()
  | Some scenario ->
    let plan =
      { Chaos.kill = spec.ps_kill; kill_pct = spec.ps_kill_pct;
        flap = spec.ps_flap; mid_ipc_pct = 0 }
    in
    (match
       Chaos.run ~plan ~scenario ~requests:spec.ps_requests
         ~seed:spec.ps_seed ()
     with
     | exception exn -> raised "Chaos.run" exn
     | Error _ ->
       (* plan rejection (unknown component, wrong scenario for
          legacy_os) is validation working *)
       Ok ()
     | Ok (report, _) ->
       (match Load.deploy_scenario (Drbg.create 1L) scenario with
        | exception exn -> raised "deploy_scenario" exn
        | Error e -> Error (Printf.sprintf "scenario failed to deploy: %s" e)
        | Ok dep ->
          let d = dep.Load.d_deploy in
          let ms =
            List.filter_map (Deploy.manifest d) (Deploy.components d)
          in
          let killed = Chaos.killed plan report in
          (match
             Contain.escapes (Contain.analyze ms) ~killed report.Chaos.c_outcome.observed
           with
           | [] -> Ok ()
           | (y, obs, _) :: _ ->
             Error
               (Printf.sprintf
                  "observed %s on %s outside the static radius of kills [%s] \
                   (seed %d)"
                  (Contain.impact_to_string obs) y
                  (String.concat ", " (List.map fst killed))
                  spec.ps_seed))))

let check payload =
  match parse_payload payload with
  | exception exn -> raised "payload parse" exn
  | Error _ as e -> e
  | Ok (spec, block) ->
    let static =
      if String.trim block = "" then Ok ()
      else
        match Manifest_file.parse block with
        | exception exn -> raised "manifest parse" exn
        | Error e -> Error (Printf.sprintf "bad payload: %s" e)
        | Ok ms -> check_static ms
    in
    (match static with
     | Error _ as e -> e
     | Ok () -> check_dynamic spec)
