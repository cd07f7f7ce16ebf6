open Lt_crypto
open Lateral
module Json = Lt_obs.Json

type partition_spec = {
  pt_host : string;
  pt_from : int;
  pt_heal : int;
  pt_asym : bool;
}

type plan = { kill_hosts : string list; partitions : partition_spec list }

let no_chaos = { kill_hosts = []; partitions = [] }

type report = {
  fc_hosts : int;
  fc_rogue : string list;
  fc_requests : int;
  fc_seed : int;
  fc_outcome : Fault_schedule.outcome;
  fc_partition_events : (int * string * string) list;
  fc_epochs : (string * int) list;
  fc_attests : (string * int) list;
  fc_attest_failures : int;
  fc_rogue_placements : int;
  fc_fenced : int;
  fc_placements : (string * string) list;
  fc_failovers : (string * string) list;
  fc_recovery_ticks : int list;
  fc_unplaced : string list;
  fc_radius_escapes : (string * Contain.impact * Contain.impact option) list;
  fc_unroutable : int;
}

let impact = Contain.impact_to_string

let allowance = Option.fold ~none:"untouched" ~some:impact

let contained r =
  r.fc_outcome.failed_unexcused = 0 && r.fc_rogue_placements = 0
  && r.fc_radius_escapes = []

(* --- the built-in scenario ------------------------------------------------- *)

let restart_budget max = { Manifest.r_policy = Manifest.On_failure; r_max = max; r_window = 256 }

let scenario_components () =
  let gate =
    Manifest.v ~name:"gate" ~size_loc:3000 ~network_facing:true
      ~provides:[ "ingress" ]
      ~connects_to:[ Manifest.conn ~vetted:true "worker" "exec" ]
      ~restart:(restart_budget 3) ~placement:[ "class:commodity" ] ()
  in
  let worker =
    Manifest.v ~name:"worker" ~substrate:"sgx" ~size_loc:2000
      ~provides:[ "exec" ] ~restart:(restart_budget 3)
      ~placement:[ "class:tee" ] ()
  in
  let vault =
    Manifest.v ~name:"vault" ~substrate:"sep" ~size_loc:900 ~stateful:true
      ~network_facing:true ~provides:[ "seal" ] ~restart:(restart_budget 2)
      ~placement:[ "sep" ] ()
  in
  let audit =
    Manifest.v ~name:"audit" ~size_loc:600 ~network_facing:true
      ~provides:[ "log" ] ~restart:(restart_budget 3) ()
  in
  let gate_b ctx ~service:_ req =
    match ctx.Deploy.call ~target:"worker" ~service:"exec" req with
    | Ok r -> "gated:" ^ r
    | Error e -> Substrate.fail ("worker unavailable: " ^ App.render_call_error e)
  in
  let worker_b _ctx ~service:_ req = "exec(" ^ req ^ ")" in
  let vault_b ctx ~service:_ req =
    ctx.Deploy.facilities.Substrate.f_store ~key:"latest" req;
    Printf.sprintf "sealed:%d" (String.length req)
  in
  let audit_b _ctx ~service:_ req = "logged:" ^ req in
  [ (gate, gate_b); (worker, worker_b); (vault, vault_b); (audit, audit_b) ]

(* --- plan validation -------------------------------------------------------- *)

let host_names n = List.init n (fun i -> Printf.sprintf "host-%d" (i + 1))

let validate_plan plan ~names ~rogue =
  let known h = List.mem h names in
  let bad p l = List.filter (fun x -> not (p x)) l in
  match bad known plan.kill_hosts with
  | h :: _ -> Error (Printf.sprintf "kill-host: unknown host %S" h)
  | [] ->
    (match bad (fun p -> known p.pt_host) plan.partitions with
     | p :: _ -> Error (Printf.sprintf "partition: unknown host %S" p.pt_host)
     | [] ->
       (match
          List.filter
            (fun p -> p.pt_from < 1 || (p.pt_heal <> 0 && p.pt_heal < p.pt_from))
            plan.partitions
        with
        | p :: _ ->
          Error
            (Printf.sprintf "partition of %s: heal %d before cut %d" p.pt_host
               p.pt_heal p.pt_from)
        | [] ->
          (match bad known rogue with
           | h :: _ -> Error (Printf.sprintf "rogue: unknown host %S" h)
           | [] -> Ok ())))

(* --- reproducers ------------------------------------------------------------ *)

type repro = {
  rp_hosts : int;
  rp_rogue : string list;
  rp_requests : int;
  rp_seed : int;
  rp_plan : plan;
}

let repro_magic = "fleet-repro v1"

let render_repro r =
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "%s\n" repro_magic;
  add "hosts %d\n" r.rp_hosts;
  add "requests %d\n" r.rp_requests;
  add "seed %d\n" r.rp_seed;
  List.iter (fun h -> add "rogue %s\n" h) r.rp_rogue;
  List.iter (fun h -> add "kill-host %s\n" h) r.rp_plan.kill_hosts;
  List.iter
    (fun p ->
      add "partition %s %d %d%s\n" p.pt_host p.pt_from p.pt_heal
        (if p.pt_asym then " asym" else ""))
    r.rp_plan.partitions;
  Buffer.contents buf

let parse_repro text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  match lines with
  | [] -> Error "empty reproducer"
  | magic :: rest when magic = repro_magic ->
    let r =
      ref
        { rp_hosts = 3;
          rp_rogue = [];
          rp_requests = 40;
          rp_seed = 1;
          rp_plan = no_chaos }
    in
    let int_of what s =
      match int_of_string_opt s with
      | Some n -> Ok n
      | None -> Error (Printf.sprintf "bad %s %S" what s)
    in
    let step line =
      match String.split_on_char ' ' line with
      | [ "hosts"; n ] ->
        Result.map (fun n -> r := { !r with rp_hosts = n }) (int_of "hosts" n)
      | [ "requests"; n ] ->
        Result.map (fun n -> r := { !r with rp_requests = n }) (int_of "requests" n)
      | [ "seed"; n ] ->
        Result.map (fun n -> r := { !r with rp_seed = n }) (int_of "seed" n)
      | [ "rogue"; h ] ->
        Ok (r := { !r with rp_rogue = !r.rp_rogue @ [ h ] })
      | [ "kill-host"; h ] ->
        Ok
          (r :=
             { !r with
               rp_plan =
                 { !r.rp_plan with kill_hosts = !r.rp_plan.kill_hosts @ [ h ] } })
      | "partition" :: host :: from :: heal :: flags
        when flags = [] || flags = [ "asym" ] ->
        Result.bind (int_of "partition start" from) (fun pt_from ->
            Result.map
              (fun pt_heal ->
                let p = { pt_host = host; pt_from; pt_heal; pt_asym = flags <> [] } in
                r :=
                  { !r with
                    rp_plan =
                      { !r.rp_plan with
                        partitions = !r.rp_plan.partitions @ [ p ] } })
              (int_of "partition heal" heal))
      | _ -> Error (Printf.sprintf "unknown reproducer line %S" line)
    in
    let rec go = function
      | [] -> Ok !r
      | l :: rest -> (match step l with Ok () -> go rest | Error _ as e -> e)
    in
    go rest
  | magic :: _ ->
    Error (Printf.sprintf "not a fleet reproducer (expected %S, got %S)"
             repro_magic magic)

let load_repro path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
    let n = in_channel_length ic in
    let text = really_input_string ic n in
    close_in ic;
    parse_repro text

(* --- the run ---------------------------------------------------------------- *)

let run ?(config = Fleet.default_config) ?(plan = no_chaos) ?(rogue = [])
    ?trace_capacity ~hosts ~requests ~seed () =
  if hosts < 1 then Error "a fleet needs at least one host"
  else if requests < 0 then Error "requests must be non-negative"
  else
    let names = host_names hosts in
    match validate_plan plan ~names ~rogue with
    | Error _ as e -> e
    | Ok () ->
      let specs =
        List.map
          (fun n ->
            Fleet.host_spec ~rogue:(List.mem n rogue) ~name:n
              ~substrates:[ "microkernel"; "sgx"; "sep" ] ())
          names
      in
      let components = scenario_components () in
      let manifests = List.map fst components in
      (* harness entropy is a separate stream from the fleet's, like the
         component chaos harness (seed vs seed + 1) *)
      let hrng = Drbg.create (Int64.of_int (seed + 1)) in
      let run = Fault_schedule.create ?trace_capacity ~prefix:"fleet_chaos" () in
      let audit fleet =
        let clusters = Fleet.clusters fleet in
        let cluster_of c = fst (List.find (fun (_, ms) -> List.mem c ms) clusters) in
        let part_events = ref [] in
        (* components resident on a host at the instant it was killed or
           cut: the roots the static radii are read for *)
        let roots = Hashtbl.create 8 and cut_hosts = Hashtbl.create 4 in
        let collect_roots host =
          List.iter
            (fun (id, ms) ->
              if Fleet.owner fleet id = Some host then
                List.iter (fun m -> Hashtbl.replace roots m ()) ms)
            clusters
        in
        let step i due =
          List.iter
            (fun host ->
              collect_roots host;
              ignore (Fleet.kill_host fleet host);
              Fault_schedule.kill run i host)
            due;
          List.iter
            (fun p ->
              if p.pt_from = i then begin
                collect_roots p.pt_host;
                Fleet.partition fleet ~host:p.pt_host ~asym:p.pt_asym ();
                Hashtbl.replace cut_hosts p.pt_host ();
                part_events :=
                  (i, p.pt_host, if p.pt_asym then "cut-asym" else "cut") :: !part_events
              end;
              if p.pt_heal = i then begin
                Fleet.heal fleet ~host:p.pt_host;
                Hashtbl.remove cut_hosts p.pt_host;
                part_events := (i, p.pt_host, "heal") :: !part_events
              end)
            plan.partitions;
          let target, service, payload =
            match Drbg.int hrng 3 with
            | 0 -> ("gate", "ingress", Printf.sprintf "req-%d" i)
            | 1 -> ("vault", "seal", Printf.sprintf "secret-%d" i)
            | _ -> ("audit", "log", Printf.sprintf "evt-%d" i)
          in
          let cluster = cluster_of target in
          let owner_before = Fleet.owner fleet cluster in
          let hurt_before =
            match owner_before with
            | None -> true
            | Some h -> (not (Fleet.host_alive fleet h)) || Hashtbl.mem cut_hosts h
          in
          let r =
            Fault_schedule.request ~detail:Fun.id ~target ~service i (fun () ->
                Fleet.call fleet ~target ~service payload)
          in
          Fault_schedule.settle run i r
            ~excused:(fun _ ->
              let owner_after = Fleet.owner fleet cluster in
              let excusable =
                hurt_before || owner_after <> owner_before || owner_after = None
                || List.mem cluster (Fleet.unplaced fleet)
              in
              if excusable then
                List.iter (Fault_schedule.degrade run) (List.assoc cluster clusters);
              excusable)
            ~violation:(Printf.sprintf "%s.%s failed with its host healthy: %s" target service)
        in
        Fault_schedule.each hrng ~requests plan.kill_hosts step;
        (* end-of-run reconcile: reconnect healed hosts (which fences
           stale instances) and re-home orphans *)
        Fleet.sweep fleet;
        let failed_over = Fleet.failed_over_clusters fleet in
        let outcome =
          Fault_schedule.outcome run
            ~components:(List.map (fun m -> m.Manifest.name) manifests)
            (fun c ->
              let cluster = cluster_of c in
              if List.mem cluster (Fleet.unplaced fleet) then Some Contain.Failed
              else if List.mem cluster failed_over then Some Contain.Restarted
              else None)
        in
        (* each resident root counts once, however many of its hosts went
           down: no repeat-kill license, a failover must stay inside the
           radius *)
        let escapes =
          Contain.escapes (Contain.analyze manifests)
            ~killed:(Hashtbl.fold (fun c () acc -> (c, 1) :: acc) roots [])
            outcome.observed
        in
        let placements =
          List.filter_map
            (fun (id, _) -> Option.map (fun h -> (id, h)) (Fleet.owner fleet id))
            clusters
          |> List.sort compare
        in
        { fc_hosts = hosts;
          fc_rogue = List.sort compare rogue;
          fc_requests = requests;
          fc_seed = seed;
          fc_outcome = outcome;
          fc_partition_events = List.rev !part_events;
          fc_epochs = Fleet.host_epochs fleet;
          fc_attests = Fleet.host_attests fleet;
          fc_attest_failures = Fleet.attest_failures fleet;
          fc_rogue_placements = Fleet.rogue_placements fleet;
          fc_fenced = Fleet.fenced fleet;
          fc_placements = placements;
          fc_failovers = Fleet.failovers fleet;
          fc_recovery_ticks = Fleet.recovery_ticks fleet;
          fc_unplaced = Fleet.unplaced fleet;
          fc_radius_escapes = escapes;
          fc_unroutable = Lt_net.Net.unroutable_count (Fleet.net fleet) }
      in
      Fault_schedule.within run (fun () ->
          Result.bind
            (Fleet.create ~config ~seed:(Int64.of_int seed) ~hosts:specs ~components ())
            (fun fleet -> Result.map (fun () -> audit fleet) (Fleet.place_all fleet)))
      |> Result.map (fun r -> (r, Fault_schedule.tracer run))

(* --- rendering --------------------------------------------------------------- *)

let median xs =
  match List.sort compare xs with
  | [] -> 0
  | sorted -> List.nth sorted (List.length sorted / 2)

let render_report_text r =
  let o = r.fc_outcome in
  let buf = Buffer.create 1024 in
  let add fmt = Printf.bprintf buf fmt in
  let joined = Fault_schedule.listing in
  add "lateral fleet: %d hosts, %d requests, seed %d%s\n" r.fc_hosts r.fc_requests
    r.fc_seed
    (if r.fc_rogue = [] then "" else " (rogue: " ^ String.concat ", " r.fc_rogue ^ ")");
  Fault_schedule.add_tally buf o;
  add "  host kills: %s\n" (Fault_schedule.kill_log o);
  add "  partitions: %s\n"
    (joined (fun (i, h, what) -> Printf.sprintf "%s %s@%d" h what i) r.fc_partition_events);
  add "  epochs: %s; attest failures %d; rogue placements %d\n"
    (String.concat ", " (List.map (fun (h, n) -> Printf.sprintf "%s %d" h n) r.fc_epochs))
    r.fc_attest_failures r.fc_rogue_placements;
  let arrow (c, h) = c ^ "->" ^ h in
  add "  placements: %s\n" (joined arrow r.fc_placements);
  add "  failovers: %s; fenced %d; unplaced: %s\n" (joined arrow r.fc_failovers)
    r.fc_fenced (joined Fun.id r.fc_unplaced);
  add "  recovery ticks: %s (median %d)\n"
    (joined string_of_int r.fc_recovery_ticks)
    (median r.fc_recovery_ticks);
  Fault_schedule.add_observed buf o;
  List.iter
    (fun (c, got, allowed) ->
      add "  RADIUS ESCAPE: %s observed %s, statically allowed %s\n" c (impact got)
        (allowance allowed))
    r.fc_radius_escapes;
  Fault_schedule.add_violations buf o;
  add "  unroutable packets: %d; ticks: %d\n" r.fc_unroutable o.span_ticks;
  Fault_schedule.add_verdict buf o ~contained:(contained r);
  Buffer.contents buf

let render_report_json r =
  let o = r.fc_outcome in
  Json.(
    let ints l = Obj (List.map (fun (h, n) -> (h, Int n)) l) in
    to_string
      (Obj
         ([ ("hosts", Int r.fc_hosts); ("rogue", strs r.fc_rogue);
            ("requests", Int r.fc_requests); ("seed", Int r.fc_seed) ]
          @ Fault_schedule.json_tally o ~killed:"host"
          @ [ ( "partitions",
                list
                  (fun (i, h, what) ->
                    Obj [ ("at", Int i); ("host", Str h); ("event", Str what) ])
                  r.fc_partition_events );
              ("epochs", ints r.fc_epochs); ("attests", ints r.fc_attests);
              ("attest_failures", Int r.fc_attest_failures);
              ("rogue_placements", Int r.fc_rogue_placements);
              ("placements", Obj (List.map (fun (c, h) -> (c, Str h)) r.fc_placements));
              ( "failovers",
                list (fun (c, h) -> Obj [ ("cluster", Str c); ("to", Str h) ]) r.fc_failovers );
              ("fenced", Int r.fc_fenced);
              ("recovery_ticks", list (fun t -> Int t) r.fc_recovery_ticks);
              ("recovery_median", Int (median r.fc_recovery_ticks));
              ("unplaced", strs r.fc_unplaced); Fault_schedule.json_observed o;
              ( "radius_escapes",
                list
                  (fun (c, got, allowed) ->
                    Obj
                      [ ("component", Str c); ("observed", Str (impact got));
                        ("allowed", Str (allowance allowed)) ])
                  r.fc_radius_escapes );
              Fault_schedule.json_violations o; ("unroutable", Int r.fc_unroutable);
              ("span_ticks", Int o.span_ticks) ]
          @ Fault_schedule.json_verdict o ~contained:(contained r))))
  ^ "\n"

(* --- shard kills --------------------------------------------------------------- *)

let shard_of_host ~shards h =
  let prefix = "host-" in
  let plen = String.length prefix in
  if shards <= 0 then Error "shards must be positive"
  else if String.length h > plen && String.sub h 0 plen = prefix then
    match int_of_string_opt (String.sub h plen (String.length h - plen)) with
    | Some n when n >= 1 -> Ok ((n - 1) mod shards)
    | _ -> Error (Printf.sprintf "not a fleet host name: %S" h)
  else Error (Printf.sprintf "not a fleet host name: %S" h)

let shard_hosts ~hosts ~shards k =
  List.filter (fun h -> shard_of_host ~shards h = Ok k) (host_names hosts)

let kill_shard_plan ~hosts ~shards ~kill =
  if hosts <= 0 then Error "hosts must be positive"
  else if shards <= 0 || shards > hosts then
    Error "shards must be positive and at most hosts"
  else
    match List.find_opt (fun k -> k < 0 || k >= shards) kill with
    | Some k -> Error (Printf.sprintf "kill shard %d out of range" k)
    | None ->
      Ok
        { kill_hosts = List.concat_map (shard_hosts ~hosts ~shards) kill;
          partitions = [] }

let shard_kill_audit ~shards ~kill (r : report) =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  if r.fc_partition_events <> [] then
    err "audit requires a kill-only plan (report has partition events)";
  List.iter
    (fun (i, h) ->
      match shard_of_host ~shards h with
      | Error e -> err "%s" e
      | Ok k ->
        if not (List.mem k kill) then
          err "host %s killed at %d is not in a killed shard" h i)
    r.fc_outcome.kills;
  (* clusters that were resident on a dead host are exactly those that
     had to move (failovers) or ended the run homeless *)
  let touched =
    List.sort_uniq compare
      (List.map fst r.fc_failovers @ r.fc_unplaced)
  in
  let cluster_of c =
    List.find_map
      (fun (id, ms) ->
        if List.exists (fun m -> m.Manifest.name = c) ms then Some id else None)
      (Fleet.cluster_partition (List.map fst (scenario_components ())))
  in
  let domain_set =
    String.concat ", " (List.map (Printf.sprintf "shard-%d") kill)
  in
  List.iter
    (fun (c, imp) ->
      match cluster_of c with
      | None -> err "observed component %s is not in the scenario" c
      | Some cluster ->
        if not (List.mem cluster touched) then
          err
            "observed radius escapes the killed shards' domain set {%s}: \
             %s (%s) never lived on a killed host"
            domain_set c (impact imp))
    r.fc_outcome.observed;
  List.iter
    (fun (c, imp, allowed) ->
      err "static radius escape: %s observed %s, allowed %s" c (impact imp)
        (allowance allowed))
    r.fc_radius_escapes;
  match List.rev !errs with [] -> Ok () | l -> Error l
