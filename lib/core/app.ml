type call_error =
  | Unknown_component of { caller : string; target : string; service : string }
  | Unknown_service of { target : string; service : string }
  | Denied of { caller : string; target : string; service : string }
  | Crashed of { target : string; reason : string }
  | Failed of { target : string; reason : string }

type ctx = {
  self : string;
  call : target:string -> service:string -> string -> (string, call_error) result;
}

type behaviour = ctx -> service:string -> string -> string

type violation = { v_caller : string; v_target : string; v_service : string }

type comp = {
  man : Manifest.t;
  ctx : ctx; (* built once at [add]: its [call] is the component's own *)
  mutable behave : behaviour;
  mutable owned : bool;      (* compromised *)
  mutable scanned : bool;    (* compromised payload already ran its sweep *)
  mutable attempts : (string * string * bool) list; (* target, service, allowed *)
}

type t = {
  comps : (string, comp) Hashtbl.t;
  mutable viols : violation list; (* newest first *)
}

let create () = { comps = Hashtbl.create 16; viols = [] }

let validate t =
  let dangling = ref [] in
  Hashtbl.iter
    (fun name comp ->
      List.iter
        (fun c ->
          match Hashtbl.find_opt t.comps c.Manifest.target with
          | None ->
            dangling :=
              Printf.sprintf "%s -> %s (no such component)" name c.Manifest.target
              :: !dangling
          | Some target ->
            if not (List.mem c.Manifest.service target.man.Manifest.provides) then
              dangling :=
                Printf.sprintf "%s -> %s.%s (no such service)" name c.Manifest.target
                  c.Manifest.service
                :: !dangling)
        comp.man.Manifest.connects_to)
    t.comps;
  if !dangling = [] then Ok () else Error (List.sort Stdlib.compare !dangling)

let manifests t =
  Hashtbl.fold (fun _ c acc -> c.man :: acc) t.comps []
  |> List.sort (fun a b -> Stdlib.compare a.Manifest.name b.Manifest.name)

let manifest t name =
  Option.map (fun c -> c.man) (Hashtbl.find_opt t.comps name)

let set_behaviour t name behave =
  match Hashtbl.find_opt t.comps name with
  | None ->
    invalid_arg (Printf.sprintf "App.set_behaviour: no component %s" name)
  | Some comp -> comp.behave <- behave

let authorized t ~caller ~target ~service =
  match caller with
  | None ->
    (match Hashtbl.find_opt t.comps target with
     | Some c -> c.man.Manifest.network_facing
     | None -> false)
  | Some caller_name ->
    (match Hashtbl.find_opt t.comps caller_name with
     | None -> false
     | Some c ->
       List.exists
         (fun conn -> conn.Manifest.target = target && conn.Manifest.service = service)
         c.man.Manifest.connects_to)

(* renders exactly the strings the string-typed call path always
   returned, so string consumers and goldens see the same bytes *)
let render_call_error = function
  | Unknown_component { target; _ } -> Printf.sprintf "no component %S" target
  | Unknown_service { target; service } ->
    Printf.sprintf "component %s does not provide %s" target service
  | Denied { caller; target; service } ->
    Printf.sprintf "channel denied: %s -> %s.%s not in manifest" caller target
      service
  | Crashed { target; reason } ->
    Printf.sprintf "component %s crashed: %s" target reason
  | Failed { target; reason } ->
    Printf.sprintf "component %s failed: %s" target reason

let rec call_typed t ~caller ~target ~service req =
  let caller_name = Option.value caller ~default:"<external>" in
  match Hashtbl.find_opt t.comps target with
  | None ->
    (* same deny-style observability as a blocked channel: a request to a
       component that does not exist is a routing fault, not a raise *)
    Lt_obs.Trace.event ~kind:"deny"
      ~name:(Lt_obs.Trace.span_name target service)
      ~attrs:(("reason", "unknown-component") :: Lt_obs.Trace.attr "caller" caller_name)
      ();
    Lt_obs.Metrics.incr "channel/unknown_target";
    Error (Unknown_component { caller = caller_name; target; service })
  | Some comp ->
    if not (authorized t ~caller ~target ~service) then begin
      t.viols <-
        { v_caller = caller_name; v_target = target; v_service = service }
        :: t.viols;
      Lt_obs.Trace.event ~kind:"deny"
        ~name:(Lt_obs.Trace.span_name target service)
        ~attrs:(Lt_obs.Trace.attr "caller" caller_name) ();
      Lt_obs.Metrics.incr "channel/denied";
      Error (Denied { caller = caller_name; target; service })
    end
    else if not (List.mem service comp.man.Manifest.provides) then
      Error (Unknown_service { target; service })
    else begin
      if comp.owned then run_payload t comp;
      try
        Ok
          (Lt_obs.Trace.with_span ~kind:"call"
             ~name:(Lt_obs.Trace.span_name target service)
             ~attrs:(Lt_obs.Trace.attr "caller" caller_name)
             (fun () -> comp.behave comp.ctx ~service req))
      with
      | Substrate.Service_failure reason ->
        Error (Failed { target; reason })
      | Substrate.Dependency_crashed { origin; reason } ->
        (* blame the component that is actually down, not the callee
           that tripped over it *)
        Error (Crashed { target = origin; reason })
      | exn ->
        Error (Crashed { target; reason = Printexc.to_string exn })
    end

(* the attacker's payload: sweep every (component, service) in the app
   and record which channels the runtime lets through *)
and run_payload t comp =
  if not comp.scanned then begin
    comp.scanned <- true;
    let targets =
      Hashtbl.fold
        (fun name c acc ->
          if name = comp.man.Manifest.name then acc
          else List.map (fun s -> (name, s)) c.man.Manifest.provides @ acc)
        t.comps []
      |> List.sort Stdlib.compare
    in
    List.iter
      (fun (target, service) ->
        let allowed =
          match comp.ctx.call ~target ~service "exfiltrate" with
          | Ok _ -> true
          | Error _ -> false
        in
        comp.attempts <- (target, service, allowed) :: comp.attempts)
      targets
  end

let add t man behave =
  let name = man.Manifest.name in
  if Hashtbl.mem t.comps name then
    invalid_arg (Printf.sprintf "App.add: duplicate component %s" name);
  let call ~target ~service r = call_typed t ~caller:(Some name) ~target ~service r in
  Hashtbl.replace t.comps name
    { man; ctx = { self = name; call }; behave; owned = false; scanned = false;
      attempts = [] }

let add_stub t man =
  add t man (fun _ ~service req -> Printf.sprintf "%s:%s:%s" man.Manifest.name service req)

let violations t = List.rev t.viols

let compromise t name =
  match Hashtbl.find_opt t.comps name with
  | None -> invalid_arg (Printf.sprintf "App.compromise: no component %s" name)
  | Some comp ->
    comp.owned <- true;
    (* the original behaviour is gone; the attacker answers everything *)
    comp.behave <- (fun _ ~service:_ _ -> "pwned")

let compromised t =
  Hashtbl.fold (fun name c acc -> if c.owned then name :: acc else acc) t.comps []
  |> List.sort Stdlib.compare

let exfiltration_attempts t name =
  match Hashtbl.find_opt t.comps name with
  | None -> []
  | Some c -> List.sort Stdlib.compare c.attempts

(* Comp records are mutated in place (set_behaviour, compromise) and
   never replaced after [add], so a fast path may capture one once and
   poll its flags allocation-free forever after. *)
let owned_getter t name =
  match Hashtbl.find_opt t.comps name with
  | None -> None
  | Some comp -> Some (fun () -> comp.owned)

(* --- Snapshottable ---------------------------------------------------- *)

module Snap = Lt_world.Snapshottable
module D64 = Lt_world.Digest64

let take_snapshot t =
  let comps = Snap.save_hashtbl t.comps in
  let per_comp =
    Hashtbl.fold
      (fun _ c acc ->
        let behave = c.behave
        and owned = c.owned
        and scanned = c.scanned
        and attempts = c.attempts in
        (fun () ->
          c.behave <- behave;
          c.owned <- owned;
          c.scanned <- scanned;
          c.attempts <- attempts)
        :: acc)
      t.comps []
  in
  let viols = t.viols in
  fun () ->
    comps ();
    List.iter (fun restore -> restore ()) per_comp;
    t.viols <- viols

(* behaviours are closures and cannot be digested; names + flags +
   attempts + violations pin down everything restore puts back that a
   test can observe *)
let state_digest t =
  let d =
    List.fold_left
      (fun d (name, c) ->
        let d = D64.string d name in
        let d = D64.bool (D64.bool d c.owned) c.scanned in
        D64.list
          (fun d (target, service, allowed) ->
            D64.bool (D64.string (D64.string d target) service) allowed)
          d
          (List.sort Stdlib.compare c.attempts))
      (D64.int D64.basis (Hashtbl.length t.comps))
      (Snap.sorted_bindings t.comps)
  in
  D64.list
    (fun d v ->
      D64.string (D64.string (D64.string d v.v_caller) v.v_target) v.v_service)
    d t.viols
