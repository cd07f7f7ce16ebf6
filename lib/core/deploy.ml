type ctx = {
  facilities : Substrate.facilities;
  call : target:string -> service:string -> string -> (string, App.call_error) result;
}

type behaviour = ctx -> service:string -> string -> string

(* a precomputed dispatch edge: everything [call] would look up per
   request, resolved once at [resolve] time.  [r_ctx] is filled lazily
   from the target instance's ctx after the first slow call through it
   (facilities only surface when a service actually runs). *)
type route = {
  r_caller : string option;
  r_target : string;
  r_service : string;
  r_behaviour : behaviour;
  r_owned : unit -> bool; (* poll of the App compromise flag, no alloc *)
  mutable r_ctx : ctx option;
}

(* one launched instance of a component; [i_ctx] is its behaviours'
   ctx, built on the instance's first service run *)
type instance = {
  i_sub : Substrate.t;
  i_comp : Substrate.component;
  i_ctx : ctx option ref;
}

type t = {
  app : App.t; (* manifests + channel policy; behaviours delegate below *)
  placements : (string, instance) Hashtbl.t;
  specs : (string, Manifest.t * behaviour) Hashtbl.t;
      (* what was asked for, kept so a crashed component can be
         relaunched from its original spec *)
  routes : (string option * string * string, route) Hashtbl.t;
}

(* no span here: the router's "call" span above this bridge and the
   substrate adapter's own span below it (ecall, smc, ipc-rpc, mailbox,
   ... — each tagged with its substrate) already bracket the hop; a third
   identically-named span would only add per-call cost *)
let bridge sub comp _ctx ~service req =
  match sub.Substrate.invoke comp ~fn:service req with
  | Ok r -> r
  | Error e ->
    if Lt_obs.Trace.enabled () then
      Lt_obs.Trace.fail_span (Substrate.render_error comp e);
    let name = Substrate.component_name comp in
    (* the router reports a refusal as [Failed] and everything else as
       [Crashed] at the component that is actually down: the dependency
       a hop names, else this component *)
    (match e with
     | Substrate.Refused reason -> Substrate.fail reason
     | Dep_crashed { origin; reason } -> Substrate.dep_crashed ~origin reason
     | Crashed -> Substrate.dep_crashed ~origin:name "killed"
     | Fault reason -> Substrate.dep_crashed ~origin:name reason)

(* One instance's entry points. The outbound [call] is built once per
   launch and the ctx once per facilities record the substrate hands in,
   so a service run allocates neither. That is one ctx per instance,
   except after a world restore to before its first run: SGX then
   rebuilds the facilities over fresh state, and the ctx must follow. *)
let services_for app ~ctx ~name ~behaviour provides =
  let call ~target ~service r = App.call_typed app ~caller:(Some name) ~target ~service r in
  let ctx_of facilities =
    match !ctx with
    | Some c when c.facilities == facilities -> c
    | _ ->
      let c = { facilities; call } in
      ctx := Some c;
      c
  in
  List.map
    (fun svc -> (svc, fun facilities req -> behaviour (ctx_of facilities) ~service:svc req))
    provides

(* launch [name] on [sub]: the instance plus the [App] behaviour that
   bridges into it *)
let launch app sub ~name ~behaviour provides =
  let ctx = ref None in
  Result.map
    (fun comp -> ({ i_sub = sub; i_comp = comp; i_ctx = ctx }, bridge sub comp))
    (sub.Substrate.launch ~name ~code:("component|" ^ name)
       ~services:(services_for app ~ctx ~name ~behaviour provides))

let deploy ~substrates components =
  let app = App.create () in
  let placements = Hashtbl.create 8 in
  let specs = Hashtbl.create 8 in
  let launch_one (man, behaviour) =
    let name = man.Manifest.name in
    match List.assoc_opt man.Manifest.substrate substrates with
    | None ->
      Error
        (Printf.sprintf "component %s names unknown substrate %S" name
           man.Manifest.substrate)
    | Some sub ->
      (match launch app sub ~name ~behaviour man.Manifest.provides with
       | Error e -> Error (Printf.sprintf "launching %s: %s" name e)
       | Ok (inst, bridged) ->
         Hashtbl.replace placements name inst;
         Hashtbl.replace specs name (man, behaviour);
         App.add app man bridged;
         Ok ())
  in
  let rec go = function
    | [] -> Ok ()
    | c :: rest -> (match launch_one c with Ok () -> go rest | Error _ as e -> e)
  in
  match go components with
  | Error e -> Error e
  | Ok () ->
    (match App.validate app with
     | Error errs -> Error ("manifest validation: " ^ String.concat "; " errs)
     | Ok () -> Ok { app; placements; specs; routes = Hashtbl.create 16 })

let call_typed t ~caller ~target ~service req =
  App.call_typed t.app ~caller ~target ~service req

let call t ~caller ~target ~service req =
  Result.map_error App.render_call_error (call_typed t ~caller ~target ~service req)

let components t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.placements []
  |> List.sort Stdlib.compare

let manifest t name = App.manifest t.app name

(* a crashed or relaunched instance invalidates any route ctx built
   from it; the next slow call re-primes from the live instance *)
let invalidate_fast t name =
  Hashtbl.iter (fun _ r -> if r.r_target = name then r.r_ctx <- None) t.routes

let crash t name =
  match Hashtbl.find_opt t.placements name with
  | None -> Error (Printf.sprintf "no component %S" name)
  | Some { i_sub; i_comp; _ } ->
    i_sub.Substrate.crash i_comp;
    invalidate_fast t name;
    Ok ()

let is_alive t name =
  match Hashtbl.find_opt t.placements name with
  | None -> false
  | Some { i_sub; i_comp; _ } -> i_sub.Substrate.is_alive i_comp

let relaunch t name =
  match (Hashtbl.find_opt t.placements name, Hashtbl.find_opt t.specs name) with
  | None, _ | _, None -> Error (Printf.sprintf "no component %S" name)
  | Some { i_sub = sub; i_comp = old_comp; _ }, Some (man, behaviour) ->
    (* crash-only: there is no graceful stop, a live instance is killed
       before its replacement comes up *)
    if sub.Substrate.is_alive old_comp then sub.Substrate.crash old_comp;
    (match launch t.app sub ~name ~behaviour man.Manifest.provides with
     | Error e -> Error (Printf.sprintf "relaunching %s: %s" name e)
     | Ok (inst, bridged) ->
       Hashtbl.replace t.placements name inst;
       App.set_behaviour t.app name bridged;
       invalidate_fast t name;
       Ok ())

let violations t = App.violations t.app

let substrate_of t name =
  Option.map
    (fun i -> i.i_sub.Substrate.properties.Substrate.substrate_name)
    (Hashtbl.find_opt t.placements name)

(* scrub-everything fencing: destroy (not crash) so substrate adapters
   drop sealed state too, then forget the specs so nothing relaunches *)
let destroy t =
  Hashtbl.iter (fun _ i -> i.i_sub.Substrate.destroy i.i_comp) t.placements;
  Hashtbl.reset t.placements;
  Hashtbl.reset t.specs;
  Hashtbl.reset t.routes

let attest t ~component ~nonce ~claim =
  match Hashtbl.find_opt t.placements component with
  | None -> Error (Printf.sprintf "no component %S" component)
  | Some { i_sub; i_comp; _ } -> i_sub.Substrate.attest i_comp ~nonce ~claim

(* --- the zero-alloc fast path ----------------------------------------- *)

exception Call_failed of App.call_error

(* Routes exist only for statically authorized edges: the manifest graph
   is fixed at deploy time (compromise changes behaviour, never
   authority), so an edge checked here once never needs re-checking.
   Unauthorized or unknown edges get no route — callers fall back to the
   enforcing [call], which records the deny. *)
let resolve t ~caller ~target ~service =
  let key = (caller, target, service) in
  match Hashtbl.find_opt t.routes key with
  | Some _ as r -> r
  | None ->
    if not (App.authorized t.app ~caller ~target ~service) then None
    else
      (match Hashtbl.find_opt t.specs target with
       | None -> None
       | Some (man, behaviour) ->
         if not (List.mem service man.Manifest.provides) then None
         else
           (match App.owned_getter t.app target with
            | None -> None
            | Some r_owned ->
              let route =
                { r_caller = caller; r_target = target; r_service = service;
                  r_behaviour = behaviour; r_owned; r_ctx = None }
              in
              Hashtbl.replace t.routes key route;
              Some route))

(* The slow half: the full enforcing pipeline (spans, deny events,
   payload sweeps, the substrate hop).  On success it primes [r_ctx]
   with the ctx the target instance's service just ran with, so the
   next fast call skips the transport. *)
let call_slow t route req =
  match
    call_typed t ~caller:route.r_caller ~target:route.r_target
      ~service:route.r_service req
  with
  | Ok r ->
    (if route.r_ctx = None then
       match Hashtbl.find_opt t.placements route.r_target with
       | Some i -> route.r_ctx <- !(i.i_ctx)
       | None -> ());
    r
  | Error e -> raise (Call_failed e)

(* Fast when nothing that needs the full pipeline can happen: a primed
   ctx, tracing off, target not compromised, instance alive.  Then the
   behaviour runs directly against its real facilities — no substrate
   hop, no span, no result boxing: zero minor words on this path.
   Everything else falls back to [call_slow]. *)
let call_fast t route req =
  match route.r_ctx with
  | Some ctx
    when (not (Lt_obs.Trace.enabled ()))
         && (not (route.r_owned ()))
         && (match Hashtbl.find t.placements route.r_target with
             | i -> i.i_sub.Substrate.is_alive i.i_comp
             | exception Not_found -> false) ->
    route.r_behaviour ctx ~service:route.r_service req
  | _ -> call_slow t route req

(* --- Snapshottable / world assembly ------------------------------------ *)

module Snap = Lt_world.Snapshottable
module D64 = Lt_world.Digest64
module World = Lt_world.World

let take_snapshot t =
  let app = App.take_snapshot t.app in
  let placements = Snap.save_hashtbl t.placements in
  let specs = Snap.save_hashtbl t.specs in
  let routes = Snap.save_hashtbl t.routes in
  let per_route =
    Hashtbl.fold
      (fun _ r acc ->
        let ctx = r.r_ctx in
        (fun () -> r.r_ctx <- ctx) :: acc)
      t.routes []
  in
  fun () ->
    app ();
    placements ();
    specs ();
    routes ();
    List.iter (fun restore -> restore ()) per_route

(* placements/specs hold closures; App's digest plus which names
   are placed covers the observable control-plane state (substrate
   internals are their own layers) *)
let state_digest t =
  let d = App.state_digest t.app in
  let d = D64.int d (Hashtbl.length t.placements) in
  List.fold_left
    (fun d (name, i) ->
      let d = D64.string d name in
      let d = D64.string d i.i_sub.Substrate.properties.Substrate.substrate_name in
      D64.bool d (i.i_sub.Substrate.is_alive i.i_comp))
    d
    (Snap.sorted_bindings t.placements)

let layer ?(name = "deploy") t =
  Snap.make ~name
    ~take:(fun () -> take_snapshot t)
    ~digest:(fun () -> state_digest t)

(* Collect every adapter's layers (deduplicated: one adapter hosts many
   components) plus the deploy control plane.  Adapters sharing a
   machine or TPM each carry a layer over it; fork captures all layers
   at the same instant and restore is idempotent, so the double capture
   is harmless. *)
let world ?(extra = []) t =
  let w = World.create () in
  let subs =
    Hashtbl.fold
      (fun _ i acc -> if List.memq i.i_sub acc then acc else i.i_sub :: acc)
      t.placements []
  in
  List.iter (fun sub -> World.add_all w sub.Substrate.snap_layers) (List.rev subs);
  World.add w (layer t);
  World.add_all w extra;
  w
