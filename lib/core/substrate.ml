type attacker_model =
  | Remote_software
  | Local_software
  | Physical_memory
  | Physical_code_swap

type properties = {
  substrate_name : string;
  concurrent_components : bool;
  mutually_isolated : bool;
  defends : attacker_model list;
  tcb : (string * int) list;
  shared_cache_with_host : bool;
  progress_guaranteed : bool;
}

type facilities = {
  f_seal : string -> string;
  f_unseal : string -> string option;
  f_store : key:string -> string -> unit;
  f_load : key:string -> string option;
}

type service = facilities -> string -> string

(* adapters stash their per-component state in an extensible-variant
   (exception) value; each adapter defines its own constructor and only
   ever reads back what it put in *)
type component = { c_name : string; c_measurement : string; c_state : exn }

type t = {
  properties : properties;
  launch :
    name:string -> code:string -> services:(string * service) list ->
    (component, string) result;
  invoke : component -> fn:string -> string -> (string, string) result;
  attest :
    component -> nonce:string -> claim:string ->
    (Attestation.evidence, string) result;
  measure : code:string -> string;
  destroy : component -> unit;
  crash : component -> unit;
  is_alive : component -> bool;
  (* Snapshottable layers covering ALL mutable state behind this
     adapter (machine, sim, per-launch tables, dead set); assembled by
     each adapter's [make] and collected by [Deploy.world] *)
  mutable snap_layers : Lt_world.Snapshottable.layer list;
}

let component_name c = c.c_name

let make_component ~name ~measurement ~state =
  { c_name = name; c_measurement = measurement; c_state = state }

let component_measurement c = c.c_measurement

let component_state c = c.c_state

let crashed_error name = Printf.sprintf "component %s crashed (killed)" name

exception Service_failure of string

let failure_prefix = "service failure: "

let failure_error m = failure_prefix ^ m

(* every substrate sim that turns a service exception into a string does
   so via [Printexc.to_string]; registering a printer keeps the failure
   recognizable across that hop so routers can recover the class *)
let () =
  Printexc.register_printer (function
    | Service_failure m -> Some (failure_error m)
    | _ -> None)

let fail m = raise (Service_failure m)

let as_failure e =
  let n = String.length failure_prefix in
  if String.length e >= n && String.sub e 0 n = failure_prefix then
    Some (String.sub e n (String.length e - n))
  else None

(* a behaviour found a dependency dead mid-request; carries the true
   origin so routers blame the crashed component, not the caller that
   tripped over it *)
exception Dependency_crashed of { origin : string; reason : string }

let dep_crashed_prefix = "dependency crashed: "

let dep_crashed_error ~origin reason =
  Printf.sprintf "%s%s: %s" dep_crashed_prefix origin reason

let () =
  Printexc.register_printer (function
    | Dependency_crashed { origin; reason } ->
      Some (dep_crashed_error ~origin reason)
    | _ -> None)

let dep_crashed ~origin reason = raise (Dependency_crashed { origin; reason })

let as_dep_crashed e =
  let n = String.length dep_crashed_prefix in
  if String.length e >= n && String.sub e 0 n = dep_crashed_prefix then
    let rest = String.sub e n (String.length e - n) in
    match String.index_opt rest ':' with
    | Some i when i > 0 && i + 2 <= String.length rest ->
      Some
        ( String.sub rest 0 i,
          String.sub rest (i + 2) (String.length rest - i - 2) )
    | _ -> Some (rest, "")
  else None

let lifecycle ?dead ?(teardown = fun _ -> ()) () =
  let dead : (string, unit) Hashtbl.t =
    match dead with Some d -> d | None -> Hashtbl.create 4
  in
  let crash c =
    if not (Hashtbl.mem dead c.c_name) then begin
      Hashtbl.replace dead c.c_name ();
      teardown c
    end
  in
  let is_alive c = not (Hashtbl.mem dead c.c_name) in
  let revive name = Hashtbl.remove dead name in
  (crash, is_alive, revive)

(* Seal-key contexts by component, built on first use and kept. A context
   is a pure function of the secret its key derives from (a fused device
   key), so the cache sits outside every snapshot and a restore needs
   nothing from it; a secret other than the cached one rebuilds it. *)
let seal_contexts () =
  let cache : (string, string * Lt_crypto.Speck.Aead.ctx) Hashtbl.t = Hashtbl.create 8 in
  fun ~comp ~secret derive ->
    match Hashtbl.find_opt cache comp with
    | Some (s, aead) when String.equal s secret -> aead
    | Some _ | None ->
      let aead = Lt_crypto.Speck.Aead.of_key (derive secret) in
      Hashtbl.replace cache comp (secret, aead);
      aead

(* Shared snapshot plumbing for adapter authors: every adapter owns a
   dead-set, and most keep per-launch KV tables in a name-keyed
   registry.  [extra_take]/[extra_digest] cover whatever else the
   adapter holds (invoke counters, facilities caches, tile cursors). *)
module Snap = Lt_world.Snapshottable
module D64 = Lt_world.Digest64

let adapter_layer ~name ~dead ~tables ?(extra_take = [])
    ?(extra_digest = fun d -> d) () =
  Snap.make ~name
    ~take:(fun () ->
      Snap.save_refs
        ([ (fun () -> Snap.save_hashtbl dead);
           (fun () -> Snap.save_hashtbl_registry tables) ]
         @ extra_take))
    ~digest:(fun () ->
      let d =
        List.fold_left
          (fun d (k, ()) -> D64.string d k)
          (D64.int D64.basis (Hashtbl.length dead))
          (Snap.sorted_bindings dead)
      in
      let d =
        List.fold_left
          (fun d (n, tbl) ->
            Snap.digest_hashtbl
              ~key:(fun k -> k)
              ~value:(fun v -> v)
              tbl (D64.string d n))
          (D64.int d (Hashtbl.length tables))
          (Snap.sorted_bindings tables)
      in
      extra_digest d)

let pp_attacker_model fmt m =
  Format.pp_print_string fmt
    (match m with
     | Remote_software -> "remote-software"
     | Local_software -> "local-software"
     | Physical_memory -> "physical-memory"
     | Physical_code_swap -> "physical-code-swap")

let pp_properties fmt p =
  Format.fprintf fmt
    "%s: concurrent=%b mutual-isolation=%b cache-shared=%b progress=%b tcb=%d defends=[%a]"
    p.substrate_name p.concurrent_components p.mutually_isolated
    p.shared_cache_with_host p.progress_guaranteed
    (List.fold_left (fun acc (_, n) -> acc + n) 0 p.tcb)
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       pp_attacker_model)
    p.defends
