open Lt_crypto

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

type error =
  | Crashed
  | Refused of string
  | Dep_crashed of { origin : string; reason : string }
  | Fault of string

(* a launched component carries its own hop, attestation and teardown
   closures over whatever the adapter keeps for it, so the generic
   invoke never has to recover adapter state from the handle *)
type component = {
  c_name : string;
  c_measurement : string;
  c_hop : fn:string -> string -> (string, error) result;
  c_attest : nonce:string -> claim:string -> (Attestation.evidence, string) result;
  c_live : unit -> bool;
  c_stop : unit -> unit;
}

type t = {
  properties : properties;
  launch :
    name:string -> code:string -> services:(string * service) list ->
    (component, string) result;
  invoke : component -> fn:string -> string -> (string, error) result;
  attest :
    component -> nonce:string -> claim:string ->
    (Attestation.evidence, string) result;
  measure : code:string -> string;
  destroy : component -> unit;
  crash : component -> unit;
  is_alive : component -> bool;
  mutable snap_layers : Lt_world.Snapshottable.layer list;
}

let component_name c = c.c_name

let component_measurement c = c.c_measurement

let render_error c = function
  | Crashed -> Printf.sprintf "component %s crashed (killed)" c.c_name
  | Refused m -> "service failure: " ^ m
  | Dep_crashed { origin; reason } ->
    Printf.sprintf "dependency crashed: %s: %s" origin reason
  | Fault m -> m

exception Service_failure of string

let fail m = raise (Service_failure m)

(* a behaviour found a dependency dead mid-request; carries the true
   origin so routers blame the crashed component, not the caller that
   tripped over it *)
exception Dependency_crashed of { origin : string; reason : string }

let dep_crashed ~origin reason = raise (Dependency_crashed { origin; reason })

module Snap = Lt_world.Snapshottable
module D64 = Lt_world.Digest64

module Kit = struct
  type kit = {
    dead : (string, unit) Hashtbl.t;
    tables : (string, (string, string) Hashtbl.t) Hashtbl.t;
  }

  let create () = { dead = Hashtbl.create 4; tables = Hashtbl.create 8 }

  let revive kit name = Hashtbl.remove kit.dead name

  let forget kit name = Hashtbl.remove kit.tables name

  let until_crashed () = true

  let component ~name ~measurement ~live ~stop ~attest hop =
    { c_name = name; c_measurement = measurement; c_hop = hop;
      c_attest = attest; c_live = live; c_stop = stop }

  (* --- the service side of a hop --- *)

  let classify = function
    | Service_failure m -> Refused m
    | Dependency_crashed { origin; reason } -> Dep_crashed { origin; reason }
    | e -> Fault (Printexc.to_string e)

  (* [ok]/[error] are closed functions, so passing them allocates
     nothing: a successful hop allocates only its reply *)
  let dispatch services fac ~fn arg ~ok ~error =
    match List.assoc_opt fn services with
    | None -> error (Fault (Printf.sprintf "no entry point %S" fn))
    | Some service ->
      (match service fac arg with
       | out -> ok out
       | exception e -> error (classify e))

  let run services fac ~fn arg =
    dispatch services fac ~fn arg ~ok:(fun out -> Ok out) ~error:(fun e -> Error e)

  let error_reply e =
    Wire.encode
      (match e with
       | Crashed -> [ "crashed" ]
       | Refused m -> [ "refused"; m ]
       | Dep_crashed { origin; reason } -> [ "dep-crashed"; origin; reason ]
       | Fault m -> [ "fault"; m ])

  let serve services fac request =
    match Wire.decode request with
    | Some [ fn; arg ] ->
      dispatch services fac ~fn arg
        ~ok:(fun out -> Wire.encode [ "ok"; out ])
        ~error:error_reply
    | _ -> error_reply (Fault "malformed request")

  (* every sim context one service is entered with is alike, so its
     facilities are built from the first and kept *)
  let serve_with services build =
    let fac = ref None in
    fun ctx request ->
      match !fac with
      | Some f -> serve services f request
      | None ->
        (match build ctx with
         | Error e -> error_reply e
         | Ok f ->
           fac := Some f;
           serve services f request)

  let reply r =
    match Wire.decode r with
    | Some [ "ok"; out ] -> Ok out
    | Some [ "crashed" ] -> Error Crashed
    | Some [ "refused"; m ] -> Error (Refused m)
    | Some [ "dep-crashed"; origin; reason ] -> Error (Dep_crashed { origin; reason })
    | Some [ "fault"; m ] -> Error (Fault m)
    | _ -> Error (Fault "malformed reply")

  (* --- facilities --- *)

  let table_blob table =
    Wire.encode
      (Hashtbl.fold (fun k v acc -> Wire.encode [ k; v ] :: acc) table []
       |> List.sort Stdlib.compare)

  let store kit ~name ~cap write =
    let table : (string, string) Hashtbl.t = Hashtbl.create 8 in
    Hashtbl.replace kit.tables name table;
    ( (fun ~key data ->
        Hashtbl.replace table key data;
        let blob = table_blob table in
        if String.length blob <= cap then write blob),
      fun ~key -> Hashtbl.find_opt table key )

  let facilities ~ad ~salt aead ~store ~load =
    { f_seal =
        (fun data ->
          let d = Sha256.digest (if salt = "" then data else salt ^ data) in
          let nonce = String.sub d 0 Speck.nonce_size in
          Speck.Aead.seal_wire (aead ()) ~nonce ~ad data);
      f_unseal = (fun wire -> Speck.Aead.open_wire (aead ()) ~ad wire);
      f_store = store;
      f_load = load }

  let derived_seal ~secret ~salt ~info =
    let aead = lazy (Speck.Aead.of_key (Hkdf.derive ~secret ~salt ~info 16)) in
    fun () -> Lazy.force aead

  (* Seal-key contexts by component, built on first use and kept. A
     context is a pure function of the secret its key derives from (a
     fused device key), so the cache sits outside every snapshot and a
     restore needs nothing from it; a secret other than the cached one
     rebuilds it. *)
  let seal_contexts () =
    let cache : (string, string * Speck.Aead.ctx) Hashtbl.t = Hashtbl.create 8 in
    fun ~comp ~secret derive ->
      match Hashtbl.find_opt cache comp with
      | Some (s, aead) when String.equal s secret -> aead
      | Some _ | None ->
        let aead = Speck.Aead.of_key (derive secret) in
        Hashtbl.replace cache comp (secret, aead);
        aead

  let evidence ~substrate ~measurement ~nonce ~claim ~proof sign =
    let ev =
      { Attestation.ev_substrate = substrate; ev_measurement = measurement;
        ev_nonce = nonce; ev_claim = claim; ev_proof = proof "" }
    in
    Result.map
      (fun s -> { ev with Attestation.ev_proof = proof s })
      (sign (Attestation.signed_body ev))

  let quote ~substrate ~cert sign ~measurement ~nonce ~claim =
    evidence ~substrate ~measurement ~nonce ~claim
      ~proof:(fun signature -> Attestation.Rsa_quote { signature; cert })
      (fun body -> Ok (sign body))

  (* --- the caller side: one invoke for every adapter --- *)

  let substrate kit ~properties ~span ~measure ~launch =
    let attrs = [ ("substrate", properties.substrate_name) ] in
    let crash c =
      if not (Hashtbl.mem kit.dead c.c_name) then begin
        Hashtbl.replace kit.dead c.c_name ();
        c.c_stop ()
      end
    in
    (* a hop that answers [Crashed] lost its instance in flight *)
    let hop c ~fn arg =
      match c.c_hop ~fn arg with
      | Ok _ as r -> r
      | Error e as r ->
        if Lt_obs.Trace.enabled () then Lt_obs.Trace.fail_span (render_error c e);
        (match e with Crashed -> crash c | _ -> ());
        r
    in
    let invoke c ~fn arg =
      if Hashtbl.mem kit.dead c.c_name then Error Crashed
      else if not (c.c_live ()) then Error (Fault "component destroyed")
      else if Lt_obs.Trace.enabled () then
        Lt_obs.Trace.with_span ~kind:span
          ~name:(Lt_obs.Trace.span_name c.c_name fn) ~attrs
          (fun () -> hop c ~fn arg)
      else hop c ~fn arg
    in
    { properties; launch; invoke; measure; crash;
      attest = (fun c ~nonce ~claim -> c.c_attest ~nonce ~claim);
      destroy = (fun c -> c.c_stop ());
      is_alive = (fun c -> (not (Hashtbl.mem kit.dead c.c_name)) && c.c_live ());
      snap_layers = [] }

  (* the dead-set and the per-launch KV tables, plus whatever else the
     adapter holds (invoke counters, facilities caches, tile cursors) *)
  let layer kit ~name ?(extra_take = []) ?(extra_digest = fun d -> d) () =
    Snap.make ~name
      ~take:(fun () ->
        Snap.save_refs
          ([ (fun () -> Snap.save_hashtbl kit.dead);
             (fun () -> Snap.save_hashtbl_registry kit.tables) ]
           @ extra_take))
      ~digest:(fun () ->
        let d =
          List.fold_left
            (fun d (k, ()) -> D64.string d k)
            (D64.int D64.basis (Hashtbl.length kit.dead))
            (Snap.sorted_bindings kit.dead)
        in
        let d =
          List.fold_left
            (fun d (n, tbl) ->
              Snap.digest_hashtbl ~key:(fun k -> k) ~value:(fun v -> v) tbl
                (D64.string d n))
            (D64.int d (Hashtbl.length kit.tables))
            (Snap.sorted_bindings kit.tables)
        in
        extra_digest d)
end

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
