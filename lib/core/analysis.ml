type reach = {
  owned : string list;
  invocable : (string * string) list;
  owned_fraction : float;
  authority_fraction : float;
}

let tcb app ~tcb_of_substrate name =
  let visited = Hashtbl.create 8 in
  (* a substrate instance is shared infrastructure: count each distinct
     one once, not once per component riding on it *)
  let substrates = Hashtbl.create 4 in
  let rec go name =
    if Hashtbl.mem visited name then 0
    else begin
      Hashtbl.replace visited name ();
      match App.manifest app name with
      | None -> 0
      | Some m ->
        Hashtbl.replace substrates m.Manifest.substrate ();
        let deps =
          List.fold_left
            (fun acc c ->
              if c.Manifest.vetted then acc else acc + go c.Manifest.target)
            0 m.Manifest.connects_to
        in
        m.Manifest.size_loc + deps
    end
  in
  let components = go name in
  components
  + Hashtbl.fold (fun s () acc -> acc + tcb_of_substrate s) substrates 0

let compromise_reach app start =
  let mans = App.manifests app in
  let find n = List.find_opt (fun m -> m.Manifest.name = n) mans in
  let owned = Hashtbl.create 8 in
  let invocable = Hashtbl.create 8 in
  (* colocated components share fate *)
  let own_with_domain name =
    match find name with
    | None -> ()
    | Some m ->
      List.iter
        (fun m2 ->
          if m2.Manifest.domain = m.Manifest.domain then
            Hashtbl.replace owned m2.Manifest.name ())
        mans
  in
  own_with_domain start;
  Hashtbl.replace owned start ();
  (* propagate: owned components exercise their declared channels; a
     vulnerable target (or a domain-mate) becomes owned, others merely
     grant the declared authority *)
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun name () ->
        match find name with
        | None -> ()
        | Some m ->
          List.iter
            (fun c ->
              let target = c.Manifest.target in
              match find target with
              | None -> ()
              | Some tm ->
                if tm.Manifest.vulnerable && not (Hashtbl.mem owned target) then begin
                  own_with_domain target;
                  Hashtbl.replace owned target ();
                  changed := true
                end
                else if not (Hashtbl.mem owned target) then
                  if not (Hashtbl.mem invocable (target, c.Manifest.service)) then begin
                    Hashtbl.replace invocable (target, c.Manifest.service) ();
                    changed := true
                  end)
            m.Manifest.connects_to)
      (Hashtbl.copy owned)
  done;
  let owned_list = Hashtbl.fold (fun n () acc -> n :: acc) owned [] |> List.sort compare in
  let invocable_list =
    Hashtbl.fold (fun k () acc -> k :: acc) invocable []
    |> List.filter (fun (t, _) -> not (Hashtbl.mem owned t))
    |> List.sort compare
  in
  let total = float_of_int (List.length mans) in
  let total_services =
    List.fold_left (fun acc m -> acc + List.length m.Manifest.provides) 0 mans
  in
  let owned_services =
    List.fold_left
      (fun acc m ->
        if Hashtbl.mem owned m.Manifest.name then acc + List.length m.Manifest.provides
        else acc)
      0 mans
  in
  { owned = owned_list;
    invocable = invocable_list;
    owned_fraction = float_of_int (List.length owned_list) /. Float.max 1.0 total;
    authority_fraction =
      float_of_int (owned_services + List.length invocable_list)
      /. Float.max 1.0 (float_of_int total_services) }

let confused_deputy_risks app =
  let mans = App.manifests app in
  (* collect callers per (target, service) *)
  let callers = Hashtbl.create 16 in
  List.iter
    (fun m ->
      List.iter
        (fun c ->
          let key = (c.Manifest.target, c.Manifest.service) in
          let existing = Option.value ~default:[] (Hashtbl.find_opt callers key) in
          if not (List.mem m.Manifest.name existing) then
            Hashtbl.replace callers key (m.Manifest.name :: existing))
        m.Manifest.connects_to)
    mans;
  Hashtbl.fold
    (fun (target, service) who acc ->
      match List.find_opt (fun m -> m.Manifest.name = target) mans with
      | Some tm
        when List.length who >= 2 && not tm.Manifest.discriminates_clients ->
        (target, service, List.sort compare who) :: acc
      | _ -> acc)
    callers []
  |> List.sort compare

let attack_surface app name =
  match App.manifest app name with
  | None -> 0
  | Some m ->
    let inbound =
      List.fold_left
        (fun acc m2 ->
          acc
          + List.length
              (List.filter (fun c -> c.Manifest.target = name) m2.Manifest.connects_to))
        0 (App.manifests app)
    in
    inbound
    + (if m.Manifest.network_facing then List.length m.Manifest.provides else 0)

let domains app =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun m ->
      let d = m.Manifest.domain in
      Hashtbl.replace tbl d
        (m.Manifest.name :: Option.value ~default:[] (Hashtbl.find_opt tbl d)))
    (App.manifests app);
  Hashtbl.fold (fun d cs acc -> (d, List.sort compare cs) :: acc) tbl []
  |> List.sort compare

let pp_reach fmt r =
  Format.fprintf fmt "owned=%d (%.0f%%) [%s]; authority=%.0f%%"
    (List.length r.owned)
    (100.0 *. r.owned_fraction)
    (String.concat ", " r.owned)
    (100.0 *. r.authority_fraction)
