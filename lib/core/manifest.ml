type connection = {
  target : string;
  service : string;
  vetted : bool;
}

type restart_policy = Never | On_failure | Always

type restart = {
  r_policy : restart_policy;
  r_max : int;
  r_window : int;
}

type t = {
  name : string;
  provides : string list;
  connects_to : connection list;
  domain : string;
  trust_domain : string list;
  size_loc : int;
  network_facing : bool;
  vulnerable : bool;
  discriminates_clients : bool;
  substrate : string;
  stateful : bool;
  restart : restart option;
  placement : string list;
}

type host = {
  h_name : string;
  h_substrates : string list;
}

let host ~name ~substrates = { h_name = name; h_substrates = substrates }

let placement_selector_kinds =
  [ ("host:NAME", "only the fleet host declared with that exact name");
    ("class:tee", "any host offering a sealed-identity substrate");
    ("class:commodity", "any host offering a substrate without sealed identity");
    ("SUBSTRATE", "any host offering that exact substrate (e.g. sgx)") ]

let domain_stanza_grammar =
  [ ("domain NAME", "at top level: opens a trust domain; stanzas nest, and \
                     components declared inside carry the full domain path");
    ("end", "closes the open component stanza if any, else pops the \
             innermost open trust domain");
    ("domain NAME (inside a component)", "unchanged: the component's \
                                          protection domain") ]

let trust_path_string = function
  | [] -> "/"
  | path -> String.concat "/" path

(* first manifest wins on duplicate names, matching Lint_rules.make_ctx *)
let dedupe manifests =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun m ->
      if Hashtbl.mem seen m.name then false
      else begin
        Hashtbl.replace seen m.name ();
        true
      end)
    manifests

let trust_paths manifests =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun m -> if not (Hashtbl.mem tbl m.name) then Hashtbl.add tbl m.name m.trust_domain)
    manifests;
  fun n -> Option.value ~default:[] (Hashtbl.find_opt tbl n)

let path_string p = String.concat " -> " p

let rec is_path_prefix p q =
  match (p, q) with
  | [], _ -> true
  | _, [] -> false
  | a :: ps, b :: qs -> a = b && is_path_prefix ps qs

(* disjoint = neither path contains the other; the cross-tenant case *)
let trust_domains_disjoint p q =
  not (is_path_prefix p q) && not (is_path_prefix q p)

let tenant_of m = match m.trust_domain with [] -> None | t :: _ -> Some t

let default_restart policy = { r_policy = policy; r_max = 3; r_window = 256 }

let restart_policy_of_string = function
  | "never" -> Some Never
  | "on-failure" -> Some On_failure
  | "always" -> Some Always
  | _ -> None

let restart_policy_to_string = function
  | Never -> "never"
  | On_failure -> "on-failure"
  | Always -> "always"

let v ~name ?(provides = []) ?(connects_to = []) ?domain ?(trust_domain = [])
    ?(size_loc = 1000) ?(network_facing = false) ?(vulnerable = false)
    ?(discriminates_clients = true) ?(substrate = "microkernel")
    ?(stateful = false) ?restart ?(placement = []) () =
  { name;
    provides;
    connects_to;
    domain = Option.value domain ~default:name;
    trust_domain;
    size_loc;
    network_facing;
    vulnerable;
    discriminates_clients;
    substrate;
    stateful;
    restart;
    placement }

let conn ?(vetted = false) target service = { target; service; vetted }

let pp fmt t =
  Format.fprintf fmt "%s[domain=%s%s size=%d%s%s] -> {%s}" t.name t.domain
    (if t.trust_domain = [] then ""
     else " trust=" ^ trust_path_string t.trust_domain)
    t.size_loc
    (if t.network_facing then " net" else "")
    (if t.vulnerable then " vuln" else "")
    (String.concat ", "
       (List.map
          (fun c ->
            Printf.sprintf "%s.%s%s" c.target c.service (if c.vetted then "(vetted)" else ""))
          t.connects_to))
