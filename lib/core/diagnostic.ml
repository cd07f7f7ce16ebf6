type severity = Error | Warning | Info

type location = { file : string; line : int }

type t = {
  rule_id : string;
  severity : severity;
  component : string;
  service : string option;
  message : string;
  fix_hint : string;
  loc : location option;
}

let v ~rule_id ~severity ~component ?service ?loc ~message ~fix_hint () =
  { rule_id; severity; component; service; message; fix_hint; loc }

let with_loc loc t = { t with loc = Some loc }

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

(* sort order for reports: worst first, then stable textual keys so the
   output (and the golden files diffing it) is deterministic *)
let compare a b =
  Stdlib.compare
    (severity_rank a.severity, a.rule_id, a.component, a.service, a.message, a.loc)
    (severity_rank b.severity, b.rule_id, b.component, b.service, b.message, b.loc)

let subject t =
  match t.service with
  | Some s -> t.component ^ "." ^ s
  | None -> t.component

let loc_prefix t =
  match t.loc with
  | None -> ""
  | Some { file; line } -> Printf.sprintf "%s:%d: " file line

let pp fmt t =
  Format.fprintf fmt "%-7s %-24s %-18s %s%s@,%-7s %-24s %-18s fix: %s"
    (severity_to_string t.severity) t.rule_id (subject t) (loc_prefix t)
    t.message "" "" "" t.fix_hint

let to_text t =
  Printf.sprintf "%-7s %-26s %-16s %s%s\n%s fix: %s"
    (severity_to_string t.severity) t.rule_id (subject t) (loc_prefix t)
    t.message
    (String.make 52 ' ')
    t.fix_hint

let to_json t =
  Lt_obs.Json.(
    let location { file; line } = Obj [ ("file", Str file); ("line", Int line) ] in
    Obj
      [ ("rule", Str t.rule_id); ("severity", Str (severity_to_string t.severity));
        ("component", Str t.component); ("service", opt (fun s -> Str s) t.service);
        ("message", Str t.message); ("fix_hint", Str t.fix_hint);
        ("location", opt location t.loc) ])
