open Lt_crypto
module Trace = Lt_obs.Trace
module Metrics = Lt_obs.Metrics
module Json = Lt_obs.Json

type outcome = {
  ok : int;
  failed_excused : int;
  failed_unexcused : int;
  violation_detail : (int * string) list;
  kills : (int * string) list;
  observed : (string * Contain.impact) list;
  counters : (string * int) list;
  span_ticks : int;
}

type t = {
  tracer : Trace.t;
  metrics : Metrics.t;
  prefix : string;
  degraded : (string, unit) Hashtbl.t;
  mutable so_far : outcome;
      (* violations and kills newest first; [outcome] fills in the rest *)
}

let create ?(trace_capacity = 65536) ~prefix () =
  { tracer = Trace.create ~capacity:trace_capacity ();
    metrics = Metrics.create ();
    prefix;
    degraded = Hashtbl.create 16;
    so_far =
      { ok = 0; failed_excused = 0; failed_unexcused = 0; violation_detail = [];
        kills = []; observed = []; counters = []; span_ticks = 0 } }

let within t f =
  Metrics.with_metrics t.metrics (fun () -> Trace.with_tracer t.tracer f)

let tracer t = t.tracer

let each rng ~requests faults step =
  let schedule = List.map (fun f -> (1 + Drbg.int rng (max requests 1), f)) faults in
  for i = 1 to requests do
    Trace.set_trace i;
    step i (List.filter_map (fun (at, f) -> if at = i then Some f else None) schedule)
  done

let request ~detail ~target ~service i call =
  Trace.with_span ~kind:"request" ~name:(Trace.span_name target service)
    ~attrs:[ ("request", string_of_int i) ]
    (fun () ->
      match call () with
      | Ok _ as r -> r
      | Error e as r ->
        Trace.fail_span (detail e);
        r)

let kill t i what = t.so_far <- { t.so_far with kills = (i, what) :: t.so_far.kills }

let degrade t c = Hashtbl.replace t.degraded c ()

let settle t i r ~excused ~violation =
  let o = t.so_far in
  let count what o =
    Metrics.incr (t.prefix ^ what);
    t.so_far <- o
  in
  match r with
  | Ok _ -> count "/ok" { o with ok = o.ok + 1 }
  | Error e when excused e ->
    count "/failed_excused" { o with failed_excused = o.failed_excused + 1 }
  | Error e ->
    count "/failed_unexcused"
      { o with
        failed_unexcused = o.failed_unexcused + 1;
        violation_detail = (i, violation e) :: o.violation_detail }

(* --- the report core -------------------------------------------------------- *)

let outcome t ~components worst =
  let impact c =
    match worst c with
    | Some im -> Some (c, im)
    | None when Hashtbl.mem t.degraded c -> Some (c, Contain.Degraded)
    | None -> None
  in
  let o = t.so_far in
  { o with
    violation_detail = List.rev o.violation_detail;
    kills = List.rev o.kills;
    observed = List.sort compare (List.filter_map impact components);
    counters = Metrics.counters t.metrics;
    span_ticks = Trace.now t.tracer }

let impact = Contain.impact_to_string

let add_tally buf o =
  Printf.bprintf buf "  ok %d, failed %d (excused %d, unexcused %d)\n" o.ok
    (o.failed_excused + o.failed_unexcused)
    o.failed_excused o.failed_unexcused

let listing f = function [] -> "-" | l -> String.concat ", " (List.map f l)

let kill_log o = listing (fun (i, what) -> Printf.sprintf "%s@%d" what i) o.kills

let add_observed buf o =
  Printf.bprintf buf "  observed radius: %s\n"
    (listing (fun (c, im) -> c ^ " " ^ impact im) o.observed)

let add_violations buf o =
  List.iter
    (fun (i, detail) ->
      Printf.bprintf buf "  CONTAINMENT VIOLATION at request %d: %s\n" i detail)
    o.violation_detail

let add_verdict buf o ~contained =
  Metrics.add_counters_text buf o.counters;
  Printf.bprintf buf "verdict: %s\n"
    (if contained then "contained" else "NOT CONTAINED")

let at i field v = Json.Obj [ ("at", Json.Int i); (field, Json.Str v) ]

let json_tally o ~killed =
  Json.
    [ ("ok", Int o.ok); ("failed_excused", Int o.failed_excused);
      ("failed_unexcused", Int o.failed_unexcused);
      ("kills", list (fun (i, what) -> at i killed what) o.kills) ]

let json_observed o =
  ("observed", Json.Obj (List.map (fun (c, im) -> (c, Json.Str (impact im))) o.observed))

let json_violations o =
  ("violations", Json.list (fun (i, d) -> at i "detail" d) o.violation_detail)

let json_verdict o ~contained =
  [ ("contained", Json.Bool contained); ("counters", Metrics.counters_json o.counters) ]
