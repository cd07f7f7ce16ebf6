(* The benchmark's entry point.

     suite.exe --workload W [--seed S] [--seconds T] [--trace 0|1] [--spans FILE] [--smoke]
       one workload in this process: the end-to-end metrics, or with
       --trace 1 the per-layer metrics; the last stdout line is the
       result as one JSON object
     suite.exe run [--seed S] [--seconds T] [--trace 0|1] [--spans PREFIX] [--smoke]
       every workload, one after another, each in its own child process;
       the last line gathers their results (compare.exe reads it)
     suite.exe traced [...]       the same as run --trace 1
     suite.exe probes [--seed S] [--smoke]
       the single-layer probes alone; the last line holds their values
     suite.exe smoke --spec FILE  every workload and the traced mode at
       smoke size, a self-comparison, and FILE against [spec]
     suite.exe spec               prints BENCHMARK.json

   Each workload is one single-threaded closed-loop client: it issues
   the next op only after the previous one returns. A failed
   correctness gate prints no metrics and exits 1. *)

module H = Harness

let workloads =
  [ ("tenants-mail", ((fun c -> Tenants.run c Tenants.mail), fun c -> Tenants.traced c Tenants.mail));
    ("tenants-churn", ((fun c -> Tenants.run c Tenants.churn), fun c -> Tenants.traced c Tenants.churn));
    ("fleet-attested", (Fleet_attested.run, Fleet_attested.traced));
    ("manifest-churn", (Manifest_churn.run, Manifest_churn.traced));
    ("hunt-substrate", (Hunt_substrate.run, Hunt_substrate.traced)) ]

let usage () =
  prerr_endline
    "usage: suite.exe --workload W [--seed S] [--seconds T] [--trace 0|1] [--spans FILE] [--smoke]\n\
    \       suite.exe (run|traced) [--seed S] [--seconds T] [--trace 0|1] [--spans PREFIX] [--smoke]\n\
    \       suite.exe probes [--seed S] [--smoke]\n\
    \       suite.exe smoke --spec FILE\n\
    \       suite.exe spec";
  exit 2

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : int;
  mutable trace : bool;
  mutable spans : string option;
  mutable smoke : bool;
  mutable spec : string option;
  mutable probes : string option;  (* probe values measured by [probes] *)
}

let parse_opts args =
  let o =
    { workload = None; seed = 1; seconds = Spec.run_seconds; trace = false; spans = None;
      smoke = false; spec = None; probes = None }
  in
  let int v = match int_of_string_opt v with Some n when n >= 0 -> n | _ -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: r -> o.workload <- Some v; go r
    | "--seed" :: v :: r -> o.seed <- int v; go r
    | "--seconds" :: v :: r -> o.seconds <- max 1 (int v); go r
    | "--trace" :: ("0" | "1" as v) :: r -> o.trace <- v = "1"; go r
    | "--spans" :: v :: r -> o.spans <- Some v; go r
    | "--smoke" :: r -> o.smoke <- true; go r
    | "--spec" :: v :: r -> o.spec <- Some v; go r
    | "--probes" :: v :: r -> o.probes <- Some v; go r
    | _ -> usage ()
  in
  go args;
  o

let ctx_of o = { H.seed = o.seed; seconds = o.seconds; smoke = o.smoke; spans = o.spans }

(* --- results ---------------------------------------------------------------- *)

let json_number v = Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) (Spec.unit_of n))
          metrics))

(* the per-layer metrics a traced run derives from its spans and passes *)
let layer_metrics (t : H.traced) =
  let layers = t.t_layers and roots = t.t_roots in
  let self l = Option.value (List.assoc_opt l layers) ~default:0.0 in
  let off = t.t_off in
  let ops = float_of_int off.p_ops in
  print_endline "where the time goes (self CPU per op, spans on):";
  List.iter
    (fun (l, s) ->
      Printf.printf "  %-8s %12.2f us/op %7.1f%%\n" l (s *. 1e6 /. ops) (100.0 *. s /. roots))
    (List.sort (fun (_, a) (_, b) -> compare b a) layers);
  [ ("trace.op_us", roots *. 1e6 /. ops);
    ("trace.layer_cover", 1.0 -. (self "bench" /. roots));
    ("bench.trace_overhead_frac", (t.t_on_cpu /. off.p_cpu) -. 1.0);
    ("host.wall_over_cpu", off.p_wall /. off.p_cpu);
    ("gc.minor_words_per_op", off.p_gc.minor /. ops);
    ("gc.promoted_words_per_op", off.p_gc.promoted /. ops);
    ("gc.major_per_kop", float_of_int off.p_gc.majors *. 1000.0 /. ops) ]
  @ List.map (fun l -> (l ^ ".self_share", self l /. roots)) Spec.layer_shares

(* metrics of a layer the workload never enters *)
let idle_layer = [ "scale.forks_per_request"; "fleet.drift_x"; "net.log_packets" ]

(* --- the probes ------------------------------------------------------------ *)

(* The probes do not depend on the workload, so a run of every workload
   measures them once, in a child of their own, and hands the values to
   each workload as one JSON object. *)
let probes_json values =
  "{"
  ^ String.concat ", " (List.map (fun (n, v) -> Printf.sprintf "%S: %s" n (json_number v)) values)
  ^ "}"

let probes_of_json s =
  match Cmp.parse s with
  | Ok (Cmp.Obj l) ->
    List.map
      (fun (n, v) ->
        match v with Cmp.Num x -> (n, x) | _ -> failwith ("--probes: " ^ n ^ " is not a number"))
      l
  | Ok _ | Error _ -> failwith "--probes: not a JSON object"

let probes_only o =
  let problems = ref [] in
  let values = Probes.all (ctx_of o) problems in
  List.iter (fun p -> Printf.eprintf "probes: FAILED GATE: %s\n" p) !problems;
  if !problems <> [] then exit 1;
  print_endline (probes_json values)

(* --- one workload ---------------------------------------------------------- *)

let single o name =
  let run, traced =
    match List.assoc_opt name workloads with Some w -> w | None -> usage ()
  in
  let ctx = ctx_of o in
  let problems = ref [] in
  let outcome, measured, expected =
    if not o.trace then
      let out = run ctx in
      (out, List.map (fun (n, v, _) -> (n, v)) out.metrics, List.map (fun e -> e.Spec.e_name) Spec.end_to_end)
    else begin
      let t = traced ctx in
      let derived = layer_metrics t in
      let probes =
        match o.probes with
        | Some s -> probes_of_json s
        | None -> Probes.all ctx problems
      in
      ( t.t_outcome,
        List.map (fun (n, v, _) -> (n, v)) t.t_outcome.metrics @ derived @ probes,
        List.map (fun (n, _, _) -> n) Spec.per_layer )
    end
  in
  let selected =
    List.filter_map
      (fun n ->
        match List.assoc_opt n measured with
        | Some v when Float.is_finite v -> Some (n, v)
        | Some _ -> H.check problems false "%s is not a finite number" n; None
        | None when List.mem n idle_layer -> Some (n, 0.0)
        | None -> H.check problems false "%s was not measured" n; None)
      expected
  in
  let problems = outcome.problems @ !problems in
  let correct = problems = [] in
  List.iter (fun p -> Printf.eprintf "%s: FAILED GATE: %s\n" name p) problems;
  if correct then begin
    let notes = List.map (fun (n, _, note) -> (n, note)) outcome.metrics in
    List.iter
      (fun (n, v) ->
        let note = Option.value (List.assoc_opt n notes) ~default:"" in
        Printf.printf "%-34s %16.4f %-6s %s\n" n v (Spec.unit_of n)
          (if note = "" then "" else "(" ^ note ^ ")"))
      measured
  end;
  Printf.printf "attempted %d ops, %d failed\n" outcome.attempted outcome.failed;
  print_endline
    (result_line ~correct ~attempted:(max 1 outcome.attempted) ~failed:outcome.failed
       (if correct then selected else []));
  exit (if correct then 0 else 1)

(* --- every workload, each in a child process ------------------------------- *)

let run_child args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name (Array.of_list (Sys.executable_name :: args)) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let rec read acc =
    match input_line ic with
    | l -> read (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (lines, status = Unix.WEXITED 0)

(* Runs every workload. Returns the summary line, whether all passed,
   and the children's output, which [echo] also prints as it comes. *)
let run_all ?(echo = true) o =
  let expected =
    if o.trace then List.map (fun (n, _, _) -> n) Spec.per_layer
    else List.map (fun e -> e.Spec.e_name) Spec.end_to_end
  in
  let log = Buffer.create 65536 in
  let say fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string log s;
        if echo then (print_string s; flush stdout))
      fmt
  in
  let common = [ "--seed"; string_of_int o.seed ] @ if o.smoke then [ "--smoke" ] else [] in
  let probes, probes_ok =
    if not o.trace then ([], true)
    else begin
      let lines, ok = run_child ("probes" :: common) in
      List.iter (fun l -> say "[probes] %s\n" l) lines;
      match (ok, List.rev lines) with
      | true, last :: _ -> ([ "--probes"; last ], true)
      | _ ->
        say "[probes] FAILED\n";
        ([], false)
    end
  in
  let results =
    List.map
      (fun (w, _) ->
        let args =
          [ "--workload"; w; "--seconds"; string_of_int o.seconds;
            "--trace"; (if o.trace then "1" else "0") ]
          @ common @ probes
          @ match o.spans with Some p -> [ "--spans"; Printf.sprintf "%s.%s.json" p w ] | None -> []
        in
        let t0 = H.wall () in
        let lines, exited_ok = run_child args in
        List.iter (fun l -> say "[%s] %s\n" w l) lines;
        let last = match List.rev lines with l :: _ -> l | [] -> "" in
        let shape =
          match Cmp.parse last with
          | Error e -> Error e
          | Ok j -> Result.map (fun _ -> j) (Cmp.result_of ~expected j)
        in
        say "[%s] %s in %.1f s wall\n" w
          (match (exited_ok, shape) with
           | true, Ok _ -> "ok"
           | false, _ -> "FAILED"
           | true, Error e -> "BAD RESULT SHAPE: " ^ e)
          (H.wall () -. t0);
        (w, last, exited_ok && Result.is_ok shape))
      workloads
  in
  let all_ok = probes_ok && List.for_all (fun (_, _, ok) -> ok) results in
  let summary =
    Printf.sprintf "{\"seed\": %d, \"trace\": %d, \"smoke\": %b, \"correct\": %b, \"workloads\": {%s}}"
      o.seed (if o.trace then 1 else 0) o.smoke all_ok
      (String.concat ", "
         (List.map (fun (w, last, ok) -> Printf.sprintf "%S: %s" w (if ok then last else "null")) results))
  in
  (summary, all_ok, Buffer.contents log)

(* CI: every workload and the traced mode at smoke size, a run compared
   with itself, and the committed BENCHMARK.json against [spec]; quiet
   unless something fails *)
let smoke o =
  let spec_ok =
    match o.spec with
    | Some path ->
      let same = In_channel.with_open_bin path In_channel.input_all = Spec.benchmark_json () in
      if not same then Printf.printf "%s differs from `suite.exe spec`\n" path;
      same
    | None -> usage ()
  in
  o.smoke <- true;
  o.trace <- false;
  let summary, run_ok, run_log = run_all ~echo:false o in
  if not run_ok then print_string run_log;
  o.trace <- true;
  let _, traced_ok, traced_log = run_all ~echo:false o in
  if not traced_ok then print_string traced_log;
  let runs = Cmp.runs_of_lines [ summary ] in
  let report, self_ok = Cmp.compare_runs runs runs in
  if not self_ok then print_string ("compare rejects a run compared with itself:\n" ^ report);
  let ok = spec_ok && run_ok && traced_ok && self_ok in
  print_endline (if ok then "smoke: ok" else "smoke: FAILED");
  exit (if ok then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "spec" :: [] -> print_string (Spec.benchmark_json ())
  | ("run" | "traced" as mode) :: args ->
    let o = parse_opts args in
    if mode = "traced" then o.trace <- true;
    let summary, ok, _ = run_all o in
    print_endline summary;
    exit (if ok then 0 else 1)
  | "smoke" :: args -> smoke (parse_opts args)
  | "probes" :: args -> probes_only (parse_opts args)
  | args ->
    let o = parse_opts args in
    (match o.workload with
     | Some w ->
       (try single o w with
        | e ->
          Printf.eprintf "%s: %s\n" w (Printexc.to_string e);
          exit 1)
     | None -> usage ())
