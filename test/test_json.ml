(* The one JSON printer against a strict RFC 8259 reader (json_ref.ml):
   arbitrary values read back unchanged, and every report and export
   the CLI writes is one well-formed JSON document. *)

module Json = Lt_obs.Json

let read_back name text =
  match Json_ref.parse text with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s is not JSON (%s):\n%s" name e text

(* keys and strings draw every byte 0x00-0x7f *)
let gen_value =
  let open QCheck.Gen in
  let str = string_size ~gen:(map Char.chr (int_range 0 0x7f)) (int_range 0 12) in
  let leaf =
    frequency
      [ (1, return Json.Null); (1, map (fun b -> Json.Bool b) bool);
        (2, map (fun n -> Json.Int n) int);
        (1, oneofl [ Json.Int min_int; Json.Int max_int ]);
        (3, map (fun s -> Json.Str s) str) ]
  in
  let some g = list_size (int_range 0 5) g in
  sized_size (int_range 0 4)
  @@ fix (fun self depth ->
         if depth = 0 then leaf
         else
           frequency
             [ (2, leaf);
               (1, map (fun xs -> Json.Arr xs) (some (self (depth - 1))));
               (1, map (fun kvs -> Json.Obj kvs) (some (pair str (self (depth - 1))))) ])

let prop_round_trip =
  QCheck.Test.make ~name:"json: to_string reads back as the same value" ~count:1000
    (QCheck.make ~print:Json.to_string gen_value)
    (fun v -> Json_ref.parse (Json.to_string v) = Ok (Json_ref.of_json v))

let examples = Test_cli.in_build "examples/"

(* every JSON surface of the CLI on a real run, plus the trace files *)
let test_reports_are_json () =
  let trace name = Filename.temp_file ("lateral_" ^ name) ".json" in
  let traces = List.map (fun n -> (n, trace n)) [ "run"; "chaos"; "fleet" ] in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (_, f) -> Sys.remove f) traces)
    (fun () ->
      let t n = Filename.quote (List.assoc n traces) in
      List.iter
        (fun (name, args) ->
          let code, out = Test_cli.output (args ^ " --format json") in
          if code > 1 then Alcotest.failf "%s exited %d" name code;
          ignore (read_back name out))
        [ ("run", "run mail --requests 20 --seed 7 --trace " ^ t "run");
          ( "chaos",
            "chaos mail --requests 20 --seed 7 --kill imap --kill legacy_os --trace "
            ^ t "chaos" );
          ( "fleet",
            "fleet --hosts 2 --requests 10 --seed 3 --kill-host host-2 --trace "
            ^ t "fleet" );
          ("scale", "scale --tenants 4 --shards 1 --requests 2");
          ("hunt", "hunt --seed 7 --budget 2 --engine storage");
          ("lint", "lint " ^ examples ^ "browser.manifest");
          ("flow", "flow --conform " ^ examples ^ "clean.manifest");
          ("contain", "contain " ^ examples ^ "browser.manifest");
          ( "check steps",
            Printf.sprintf "check %sbrowser.manifest --deltas %sbrowser.deltas" examples
              examples ) ];
      List.iter
        (fun (name, file) ->
          let text = In_channel.with_open_bin file In_channel.input_all in
          match read_back (name ^ " trace") text with
          | Json_ref.Arr (_ :: _) -> ()
          | _ -> Alcotest.failf "%s trace holds no spans" name)
        traces)

(* control bytes in a scale report's strings come out as JSON escapes,
   not OCaml's decimal ones *)
let test_scale_escapes () =
  let module Sc = Lt_scale.Scale in
  let r =
    { Sc.s_scenario = "m\001il"; s_tenants = 1; s_shards = 1;
      s_requests_per_tenant = 1; s_requests = 1; s_seed = 1; s_ok = 0; s_degraded = 0;
      s_errors = 1; s_throttled = 0; s_refused = 0; s_killed_shards = [];
      s_cross_domain_failures = [ (0, "bad\001byte") ]; s_forks = 0; s_restores = 0;
      s_counters = []; s_tenant_reports = [] }
  in
  match read_back "scale report" (Sc.render_report_json r) with
  | Json_ref.Obj fields ->
    let open Json_ref in
    Alcotest.(check bool) "scenario" true (List.assoc "scenario" fields = Str "m\001il");
    Alcotest.(check bool) "detail" true
      (List.assoc "cross_domain_failures" fields
       = Arr [ Obj [ ("tenant", Num "0"); ("detail", Str "bad\001byte") ] ])
  | _ -> Alcotest.fail "scale report is not an object"

let suite =
  [ QCheck_alcotest.to_alcotest prop_round_trip;
    Alcotest.test_case "every report and trace is one JSON document" `Quick
      test_reports_are_json;
    Alcotest.test_case "scale report escapes control bytes" `Quick test_scale_escapes ]
