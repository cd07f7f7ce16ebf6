(* The documented exit-code convention, one case per subcommand:
   0 = success, 1 = findings or failed checks, 2 = usage or parse
   errors (and check --verify divergence), 125 = internal errors.
   Runs the real binary so the convention cannot drift from the docs. *)

(* the build tree this binary sits in (<build>/test/test_main.exe): the
   CLI and the fixtures resolve from it, whatever the working directory *)
let in_build path =
  Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) path

let exe = Filename.quote (in_build "bin/lateral_cli.exe")

let run args =
  Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" exe args)

let check_exit name expected args =
  Alcotest.(check int) name expected (run args)

(* [output ~stream args] — the exit code and the stdout (or, with
   [~stream:2], the stderr) of one invocation *)
let output ?(stream = 1) args =
  let out = Filename.temp_file "lateral_cli" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "%s %s >/dev/null 2>/dev/null %d>%s" exe args stream
             (Filename.quote out))
      in
      (code, In_channel.with_open_bin out In_channel.input_all))

let with_temp content f =
  let path = Filename.temp_file "lateral_cli" ".tmp" in
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let clean = in_build "examples/clean.manifest"

let broken = in_build "examples/broken.manifest"

let storm_manifest =
  {|component scheduler
  domain control
  restart on-failure 3 256
  provides tick
  connects worker.work

component worker
  domain control
  restart always 2
  provides work
  connects scheduler.tick
|}

let test_demo_commands () =
  check_exit "substrates succeeds" 0 "substrates";
  check_exit "gateway succeeds" 0 "gateway";
  check_exit "meter rejects a bad tamper mode" 2 "meter --tamper bogus"

let test_run_chaos () =
  check_exit "run rejects zero requests" 2 "run mail --requests 0";
  check_exit "chaos rejects zero requests" 2 "chaos mail --requests 0"

let test_hunt () =
  check_exit "hunt rejects an unknown engine" 2
    "hunt --budget 1 --engine bogus";
  check_exit "hunt rejects a zero budget" 2 "hunt --budget 0"

let test_analysis_commands () =
  check_exit "lint wants at least one file" 2 "lint";
  check_exit "flow wants at least one file" 2 "flow";
  check_exit "contain wants at least one file" 2 "contain";
  check_exit "lint is quiet on the clean fixture" 0 ("lint " ^ clean);
  check_exit "lint flags the broken fixture" 1 ("lint " ^ broken);
  with_temp "component a\n  bogus-field x\n" (fun bad ->
      check_exit "analyze reports parse errors as usage" 2 ("analyze " ^ bad);
      check_exit "contain reports parse errors as usage" 2 ("contain " ^ bad))

let test_check_deltas () =
  with_temp "connect a\n" (fun bad ->
      check_exit "check rejects a malformed delta script" 2
        (Printf.sprintf "check %s --deltas %s" clean bad))

(* like lint, flow and contain, check names every unparseable file *)
let test_check_reports_every_bad_file () =
  with_temp "component a\n  bogus-field x\n" (fun bad ->
      let code, err = output ~stream:2 (Printf.sprintf "check %s %s" bad bad) in
      Alcotest.(check int) "exit 2" 2 code;
      Alcotest.(check int) "one stderr line per file" 2
        (List.length (String.split_on_char '\n' (String.trim err))))

(* a --format json input error still leaves one JSON document on
   stdout: the empty report list *)
let test_json_input_errors () =
  let empty name args =
    Alcotest.(check (pair int string)) name (2, "[]\n") (output args)
  in
  with_temp "component a\n  bogus-field x\n" (fun bad ->
      empty "lint" ("lint --format json " ^ bad);
      empty "flow" ("flow --format json " ^ bad);
      empty "contain" ("contain --format json " ^ bad);
      empty "contain, one good file"
        (Printf.sprintf "contain --format json %s %s" clean bad);
      empty "check" ("check --format json " ^ bad);
      empty "check, bad deltas"
        (Printf.sprintf "check --format json %s --deltas %s" clean bad))

let test_contain_verdicts () =
  check_exit "contain passes the clean fixture" 0 ("contain " ^ clean);
  check_exit "contain rejects an unknown witness root" 2
    (Printf.sprintf "contain %s --witness bogus" clean);
  with_temp storm_manifest (fun storm ->
      check_exit "contain fails a restart storm" 1 ("contain " ^ storm);
      check_exit "a witness query itself succeeds" 0
        (Printf.sprintf "contain %s --witness scheduler" storm))

let test_snap () =
  check_exit "snap round-trips one scenario world" 0 "snap cloud";
  check_exit "snap rejects an unknown scenario" 2 "snap bogus"

let test_usage_errors () =
  check_exit "unknown subcommands are usage errors" 2 "frobnicate";
  check_exit "unknown flags are usage errors" 2 "lint --bogus-flag"

let suite =
  [ Alcotest.test_case "scenario demos exit 0, bad modes 2" `Quick
      test_demo_commands;
    Alcotest.test_case "run/chaos validate their load" `Quick test_run_chaos;
    Alcotest.test_case "hunt validates engine and budget" `Quick test_hunt;
    Alcotest.test_case "lint/flow/analyze/contain usage" `Quick
      test_analysis_commands;
    Alcotest.test_case "check rejects bad delta scripts" `Quick
      test_check_deltas;
    Alcotest.test_case "check reports every unparseable file" `Quick
      test_check_reports_every_bad_file;
    Alcotest.test_case "json input errors print an empty list" `Quick
      test_json_input_errors;
    Alcotest.test_case "contain verdict and witness codes" `Quick
      test_contain_verdicts;
    Alcotest.test_case "snap digests and round-trips worlds" `Quick test_snap;
    Alcotest.test_case "unknown commands and flags exit 2" `Quick
      test_usage_errors ]
