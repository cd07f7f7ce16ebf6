(* The hunt harness itself: repro wire format, shrinking, engine
   properties on fixed seeds, report determinism, and the checked-in
   corpus of minimized reproducers for the bugs the fuzzer flushed
   out. *)

module Drbg = Lt_crypto.Drbg
module Repro = Lt_fuzz.Repro
module Shrink = Lt_fuzz.Shrink
module Hunt = Lt_fuzz.Hunt

(* ---------------------------------------------------------------- *)
(* repro wire format                                                 *)
(* ---------------------------------------------------------------- *)

let test_repro_roundtrip () =
  let r =
    { Repro.engine = "storage"; seed = 42L; note = "a power cut mid-journal";
      payload = "write /a hello\ncut 2\nremount" }
  in
  (match Repro.parse (Repro.to_text r) with
   | Ok r' -> Alcotest.(check bool) "roundtrip" true (r = r')
   | Error e -> Alcotest.fail e);
  match Repro.parse "not a repro" with
  | Ok _ -> Alcotest.fail "junk accepted"
  | Error _ -> ()

let prop_repro_roundtrip =
  QCheck.Test.make ~name:"repro: parse . to_text = id" ~count:200
    QCheck.(
      pair
        (string_gen_of_size (Gen.int_range 0 60) Gen.printable)
        small_signed_int)
    (fun (payload, seed) ->
      (* the format normalizes line endings; stick to payloads without
         carriage returns, which is what engines emit *)
      QCheck.assume (not (String.contains payload '\r'));
      let r =
        { Repro.engine = "manifest"; seed = Int64.of_int seed;
          note = "prop"; payload }
      in
      match Repro.parse (Repro.to_text r) with
      | Ok r' ->
        r'.Repro.engine = r.Repro.engine
        && r'.Repro.seed = r.Repro.seed
        && String.trim r'.Repro.payload = String.trim r.Repro.payload
      | Error _ -> false)

(* ---------------------------------------------------------------- *)
(* shrinking                                                         *)
(* ---------------------------------------------------------------- *)

let test_shrink_minimizes () =
  let payload =
    "alpha\nbeta\ntrigger this line\ngamma\ndelta\nepsilon\nzeta"
  in
  let has_trigger p =
    List.exists
      (fun l -> String.length l >= 7 && String.sub l 0 7 = "trigger")
      (String.split_on_char '\n' p)
  in
  let minimal = Shrink.lines has_trigger payload in
  Alcotest.(check bool) "still triggers" true (has_trigger minimal);
  Alcotest.(check int) "single line survives" 1
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' minimal)));
  (* the per-line pass also chops the line itself down *)
  Alcotest.(check bool) "line shortened" true
    (String.length minimal < String.length "trigger this line" + 1)

let test_shrink_counts_steps () =
  let steps = ref 0 in
  let _ = Shrink.lines ~steps (fun p -> String.length p > 0) "a\nb\nc" in
  Alcotest.(check bool) "spent predicate evaluations" true (!steps > 0)

(* ---------------------------------------------------------------- *)
(* engine properties on fixed seeds                                  *)
(* ---------------------------------------------------------------- *)

let prop_manifest_totality =
  QCheck.Test.make ~name:"manifest engine: total on arbitrary bytes" ~count:150
    QCheck.(string_gen_of_size (Gen.int_range 0 300) Gen.char)
    (fun s -> Lt_fuzz.Manifest_fuzz.check s = Ok ())

let test_manifest_generated_clean () =
  for i = 0 to 49 do
    let rng = Drbg.create (Int64.of_int (1000 + i)) in
    let payload = Lt_fuzz.Manifest_fuzz.generate rng i in
    match Lt_fuzz.Manifest_fuzz.check payload with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Printf.sprintf "case %d: %s" i e)
  done

let test_storage_generated_clean () =
  for i = 0 to 19 do
    let rng = Drbg.create (Int64.of_int (2000 + i)) in
    let payload = Lt_fuzz.Storage_fuzz.generate rng i in
    match Lt_fuzz.Storage_fuzz.check payload with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Printf.sprintf "case %d: %s" i e)
  done

let test_substrate_differential_smoke () =
  (* the full service chain, a refusal, a crash and an unknown caller:
     every substrate must agree with the reference model *)
  let payload =
    String.concat "\n"
      [ "call - gate relay hello";
        "call gate worker work data42";
        "call worker vault seal poison";
        "crash worker";
        "call gate worker work hello";
        "revive worker";
        "call ghost vault seal x" ]
  in
  match Lt_fuzz.Substrate_fuzz.check payload with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_storm_is_typed () =
  (* deploying past physical memory must come back as a typed error on
     every substrate, never an exception (the old kernel failwith) *)
  match Lt_fuzz.Substrate_fuzz.check "storm 2 6" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* ---------------------------------------------------------------- *)
(* hunt driver                                                       *)
(* ---------------------------------------------------------------- *)

let test_report_determinism () =
  let engines = [ Hunt.Manifest; Hunt.Storage ] in
  let a = Hunt.run ~engines ~seed:7L ~budget:20 () in
  let b = Hunt.run ~engines ~seed:7L ~budget:20 () in
  Alcotest.(check string) "text reports byte-identical"
    (Hunt.render_text a) (Hunt.render_text b);
  Alcotest.(check string) "json reports byte-identical"
    (Hunt.render_json a) (Hunt.render_json b);
  Alcotest.(check bool) "fixed seed is clean" true (Hunt.ok a)

let test_engine_subset_stream () =
  (* --engine storage must see the same storage stream as a full run *)
  let full = Hunt.run ~seed:11L ~budget:4 () in
  let solo = Hunt.run ~engines:[ Hunt.Storage ] ~seed:11L ~budget:4 () in
  let storage_of r =
    List.find (fun e -> e.Hunt.e_engine = Hunt.Storage) r.Hunt.r_engines
  in
  Alcotest.(check bool) "same failures either way" true
    (storage_of full = storage_of solo)

let test_replay_rejects_unknown_engine () =
  match
    Hunt.replay
      { Repro.engine = "warp"; seed = 0L; note = ""; payload = "" }
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown engine accepted"

(* ---------------------------------------------------------------- *)
(* corpus: every checked-in reproducer stays fixed                   *)
(* ---------------------------------------------------------------- *)

let corpus = Test_cli.in_build "test/corpus"

let corpus_files () =
  Sys.readdir corpus |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".repro")
  |> List.sort compare

(* [fleet_*.repro] files are fleet chaos schedules, not hunt repros;
   replay each through its own harness *)
let replay_fleet_repro f path =
  let module Fc = Lt_fleet.Fleet_chaos in
  match Fc.load_repro path with
  | Error e -> Alcotest.fail (Printf.sprintf "%s: %s" f e)
  | Ok rp ->
    (match
       Fc.run ~plan:rp.Fc.rp_plan ~rogue:rp.Fc.rp_rogue ~hosts:rp.Fc.rp_hosts
         ~requests:rp.Fc.rp_requests ~seed:rp.Fc.rp_seed ()
     with
     | Error e -> Alcotest.fail (Printf.sprintf "%s: %s" f e)
     | Ok (r, _) ->
       Alcotest.(check bool) (f ^ " stays contained") true (Fc.contained r))

let test_corpus_replays () =
  let files = corpus_files () in
  Alcotest.(check bool) "corpus is non-empty" true (files <> []);
  List.iter
    (fun f ->
      let path = Filename.concat corpus f in
      if String.length f >= 6 && String.sub f 0 6 = "fleet_" then
        replay_fleet_repro f path
      else
        match Hunt.replay_file path with
        | Ok () -> ()
        | Error e -> Alcotest.fail (Printf.sprintf "%s: %s" f e))
    files

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_repro_roundtrip; prop_manifest_totality ]

let suite =
  [ Alcotest.test_case "repro roundtrip" `Quick test_repro_roundtrip;
    Alcotest.test_case "shrink minimizes to the trigger" `Quick
      test_shrink_minimizes;
    Alcotest.test_case "shrink counts steps" `Quick test_shrink_counts_steps;
    Alcotest.test_case "generated manifests check clean" `Quick
      test_manifest_generated_clean;
    Alcotest.test_case "generated storage schedules check clean" `Quick
      test_storage_generated_clean;
    Alcotest.test_case "substrate differential smoke" `Slow
      test_substrate_differential_smoke;
    Alcotest.test_case "storm is a typed error everywhere" `Slow
      test_storm_is_typed;
    Alcotest.test_case "equal seeds, identical reports" `Quick
      test_report_determinism;
    Alcotest.test_case "engine subset sees the same stream" `Quick
      test_engine_subset_stream;
    Alcotest.test_case "replay rejects unknown engines" `Quick
      test_replay_rejects_unknown_engine;
    Alcotest.test_case "corpus reproducers replay clean" `Slow
      test_corpus_replays ]
  @ qcheck_tests
