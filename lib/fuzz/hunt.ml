module Drbg = Lt_crypto.Drbg

type engine = Manifest | Substrate | Storage | Analysis | Contain

(* New engines ride at the end: the master stream is split once per
   engine in this order, so appending an engine leaves the existing
   engines' streams (and the committed corpus) untouched *)
let all_engines = [ Manifest; Substrate; Storage; Analysis; Contain ]

let engine_name = function
  | Manifest -> Manifest_fuzz.name
  | Substrate -> Substrate_fuzz.name
  | Storage -> Storage_fuzz.name
  | Analysis -> Analysis_fuzz.name
  | Contain -> Contain_fuzz.name

let engine_of_name = function
  | "manifest" -> Some Manifest
  | "substrate" -> Some Substrate
  | "storage" -> Some Storage
  | "analysis" -> Some Analysis
  | "contain" -> Some Contain
  | _ -> None

let engine_generate = function
  | Manifest -> Manifest_fuzz.generate
  | Substrate -> Substrate_fuzz.generate
  | Storage -> Storage_fuzz.generate
  | Analysis -> Analysis_fuzz.generate
  | Contain -> Contain_fuzz.generate

let engine_check = function
  | Manifest -> Manifest_fuzz.check
  | Substrate -> Substrate_fuzz.check
  | Storage -> Storage_fuzz.check
  | Analysis -> Analysis_fuzz.check
  | Contain -> Contain_fuzz.check

type failure = {
  f_case : int;
  f_what : string;
  f_repro : Repro.t;
}

type engine_report = {
  e_engine : engine;
  e_cases : int;
  e_failures : failure list;
  e_shrink_steps : int;
}

type report = {
  r_seed : int64;
  r_engines : engine_report list;
}

let run_engine engine ~seed ~budget ~rng =
  let generate = engine_generate engine and check = engine_check engine in
  let failures = ref [] in
  let shrink_steps = ref 0 in
  for case = 0 to budget - 1 do
    (* each case gets its own split stream so a payload change in one
       case cannot shift every later case *)
    let payload = generate (Drbg.split rng) case in
    match check payload with
    | Ok () -> ()
    | Error _ ->
      (* a shrunk payload must still exercise the property, not merely
         fail: collapsing into an op the engine cannot parse would
         "minimize" every bug to a parse error *)
      let still_fails p =
        match check p with
        | Ok () -> false
        | Error e -> not (String.starts_with ~prefix:"bad payload:" e)
      in
      let minimal = Shrink.lines ~steps:shrink_steps still_fails payload in
      let what =
        match check minimal with Error w -> w | Ok () -> "unshrinkable"
      in
      failures :=
        { f_case = case;
          f_what = what;
          f_repro =
            { Repro.engine = engine_name engine; seed; note = what;
              payload = minimal } }
        :: !failures
  done;
  { e_engine = engine;
    e_cases = budget;
    e_failures = List.rev !failures;
    e_shrink_steps = !shrink_steps }

let run ?(engines = all_engines) ~seed ~budget () =
  let master = Drbg.create seed in
  (* split once per engine in canonical order, so `--engine storage`
     sees the same storage stream as a full run with the same seed *)
  let streams = List.map (fun e -> (e, Drbg.split master)) all_engines in
  let reports =
    List.filter_map
      (fun (e, rng) ->
        if List.mem e engines then Some (run_engine e ~seed ~budget ~rng)
        else None)
      streams
  in
  { r_seed = seed; r_engines = reports }

let ok report = List.for_all (fun e -> e.e_failures = []) report.r_engines

let render_text report =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "lateral hunt: seed %Ld\n" report.r_seed);
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "  %-10s %4d cases  %d failures  (%d shrink steps)\n"
           (engine_name e.e_engine) e.e_cases (List.length e.e_failures)
           e.e_shrink_steps);
      List.iter
        (fun f ->
          Buffer.add_string b
            (Printf.sprintf "    case %d: %s\n" f.f_case f.f_what);
          String.split_on_char '\n' f.f_repro.Repro.payload
          |> List.iter (fun line ->
                 Buffer.add_string b (Printf.sprintf "      | %s\n" line)))
        e.e_failures)
    report.r_engines;
  Buffer.add_string b
    (if ok report then "verdict: clean\n" else "verdict: failures found\n");
  Buffer.contents b

let render_json report =
  Lt_obs.Json.(
    let failure f =
      Obj
        [ ("case", Int f.f_case); ("what", Str f.f_what);
          ("payload", Str f.f_repro.Repro.payload) ]
    in
    let engine e =
      Obj
        [ ("engine", Str (engine_name e.e_engine)); ("cases", Int e.e_cases);
          ("shrink_steps", Int e.e_shrink_steps);
          ("failures", list failure e.e_failures) ]
    in
    to_string
      (Obj
         [ ("seed", Int (Int64.to_int report.r_seed)); ("clean", Bool (ok report));
           ("engines", list engine report.r_engines) ]))
  ^ "\n"

let replay (repro : Repro.t) =
  match engine_of_name repro.Repro.engine with
  | None -> Error (Printf.sprintf "unknown engine %S" repro.Repro.engine)
  | Some engine -> engine_check engine repro.Repro.payload

let replay_file path =
  match Repro.load path with
  | Error e -> Error e
  | Ok repro -> replay repro
