(* hunt-substrate: the substrate fuzzing engine. A case is
   Substrate_fuzz.generate, then Substrate_fuzz.check, which rewinds the
   seven-substrate world and replays the case's calls, crashes, revivals
   and storms on every adapter. A failing case is a correctness failure.

   One op is a hunt step of 8 cases, as a budgeted hunt runs them. Half
   the generated cases hold a revive, which relaunches a component on
   every substrate and costs ~20x a case without one, so per-case times
   split into two clusters with the median between them; per-step times
   do not.

   The engine boots its seven substrates lazily on the first check, once
   per process, so the set-up time is measured in forked children: each
   runs one first check and reports its CPU time. The parent then boots
   and warms the engine's per-process storm memo (24 distinct shapes)
   before any round, as a long fuzzing campaign would. *)

module Fuzz = Lt_fuzz.Substrate_fuzz
module Drbg = Lt_crypto.Drbg
module H = Harness

let steps = 60
let step_cases = 8
let round_s = 1.0
let setup_samples = 3

(* CPU seconds of a run's set-ups and the parent's boot on the reference
   host: four first checks *)
let fixed_s = 1.5

let first_check () =
  match Fuzz.check "call - gate relay boot" with
  | Ok () -> ()
  | Error e -> failwith ("hunt boot check: " ^ e)

(* CPU seconds of a first check in a fresh child process *)
let setup_in_child () = H.in_child (fun () -> snd (H.timed first_check))

let storm_warmup =
  String.concat "\n"
    (List.concat_map
       (fun p -> List.init 4 (fun c -> Printf.sprintf "storm %d %d" p (c + 4)))
       [ 2; 3; 4; 5; 6; 7 ])

let boot () =
  first_check ();
  match Fuzz.check storm_warmup with
  | Ok () -> ()
  | Error e -> failwith ("hunt storm warm-up: " ^ e)

let has_revive payload =
  List.exists
    (fun l -> String.length l >= 7 && String.sub l 0 7 = "revive ")
    (String.split_on_char '\n' payload)

type round = { lat_us : float array; pass : H.pass; peak_mb : float; failures : string list }

let one_round (ctx : H.ctx) ~round =
  let n = H.size ctx steps in
  let master = Drbg.create (Int64.of_int ctx.seed) in
  let lat_us = Array.make n 0.0 and failures = ref [] in
  let case id =
    let payload =
      H.Spans.span "fuzz" "Substrate_fuzz.generate" (fun () ->
          Fuzz.generate (Drbg.substream master id) id)
    in
    match H.Spans.span "fuzz" "Substrate_fuzz.check" (fun () -> Fuzz.check payload) with
    | Ok () -> ()
    | Error e -> failures := Printf.sprintf "case %d: %s" id e :: !failures
  in
  let pass =
    H.measure_pass ~ops:n (fun () ->
        for i = 0 to n - 1 do
          H.Spans.op i (fun () ->
              let c0 = H.cpu () in
              for c = 0 to step_cases - 1 do
                case ((((round * n) + i) * step_cases) + c)
              done;
              lat_us.(i) <- (H.cpu () -. c0) *. 1e6)
        done)
  in
  { lat_us; pass; peak_mb = H.peak_heap_mb (); failures = !failures }

(* the set-up is timed in children forked before this process boots the
   engine; the rounds' children inherit the booted engine *)
let run ctx =
  let setups = Array.init (if ctx.H.smoke then 1 else setup_samples) (fun _ -> setup_in_child ()) in
  boot ();
  let rounds =
    List.init (H.rounds ctx ~fixed_s ~round_s) (fun i ->
        H.in_child (fun () -> one_round ctx ~round:i))
  in
  { H.problems = List.concat_map (fun r -> r.failures) rounds;
    attempted = List.fold_left (fun a r -> a + Array.length r.lat_us) 0 rounds;
    failed = List.fold_left (fun a r -> a + List.length r.failures) 0 rounds;
    metrics =
      H.end_to_end
        (List.map
           (fun r ->
             { H.r_ops = Array.length r.lat_us; r_op_cpu = r.pass.H.p_cpu; r_peak_mb = r.peak_mb })
           rounds)
        ~setup_s:setups ~latency_us:(Array.concat (List.map (fun r -> r.lat_us) rounds)) }

let traced ctx =
  boot ();
  let off = H.in_child (fun () -> one_round ctx ~round:0) in
  let on, layers, roots =
    H.in_child (fun () -> H.with_spans ctx (fun () -> one_round ctx ~round:0))
  in
  { H.t_outcome =
      { H.problems = off.failures @ on.failures;
        attempted = 2 * Array.length off.lat_us;
        failed = List.length off.failures + List.length on.failures;
        metrics = [] };
    t_off = off.pass;
    t_on_cpu = on.pass.H.p_cpu;
    t_layers = layers;
    t_roots = roots }
