(* manifest-churn: a 300-component layered fleet (every component feeds
   the next plus two skip links, a sprinkling of network-facing sources
   and SEP-hosted components), a fresh Check.create per round, then a
   fixed number of seeded Check.apply deltas.

   Each round's delta kinds are a fixed multiset — 60% flag flips, 15%
   connects, 15% disconnects, 5% vet/unvet, 5% remove-or-re-add — in a
   seeded order, so runs differ in which components they touch, not in
   how much work of each kind they do. Every delta is a real change:
   a flag flip toggles the component's current bit, connects only add a
   channel that is not there, and stay forward (the graph stays a DAG,
   as the fleet starts), disconnects and vets pick an existing channel.
   Flag flips take the incremental slice; topology deltas re-solve a
   large part of the fleet. After each round the incremental state must
   equal a from-scratch analysis (Check.divergence = None). *)

open Lateral
module Drbg = Lt_crypto.Drbg
module H = Harness

let fleet_size = 300
let deltas = 80
let round_s = 1.8

let cname i = Printf.sprintf "c%03d" i

let component n i =
  Manifest.v ~name:(cname i) ~provides:[ "s" ]
    ~connects_to:
      (List.filter_map
         (fun j -> if j < n then Some (Manifest.conn (cname j) "s") else None)
         [ i + 1; i + 7; i + 31 ])
    ~network_facing:(i mod 97 = 0)
    ~substrate:(if i mod 100 = 50 then "sep" else "microkernel")
    ()

let fleet n = List.init n (component n)

type kind = Flag | Connect | Disconnect | Vet | Churn

let kind_name = function
  | Flag -> "flag"
  | Connect | Disconnect -> "topology"
  | Vet -> "vet"
  | Churn -> "remove"

(* the round's kinds: the fixed mix, shuffled by the seed *)
let kinds rng d =
  let count share = max 1 (d * share / 100) in
  let mix =
    List.concat_map
      (fun (k, share) -> List.init (count share) (fun _ -> k))
      [ (Connect, 15); (Disconnect, 15); (Vet, 5); (Churn, 5) ]
  in
  let mix = Array.of_list (List.init (max 0 (d - List.length mix)) (fun _ -> Flag) @ mix) in
  for i = Array.length mix - 1 downto 1 do
    let j = Drbg.int rng (i + 1) in
    let t = mix.(i) in
    mix.(i) <- mix.(j);
    mix.(j) <- t
  done;
  Array.sub mix 0 d

(* Picks the next delta of kind [k] against the current fleet. [stash]
   holds a removed component until a later churn delta re-adds it. *)
let pick rng n ms stash k =
  let ms = Array.of_list ms in
  let any () = ms.(Drbg.int rng (Array.length ms)) in
  let rec with_channel tries =
    let m = any () in
    if m.Manifest.connects_to <> [] || tries = 0 then m else with_channel (tries - 1)
  in
  let channel m =
    List.nth m.Manifest.connects_to (Drbg.int rng (List.length m.Manifest.connects_to))
  in
  match k with
  | Flag ->
    let m = any () in
    Delta.Add { m with Manifest.vulnerable = not m.Manifest.vulnerable }
  | Connect ->
    let rec go tries =
      let m = any () in
      let i = int_of_string (String.sub m.Manifest.name 1 3) in
      let j = i + 2 + Drbg.int rng 40 in
      let t = cname j in
      if j < n
         && not (List.exists (fun c -> c.Manifest.target = t) m.Manifest.connects_to)
      then Delta.Connect { caller = m.Manifest.name; conn = Manifest.conn t "s" }
      else if tries = 0 then Delta.Add { m with Manifest.vulnerable = not m.Manifest.vulnerable }
      else go (tries - 1)
    in
    go 100
  | Disconnect ->
    let m = with_channel 100 in
    let c = channel m in
    Delta.Disconnect { caller = m.Manifest.name; target = c.Manifest.target; service = c.service }
  | Vet ->
    let m = with_channel 100 in
    let c = channel m in
    Delta.Set_vetted
      { caller = m.Manifest.name; target = c.Manifest.target; service = c.service;
        vetted = not c.vetted }
  | Churn ->
    (match !stash with
     | Some m ->
       stash := None;
       Delta.Add m
     | None ->
       let m = any () in
       stash := Some m;
       Delta.Remove m.Manifest.name)

type round = {
  setup : float;
  lat_us : float array;  (* per delta, CPU µs *)
  pass : H.pass;
  peak_mb : float;
  diverged : string option;
}

let one_round (ctx : H.ctx) ~round =
  let n = H.size ctx fleet_size and d = H.size ctx deltas in
  let rng = Drbg.substream (Drbg.create (Int64.of_int ctx.seed)) round in
  let base = fleet n in
  Gc.full_major ();
  let st, setup = H.timed (fun () -> Check.create base) in
  let st = ref st and stash = ref None in
  let ks = kinds rng d in
  let lat_us = Array.make d 0.0 in
  let pass =
    H.measure_pass ~ops:d (fun () ->
        Array.iteri
          (fun i k ->
            H.Spans.op i (fun () ->
                let delta = pick rng n (Check.manifests !st) stash k in
                let c0 = H.cpu () in
                let st', _ = H.Spans.span "check" "Check.apply" (fun () -> Check.apply delta !st) in
                lat_us.(i) <- (H.cpu () -. c0) *. 1e6;
                st := st'))
          ks)
  in
  { setup; lat_us; pass; peak_mb = H.peak_heap_mb (); diverged = Check.divergence !st }

let problems r =
  match r.diverged with None -> [] | Some why -> [ "Check.divergence: " ^ why ]

let run ctx =
  let rounds =
    List.init (H.rounds ctx ~round_s) (fun i -> H.in_child (fun () -> one_round ctx ~round:i))
  in
  let lat = Array.concat (List.map (fun r -> r.lat_us) rounds) in
  (* every round creates its own Check state: one set-up sample each *)
  let setups = Array.of_list (List.map (fun r -> r.setup) rounds) in
  { H.problems = List.concat_map problems rounds;
    attempted = Array.length lat;
    failed = 0;
    metrics =
      H.end_to_end
        (List.map
           (fun r ->
             { H.r_ops = Array.length r.lat_us; r_op_cpu = r.pass.H.p_cpu; r_peak_mb = r.peak_mb })
           rounds)
        ~setup_s:setups ~latency_us:lat }

let traced ctx =
  let off = H.in_child (fun () -> one_round ctx ~round:0) in
  let on, layers, roots =
    H.in_child (fun () -> H.with_spans ctx (fun () -> one_round ctx ~round:0))
  in
  { H.t_outcome =
      { H.problems = problems off @ problems on;
        attempted = 2 * Array.length off.lat_us;
        failed = 0;
        metrics = [] };
    t_off = off.pass;
    t_on_cpu = on.pass.H.p_cpu;
    t_layers = layers;
    t_roots = roots }
