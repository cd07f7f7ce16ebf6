(* fleet-attested: a fresh 3-host fleet per round (Fleet.create +
   place_all over Fleet_chaos's four-component app), then a fixed number
   of Fleet.call gate.ingress with seeded 16-2048 B payloads. Every call
   crosses the attested Secure_channel to the owning host's agent. The
   fleet runs with an Lt_obs tracer and metrics registry installed, as
   Fleet_chaos.run (the `lateral fleet` command) runs it.

   The call count per fleet is fixed: a Fleet.call gets slower the more
   calls the fleet has served (the Net transcript and the heap grow), so
   the per-call numbers are only defined for a given count. The growth
   is reported as fleet.drift_x (p50 of the last 500 calls over the
   first 500) and net.log_packets. *)

module Fleet = Lt_fleet.Fleet
module Fleet_chaos = Lt_fleet.Fleet_chaos
module Drbg = Lt_crypto.Drbg
module Trace = Lt_obs.Trace
module Metrics = Lt_obs.Metrics
module Net = Lt_net.Net
module H = Harness

let calls = 1500
let window = 500
let round_s = 1.6

let hosts =
  List.map
    (fun n -> Fleet.host_spec ~name:n ~substrates:[ "microkernel"; "sgx"; "sep" ] ())
    [ "host-1"; "host-2"; "host-3" ]

(* 16-2048 printable bytes *)
let payload rng =
  let b = Drbg.bytes rng (16 + Drbg.int rng 2033) in
  String.map (fun c -> Char.chr (97 + (Char.code c land 15))) b

(* the reply the same app gives when called locally: gate relays to the
   worker, which answers exec(<payload>) *)
let expected p = "gated:exec(" ^ p ^ ")"

type round = {
  setup : float;
  lat_us : float array;
  pass : H.pass;
  errors : int;
  drift : float;
  packets : int;
  peak_mb : float;
  problems : string list;
}

let one_round (ctx : H.ctx) ~round =
  let problems = ref [] in
  let n = H.size ctx calls in
  let rng = Drbg.substream (Drbg.create (Int64.of_int ctx.seed)) round in
  let payloads = Array.init n (fun _ -> payload rng) in
  let tracer = Trace.create () and metrics = Metrics.create () in
  Gc.full_major ();
  Metrics.with_metrics metrics (fun () ->
      Trace.with_tracer tracer (fun () ->
          let f, setup =
            H.timed (fun () ->
                match
                  Fleet.create ~seed:(Int64.of_int ctx.seed) ~hosts
                    ~components:(Fleet_chaos.scenario_components ()) ()
                with
                | Error e -> failwith ("Fleet.create: " ^ e)
                | Ok f ->
                  (match Fleet.place_all f with
                   | Ok () -> f
                   | Error e -> failwith ("Fleet.place_all: " ^ e)))
          in
          H.check problems (Fleet.rogue_placements f = 0) "rogue placements";
          H.check problems (Fleet.unplaced f = []) "unplaced clusters";
          let lat_us = Array.make n 0.0 and errors = ref 0 in
          let pass =
            H.measure_pass ~ops:n (fun () ->
                for i = 0 to n - 1 do
                  let p = payloads.(i) in
                  H.Spans.op i (fun () ->
                      let c0 = H.cpu () in
                      let r =
                        H.Spans.span "fleet" "Fleet.call" (fun () ->
                            Fleet.call f ~target:"gate" ~service:"ingress" p)
                      in
                      lat_us.(i) <- (H.cpu () -. c0) *. 1e6;
                      match r with
                      | Ok reply ->
                        H.check problems (reply = expected p)
                          "call %d: reply differs from local" i
                      | Error _ -> incr errors)
                done)
          in
          let w = min window (n / 2) in
          let drift =
            H.median (Array.sub lat_us (n - w) w) /. H.median (Array.sub lat_us 0 w)
          in
          { setup; lat_us; pass; errors = !errors; drift;
            packets = List.length (Net.observed (Fleet.net f));
            peak_mb = H.peak_heap_mb (); problems = !problems }))

let run ctx =
  let rounds =
    List.init (H.rounds ctx ~round_s) (fun i -> H.in_child (fun () -> one_round ctx ~round:i))
  in
  let each f = Array.of_list (List.map f rounds) in
  (* every round builds its own fleet, so every round is a set-up sample *)
  { H.problems = List.concat_map (fun r -> r.problems) rounds;
    attempted = List.fold_left (fun a r -> a + Array.length r.lat_us) 0 rounds;
    failed = List.fold_left (fun a r -> a + r.errors) 0 rounds;
    metrics =
      H.end_to_end
        (List.map
           (fun r ->
             { H.r_ops = Array.length r.lat_us; r_op_cpu = r.pass.H.p_cpu; r_peak_mb = r.peak_mb })
           rounds)
        ~setup_s:(each (fun r -> r.setup))
        ~latency_us:(Array.concat (List.map (fun r -> r.lat_us) rounds))
      @ [ ("fleet.drift_x", H.median (each (fun r -> r.drift)), "p50 last 500 / first 500");
          ( "net.log_packets",
            H.median (each (fun r -> float_of_int r.packets)),
            "Net transcript at round end" ) ] }

(* the same round (same payloads) twice, each on a fresh fleet *)
let traced ctx =
  let off = H.in_child (fun () -> one_round ctx ~round:0) in
  let on, layers, roots =
    H.in_child (fun () -> H.with_spans ctx (fun () -> one_round ctx ~round:0))
  in
  { H.t_outcome =
      { H.problems = off.problems @ on.problems;
        attempted = 2 * Array.length off.lat_us;
        failed = off.errors + on.errors;
        metrics =
          [ ("fleet.drift_x", off.drift, "p50 last 500 / first 500");
            ("net.log_packets", float_of_int off.packets, "") ] };
    t_off = off.pass;
    t_on_cpu = on.pass.H.p_cpu;
    t_layers = layers;
    t_roots = roots }
