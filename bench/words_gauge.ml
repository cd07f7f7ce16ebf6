(* Allocation gauge of the tenants-mail hot path: minor words per request
   of Scale.run mail (200 tenants, 2 shards, batch 8, 16 requests per
   tenant) net of a 0-request run, which pays the same boot.
   Gc.minor_words counts words exactly, so the figure is the same on every
   run of one binary and seed, unlike the quantised gc.* suite metrics.
   Run with `dune exec bench/words_gauge.exe [-- SEED]` (default seed 1). *)

module Scale = Lt_scale.Scale

let tenants = 200

let per_tenant = 16

let words ~seed n =
  let cfg =
    { Scale.default with
      sc_scenario = Lt_load.Load.Mail;
      sc_tenants = tenants;
      sc_shards = 2;
      sc_batch = 8;
      sc_requests_per_tenant = n;
      sc_seed = seed }
  in
  Gc.full_major ();
  let before = Gc.minor_words () in
  match Scale.run cfg with
  | Ok _ -> Gc.minor_words () -. before
  | Error e ->
    prerr_endline ("words_gauge: " ^ e);
    exit 1

let () =
  let seed = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 1 in
  let setup = words ~seed 0 in
  let full = words ~seed per_tenant in
  Printf.printf "minor words per request (seed %d): %.1f\n" seed
    ((full -. setup) /. float_of_int (tenants * per_tenant))
