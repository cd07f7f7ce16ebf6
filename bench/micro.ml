(* Bechamel micro-benchmarks: wall-clock cost of the primitives behind
   every experiment table — crypto, substrate invocation, VPFS. One
   Test.make per operation, all grouped in one run. *)

open Bechamel
open Toolkit
open Lt_crypto
open Lateral
module Block = Lt_storage.Block
module Fs = Lt_storage.Legacy_fs
module Vpfs = Lt_storage.Vpfs

let crypto_tests () =
  let rng = Drbg.create 1001L in
  let kb = Drbg.bytes rng 1024 in
  let rsa = Rsa.generate ~bits:512 rng in
  let signature = Rsa.sign rsa "msg" in
  let aead_key = Drbg.bytes rng 16 in
  let aead = Speck.Aead.of_key aead_key in
  [ Test.make ~name:"sha256-1KiB" (Staged.stage (fun () -> Sha256.digest kb));
    Test.make ~name:"hmac-1KiB" (Staged.stage (fun () -> Hmac.mac ~key:"k" kb));
    Test.make ~name:"aead-seal-1KiB"
      (Staged.stage (fun () ->
           Speck.Aead.encrypt ~key:aead_key ~nonce:"12345678" ~ad:"" kb));
    Test.make ~name:"aead-seal-1KiB-keyed"
      (Staged.stage (fun () -> Speck.Aead.seal aead ~nonce:"12345678" ~ad:"" kb));
    Test.make ~name:"rsa512-sign" (Staged.stage (fun () -> Rsa.sign rsa "msg"));
    Test.make ~name:"rsa512-verify"
      (Staged.stage (fun () -> Rsa.verify rsa.Rsa.pub ~signature "msg")) ]

let substrate_tests () =
  let rng = Drbg.create 1002L in
  let ca = Rsa.generate ~bits:512 rng in
  (* sgx ecall *)
  let m1 = Lt_hw.Machine.create ~dram_pages:256 () in
  let sgx, _ = Substrate_sgx.make m1 rng ~ca_name:"intel" ~ca_key:ca () in
  let sgx_c =
    match sgx.Substrate.launch ~name:"b" ~code:"b" ~services:[ ("f", fun _ x -> x) ] with
    | Ok c -> c
    | Error e -> failwith e
  in
  (* trustzone smc *)
  let m2 = Lt_hw.Machine.create ~dram_pages:64 () in
  Lt_hw.Fuse.program m2.Lt_hw.Machine.fuses ~name:"devkey"
    ~visibility:Lt_hw.Fuse.Secure_only (Drbg.bytes rng 32);
  let tz, tz_c =
    match
      Substrate_trustzone.make m2 ~vendor:ca.Rsa.pub
        ~image:(Lt_tpm.Boot.sign_stage ca ~name:"tz" "tz-v1") ~device_id:"d"
        ~device_key_name:"devkey" ~secure_pages:4
    with
    | Ok (tz, _) ->
      (match tz.Substrate.launch ~name:"b" ~code:"b" ~services:[ ("f", fun _ x -> x) ] with
       | Ok c -> (tz, c)
       | Error e -> failwith e)
    | Error e -> failwith e
  in
  (* microkernel ipc *)
  let m3 = Lt_hw.Machine.create ~dram_pages:1024 () in
  let mk, _ = Substrate_kernel.make m3 (Lt_kernel.Sched.Round_robin { quantum = 500 }) () in
  let mk_c =
    match mk.Substrate.launch ~name:"b" ~code:"b" ~services:[ ("f", fun _ x -> x) ] with
    | Ok c -> c
    | Error e -> failwith e
  in
  (* flicker session *)
  let tpm = Lt_tpm.Tpm.manufacture rng ~ca_name:"v" ~ca_key:ca ~serial:"1" in
  let fl = Substrate_flicker.make tpm () in
  let fl_c =
    match fl.Substrate.launch ~name:"b" ~code:"b" ~services:[ ("f", fun _ x -> x) ] with
    | Ok c -> c
    | Error e -> failwith e
  in
  (* cheri compartment *)
  let ch, _, _ = Substrate_cheri.make rng ~size:(1 lsl 16) () in
  let ch_c =
    match ch.Substrate.launch ~name:"b" ~code:"b" ~services:[ ("f", fun _ x -> x) ] with
    | Ok c -> c
    | Error e -> failwith e
  in
  (* m3 tile *)
  let m3, _ = Substrate_m3.make rng ~ca_name:"m3" ~ca_key:ca ~tiles:4 () in
  let m3_c =
    match m3.Substrate.launch ~name:"b" ~code:"b" ~services:[ ("f", fun _ x -> x) ] with
    | Ok c -> c
    | Error e -> failwith e
  in
  [ Test.make ~name:"invoke-sgx-ecall"
      (Staged.stage (fun () -> Stdlib.ignore (sgx.Substrate.invoke sgx_c ~fn:"f" "x")));
    Test.make ~name:"invoke-tz-smc"
      (Staged.stage (fun () -> Stdlib.ignore (tz.Substrate.invoke tz_c ~fn:"f" "x")));
    Test.make ~name:"invoke-microkernel-ipc"
      (Staged.stage (fun () -> Stdlib.ignore (mk.Substrate.invoke mk_c ~fn:"f" "x")));
    Test.make ~name:"invoke-flicker-session"
      (Staged.stage (fun () -> Stdlib.ignore (fl.Substrate.invoke fl_c ~fn:"f" "x")));
    Test.make ~name:"invoke-cheri-compartment"
      (Staged.stage (fun () -> Stdlib.ignore (ch.Substrate.invoke ch_c ~fn:"f" "x")));
    Test.make ~name:"invoke-m3-tile"
      (Staged.stage (fun () -> Stdlib.ignore (m3.Substrate.invoke m3_c ~fn:"f" "x"))) ]

let storage_tests () =
  let payload = String.make 4096 'd' in
  let dev = Block.create ~blocks:8192 in
  let fs = Fs.format dev in
  let vpfs = Vpfs.create ~master_key:"bench" fs in
  let dev2 = Block.create ~blocks:8192 in
  let fs2 = Fs.format dev2 in
  Stdlib.ignore (Vpfs.write vpfs "/r" payload);
  Stdlib.ignore (Fs.write fs2 "/r" payload);
  let i = ref 0 in
  let j = ref 0 in
  [ Test.make ~name:"legacyfs-write-4KiB"
      (Staged.stage (fun () ->
           incr i;
           Stdlib.ignore (Fs.write fs2 (Printf.sprintf "/f%d" (!i mod 64)) payload)));
    Test.make ~name:"vpfs-write-4KiB"
      (Staged.stage (fun () ->
           incr j;
           Stdlib.ignore (Vpfs.write vpfs (Printf.sprintf "/f%d" (!j mod 64)) payload)));
    Test.make ~name:"legacyfs-read-4KiB"
      (Staged.stage (fun () -> Stdlib.ignore (Fs.read fs2 "/r")));
    Test.make ~name:"vpfs-read-4KiB"
      (Staged.stage (fun () -> Stdlib.ignore (Vpfs.read vpfs "/r"))) ]

let run_all () =
  let tests =
    Test.make_grouped ~name:"micro"
      (crypto_tests () @ substrate_tests () @ storage_tests ())
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "\n## micro — primitive costs (wall clock, OLS fit)\n";
  Printf.printf "%-34s %14s\n" "operation" "ns/op";
  let rows =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)
  in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) -> Printf.printf "%-34s %14.1f\n" name est
      | _ -> Printf.printf "%-34s %14s\n" name "n/a")
    rows;
  print_endline "SHAPE PASS: micro-benchmarks completed"
