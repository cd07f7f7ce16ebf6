(* Storage: block device and the legacy inode file system. *)

open Lt_crypto
module Block = Lt_storage.Block
module Fs = Lt_storage.Legacy_fs

let make_fs ?(blocks = 512) () =
  let dev = Block.create ~blocks in
  (dev, Fs.format dev)

let test_block_device () =
  let dev = Block.create ~blocks:8 in
  Block.write dev 3 "hello";
  Alcotest.(check string) "read back (padded)" "hello"
    (String.sub (Block.read dev 3) 0 5);
  Alcotest.(check bool) "oob rejected" true
    (try ignore (Block.read dev 8); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "oversize rejected" true
    (try Block.write dev 0 (String.make 513 'x'); false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "ops counted" 1 (Block.reads dev)

let test_block_corrupt_rollback () =
  let dev = Block.create ~blocks:4 in
  Block.write dev 1 "original";
  let snap = Block.snapshot dev 1 in
  Block.write dev 1 "updated!";
  Block.rollback dev 1 snap;
  Alcotest.(check string) "stale data served" "original"
    (String.sub (Block.read dev 1) 0 8);
  Block.corrupt dev 1 (Drbg.create 3L);
  Alcotest.(check bool) "corruption changed data" true
    (String.sub (Block.read dev 1) 0 8 <> "original")

let test_fs_create_write_read () =
  let _, fs = make_fs () in
  Alcotest.(check bool) "create" true (Fs.create fs "/mail/inbox" = Ok ());
  Alcotest.(check bool) "duplicate rejected" true
    (match Fs.create fs "/mail/inbox" with Error (Fs.Already_exists _) -> true | _ -> false);
  Alcotest.(check bool) "write" true (Fs.write fs "/mail/inbox" "msg1\nmsg2" = Ok ());
  Alcotest.(check (result string Alcotest.reject)) "read" (Ok "msg1\nmsg2")
    (Result.map_error (fun _ -> assert false) (Fs.read fs "/mail/inbox"));
  Alcotest.(check bool) "size" true (Fs.size fs "/mail/inbox" = Ok 9)

let test_fs_multiblock_files () =
  let _, fs = make_fs () in
  let big = String.init 5000 (fun i -> Char.chr (i mod 256)) in
  Alcotest.(check bool) "write big" true (Fs.write fs "/big" big = Ok ());
  (match Fs.read fs "/big" with
   | Ok data -> Alcotest.(check bool) "big roundtrip" true (data = big)
   | Error _ -> Alcotest.fail "read failed");
  (* overwrite with smaller content frees blocks *)
  Alcotest.(check bool) "overwrite" true (Fs.write fs "/big" "tiny" = Ok ());
  Alcotest.(check (result string Alcotest.reject)) "shrunk" (Ok "tiny")
    (Result.map_error (fun _ -> assert false) (Fs.read fs "/big"))

let test_fs_delete_and_list () =
  let _, fs = make_fs () in
  ignore (Fs.write fs "/a" "1");
  ignore (Fs.write fs "/b" "2");
  Alcotest.(check (list string)) "list" [ "/a"; "/b" ] (Fs.list fs);
  Alcotest.(check bool) "delete" true (Fs.delete fs "/a" = Ok ());
  Alcotest.(check bool) "gone" false (Fs.exists fs "/a");
  Alcotest.(check bool) "delete missing" true
    (match Fs.delete fs "/a" with Error (Fs.Not_found _) -> true | _ -> false)

let test_fs_no_space () =
  let _, fs = make_fs ~blocks:100 () in
  (* device has 100 - 97 = 3 data blocks = 1536 bytes *)
  (match Fs.write fs "/big" (String.make 4096 'x') with
   | Error Fs.No_space -> ()
   | _ -> Alcotest.fail "expected no-space");
  Alcotest.(check bool) "small still fits" true (Fs.write fs "/ok" "fits" = Ok ())

(* a refused write to an unknown path leaves no record behind: [exists]
   agrees with what [mount] reads back from the device *)
let test_fs_refused_write_leaves_no_file () =
  let dev, fs = make_fs ~blocks:160 () in
  (match Fs.write fs "/new" (String.make 60_000 'x') with
   | Error Fs.No_space -> ()
   | _ -> Alcotest.fail "expected no-space");
  Alcotest.(check bool) "no file after refusal" false (Fs.exists fs "/new");
  Alcotest.(check (list string)) "list empty" [] (Fs.list fs);
  match Fs.mount dev with
  | Ok fs2 -> Alcotest.(check bool) "mount agrees" false (Fs.exists fs2 "/new")
  | Error e -> Alcotest.fail (Format.asprintf "%a" Fs.pp_error e)

let test_fs_persistence () =
  let dev, fs = make_fs () in
  ignore (Fs.write fs "/persist" "survives remount");
  Fs.sync fs;
  (match Fs.mount dev with
   | Ok fs2 ->
     Alcotest.(check (result string Alcotest.reject)) "remounted read"
       (Ok "survives remount")
       (Result.map_error (fun _ -> assert false) (Fs.read fs2 "/persist"));
     (* allocations survive: new writes don't clobber old files *)
     ignore (Fs.write fs2 "/new" (String.make 2000 'y'));
     Alcotest.(check (result string Alcotest.reject)) "old intact"
       (Ok "survives remount")
       (Result.map_error (fun _ -> assert false) (Fs.read fs2 "/persist"))
   | Error e -> Alcotest.fail (Format.asprintf "%a" Fs.pp_error e))

let test_fs_mount_bad_device () =
  let dev = Block.create ~blocks:512 in
  (match Fs.mount dev with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unformatted device mounted")

let test_fs_evil_corrupt () =
  let _, fs = make_fs () in
  ignore (Fs.write fs "/f" "important data here");
  Fs.set_evil fs (Fs.Corrupt_reads (Drbg.create 9L));
  (match Fs.read fs "/f" with
   | Ok data -> Alcotest.(check bool) "data corrupted" true (data <> "important data here")
   | Error _ -> Alcotest.fail "read failed");
  Fs.set_evil fs Fs.Honest;
  Alcotest.(check (result string Alcotest.reject)) "honest again"
    (Ok "important data here")
    (Result.map_error (fun _ -> assert false) (Fs.read fs "/f"))

let test_fs_evil_stale () =
  let _, fs = make_fs () in
  ignore (Fs.write fs "/f" "version-1");
  ignore (Fs.write fs "/f" "version-2");
  Fs.set_evil fs Fs.Serve_stale;
  Alcotest.(check (result string Alcotest.reject)) "stale version served"
    (Ok "version-1")
    (Result.map_error (fun _ -> assert false) (Fs.read fs "/f"))

let test_fs_observes_writes () =
  let _, fs = make_fs () in
  ignore (Fs.write fs "/f" "PLAINTEXT-SECRET");
  Alcotest.(check bool) "compromised fs saw the secret" true
    (Fs.observed_contains fs ~needle:"PLAINTEXT-SECRET")

let prop_fs_roundtrip =
  QCheck.Test.make ~name:"legacy fs: write/read roundtrip" ~count:100
    QCheck.(pair (string_of_size (Gen.int_range 0 3000)) small_string)
    (fun (data, name) ->
      let _, fs = make_fs () in
      let path = "/" ^ String.map (fun c -> if c = '\000' then '_' else c) name in
      match Fs.write fs path data with
      | Ok () -> Fs.read fs path = Ok data
      | Error _ -> false)

let suite =
  [ Alcotest.test_case "block device basics" `Quick test_block_device;
    Alcotest.test_case "block corrupt & rollback" `Quick test_block_corrupt_rollback;
    Alcotest.test_case "fs create/write/read" `Quick test_fs_create_write_read;
    Alcotest.test_case "fs multi-block files" `Quick test_fs_multiblock_files;
    Alcotest.test_case "fs delete & list" `Quick test_fs_delete_and_list;
    Alcotest.test_case "fs out of space" `Quick test_fs_no_space;
    Alcotest.test_case "fs refused write leaves no file" `Quick
      test_fs_refused_write_leaves_no_file;
    Alcotest.test_case "fs persistence across mount" `Quick test_fs_persistence;
    Alcotest.test_case "fs rejects unformatted device" `Quick test_fs_mount_bad_device;
    Alcotest.test_case "evil fs corrupts reads" `Quick test_fs_evil_corrupt;
    Alcotest.test_case "evil fs serves stale data" `Quick test_fs_evil_stale;
    Alcotest.test_case "fs transcript records plaintext" `Quick test_fs_observes_writes;
    QCheck_alcotest.to_alcotest prop_fs_roundtrip ]
