(* VPFS: confidentiality and integrity over a hostile legacy FS. *)

open Lt_crypto
module Block = Lt_storage.Block
module Fs = Lt_storage.Legacy_fs
module Vpfs = Lt_storage.Vpfs
module Digest64 = Lt_world.Digest64

let master_key = "vpfs-master-key!"

let make () =
  let dev = Block.create ~blocks:1024 in
  let fs = Fs.format dev in
  (dev, fs, Vpfs.create ~master_key fs)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Format.asprintf "%a" Vpfs.pp_error e)

let test_roundtrip () =
  let _, _, v = make () in
  ok (Vpfs.write v "/secrets/keys" "alpha beta gamma");
  Alcotest.(check string) "read back" "alpha beta gamma" (ok (Vpfs.read v "/secrets/keys"));
  Alcotest.(check bool) "exists" true (Vpfs.exists v "/secrets/keys");
  Alcotest.(check (list string)) "list" [ "/secrets/keys" ] (Vpfs.list v)

let test_empty_and_large_files () =
  let _, _, v = make () in
  ok (Vpfs.write v "/empty" "");
  Alcotest.(check string) "empty roundtrip" "" (ok (Vpfs.read v "/empty"));
  let big = String.init 10_000 (fun i -> Char.chr (i mod 251)) in
  ok (Vpfs.write v "/big" big);
  Alcotest.(check bool) "multi-chunk roundtrip" true (ok (Vpfs.read v "/big") = big)

let test_confidentiality () =
  let _, fs, v = make () in
  ok (Vpfs.write v "/mail/password" "SUPER-SECRET-LOGIN");
  (* the legacy stack never saw plaintext *)
  Alcotest.(check bool) "no plaintext reached the legacy fs" false
    (Fs.observed_contains fs ~needle:"SUPER-SECRET-LOGIN");
  (* nor is it on the device in the clear *)
  (match Fs.read fs "/mail/password" with
   | Ok stored ->
     let contains hay needle =
       let n = String.length needle and h = String.length hay in
       let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
       go 0
     in
     Alcotest.(check bool) "ciphertext only" false (contains stored "SUPER-SECRET")
   | Error _ -> Alcotest.fail "backing file missing")

let test_integrity_corrupt_read () =
  let _, fs, v = make () in
  ok (Vpfs.write v "/f" (String.make 3000 'd'));
  Fs.set_evil fs (Fs.Corrupt_reads (Drbg.create 5L));
  (match Vpfs.read v "/f" with
   | Error (Vpfs.Integrity _) -> ()
   | Error e -> Alcotest.fail (Format.asprintf "wrong error: %a" Vpfs.pp_error e)
   | Ok _ -> Alcotest.fail "corrupted data accepted!")

let test_integrity_stale_file () =
  (* per-file rollback: old chunks carry the old version in their AD *)
  let _, fs, v = make () in
  ok (Vpfs.write v "/f" "version-one-contents");
  ok (Vpfs.write v "/f" "version-two-contents");
  Fs.set_evil fs Fs.Serve_stale;
  (match Vpfs.read v "/f" with
   | Error (Vpfs.Integrity _) -> ()
   | Error e -> Alcotest.fail (Format.asprintf "wrong error: %a" Vpfs.pp_error e)
   | Ok data -> Alcotest.fail ("stale data accepted: " ^ data))

let test_cross_file_splice_detected () =
  (* move ciphertext of /b into /a: same key size, different AD path *)
  let _, fs, v = make () in
  ok (Vpfs.write v "/a" "contents-of-file-a");
  ok (Vpfs.write v "/b" "contents-of-file-b");
  (match Fs.read fs "/b" with
   | Ok b_cipher ->
     (match Fs.write fs "/a" b_cipher with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "splice write failed");
     (match Vpfs.read v "/a" with
      | Error (Vpfs.Integrity _) -> ()
      | Error e -> Alcotest.fail (Format.asprintf "wrong error: %a" Vpfs.pp_error e)
      | Ok data -> Alcotest.fail ("spliced data accepted: " ^ data))
   | Error _ -> Alcotest.fail "no backing file")

let test_metadata_rollback_detected () =
  (* whole-FS rollback across remount, caught by the trusted root *)
  let dev, fs, v = make () in
  ok (Vpfs.write v "/f" "old state");
  Fs.sync fs;
  (* attacker snapshots the entire device (all blocks) *)
  let snaps = List.init (Block.blocks dev) (fun i -> Block.snapshot dev i) in
  ok (Vpfs.write v "/f" "new state");
  let trusted_root = Vpfs.root v in
  Fs.sync fs;
  (* attacker restores the old device image *)
  List.iteri (fun i s -> Block.rollback dev i s) snaps;
  (match Fs.mount dev with
   | Error _ -> Alcotest.fail "remount failed"
   | Ok fs2 ->
     (match Vpfs.open_ ~master_key ~expected_root:trusted_root fs2 with
      | Error (Vpfs.Integrity _) -> ()
      | Error e -> Alcotest.fail (Format.asprintf "wrong error: %a" Vpfs.pp_error e)
      | Ok _ -> Alcotest.fail "rolled-back fs accepted!"))

let test_reopen_with_correct_root () =
  let dev, fs, v = make () in
  ok (Vpfs.write v "/f" "persistent");
  let root = Vpfs.root v in
  Fs.sync fs;
  (match Fs.mount dev with
   | Error _ -> Alcotest.fail "remount failed"
   | Ok fs2 ->
     (match Vpfs.open_ ~master_key ~expected_root:root fs2 with
      | Error e -> Alcotest.fail (Format.asprintf "%a" Vpfs.pp_error e)
      | Ok v2 ->
        Alcotest.(check string) "data intact" "persistent" (ok (Vpfs.read v2 "/f"))))

let test_wrong_master_key () =
  let dev, fs, v = make () in
  ok (Vpfs.write v "/f" "x");
  let root = Vpfs.root v in
  Fs.sync fs;
  match Fs.mount dev with
  | Error _ -> Alcotest.fail "remount failed"
  | Ok fs2 ->
    (match Vpfs.open_ ~master_key:"wrong-key-000000" ~expected_root:root fs2 with
     | Error (Vpfs.Integrity _) -> ()
     | Error e -> Alcotest.fail (Format.asprintf "wrong error: %a" Vpfs.pp_error e)
     | Ok _ -> Alcotest.fail "wrong key accepted")

let test_delete () =
  let _, fs, v = make () in
  ok (Vpfs.write v "/f" "data");
  ok (Vpfs.delete v "/f");
  Alcotest.(check bool) "gone from vpfs" false (Vpfs.exists v "/f");
  Alcotest.(check bool) "gone from backend" false (Fs.exists fs "/f");
  (match Vpfs.read v "/f" with
   | Error (Vpfs.Not_found _) -> ()
   | _ -> Alcotest.fail "deleted file readable")

let test_root_changes_on_write () =
  let _, _, v = make () in
  let r0 = Vpfs.root v in
  ok (Vpfs.write v "/f" "a");
  let r1 = Vpfs.root v in
  ok (Vpfs.write v "/f" "b");
  let r2 = Vpfs.root v in
  Alcotest.(check bool) "root evolves" true (r0 <> r1 && r1 <> r2)

let prop_vpfs_roundtrip =
  QCheck.Test.make ~name:"vpfs: write/read roundtrip incl. chunk boundaries" ~count:60
    (QCheck.make
       QCheck.Gen.(oneof [ int_range 0 64; int_range 1000 1100; int_range 2040 2060 ]))
    (fun n ->
      let _, _, v = make () in
      let data = String.init n (fun i -> Char.chr ((i * 7) mod 256)) in
      match Vpfs.write v "/p" data with
      | Ok () -> Vpfs.read v "/p" = Ok data
      | Error _ -> false)

(* --- pinned storage bytes ------------------------------------------------- *)

(* device, legacy FS, VPFS, root: see [pinned_script] *)
let pinned_digests =
  [ ( "before the cut",
      [ "1da6d8c9e8300858"; "3e89db53e7cb3d12"; "6a3ea143332a71f7";
        "0ee44de502ccfceaacfddcf3d64783ed1a386a8965dba070505a676741500869" ] );
    ( "after recovery",
      [ "2b7045abc4836a48"; "c3d5f783031e3557"; "6f32e04b8e926b4a";
        "93b553f7fd0f58cc0e0b932f46a53397128cb56a5dc6721edac1bec43b55fab5" ] ) ]

(* A fixed-seed script over the 1,024-block device: writes of every size
   class (empty, in one block, one chunk, several chunks), overwrites,
   deletes and reads checked against a model, a snapshot taken and
   restored in the middle, then a power cut inside a write's journal
   window and a recovering open. Both checkpoints pin the device image
   with its read and write counts, the legacy FS and VPFS states and the
   root, as the codec, the file tables and the allocator produced them
   before any of their caches existed. The constants are never edited: a
   caching layer must not move a byte. *)
let pinned_script () =
  let rng = Drbg.create 2024L in
  let dev = Block.create ~blocks:1024 in
  let fs = Fs.format dev in
  let v = Vpfs.create ~master_key fs in
  let model = Hashtbl.create 8 in
  let step v =
    let path = Printf.sprintf "/p%d" (Drbg.int rng 6) in
    match Drbg.int rng 5 with
    | 0 ->
      (match Vpfs.delete v path with
       | Ok () -> Hashtbl.remove model path
       | Error (Vpfs.Not_found _) when not (Hashtbl.mem model path) -> ()
       | Error e -> Alcotest.fail (Format.asprintf "delete: %a" Vpfs.pp_error e))
    | 1 ->
      Alcotest.(check (option string)) ("read " ^ path) (Hashtbl.find_opt model path)
        (Result.to_option (Vpfs.read v path))
    | _ ->
      let size =
        match Drbg.int rng 4 with
        | 0 -> 0
        | 1 -> Drbg.int rng 100
        | 2 -> 500 + Drbg.int rng 600
        | _ -> 2000 + Drbg.int rng 2500
      in
      let data = Drbg.bytes rng size in
      ok (Vpfs.write v path data);
      Hashtbl.replace model path data
  in
  let checkpoint what fs v =
    Alcotest.(check (list string)) what
      (List.assoc what pinned_digests)
      [ Digest64.to_hex (Block.state_digest dev); Digest64.to_hex (Fs.state_digest fs);
        Digest64.to_hex (Vpfs.state_digest v); Sha256.hex (Vpfs.root v) ]
  in
  for _ = 1 to 30 do step v done;
  let restore_fs = Fs.take_snapshot fs and restore_v = Vpfs.take_snapshot v in
  let saved = Hashtbl.copy model in
  for _ = 1 to 15 do step v done;
  restore_fs ();
  restore_v ();
  Hashtbl.reset model;
  Hashtbl.iter (Hashtbl.replace model) saved;
  for _ = 1 to 15 do step v done;
  checkpoint "before the cut" fs v;
  (* the journal record and the file land, the metadata write does not *)
  let trusted = Vpfs.root v in
  Fs.crash_after_writes fs 2;
  (match Vpfs.write v "/p0" "cut mid-commit" with
   | exception Fs.Crashed -> ()
   | _ -> Alcotest.fail "the power cut did not fire");
  match Fs.mount dev with
  | Error e -> Alcotest.fail (Format.asprintf "remount: %a" Fs.pp_error e)
  | Ok fs2 ->
    (match Vpfs.open_recover ~master_key ~expected_root:trusted fs2 with
     | Error e -> Alcotest.fail (Format.asprintf "recover: %a" Vpfs.pp_error e)
     | Ok (_, `Clean) -> Alcotest.fail "the journal was not replayed"
     | Ok (v2, `Recovered) ->
       Hashtbl.replace model "/p0" "cut mid-commit";
       for _ = 1 to 10 do step v2 done;
       checkpoint "after recovery" fs2 v2)

(* Legacy FS allocation against a model free-block count: a write needs
   [ceil(size / block_size)] blocks and may reuse the file's own, so it
   is [No_space] exactly when that exceeds the free blocks plus the
   file's. The count has to hold across snapshot restores and remounts.
   A small device (63 data blocks) keeps the writes near the edge. *)
type fs_op = Write of int * int | Delete of int | Snapshot | Restore | Remount

let show_fs_op = function
  | Write (p, n) -> Printf.sprintf "write /f%d %d" p n
  | Delete p -> Printf.sprintf "delete /f%d" p
  | Snapshot -> "snapshot"
  | Restore -> "restore"
  | Remount -> "remount"

let gen_fs_ops =
  QCheck.Gen.(
    list_size (int_range 1 30)
      (frequency
         [ (8, map2 (fun p n -> Write (p, n)) (int_range 0 4)
                 (oneof [ int_range 0 2048; int_range 0 (48 * Block.block_size) ]));
           (2, map (fun p -> Delete p) (int_range 0 4));
           (1, return Snapshot); (1, return Restore); (1, return Remount) ]))

let prop_no_space_model =
  QCheck.Test.make ~name:"legacy fs: No_space exactly where the free count says"
    ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_fs_op ops))
       gen_fs_ops)
    (fun ops ->
      let dev = Block.create ~blocks:160 in
      let fs = ref (Fs.format dev) in
      (* data blocks follow the superblock and the 96 metadata blocks *)
      let data_blocks = Block.blocks dev - 97 in
      (* path -> blocks held *)
      let model = Hashtbl.create 8 in
      let saved = ref None in
      let free () = data_blocks - Hashtbl.fold (fun _ b acc -> acc + b) model 0 in
      List.for_all
        (fun op ->
          match op with
          | Write (p, n) ->
            let path = Printf.sprintf "/f%d" p in
            let needed = (n + Block.block_size - 1) / Block.block_size in
            let own = Option.value ~default:0 (Hashtbl.find_opt model path) in
            let fits = needed <= free () + own in
            (match Fs.write !fs path (String.make n 'w') with
             | Ok () ->
               Hashtbl.replace model path needed;
               fits
             | Error Fs.No_space -> not fits
             | Error _ -> false)
          | Delete p ->
            let path = Printf.sprintf "/f%d" p in
            (match Fs.delete !fs path with
             | Ok () ->
               Hashtbl.remove model path;
               true
             | Error (Fs.Not_found _) -> true
             | Error _ -> false)
          | Snapshot ->
            saved := Some (Fs.take_snapshot !fs, Hashtbl.copy model);
            true
          | Restore ->
            (match !saved with
             | Some (restore, m) ->
               restore ();
               Hashtbl.reset model;
               Hashtbl.iter (Hashtbl.replace model) m
             | None -> ());
            true
          | Remount ->
            (* a snapshot belongs to the handle it was taken from *)
            saved := None;
            (match Fs.mount dev with
             | Ok fs2 ->
               fs := fs2;
               true
             | Error _ -> false))
        ops)

(* a write the backend refuses changes nothing: the old entry stays in
   the table, so the file still reads and the root does not move *)
let test_refused_write_changes_nothing () =
  let dev = Block.create ~blocks:160 in
  let v = Vpfs.create ~master_key (Fs.format dev) in
  ok (Vpfs.write v "/a" "hello");
  let root = Vpfs.root v in
  (match Vpfs.write v "/a" (String.make 20_000 'x') with
   | Error (Vpfs.Backend _) -> ()
   | Ok () -> Alcotest.fail "a 20,000-byte write cannot fit on 160 blocks"
   | Error e -> Alcotest.fail (Format.asprintf "%a" Vpfs.pp_error e));
  Alcotest.(check string) "old bytes still read" "hello" (ok (Vpfs.read v "/a"));
  Alcotest.(check string) "root unchanged" (Sha256.hex root) (Sha256.hex (Vpfs.root v));
  (match Vpfs.write v "/fresh" (String.make 20_000 'x') with
   | Error (Vpfs.Backend _) -> ()
   | _ -> Alcotest.fail "expected a refused write");
  Alcotest.(check bool) "refused new path absent" false (Vpfs.exists v "/fresh");
  Alcotest.(check (list string)) "list unchanged" [ "/a" ] (Vpfs.list v)

let suite =
  [ Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "empty and multi-chunk files" `Quick test_empty_and_large_files;
    Alcotest.test_case "legacy fs never sees plaintext" `Quick test_confidentiality;
    Alcotest.test_case "corrupt reads detected" `Quick test_integrity_corrupt_read;
    Alcotest.test_case "per-file rollback detected" `Quick test_integrity_stale_file;
    Alcotest.test_case "cross-file splice detected" `Quick test_cross_file_splice_detected;
    Alcotest.test_case "whole-fs rollback detected via trusted root" `Quick
      test_metadata_rollback_detected;
    Alcotest.test_case "reopen with correct root" `Quick test_reopen_with_correct_root;
    Alcotest.test_case "wrong master key rejected" `Quick test_wrong_master_key;
    Alcotest.test_case "delete" `Quick test_delete;
    Alcotest.test_case "root digest evolves" `Quick test_root_changes_on_write;
    QCheck_alcotest.to_alcotest prop_vpfs_roundtrip;
    Alcotest.test_case "pinned storage bytes across restore and recovery" `Quick
      pinned_script;
    QCheck_alcotest.to_alcotest prop_no_space_model;
    Alcotest.test_case "refused write changes nothing" `Quick
      test_refused_write_changes_nothing ]
