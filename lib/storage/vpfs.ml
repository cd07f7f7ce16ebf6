open Lt_crypto

let chunk_size = 1024

let meta_path = ".vpfs-meta"

let journal_path = ".vpfs-journal"

type entry = {
  file_key : string;
  version : int;
  plain_size : int;
  chunks : int;
}

type error =
  | Not_found of string
  | Integrity of string
  | Backend of Legacy_fs.error

type t = {
  master_key : string;
  meta_aead : Speck.Aead.ctx;     (* caches of keys derived from [master_key] *)
  journal_aead : Speck.Aead.ctx;
  file_keys : (string, string * Speck.Aead.ctx) Hashtbl.t;
      (* path -> its derived file key and that key's context, filled on
         first use and dropped on delete: a function of [master_key], so
         no snapshot or digest reads it *)
  fs : Legacy_fs.t;
  table : (string, entry) Hashtbl.t;
  rng : Drbg.t;
  mutable root_digest : string;
}

(* --- metadata ------------------------------------------------------------- *)

let serialize_table t =
  let entries =
    Hashtbl.fold
      (fun path e acc ->
        Wire.encode
          [ path;
            e.file_key;
            string_of_int e.version;
            string_of_int e.plain_size;
            string_of_int e.chunks ]
        :: acc)
      t.table []
  in
  Wire.encode (List.sort Stdlib.compare entries)

let meta_aead master_key =
  Speck.Aead.of_key (Hkdf.derive ~secret:master_key ~salt:"vpfs" ~info:"meta" 16)

let journal_aead master_key =
  Speck.Aead.of_key (Hkdf.derive ~secret:master_key ~salt:"vpfs" ~info:"journal" 16)

(* encrypt the current table once; the same bytes go to the journal
   record and to the metadata file so the redo is exact *)
let encrypt_meta t =
  let plain = serialize_table t in
  let nonce = Drbg.bytes t.rng Speck.nonce_size in
  Speck.Aead.seal_wire t.meta_aead ~nonce ~ad:"vpfs-meta" plain

let must_write fs path data =
  match Legacy_fs.write fs path data with
  | Ok () -> ()
  | Error e ->
    invalid_arg (Format.asprintf "vpfs: backend write: %a" Legacy_fs.pp_error e)

let flush_meta t =
  let wire = encrypt_meta t in
  must_write t.fs meta_path wire;
  t.root_digest <- Sha256.digest wire

(* --- write-ahead redo journal (jVPFS-style robustness) ------------------- *)

type journal_record = {
  j_op : string;          (* "write" or "delete" *)
  j_pre_root : string;    (* trusted state this update departs from *)
  j_post_root : string;   (* digest of j_meta_wire *)
  j_path : string;
  j_file_wire : string;   (* sealed file contents ("" for delete) *)
  j_meta_wire : string;   (* committed metadata bytes *)
}

let seal_journal t r =
  let plain =
    Wire.encode
      [ r.j_op; r.j_pre_root; r.j_post_root; r.j_path; r.j_file_wire; r.j_meta_wire ]
  in
  let nonce = Drbg.bytes t.rng Speck.nonce_size in
  Speck.Aead.seal_wire t.journal_aead ~nonce ~ad:"vpfs-journal" plain

let open_journal journal_aead wire =
  match Speck.Aead.open_wire journal_aead ~ad:"vpfs-journal" wire with
  | None -> None
  | Some plain ->
    (match Wire.decode plain with
     | Some [ j_op; j_pre_root; j_post_root; j_path; j_file_wire; j_meta_wire ] ->
       Some { j_op; j_pre_root; j_post_root; j_path; j_file_wire; j_meta_wire }
     | _ -> None)

(* journal first, then data, then metadata, then clear: a crash anywhere
   leaves either the old state (journal explains nothing yet) or enough
   to redo forward into the new state *)
let commit t record =
  must_write t.fs journal_path (seal_journal t record);
  (match record.j_op with
   | "write" -> must_write t.fs record.j_path record.j_file_wire
   | _ ->
     (match Legacy_fs.delete t.fs record.j_path with
      | Ok () | Error (Legacy_fs.Not_found _) -> ()
      | Error e ->
        invalid_arg (Format.asprintf "vpfs: backend delete: %a" Legacy_fs.pp_error e)));
  must_write t.fs meta_path record.j_meta_wire;
  t.root_digest <- record.j_post_root;
  must_write t.fs journal_path ""

let load_meta meta_aead ~expected_root fs =
  match Legacy_fs.read fs meta_path with
  | Error e -> Error (Backend e)
  | Ok wire ->
    if Sha256.digest wire <> expected_root then
      Error (Integrity "metadata does not match trusted root (rollback or tamper)")
    else
      (match Speck.Aead.of_wire wire with
       | None -> Error (Integrity "metadata framing corrupt")
       | Some box ->
         (match Speck.Aead.open_ meta_aead ~ad:"vpfs-meta" box with
          | None -> Error (Integrity "metadata authentication failed")
          | Some plain ->
            (match Wire.decode plain with
             | None -> Error (Integrity "metadata decode failed")
             | Some entries ->
               (* total: an authenticated-but-impossible entry (the meta
                  key leaked, or a bug sealed garbage) is a typed
                  integrity error, never an exception *)
               let table = Hashtbl.create 16 in
               let decode_entry e =
                 match Wire.decode e with
                 | Some [ path; file_key; version; plain_size; chunks ] ->
                   (match
                      ( int_of_string_opt version,
                        int_of_string_opt plain_size,
                        int_of_string_opt chunks )
                    with
                    | Some version, Some plain_size, Some chunks
                      when version >= 0 && plain_size >= 0 && chunks >= 0 ->
                      Ok (path, { file_key; version; plain_size; chunks })
                    | _ -> Error (Integrity "metadata entry has unreadable fields"))
                 | _ -> Error (Integrity "metadata entry decode failed")
               in
               let rec go = function
                 | [] -> Ok table
                 | e :: rest ->
                   (match decode_entry e with
                    | Ok (path, entry) ->
                      Hashtbl.replace table path entry;
                      go rest
                    | Error _ as err -> err)
               in
               go entries)))

let create ~master_key fs =
  let t =
    { master_key;
      meta_aead = meta_aead master_key;
      journal_aead = journal_aead master_key;
      file_keys = Hashtbl.create 16;
      fs;
      table = Hashtbl.create 16;
      rng = Drbg.create (Int64.of_int (Hashtbl.hash master_key));
      root_digest = "" }
  in
  flush_meta t;
  t

let open_ ~master_key ~expected_root fs =
  let meta_aead = meta_aead master_key in
  match load_meta meta_aead ~expected_root fs with
  | Error e -> Error e
  | Ok table ->
    Ok
      { master_key;
        meta_aead;
        journal_aead = journal_aead master_key;
        file_keys = Hashtbl.create 16;
        fs;
        table;
        rng = Drbg.create (Int64.of_int (Hashtbl.hash (master_key ^ "reopen")));
        root_digest = expected_root }

let open_recover ~master_key ~expected_root fs =
  let pending_journal =
    match Legacy_fs.read fs journal_path with
    | Ok wire when wire <> "" -> open_journal (journal_aead master_key) wire
    | Ok _ | Error _ -> None
  in
  let redo record =
    (* replay the committed update; idempotent *)
    (match record.j_op with
     | "write" ->
       (match Legacy_fs.write fs record.j_path record.j_file_wire with
        | Ok () -> ()
        | Error e ->
          invalid_arg (Format.asprintf "vpfs recovery: %a" Legacy_fs.pp_error e))
     | _ ->
       (match Legacy_fs.delete fs record.j_path with
        | Ok () | Error (Legacy_fs.Not_found _) -> ()
        | Error e ->
          invalid_arg (Format.asprintf "vpfs recovery: %a" Legacy_fs.pp_error e)));
    (match Legacy_fs.write fs meta_path record.j_meta_wire with
     | Ok () -> ()
     | Error e ->
       invalid_arg (Format.asprintf "vpfs recovery: %a" Legacy_fs.pp_error e));
    (match Legacy_fs.write fs journal_path "" with
     | Ok () -> ()
     | Error e ->
       invalid_arg (Format.asprintf "vpfs recovery: %a" Legacy_fs.pp_error e))
  in
  match pending_journal with
  | Some record when record.j_pre_root = expected_root ->
    (* an update departing from the trusted state was in flight: roll it
       forward and open at the committed post-state *)
    (try
       redo record;
       (match open_ ~master_key ~expected_root:record.j_post_root fs with
        | Ok t -> Ok (t, `Recovered)
        | Error e -> Error e)
     with Invalid_argument m -> Error (Backend (Legacy_fs.Io_error m)))
  | Some _ | None ->
    (* no journal that explains a transition from our trusted state:
       the metadata must match the root exactly *)
    (match open_ ~master_key ~expected_root fs with
     | Ok t -> Ok (t, `Clean)
     | Error e -> Error e)

let root t = t.root_digest

(* --- chunk crypto ---------------------------------------------------------- *)

let chunk_ad ~path ~index ~version =
  String.concat "|" [ "vpfs"; path; string_of_int index; string_of_int version ]

let file_key t path =
  match Hashtbl.find_opt t.file_keys path with
  | Some cached -> cached
  | None ->
    let key = Hkdf.derive ~secret:t.master_key ~salt:"vpfs-file" ~info:path 16 in
    let cached = (key, Speck.Aead.of_key key) in
    Hashtbl.replace t.file_keys path cached;
    cached

let split_chunks data =
  let n = String.length data in
  if n = 0 then [ "" ]
  else begin
    let rec go off acc =
      if off >= n then List.rev acc
      else begin
        let len = min chunk_size (n - off) in
        go (off + len) (String.sub data off len :: acc)
      end
    in
    go 0 []
  end

let write t path data =
  let old_entry = Hashtbl.find_opt t.table path in
  let version =
    match old_entry with
    | Some e -> e.version + 1
    | None -> 1
  in
  let file_key, file_aead = file_key t path in
  let chunks = split_chunks data in
  let sealed =
    List.mapi
      (fun index chunk ->
        let nonce = Drbg.bytes t.rng Speck.nonce_size in
        Speck.Aead.seal_wire file_aead ~nonce ~ad:(chunk_ad ~path ~index ~version) chunk)
      chunks
  in
  let pre_root = t.root_digest in
  Hashtbl.replace t.table path
    { file_key;
      version;
      plain_size = String.length data;
      chunks = List.length chunks };
  let meta_wire = encrypt_meta t in
  let record =
    { j_op = "write";
      j_pre_root = pre_root;
      j_post_root = Sha256.digest meta_wire;
      j_path = path;
      j_file_wire = Wire.encode sealed;
      j_meta_wire = meta_wire }
  in
  (try
     commit t record;
     Ok ()
   with Invalid_argument m ->
     (* a refused write changes nothing: the table goes back to the
        entry the trusted root still describes *)
     (match old_entry with
      | Some e -> Hashtbl.replace t.table path e
      | None -> Hashtbl.remove t.table path);
     Error (Backend (Legacy_fs.Io_error m)))

let read t path =
  match Hashtbl.find_opt t.table path with
  | None -> Error (Not_found path)
  | Some e ->
    let file_aead =
      match file_key t path with
      | key, ctx when String.equal key e.file_key -> ctx
      | _ -> Speck.Aead.of_key e.file_key
    in
    (match Legacy_fs.read t.fs path with
     | Error err -> Error (Backend err)
     | Ok wire ->
       (match Wire.decode wire with
        | None -> Error (Integrity "file framing corrupt")
        | Some sealed ->
          if List.length sealed <> e.chunks then
            Error (Integrity "chunk count mismatch (truncation or rollback)")
          else begin
            let buf = Buffer.create e.plain_size in
            let rec go index = function
              | [] ->
                let data = Buffer.contents buf in
                if String.length data <> e.plain_size then
                  Error (Integrity "size mismatch")
                else Ok data
              | chunk_wire :: rest ->
                (match Speck.Aead.of_wire chunk_wire with
                 | None -> Error (Integrity "chunk framing corrupt")
                 | Some box ->
                   (match
                      Speck.Aead.open_ file_aead
                        ~ad:(chunk_ad ~path ~index ~version:e.version) box
                    with
                    | None ->
                      Error
                        (Integrity
                           (Printf.sprintf
                              "chunk %d authentication failed (tamper/rollback/splice)"
                              index))
                    | Some plain ->
                      Buffer.add_string buf plain;
                      go (index + 1) rest))
            in
            go 0 sealed
          end))

let delete t path =
  match Hashtbl.find_opt t.table path with
  | None -> Error (Not_found path)
  | Some _ ->
    let pre_root = t.root_digest in
    Hashtbl.remove t.table path;
    Hashtbl.remove t.file_keys path;
    let meta_wire = encrypt_meta t in
    let record =
      { j_op = "delete";
        j_pre_root = pre_root;
        j_post_root = Sha256.digest meta_wire;
        j_path = path;
        j_file_wire = "";
        j_meta_wire = meta_wire }
    in
    (try
       commit t record;
       Ok ()
     with Invalid_argument m -> Error (Backend (Legacy_fs.Io_error m)))

let exists t path = Hashtbl.mem t.table path

let list t =
  Hashtbl.fold (fun path _ acc -> path :: acc) t.table [] |> List.sort Stdlib.compare

let pp_error fmt = function
  | Not_found p -> Format.fprintf fmt "not found: %s" p
  | Integrity m -> Format.fprintf fmt "integrity violation: %s" m
  | Backend e -> Format.fprintf fmt "backend: %a" Legacy_fs.pp_error e

(* --- Snapshottable ---------------------------------------------------- *)

(* entries are immutable; the backing Legacy_fs has its own capture *)
let take_snapshot t =
  let table = Lt_world.Snapshottable.save_hashtbl t.table in
  let rng = Drbg.save t.rng in
  let root = t.root_digest in
  fun () ->
    table ();
    Drbg.restore t.rng rng;
    t.root_digest <- root

let state_digest t =
  let open Lt_world in
  Digest64.basis
  |> Snapshottable.digest_hashtbl ~key:Fun.id
       ~value:(fun e ->
         Printf.sprintf "%s|%d|%d|%d" e.file_key e.version e.plain_size e.chunks)
       t.table
  |> Fun.flip Digest64.int64 (Drbg.save t.rng)
  |> Fun.flip Digest64.string t.root_digest
