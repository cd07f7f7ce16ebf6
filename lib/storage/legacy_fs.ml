open Lt_crypto

type error =
  | Not_found of string
  | Already_exists of string
  | No_space
  | Io_error of string
  | Corrupt of string

type evil_mode = Honest | Corrupt_reads of Drbg.t | Serve_stale

exception Crashed

(* [entry] caches the file's encoded directory entry; every change to
   [size] or [fblocks] drops it. Like [free_count] it is a function of
   the other fields, so no snapshot or digest reads it. *)
type file = {
  mutable size : int;
  mutable fblocks : int list;
  mutable entry : string option;
}

type t = {
  dev : Block.t;
  files : (string, file) Hashtbl.t;
  mutable free : int list;
  mutable free_count : int; (* List.length free *)
  mutable evil : evil_mode;
  mutable seen : string list;
  stale : (string, string) Hashtbl.t; (* previous contents per path *)
  mutable crash_in : int option; (* writes remaining before power loss *)
}

let magic = "LTFS1"

let meta_blocks = 96

let data_start = 1 + meta_blocks

let all_data_blocks dev =
  List.init (Block.blocks dev - data_start) (fun i -> data_start + i)

(* --- metadata (de)serialization ------------------------------------------ *)

let new_file size fblocks = { size; fblocks; entry = None }

let entry_of path f =
  match f.entry with
  | Some e -> e
  | None ->
    let e =
      Wire.encode
        [ path;
          string_of_int f.size;
          String.concat "," (List.map string_of_int f.fblocks) ]
    in
    f.entry <- Some e;
    e

let serialize t =
  Wire.encode (Hashtbl.fold (fun path f acc -> entry_of path f :: acc) t.files [])

(* Decoding is total: a flipped bit anywhere in the metadata region must
   come back as [Error (Corrupt _)], never as an exception — and every
   block index a decoded file claims must actually exist on the device,
   or a later [read] would walk off the end of it. *)

let parse_blocks t s =
  if s = "" then Ok []
  else
    let fields = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | f :: rest ->
        (match int_of_string_opt f with
         | Some b when b >= data_start && b < Block.blocks t.dev ->
           go (b :: acc) rest
         | Some b -> Error (Corrupt (Printf.sprintf "block index %d out of range" b))
         | None -> Error (Corrupt "unreadable block index"))
    in
    go [] fields

let deserialize t data =
  match Wire.decode data with
  | None -> Error (Corrupt "metadata directory undecodable")
  | Some entries ->
    let rec go = function
      | [] -> Ok ()
      | e :: rest ->
        (match Wire.decode e with
         | Some [ path; size; blocks ] ->
           (match (int_of_string_opt size, parse_blocks t blocks) with
            | None, _ -> Error (Corrupt "unreadable file size")
            | _, (Error _ as e) -> e
            | Some size, Ok fblocks ->
              if size < 0 || size > List.length fblocks * Block.block_size then
                Error
                  (Corrupt
                     (Printf.sprintf "file %S size %d exceeds its %d block(s)" path
                        size (List.length fblocks)))
              else begin
                Hashtbl.replace t.files path (new_file size fblocks);
                go rest
              end)
         | _ -> Error (Corrupt "bad directory entry"))
    in
    go entries

let sync t =
  let meta = serialize t in
  if String.length meta > meta_blocks * Block.block_size then
    invalid_arg "Legacy_fs.sync: metadata region overflow";
  Block.write t.dev 0 (Wire.encode [ magic; string_of_int (String.length meta) ]);
  let rec store off i =
    if off < String.length meta then begin
      let n = min Block.block_size (String.length meta - off) in
      Block.write t.dev (1 + i) (String.sub meta off n);
      store (off + n) (i + 1)
    end
  in
  store 0 0

let format dev =
  if Block.blocks dev <= data_start then invalid_arg "Legacy_fs.format: device too small";
  let t =
    { dev;
      files = Hashtbl.create 16;
      free = all_data_blocks dev;
      free_count = Block.blocks dev - data_start;
      evil = Honest;
      seen = [];
      stale = Hashtbl.create 16;
      crash_in = None }
  in
  sync t;
  t

let mount dev =
  if Block.blocks dev <= data_start then Error (Corrupt "device too small")
  else
  let sb = Block.read dev 0 in
  (* the superblock block is zero-padded, so parse its two fields
     (magic, metadata length) manually instead of Wire.decode *)
    let field off =
      match Wire.length_at sb off with
      | Some n when n >= 0 && off + 8 + n <= String.length sb ->
        Some (String.sub sb (off + 8) n, off + 8 + n)
      | _ -> None
    in
    (match field 0 with
     | Some (m, o1) when m = magic ->
       (match field o1 with
        | Some (len_str, _) ->
          (match int_of_string_opt len_str with
           | Some meta_len when meta_len >= 0 && meta_len <= meta_blocks * Block.block_size
             ->
             let buf = Buffer.create meta_len in
             let rec load i =
               if Buffer.length buf < meta_len then begin
                 let blk = Block.read dev (1 + i) in
                 let n = min Block.block_size (meta_len - Buffer.length buf) in
                 Buffer.add_string buf (String.sub blk 0 n);
                 load (i + 1)
               end
             in
             load 0;
             let t =
               { dev;
                 files = Hashtbl.create 16;
                 free = [];
                 free_count = 0;
                 evil = Honest;
                 seen = [];
                 stale = Hashtbl.create 16;
                 crash_in = None }
             in
             (match deserialize t (Buffer.contents buf) with
              | Error e -> Error e
              | Ok () ->
                let used = Hashtbl.create 64 in
                Hashtbl.iter
                  (fun _ f -> List.iter (fun b -> Hashtbl.replace used b ()) f.fblocks)
                  t.files;
                t.free <-
                  List.filter (fun b -> not (Hashtbl.mem used b)) (all_data_blocks dev);
                t.free_count <- List.length t.free;
                Ok t)
           | _ -> Error (Corrupt "bad superblock length"))
        | None -> Error (Corrupt "bad superblock"))
     | _ -> Error (Corrupt "bad magic"))

let check_alive t =
  match t.crash_in with
  | Some 0 -> raise Crashed
  | _ -> ()

let consume_write_budget t =
  match t.crash_in with
  | Some 0 -> raise Crashed
  | Some n -> t.crash_in <- Some (n - 1)
  | None -> ()

let create t path =
  check_alive t;
  if Hashtbl.mem t.files path then Error (Already_exists path)
  else begin
    Hashtbl.replace t.files path (new_file 0 []);
    sync t;
    Ok ()
  end

let read_raw t path =
  match Hashtbl.find_opt t.files path with
  | None -> Error (Not_found path)
  | Some f ->
    let buf = Buffer.create f.size in
    List.iter (fun b -> Buffer.add_string buf (Block.read t.dev b)) f.fblocks;
    Ok (String.sub (Buffer.contents buf) 0 f.size)

let write t path data =
  consume_write_budget t;
  let existing = Hashtbl.find_opt t.files path in
  (* remember the old version for the stale-serving attack *)
  (match existing with
   | Some f when f.fblocks <> [] -> Result.iter (Hashtbl.replace t.stale path) (read_raw t path)
   | _ -> ());
  t.seen <- data :: t.seen;
  let needed = (String.length data + Block.block_size - 1) / Block.block_size in
  let held = match existing with Some f -> List.length f.fblocks | None -> 0 in
  let total_available = t.free_count + held in
  (* the space check comes before a fresh record goes in, so a refused
     write leaves no file behind *)
  if needed > total_available then Error No_space
  else begin
    let f =
      match existing with
      | Some f -> f
      | None ->
        let f = new_file 0 [] in
        Hashtbl.replace t.files path f;
        f
    in
    t.free <- f.fblocks @ t.free;
    let rec take n acc free =
      if n = 0 then (List.rev acc, free)
      else
        match free with
        | [] -> assert false
        | b :: rest -> take (n - 1) (b :: acc) rest
    in
    let blocks, free = take needed [] t.free in
    t.free <- free;
    t.free_count <- total_available - needed;
    List.iteri
      (fun i b ->
        let off = i * Block.block_size in
        let n = min Block.block_size (String.length data - off) in
        Block.write t.dev b (String.sub data off n))
      blocks;
    f.size <- String.length data;
    f.fblocks <- blocks;
    f.entry <- None;
    sync t;
    Ok ()
  end

let read t path =
  check_alive t;
  match read_raw t path with
  | Error e -> Error e
  | Ok data ->
    (match t.evil with
     | Honest -> Ok data
     | Corrupt_reads rng ->
       if data = "" then Ok data
       else begin
         let b = Bytes.of_string data in
         (* flip a handful of bytes *)
         for _ = 1 to max 1 (Bytes.length b / 64) do
           let i = Drbg.int rng (Bytes.length b) in
           Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF))
         done;
         Ok (Bytes.unsafe_to_string b)
       end
     | Serve_stale ->
       (match Hashtbl.find_opt t.stale path with
        | Some old -> Ok old
        | None -> Ok data))

let delete t path =
  check_alive t;
  match Hashtbl.find_opt t.files path with
  | None -> Error (Not_found path)
  | Some f ->
    t.free <- f.fblocks @ t.free;
    t.free_count <- t.free_count + List.length f.fblocks;
    Hashtbl.remove t.files path;
    Hashtbl.remove t.stale path;
    sync t;
    Ok ()

let exists t path = Hashtbl.mem t.files path

let size t path =
  match Hashtbl.find_opt t.files path with
  | None -> Error (Not_found path)
  | Some f -> Ok f.size

let list t =
  Hashtbl.fold (fun path _ acc -> path :: acc) t.files [] |> List.sort Stdlib.compare

let set_evil t mode = t.evil <- mode

let observed t = List.rev t.seen

let crash_after_writes t n =
  if n < 0 then invalid_arg "Legacy_fs.crash_after_writes";
  t.crash_in <- Some n

let observed_contains t ~needle =
  let contains hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    n > 0 && go 0
  in
  List.exists contains t.seen

let pp_error fmt = function
  | Not_found p -> Format.fprintf fmt "not found: %s" p
  | Already_exists p -> Format.fprintf fmt "already exists: %s" p
  | No_space -> Format.pp_print_string fmt "no space"
  | Io_error e -> Format.fprintf fmt "io error: %s" e
  | Corrupt e -> Format.fprintf fmt "corrupt image: %s" e

(* --- Snapshottable ---------------------------------------------------- *)

(* [file] records are mutable and private to this module: capture their
   field values and rebuild fresh records on restore, entry caches empty.
   The block device underneath has its own capture. *)
let take_snapshot t =
  let files =
    Hashtbl.fold (fun p f acc -> (p, f.size, f.fblocks) :: acc) t.files []
  in
  let free = t.free in
  (* an evil generator's stream position is part of the state *)
  let evil =
    match t.evil with
    | Corrupt_reads rng -> `Corrupt_reads (rng, Drbg.save rng)
    | Honest -> `Honest
    | Serve_stale -> `Serve_stale
  in
  let seen = t.seen in
  let stale = Lt_world.Snapshottable.save_hashtbl t.stale in
  let crash_in = t.crash_in in
  let dev = Block.take_snapshot t.dev in
  fun () ->
    Hashtbl.reset t.files;
    List.iter
      (fun (p, size, fblocks) -> Hashtbl.replace t.files p (new_file size fblocks))
      files;
    t.free <- free;
    t.free_count <- List.length free;
    (match evil with
     | `Honest -> t.evil <- Honest
     | `Serve_stale -> t.evil <- Serve_stale
     | `Corrupt_reads (rng, state) ->
       Drbg.restore rng state;
       t.evil <- Corrupt_reads rng);
    t.seen <- seen;
    stale ();
    t.crash_in <- crash_in;
    dev ()

let state_digest t =
  let open Lt_world in
  Digest64.basis
  |> Fun.flip Digest64.combine (Block.state_digest t.dev)
  |> Snapshottable.digest_hashtbl ~key:Fun.id
       ~value:(fun f ->
         Printf.sprintf "%d|%s" f.size
           (String.concat "," (List.map string_of_int f.fblocks)))
       t.files
  |> Fun.flip (Digest64.list Digest64.int) t.free
  |> Fun.flip Digest64.int
       (match t.evil with
        | Honest -> 0
        | Corrupt_reads _ -> 1
        | Serve_stale -> 2)
  |> Fun.flip (Digest64.list Digest64.string) t.seen
  |> Snapshottable.digest_hashtbl ~key:Fun.id ~value:Fun.id t.stale
  |> Fun.flip (Digest64.option Digest64.int) t.crash_in
