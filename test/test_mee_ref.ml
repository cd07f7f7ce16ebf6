(* The lazy memory encryption engine agrees with the eager one in
   mee_ref.ml on random operation sequences: every return value, every
   raised Bad_address / Rom_write / Integrity_violation / Invalid_argument
   and every state digest, whichever blocks are still pending when the
   CPU, the physical attacker, the factory, a snapshot or a digest
   reaches them. *)

module Phys_mem = Lt_hw.Phys_mem

module type ENGINE = sig
  type t

  val create : Phys_mem.region list -> t
  val install_mee : t -> base:int -> size:int -> key:string -> unit
  val retire_mee : t -> base:int -> unit
  val cpu_read : t -> addr:int -> len:int -> string
  val cpu_write : t -> addr:int -> string -> unit
  val phys_read : t -> addr:int -> len:int -> string
  val phys_write : t -> addr:int -> string -> unit
  val manufacture_write : t -> addr:int -> string -> unit
  val take_snapshot : t -> unit -> unit
  val state_digest : t -> Lt_world.Digest64.t
  val patch : t -> addr:int -> string -> unit
  val flip_bit : t -> addr:int -> bit:int -> unit
  val scan : t -> needle:string -> int list
end

module Lazy_engine : ENGINE = struct
  include Phys_mem

  let patch t = Lt_hw.Tamper.patch (Lt_hw.Tamper.create t)
  let flip_bit t = Lt_hw.Tamper.flip_bit (Lt_hw.Tamper.create t)
  let scan t = Lt_hw.Tamper.scan (Lt_hw.Tamper.create t)
end

module Eager_engine : ENGINE = struct
  include Mee_ref
  include Mee_ref.Tamper
end

(* 64-byte blocks: ROM 0-1, SRAM 2-3 (both on-chip), DRAM 4-27, a hole
   at 28-31, a second DRAM region 32-39 *)
let regions =
  [ { Phys_mem.name = "rom"; base = 0; size = 128; on_chip = true; writable = false };
    { Phys_mem.name = "sram"; base = 128; size = 128; on_chip = true; writable = true };
    { Phys_mem.name = "dram"; base = 256; size = 1536; on_chip = false; writable = true };
    { Phys_mem.name = "dram2"; base = 2048; size = 512; on_chip = false; writable = true } ]

type op =
  | Install of int * int * string  (* first block, blocks, key *)
  | Retire of int                  (* first block *)
  | Cpu_read of int * int
  | Cpu_write of int * string
  | Phys_read of int * int
  | Phys_write of int * string
  | Manufacture of int * string
  | Patch of int * string
  | Flip of int * int
  | Scan of string
  | Snapshot
  | Restore of int                 (* index into the snapshots taken so far *)
  | Digest

let show_op = function
  | Install (b, n, k) -> Printf.sprintf "install %d+%d %s" b n k
  | Retire b -> Printf.sprintf "retire %d" b
  | Cpu_read (a, n) -> Printf.sprintf "cpu_read %d %d" a n
  | Cpu_write (a, s) -> Printf.sprintf "cpu_write %d %S" a s
  | Phys_read (a, n) -> Printf.sprintf "phys_read %d %d" a n
  | Phys_write (a, s) -> Printf.sprintf "phys_write %d %S" a s
  | Manufacture (a, s) -> Printf.sprintf "manufacture_write %d %S" a s
  | Patch (a, s) -> Printf.sprintf "patch %d %S" a s
  | Flip (a, bit) -> Printf.sprintf "flip_bit %d %d" a bit
  | Scan n -> Printf.sprintf "scan %S" n
  | Snapshot -> "snapshot"
  | Restore i -> Printf.sprintf "restore %d" i
  | Digest -> "digest"

let gen_op =
  let open QCheck.Gen in
  (* engines mostly start on a few shared blocks, so retires, overlaps
     and cross-engine ranges happen; now and then anywhere, so the
     placement checks run too *)
  let block = frequency [ (4, oneofl [ 4; 6; 8; 12; 20; 26; 32; 36 ]); (1, int_range 0 41) ] in
  let addr =
    frequency
      [ (4, int_range 240 1800);
        (2, int_range 2040 2570);
        (1, int_range (-2) 2600);
        (2, map2 (fun b d -> (b * 64) + d) (int_range 0 40) (oneofl [ -1; 0; 1; 63 ])) ]
  in
  let data = string_size ~gen:(oneofl [ 'a'; 'b'; '\000' ]) (int_range 0 150) in
  let len = int_range 0 150 in
  frequency
    [ (3, map3 (fun b n k -> Install (b, n, k)) block (int_range 1 6) (oneofl [ "k1"; "k2" ]));
      (1, map (fun b -> Retire b) block);
      (4, map2 (fun a n -> Cpu_read (a, n)) addr len);
      (4, map2 (fun a s -> Cpu_write (a, s)) addr data);
      (2, map2 (fun a n -> Phys_read (a, n)) addr len);
      (2, map2 (fun a s -> Phys_write (a, s)) addr data);
      (2, map2 (fun a s -> Manufacture (a, s)) addr data);
      (1, map2 (fun a s -> Patch (a, s)) addr data);
      (2, map2 (fun a bit -> Flip (a, bit)) addr (int_range 0 7));
      (1, map (fun n -> Scan n) (string_size ~gen:(oneofl [ 'a'; 'b'; '\000' ]) (int_range 1 3)));
      (1, return Snapshot);
      (1, map (fun i -> Restore i) (int_range 0 5));
      (1, return Digest) ]

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "\n" (List.map show_op ops))
    QCheck.Gen.(list_size (int_range 1 40) gen_op)

(* what one engine answers to [ops], then its final digest *)
let run (module E : ENGINE) ops =
  let mem = E.create regions in
  let snaps = ref [] in
  let answer f =
    match f () with
    | s -> "ok " ^ s
    | exception Phys_mem.Bad_address a -> Printf.sprintf "Bad_address %d" a
    | exception Phys_mem.Rom_write a -> Printf.sprintf "Rom_write %d" a
    | exception Phys_mem.Integrity_violation a -> Printf.sprintf "Integrity_violation %d" a
    | exception Invalid_argument m -> "Invalid_argument " ^ m
  in
  let unit f () = f (); "" in
  let step = function
    | Install (b, n, key) -> unit (fun () -> E.install_mee mem ~base:(b * 64) ~size:(n * 64) ~key)
    | Retire b -> unit (fun () -> E.retire_mee mem ~base:(b * 64))
    | Cpu_read (addr, len) -> fun () -> E.cpu_read mem ~addr ~len
    | Cpu_write (addr, s) -> unit (fun () -> E.cpu_write mem ~addr s)
    | Phys_read (addr, len) -> fun () -> E.phys_read mem ~addr ~len
    | Phys_write (addr, s) -> unit (fun () -> E.phys_write mem ~addr s)
    | Manufacture (addr, s) -> unit (fun () -> E.manufacture_write mem ~addr s)
    | Patch (addr, s) -> unit (fun () -> E.patch mem ~addr s)
    | Flip (addr, bit) -> unit (fun () -> E.flip_bit mem ~addr ~bit)
    | Scan needle ->
      fun () -> String.concat "," (List.map string_of_int (E.scan mem ~needle))
    | Snapshot -> unit (fun () -> snaps := !snaps @ [ E.take_snapshot mem ])
    | Restore i ->
      unit (fun () ->
          match !snaps with
          | [] -> ()
          | l -> (List.nth l (i mod List.length l)) ())
    | Digest -> fun () -> Lt_world.Digest64.to_hex (E.state_digest mem)
  in
  let answers = List.map (fun op -> answer (step op)) ops in
  answers @ [ Lt_world.Digest64.to_hex (E.state_digest mem) ]

let prop_lazy_is_eager =
  QCheck.Test.make ~name:"mee: lazy engine = eager oracle" ~count:500 arb_ops (fun ops ->
      let lazy_answers = run (module Lazy_engine) ops in
      let eager_answers = run (module Eager_engine) ops in
      lazy_answers = eager_answers
      || QCheck.Test.fail_reportf "lazy:\n%s\neager:\n%s"
           (String.concat "\n" lazy_answers)
           (String.concat "\n" eager_answers))

let suite = [ QCheck_alcotest.to_alcotest prop_lazy_is_eager ]
