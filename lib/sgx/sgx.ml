open Lt_crypto
open Lt_hw

let ecall_cost = 10

type cpu = {
  machine : Machine.t;
  master_secret : string;    (* fused; never leaves the package *)
  qe_key : Rsa.keypair;      (* quoting enclave's attestation key *)
  qe_cert : Cert.t;
  mutable ocall_handler : string -> string;
  mutable live : (int, enclave) Hashtbl.t Lazy.t;
  (* per-package, not toplevel globals: a hidden global here would leak
     across world forks (enclave ids feeding MEE keys, monotonic
     counters surviving a restore) and break fork isolation *)
  mutable next_enclave_id : int;
  counters : (string, int) Hashtbl.t;
}

and enclave = {
  e_id : int;
  e_name : string;
  e_measurement : string;
  e_base : int;              (* EPC physical base *)
  e_pages : int list;        (* frames to return on destroy *)
  e_size : int;
  ecall_table : (string, ecall_handler) Hashtbl.t;
  e_cpu : cpu;
  e_seal : Speck.Aead.ctx Lazy.t;
      (* seal-key context, derived on the first seal: a pure function of
         the fused secret and the measurement, so no snapshot holds it *)
  mutable e_alive : bool;
}

and ctx = { enclave : enclave }

and ecall_handler = ctx -> string -> string

let measure_code code = Sha256.digest ("sgx-enclave|" ^ code)

let init_cpu machine rng ~ca_name ~ca_key =
  let master_secret = Drbg.bytes rng 32 in
  Fuse.program machine.Machine.fuses ~name:"sgx-master" ~visibility:Fuse.Secure_only
    master_secret;
  let qe_key = Rsa.generate ~bits:512 rng in
  let qe_cert =
    Cert.issue ~ca_name ~ca_key ~subject:"sgx-quoting-enclave" qe_key.Rsa.pub
  in
  { machine;
    master_secret;
    qe_key;
    qe_cert;
    ocall_handler = (fun _ -> "");
    live = lazy (Hashtbl.create 8);
    next_enclave_id = 0;
    counters = Hashtbl.create 8 }

let quoting_cert cpu = cpu.qe_cert

let mee_key cpu measurement =
  Hkdf.derive ~secret:cpu.master_secret ~salt:"sgx-mee" ~info:measurement 32

let create_enclave cpu ~name ~code ~epc_pages ~ecalls =
  if epc_pages <= 0 then invalid_arg "Sgx.create_enclave: need pages";
  let page = Mmu.page_size in
  match Frame_alloc.alloc_contiguous cpu.machine.Machine.dram_frames epc_pages with
  | Error Frame_alloc.Too_few -> invalid_arg "Sgx.create_enclave: out of EPC"
  | Error Frame_alloc.Fragmented ->
    invalid_arg "Sgx.create_enclave: EPC fragmentation"
  | Ok first ->
    let base = first * page in
    let size = epc_pages * page in
    let measurement = measure_code code in
    cpu.next_enclave_id <- cpu.next_enclave_id + 1;
    (* per-enclave MEE key: OS and physical attackers see only ciphertext *)
    Phys_mem.install_mee cpu.machine.Machine.mem ~base ~size
      ~key:(mee_key cpu (measurement ^ string_of_int cpu.next_enclave_id));
    let table = Hashtbl.create 8 in
    List.iter (fun (fn, h) -> Hashtbl.replace table fn h) ecalls;
    let e =
      { e_id = cpu.next_enclave_id;
        e_name = name;
        e_measurement = measurement;
        e_base = base;
        e_pages = List.init epc_pages (fun i -> first + i);
        e_size = size;
        ecall_table = table;
        e_cpu = cpu;
        e_seal =
          lazy
            (Speck.Aead.of_key
               (Hkdf.derive ~secret:cpu.master_secret ~salt:"sgx-seal" ~info:measurement 16));
        e_alive = true }
    in
    Hashtbl.replace (Lazy.force cpu.live) e.e_id e;
    e

let enclave_name e = e.e_name

let measurement e = e.e_measurement

let destroy cpu e =
  if e.e_alive then begin
    e.e_alive <- false;
    (* drop the MEE and scrub its raw frames: real zeros land in DRAM
       without encrypting the blocks the enclave never touched *)
    Phys_mem.retire_mee cpu.machine.Machine.mem ~base:e.e_base;
    List.iter (Frame_alloc.free cpu.machine.Machine.dram_frames) e.e_pages;
    Hashtbl.remove (Lazy.force cpu.live) e.e_id
  end

let ecall cpu e ~fn arg =
  if not e.e_alive then Error "enclave destroyed"
  else
    match Hashtbl.find_opt e.ecall_table fn with
    | None -> Error (Printf.sprintf "no such entry point %S" fn)
    | Some handler ->
      Clock.advance cpu.machine.Machine.clock ecall_cost;
      let result =
        try Ok (handler { enclave = e } arg)
        with exn -> Error (Printexc.to_string exn)
      in
      Clock.advance cpu.machine.Machine.clock ecall_cost;
      result

let set_ocall_handler cpu f = cpu.ocall_handler <- f

let ocall ctx req = ctx.enclave.e_cpu.ocall_handler req

let mem_write ctx ~off data =
  let e = ctx.enclave in
  if off < 0 || off + String.length data > e.e_size then
    invalid_arg "Sgx.mem_write: outside EPC";
  Phys_mem.cpu_write e.e_cpu.machine.Machine.mem ~addr:(e.e_base + off) data

let mem_read ctx ~off ~len =
  let e = ctx.enclave in
  if off < 0 || off + len > e.e_size then invalid_arg "Sgx.mem_read: outside EPC";
  Phys_mem.cpu_read e.e_cpu.machine.Machine.mem ~addr:(e.e_base + off) ~len

let seal ctx data =
  let e = ctx.enclave in
  let nonce =
    String.sub (Sha256.digest (string_of_int e.e_id ^ data)) 0 Speck.nonce_size
  in
  Speck.Aead.seal_wire (Lazy.force e.e_seal) ~nonce ~ad:"sgx-seal" data

let unseal ctx wire =
  Speck.Aead.open_wire (Lazy.force ctx.enclave.e_seal) ~ad:"sgx-seal" wire

let cache_touch ctx addr =
  let e = ctx.enclave in
  ignore (Cache.access e.e_cpu.machine.Machine.cache ~domain:e.e_name ~addr)

type quote = {
  q_measurement : string;
  q_nonce : string;
  q_report_data : string;
  q_signature : string;
}

let quote_body ~measurement ~nonce ~report_data =
  Printf.sprintf "sgx-quote|%s|%s|%s" (Sha256.hex measurement) nonce report_data

let quote cpu e ~nonce ~report_data =
  { q_measurement = e.e_measurement;
    q_nonce = nonce;
    q_report_data = report_data;
    q_signature =
      Rsa.sign cpu.qe_key
        (quote_body ~measurement:e.e_measurement ~nonce ~report_data) }

let qe_sign cpu ~body = Rsa.sign cpu.qe_key body

let verify_quote ~qe_pub q =
  Rsa.verify qe_pub ~signature:q.q_signature
    (quote_body ~measurement:q.q_measurement ~nonce:q.q_nonce
       ~report_data:q.q_report_data)

let run_tasks cpu ~policy ~slices tasks =
  let progress = Hashtbl.create 8 in
  List.iter (fun (e, _, _) -> Hashtbl.replace progress e.e_name 0) tasks;
  let eligible =
    match policy with
    | `Fair -> tasks
    | `Starve victim -> List.filter (fun (e, _, _) -> e.e_name <> victim) tasks
  in
  let n = List.length eligible in
  if n > 0 then
    for i = 0 to slices - 1 do
      let e, fn, arg = List.nth eligible (i mod n) in
      match ecall cpu e ~fn arg with
      | Ok _ ->
        Hashtbl.replace progress e.e_name
          (1 + Option.value ~default:0 (Hashtbl.find_opt progress e.e_name))
      | Error _ -> ()
    done
  else
    (* nothing runnable: the OS idles, time still passes *)
    Clock.advance cpu.machine.Machine.clock slices;
  Hashtbl.fold (fun name c acc -> (name, c) :: acc) progress []
  |> List.sort Stdlib.compare

let epc_range e = (e.e_base, e.e_size)

(* monotonic counters persist per (cpu, measurement) across enclave
   restarts, as the platform service does *)
let counter_key e = e.e_measurement

let counter_read ctx =
  let e = ctx.enclave in
  Option.value ~default:0 (Hashtbl.find_opt e.e_cpu.counters (counter_key e))

let counter_increment ctx =
  let e = ctx.enclave in
  let v = counter_read ctx + 1 in
  Hashtbl.replace e.e_cpu.counters (counter_key e) v;
  v

(* --- Snapshottable ---------------------------------------------------- *)

(* enclave records are mutable only in [e_alive]; EPC contents and the
   frame allocator live in the machine, captured separately *)
let take_snapshot cpu =
  let live = Lazy.force cpu.live in
  let bindings = Lt_world.Snapshottable.save_hashtbl live in
  let alive = Hashtbl.fold (fun _ e acc -> (e, e.e_alive) :: acc) live [] in
  let ocall = cpu.ocall_handler in
  let next_id = cpu.next_enclave_id in
  let counters = Lt_world.Snapshottable.save_hashtbl cpu.counters in
  fun () ->
    bindings ();
    List.iter (fun (e, a) -> e.e_alive <- a) alive;
    cpu.ocall_handler <- ocall;
    cpu.next_enclave_id <- next_id;
    counters ()

let state_digest cpu =
  let open Lt_world in
  Digest64.int Digest64.basis cpu.next_enclave_id
  |> Snapshottable.digest_hashtbl ~key:string_of_int
       ~value:(fun e ->
         Printf.sprintf "%s|%s|%d|%b" e.e_name e.e_measurement e.e_base e.e_alive)
       (Lazy.force cpu.live)
  |> Snapshottable.digest_hashtbl ~key:Fun.id ~value:string_of_int cpu.counters
