(* Shared timing, statistics, GC accounting, span recording and result
   output for every workload of the suite.

   The clock is process CPU time (user + sys, from getrusage). The
   program under test is single-threaded and does no real I/O, so on an
   idle host CPU time equals wall time; on a shared VM the hypervisor's
   steal time inflates wall time but not CPU time. Wall time is still
   read, for the host.wall_over_cpu diagnostic and the span export. *)

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let wall = Unix.gettimeofday

(* [timed f] runs [f] and returns its result with the CPU seconds it took *)
let timed f =
  let t0 = cpu () in
  let x = f () in
  (x, cpu () -. t0)

(* --- statistics ---------------------------------------------------------- *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] (the
   default "exclusive" method) computes them, so a spread printed here
   matches one computed from the same values elsewhere. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

(* inter-quartile range as a share of the median *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if Array.length xs < 2 || q2 = 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2

(* Nearest-rank percentile. A percentile is only meaningful with at
   least ten samples beyond it, so p90 needs 100 samples and p99 1,000;
   [percentile_valid] says whether [n] samples are enough. *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let percentile_valid n q = float_of_int n *. (1.0 -. q) >= 10.0 -. 1e-9

(* --- GC accounting ------------------------------------------------------- *)

type gc = { minor : float; promoted : float; majors : int }

let gc_now () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_words;
    promoted = s.Gc.promoted_words;
    majors = s.Gc.major_collections }

let gc_since g0 =
  let g1 = gc_now () in
  { minor = g1.minor -. g0.minor;
    promoted = g1.promoted -. g0.promoted;
    majors = g1.majors - g0.majors }

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1e6

(* --- spans --------------------------------------------------------------- *)

(* The suite's own spans, recorded around the calls it makes into each
   layer's public functions. They are off unless a traced pass turns
   them on; kept in memory and exported at exit. A span's self time is
   its duration minus the time its child spans cover. *)
module Spans = struct
  type span = {
    id : int;
    layer : string;
    name : string;
    parent : int;  (* -1 for an op's root span *)
    req : int;     (* the op (request) the span belongs to *)
    c0 : float;
    w0 : float;
    mutable c1 : float;
    mutable w1 : float;
  }

  let on = ref false
  let recorded : span list ref = ref []
  let next_id = ref 0
  let current = ref (-1)
  let current_req = ref 0

  let reset () =
    recorded := [];
    next_id := 0;
    current := -1

  let span layer name f =
    if not !on then f ()
    else begin
      let s =
        { id = !next_id; layer; name; parent = !current; req = !current_req;
          c0 = cpu (); w0 = wall (); c1 = 0.0; w1 = 0.0 }
      in
      incr next_id;
      let saved = !current in
      current := s.id;
      let finish () =
        s.c1 <- cpu ();
        s.w1 <- wall ();
        current := saved;
        recorded := s :: !recorded
      in
      match f () with
      | x ->
        finish ();
        x
      | exception e ->
        finish ();
        raise e
    end

  (* the root span of one op: the suite's own ("bench") layer *)
  let op req f =
    current_req := req;
    span "bench" "op" f

  let all () =
    let a = Array.of_list !recorded in
    Array.sort (fun x y -> compare x.id y.id) a;
    a

  let self_times a =
    let child = Array.make (Array.length a) 0.0 in
    Array.iter
      (fun s -> if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. (s.c1 -. s.c0))
      a;
    Array.map (fun s -> s.c1 -. s.c0 -. child.(s.id)) a

  (* [(layer, self CPU seconds)] summed over every recorded span, plus the
     total CPU of the root spans *)
  let self_by_layer () =
    let a = all () in
    let self = self_times a in
    let tbl = Hashtbl.create 16 in
    let roots = ref 0.0 in
    Array.iteri
      (fun i s ->
        if s.parent < 0 then roots := !roots +. (s.c1 -. s.c0);
        let prev = Option.value (Hashtbl.find_opt tbl s.layer) ~default:0.0 in
        Hashtbl.replace tbl s.layer (prev +. self.(i)))
      a;
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []), !roots)

  (* Chrome trace-event JSON: wall-clock timeline, CPU times in args *)
  let export_chrome path =
    let a = all () in
    let self = self_times a in
    let t0 = if Array.length a = 0 then 0.0 else a.(0).w0 in
    let oc = open_out path in
    output_string oc "[";
    Array.iteri
      (fun i s ->
        if i > 0 then output_string oc ",\n";
        Printf.fprintf oc
          "{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d,\"cpu_us\":%.3f,\"self_cpu_us\":%.3f}}"
          s.name s.layer ((s.w0 -. t0) *. 1e6) ((s.w1 -. s.w0) *. 1e6) s.id
          s.parent s.req ((s.c1 -. s.c0) *. 1e6) (self.(i) *. 1e6))
      a;
    output_string oc "]\n";
    close_out oc
end

(* --- run settings -------------------------------------------------------- *)

type ctx = {
  seed : int;
  seconds : int;
  smoke : bool;  (* one round at about 1% of the ops: CI shape check *)
  spans : string option;  (* where a traced run writes its spans *)
}

(* [rounds ctx ~fixed_s ~round_s] — how many fixed-size rounds of
   [round_s] CPU seconds (on the reference host) fit the run after
   [fixed_s] of other work. The count depends only on [--seconds], so a
   faster build does the same work in less time, not more work. Rounds
   are many and short because host noise varies from round to round:
   the median of many rounds is steadier than that of a few long ones. *)
let rounds ?(fixed_s = 0.0) ctx ~round_s =
  if ctx.smoke then 1
  else max 1 (int_of_float ((float_of_int ctx.seconds -. fixed_s) /. round_s))

(* [size ctx n] — [n] ops normally, about 1% of them for a smoke run *)
let size ctx n = if ctx.smoke then max 2 ((n + 99) / 100) else n

(* [in_child f] runs [f] in a forked child and returns its result. CPU
   time per op drifts over a process's life as its heap grows, so every
   round runs in a child forked from the same small parent: rounds are
   then alike, as separate invocations of the program would be. The
   result must be plain data (it crosses a pipe marshalled). *)
let in_child f =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    let oc = Unix.out_channel_of_descr wr in
    Marshal.to_channel oc r [];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let r = try Marshal.from_channel ic with End_of_file -> Error "child died" in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    (match r with Ok x -> x | Error e -> failwith e)

(* --- outcomes ------------------------------------------------------------ *)

(* one fixed-size round of a workload *)
type round = {
  r_ops : int;        (* ops completed *)
  r_op_cpu : float;   (* CPU seconds of the ops themselves *)
  r_peak_mb : float;  (* the round's process high-water mark *)
}

type outcome = {
  problems : string list;  (* failed correctness gates; [] = correct *)
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (* name, value, sample note *)
}

(* A traced run measures the same ops twice: once with the suite's spans
   off (GC, wall/CPU and the overhead baseline) and once with them on
   (the per-layer self times). *)
type pass = { p_cpu : float; p_wall : float; p_gc : gc; p_ops : int }

type traced = {
  t_outcome : outcome;
  t_off : pass;
  t_on_cpu : float;
  t_layers : (string * float) list;  (* self CPU seconds per layer, spans on *)
  t_roots : float;                   (* CPU seconds of the ops' root spans *)
}

(* [measure_pass ~ops f] runs [f] as one pass of [ops] ops; [settle]
   first collects the garbage of whatever ran before *)
let measure_pass ?(settle = true) ~ops f =
  if settle then Gc.full_major ();
  let g0 = gc_now () and w0 = wall () and c0 = cpu () in
  f ();
  let p_cpu = cpu () -. c0 and p_wall = wall () -. w0 in
  { p_cpu; p_wall; p_gc = gc_since g0; p_ops = ops }

(* [with_spans ctx f] runs [f] with spans on, writes them out when the
   run asks for it, and returns [f]'s result with the self time per
   layer and the ops' total *)
let with_spans ctx f =
  Spans.reset ();
  Spans.on := true;
  let x = f () in
  Spans.on := false;
  Option.iter Spans.export_chrome ctx.spans;
  let layers, roots = Spans.self_by_layer () in
  (x, layers, roots)

let check problems cond fmt =
  Printf.ksprintf (fun s -> if not cond then problems := s :: !problems) fmt

(* the end-to-end metrics every workload reports, from its rounds, its
   set-up samples (CPU seconds) and its per-op latency samples (µs) *)
let end_to_end rounds ~setup_s ~latency_us =
  let rs = Array.of_list rounds in
  let n = Array.length latency_us in
  let pct q =
    let note =
      Printf.sprintf "n=%d%s" n
        (if percentile_valid n q then "" else ", <10 beyond")
    in
    (percentile latency_us q, note)
  in
  let p50, n50 = pct 0.5 and p90, n90 = pct 0.9 in
  let per_round = Array.map (fun r -> float_of_int r.r_ops /. r.r_op_cpu) rs in
  let peaks = Array.map (fun r -> r.r_peak_mb) rs in
  let show fmt a = String.concat " " (Array.to_list (Array.map (Printf.sprintf fmt) a)) in
  [ ( "ops_per_s",
      median per_round,
      Printf.sprintf "ops=%d, rounds: %s"
        (Array.fold_left (fun a r -> a + r.r_ops) 0 rs)
        (show "%.0f" per_round) );
    ("op_p50_us", p50, n50);
    ("op_p90_us", p90, n90);
    ("setup_s", median setup_s, "samples: " ^ show "%.3f" setup_s);
    ("peak_heap_mb", median peaks, "rounds: " ^ show "%.1f" peaks) ]
  (* p99 is printed where enough samples lie beyond it; it is not one of
     the benchmark's metrics, which every workload must report *)
  @
  if percentile_valid n 0.99 then
    [ ("op_p99_us", percentile latency_us 0.99, Printf.sprintf "n=%d" n) ]
  else []
