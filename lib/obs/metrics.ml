(* Counters and log2-bucketed histograms. Buckets: index 0 holds the
   value 0 and bucket i >= 1 holds [2^(i-1), 2^i - 1], which covers the
   whole non-negative int range in 63 buckets and makes the quantile
   estimate an interval the exact order statistic provably lies in. *)

let bucket_count = 64

type hist = {
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_max : int;
  buckets : int array;
}

(* Hot-path caches for the per-span feed from {!Trace}. Group and name
   strings arrive interned (literals at call sites, {!Trace.span_name}),
   so steady-state lookups are pointer-equality scans over short lists:
   no allocation, no hashing. Structural fallbacks keep the lists
   bounded by distinct contents when a caller passes fresh strings. *)

type gcounter = { gc_name : string; gc_ref : int ref }

type ghist = { gh_name : string; gh_hist : hist }

type group = {
  g_key : string;
  mutable g_counters : gcounter list;
  mutable g_hists : ghist list;
}

type t = {
  m_counters : (string, int ref) Hashtbl.t;
  m_hists : (string, hist) Hashtbl.t;
  mutable m_groups : group list;
}

let create () =
  { m_counters = Hashtbl.create 32; m_hists = Hashtbl.create 32; m_groups = [] }

(* --- ambient registry --------------------------------------------------- *)

let current : t option ref = ref None

let install t = current := Some t

let uninstall () = current := None

let active () = !current

let with_metrics t f =
  let prev = !current in
  current := Some t;
  match f () with
  | v ->
    current := prev;
    v
  | exception e ->
    current := prev;
    raise e

(* --- reporting ---------------------------------------------------------- *)

let incr ?(by = 1) key =
  match !current with
  | None -> ()
  | Some t ->
    (match Hashtbl.find_opt t.m_counters key with
     | Some r -> r := !r + by
     | None -> Hashtbl.replace t.m_counters key (ref by))

let bucket_of v =
  if v <= 0 then 0
  else begin
    (* 1 + floor(log2 v) *)
    let rec go i v = if v = 0 then i else go (i + 1) (v lsr 1) in
    go 0 v
  end

let bucket_bounds i =
  if i = 0 then (0, 0) else (1 lsl (i - 1), (1 lsl i) - 1)

let hist_of t key =
  match Hashtbl.find_opt t.m_hists key with
  | Some h -> h
  | None ->
    let h = { h_count = 0; h_sum = 0; h_max = 0; buckets = Array.make bucket_count 0 } in
    Hashtbl.replace t.m_hists key h;
    h

let hist_add h ticks =
  let v = max 0 ticks in
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  if v > h.h_max then h.h_max <- v;
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1

let observe ~key ticks =
  match !current with
  | None -> ()
  | Some t -> hist_add (hist_of t key) ticks

let group_of t key =
  let rec phys = function
    | g :: _ when g.g_key == key -> Some g
    | _ :: tl -> phys tl
    | [] -> None
  in
  match phys t.m_groups with
  | Some g -> g
  | None ->
    (match List.find_opt (fun g -> g.g_key = key) t.m_groups with
     | Some g -> g
     | None ->
       let g = { g_key = key; g_counters = []; g_hists = [] } in
       t.m_groups <- g :: t.m_groups;
       g)

let incr_in t ~group name =
  let g = group_of t group in
  let rec phys = function
    | c :: _ when c.gc_name == name -> Some c
    | _ :: tl -> phys tl
    | [] -> None
  in
  match phys g.g_counters with
  | Some c -> c.gc_ref := !(c.gc_ref) + 1
  | None ->
    (match List.find_opt (fun c -> c.gc_name = name) g.g_counters with
     | Some c -> c.gc_ref := !(c.gc_ref) + 1
     | None ->
       let key = group ^ "/" ^ name in
       let r =
         match Hashtbl.find_opt t.m_counters key with
         | Some r -> r
         | None ->
           let r = ref 0 in
           Hashtbl.replace t.m_counters key r;
           r
       in
       r := !r + 1;
       g.g_counters <- { gc_name = name; gc_ref = r } :: g.g_counters)

let observe_in t ~group ~name ticks =
  let g = group_of t group in
  let rec phys = function
    | e :: _ when e.gh_name == name -> Some e.gh_hist
    | _ :: tl -> phys tl
    | [] -> None
  in
  let h =
    match phys g.g_hists with
    | Some h -> h
    | None ->
      (match List.find_opt (fun e -> e.gh_name = name) g.g_hists with
       | Some e -> e.gh_hist
       | None ->
         let h = hist_of t (group ^ "/" ^ name) in
         g.g_hists <- { gh_name = name; gh_hist = h } :: g.g_hists;
         h)
  in
  hist_add h ticks

let incr_grouped ~group name =
  match !current with None -> () | Some t -> incr_in t ~group name

let observe_grouped ~group ~name ticks =
  match !current with None -> () | Some t -> observe_in t ~group ~name ticks

(* the whole per-span feed in one registry resolution: a spans/<kind>
   counter, a <kind>/<name> latency histogram, and — when the span is
   tagged with a substrate — a substrate/<s> histogram *)
let observe_span ~kind ~name ~attrs ticks =
  match !current with
  | None -> ()
  | Some t ->
    incr_in t ~group:"spans" kind;
    observe_in t ~group:kind ~name ticks;
    (match List.assoc_opt "substrate" attrs with
     | Some s -> observe_in t ~group:"substrate" ~name:s ticks
     | None -> ())

(* --- reading ------------------------------------------------------------ *)

let counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.m_counters []
  |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)

let hist_quantile_bounds h q =
  if h.h_count = 0 || q <= 0.0 || q > 1.0 then None
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int h.h_count))) in
    let rank = min rank h.h_count in
    let rec go i seen =
      if i >= bucket_count then None
      else begin
        let seen = seen + h.buckets.(i) in
        if seen >= rank then begin
          let lo, hi = bucket_bounds i in
          Some (lo, min hi h.h_max)
        end
        else go (i + 1) seen
      end
    in
    go 0 0
  end

type summary = {
  s_count : int;
  s_sum : int;
  s_max : int;
  s_p50 : int;
  s_p95 : int;
  s_p99 : int;
}

let summary_of h =
  let p q = match hist_quantile_bounds h q with Some (_, hi) -> hi | None -> 0 in
  { s_count = h.h_count;
    s_sum = h.h_sum;
    s_max = h.h_max;
    s_p50 = p 0.50;
    s_p95 = p 0.95;
    s_p99 = p 0.99 }

let summaries t =
  Hashtbl.fold (fun k h acc -> (k, summary_of h) :: acc) t.m_hists []
  |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)

let quantile_bounds t key q =
  match Hashtbl.find_opt t.m_hists key with
  | None -> None
  | Some h -> hist_quantile_bounds h q

(* --- rendering ------------------------------------------------------------ *)

let add_counters_text buf cs =
  Buffer.add_string buf "counters:\n";
  List.iter (fun (k, v) -> Printf.bprintf buf "  %-40s %d\n" k v) cs

let add_histograms_text buf hs =
  Printf.bprintf buf "latency histograms (ticks):\n  %-40s %8s %8s %8s %8s %8s\n"
    "key" "count" "p50" "p95" "p99" "max";
  List.iter
    (fun (k, s) ->
      Printf.bprintf buf "  %-40s %8d %8d %8d %8d %8d\n" k s.s_count s.s_p50
        s.s_p95 s.s_p99 s.s_max)
    hs

let counters_json cs = Json.(Obj (List.map (fun (k, v) -> (k, Int v)) cs))

let histograms_json hs =
  Json.(
    Obj
      (List.map
         (fun (k, s) ->
           ( k,
             Obj
               [ ("count", Int s.s_count); ("sum", Int s.s_sum); ("p50", Int s.s_p50);
                 ("p95", Int s.s_p95); ("p99", Int s.s_p99); ("max", Int s.s_max) ] ))
         hs))
