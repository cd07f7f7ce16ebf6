type span = {
  sp_trace : int;
  sp_id : int;
  sp_parent : int option;
  sp_kind : string;
  sp_name : string;
  sp_attrs : (string * string) list;
  sp_start : int;
  sp_end : int;
  sp_status : string;
}

(* an open (not yet completed) span on the dynamic stack *)
type open_span = {
  os_trace : int;
  os_id : int;
  os_parent : int option;
  os_kind : string;
  os_name : string;
  os_attrs : (string * string) list;
  os_start : int;
  mutable os_status : string;
}

(* The ring is struct-of-arrays: recording a completed span is a few
   array stores and allocates nothing, and the int fields are unboxed so
   the GC never scans or promotes them. (An earlier span-record Queue
   spent more time promoting retained records out of the minor heap than
   the traced workload spent working — the layout is the difference
   between ~15% and ~3% overhead on the Deploy.call path.) The five int
   fields share one stride-6 array so a record touches one or two cache
   lines for all of them, not six. Point events can carry one integer
   attribute in the unboxed [ival] column (key in [r_ikey]) so a
   per-message payload like an IPC badge costs no allocation. *)
let ints_per_span = 6 (* trace, id, parent, start, end, ival *)

type t = {
  cap : int;
  r_ints : int array; (* [i*6 ..] = trace, id, parent (0 = root), start, end, ival *)
  r_kind : string array;
  r_name : string array;
  r_attrs : (string * string) list array;
  r_ikey : string array; (* "" = no int attribute *)
  r_status : string array;
  mutable head : int;   (* next write slot *)
  mutable len : int;
  mutable stack : open_span list;
  mutable clock : int;
  mutable next_id : int;
  mutable cur_trace : int;
  mutable n_recorded : int;
  mutable n_dropped : int;
}

let create ?(capacity = 65536) () =
  let cap = max 1 capacity in
  { cap;
    r_ints = Array.make (cap * ints_per_span) 0;
    r_kind = Array.make cap "";
    r_name = Array.make cap "";
    r_attrs = Array.make cap [];
    r_ikey = Array.make cap "";
    r_status = Array.make cap "";
    head = 0;
    len = 0;
    stack = [];
    clock = 0;
    next_id = 1;
    cur_trace = 0;
    n_recorded = 0;
    n_dropped = 0 }

let capacity t = t.cap

(* --- ambient tracer ------------------------------------------------------ *)

let current : t option ref = ref None

let install t = current := Some t

let uninstall () = current := None

let active () = !current

(* allocation-free check for fast paths: [active] boxes nothing either,
   but pattern-matching here keeps the caller honest *)
let enabled () = match !current with None -> false | Some _ -> true

let with_tracer t f =
  let prev = !current in
  current := Some t;
  match f () with
  | v ->
    current := prev;
    v
  | exception e ->
    current := prev;
    raise e

(* --- recording ----------------------------------------------------------- *)

(* Interning: the ring retains span names and attrs, so building them
   fresh per call would promote one short-lived string (or list) per
   span out of the minor heap. Both caches are bounded by the set of
   distinct (component, service) / (key, value) pairs the app uses. *)

let names : (string * string, string) Hashtbl.t = Hashtbl.create 64

let span_name comp svc =
  let key = (comp, svc) in
  match Hashtbl.find_opt names key with
  | Some s -> s
  | None ->
    let s = comp ^ "." ^ svc in
    Hashtbl.replace names key s;
    s

let attrs1 : (string * string, (string * string) list) Hashtbl.t = Hashtbl.create 64

let attr k v =
  let key = (k, v) in
  match Hashtbl.find_opt attrs1 key with
  | Some l -> l
  | None ->
    let l = [ (k, v) ] in
    Hashtbl.replace attrs1 key l;
    l

let set_trace id = match !current with None -> () | Some t -> t.cur_trace <- id

let advance n =
  match !current with None -> () | Some t -> t.clock <- t.clock + max 0 n

let ambient_now () = match !current with None -> 0 | Some t -> t.clock

let record t ~trace ~id ~parent ~kind ~name ~attrs ~ikey ~ival ~start ~stop
    ~status =
  let i = t.head in
  let b = i * ints_per_span in
  t.r_ints.(b) <- trace;
  t.r_ints.(b + 1) <- id;
  t.r_ints.(b + 2) <- parent;
  t.r_ints.(b + 3) <- start;
  t.r_ints.(b + 4) <- stop;
  t.r_ints.(b + 5) <- ival;
  t.r_kind.(i) <- kind;
  t.r_name.(i) <- name;
  t.r_attrs.(i) <- attrs;
  t.r_ikey.(i) <- ikey;
  t.r_status.(i) <- status;
  t.head <- (if i + 1 = t.cap then 0 else i + 1);
  if t.len < t.cap then t.len <- t.len + 1 else t.n_dropped <- t.n_dropped + 1;
  t.n_recorded <- t.n_recorded + 1;
  (* feed the ambient metrics registry, if any *)
  Metrics.observe_span ~kind ~name ~attrs (stop - start)

let open_span t ~kind ~name ~attrs =
  t.clock <- t.clock + 1;
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent, trace =
    match t.stack with
    | os :: _ -> (Some os.os_id, os.os_trace)
    | [] -> (None, t.cur_trace)
  in
  let os =
    { os_trace = trace;
      os_id = id;
      os_parent = parent;
      os_kind = kind;
      os_name = name;
      os_attrs = attrs;
      os_start = t.clock;
      os_status = "ok" }
  in
  t.stack <- os :: t.stack;
  os

let close_span t os =
  (match t.stack with _ :: tl -> t.stack <- tl | [] -> ());
  t.clock <- t.clock + 1;
  record t ~trace:os.os_trace ~id:os.os_id
    ~parent:(match os.os_parent with None -> 0 | Some p -> p)
    ~kind:os.os_kind ~name:os.os_name ~attrs:os.os_attrs ~ikey:"" ~ival:0
    ~start:os.os_start ~stop:t.clock ~status:os.os_status

let with_span ?(attrs = []) ~kind ~name f =
  match !current with
  | None -> f ()
  | Some t ->
    let os = open_span t ~kind ~name ~attrs in
    (match f () with
     | v ->
       close_span t os;
       v
     | exception e ->
       if os.os_status = "ok" then
         os.os_status <- "exn: " ^ Printexc.to_string e;
       close_span t os;
       raise e)

let fail_span detail =
  match !current with
  | None -> ()
  | Some t ->
    (match t.stack with
     | os :: _ -> os.os_status <- detail
     | [] -> ())

let event ?(attrs = []) ?iattr ~kind ~name () =
  match !current with
  | None -> ()
  | Some t ->
    (* a point span: record directly, skipping the open-span stack *)
    t.clock <- t.clock + 1;
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent, trace =
      match t.stack with
      | os :: _ -> (os.os_id, os.os_trace)
      | [] -> (0, t.cur_trace)
    in
    let ikey, ival = match iattr with None -> ("", 0) | Some kv -> kv in
    record t ~trace ~id ~parent ~kind ~name ~attrs ~ikey ~ival ~start:t.clock
      ~stop:t.clock ~status:"ok"

(* --- reading ------------------------------------------------------------- *)

let now t = t.clock

(* reconstruct span records from the ring, oldest-recorded first *)
let spans t =
  List.init t.len (fun j ->
      let i = (t.head - t.len + j + t.cap) mod t.cap in
      let b = i * ints_per_span in
      let attrs =
        if t.r_ikey.(i) = "" then t.r_attrs.(i)
        else t.r_attrs.(i) @ [ (t.r_ikey.(i), string_of_int t.r_ints.(b + 5)) ]
      in
      { sp_trace = t.r_ints.(b);
        sp_id = t.r_ints.(b + 1);
        sp_parent = (if t.r_ints.(b + 2) = 0 then None else Some t.r_ints.(b + 2));
        sp_kind = t.r_kind.(i);
        sp_name = t.r_name.(i);
        sp_attrs = attrs;
        sp_start = t.r_ints.(b + 3);
        sp_end = t.r_ints.(b + 4);
        sp_status = t.r_status.(i) })

let recorded t = t.n_recorded

let dropped t = t.n_dropped

(* --- exports ------------------------------------------------------------- *)

let by_start t =
  List.sort
    (fun a b ->
      match Stdlib.compare a.sp_start b.sp_start with
      | 0 -> Stdlib.compare a.sp_id b.sp_id
      | c -> c)
    (spans t)

(* one Chrome trace event per line, so a diff of two exports reads
   span by span *)
let export_json t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[";
  List.iteri
    (fun i sp ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf "\n";
      Json.(
        to_buffer buf
          (Obj
             [ ("name", Str sp.sp_name); ("cat", Str sp.sp_kind); ("ph", Str "X");
               ("ts", Int sp.sp_start); ("dur", Int (sp.sp_end - sp.sp_start));
               ("pid", Int 1); ("tid", Int sp.sp_trace);
               ( "args",
                 Obj
                   (("span_id", Int sp.sp_id)
                   :: ("parent_id", opt (fun p -> Int p) sp.sp_parent)
                   :: ("status", Str sp.sp_status)
                   :: List.map (fun (k, v) -> (k, Str v)) sp.sp_attrs) ) ])))
    (by_start t);
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

let export_text t =
  let ordered = by_start t in
  (* depth = length of the surviving ancestor chain *)
  let depth_of = Hashtbl.create 256 in
  List.iter
    (fun sp ->
      let d =
        match sp.sp_parent with
        | None -> 0
        | Some p -> (match Hashtbl.find_opt depth_of p with Some d -> d + 1 | None -> 0)
      in
      Hashtbl.replace depth_of sp.sp_id d)
    ordered;
  let buf = Buffer.create 4096 in
  let last_trace = ref min_int in
  List.iter
    (fun sp ->
      if sp.sp_trace <> !last_trace then begin
        last_trace := sp.sp_trace;
        Buffer.add_string buf (Printf.sprintf "trace %d:\n" sp.sp_trace)
      end;
      let d = match Hashtbl.find_opt depth_of sp.sp_id with Some d -> d | None -> 0 in
      Buffer.add_string buf
        (Printf.sprintf "  %s[%d-%d] %s %s%s%s\n" (String.make (2 * d) ' ')
           sp.sp_start sp.sp_end sp.sp_kind sp.sp_name
           (if sp.sp_status = "ok" then "" else " !" ^ sp.sp_status)
           (String.concat ""
              (List.map (fun (k, v) -> Printf.sprintf " %s=%s" k v) sp.sp_attrs))))
    ordered;
  if t.n_dropped > 0 then
    Buffer.add_string buf
      (Printf.sprintf "(%d older spans dropped by the %d-span ring)\n" t.n_dropped t.cap);
  Buffer.contents buf
