(* Reading suite results back: a small JSON reader, result-shape checks,
   and the comparison of two sets of runs that compare.exe prints. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string

let parse s =
  let n = String.length s and i = ref 0 in
  let peek () = if !i < n then s.[!i] else '\000' in
  let rec ws () =
    if !i < n && (s.[!i] = ' ' || s.[!i] = '\n' || s.[!i] = '\t' || s.[!i] = '\r') then begin
      incr i;
      ws ()
    end
  in
  let expect c =
    ws ();
    if peek () <> c then raise (Bad (Printf.sprintf "expected %c at %d" c !i));
    incr i
  in
  let literal word v =
    if !i + String.length word <= n && String.sub s !i (String.length word) = word then begin
      i := !i + String.length word;
      v
    end
    else raise (Bad (Printf.sprintf "bad literal at %d" !i))
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then raise (Bad "unterminated string");
      let c = s.[!i] in
      incr i;
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        if !i >= n then raise (Bad "bad escape");
        let e = s.[!i] in
        incr i;
        (match e with
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'r' -> Buffer.add_char b '\r'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'u' ->
           if !i + 4 > n then raise (Bad "bad \\u escape");
           let code = int_of_string ("0x" ^ String.sub s !i 4) in
           i := !i + 4;
           Buffer.add_char b (if code < 128 then Char.chr code else '?')
         | c -> Buffer.add_char b c);
        go ()
      end
      else begin
        Buffer.add_char b c;
        go ()
      end
    in
    go ()
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
      incr i;
      ws ();
      if peek () = '}' then (incr i; Obj [])
      else
        let rec fields acc =
          let k = str () in
          expect ':';
          let v = value () in
          ws ();
          match peek () with
          | ',' -> incr i; fields ((k, v) :: acc)
          | '}' -> incr i; Obj (List.rev ((k, v) :: acc))
          | _ -> raise (Bad (Printf.sprintf "expected , or } at %d" !i))
        in
        fields []
    | '[' ->
      incr i;
      ws ();
      if peek () = ']' then (incr i; Arr [])
      else
        let rec items acc =
          let v = value () in
          ws ();
          match peek () with
          | ',' -> incr i; items (v :: acc)
          | ']' -> incr i; Arr (List.rev (v :: acc))
          | _ -> raise (Bad (Printf.sprintf "expected , or ] at %d" !i))
        in
        items []
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
      let start = !i in
      while
        !i < n && (match s.[!i] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false)
      do
        incr i
      done;
      (match float_of_string_opt (String.sub s start (!i - start)) with
       | Some f when !i > start -> Num f
       | _ -> raise (Bad (Printf.sprintf "bad value at %d" start)))
  in
  match value () with
  | v ->
    ws ();
    if !i = n then Ok v else Error (Printf.sprintf "trailing bytes at %d" !i)
  | exception Bad e -> Error e

let field k = function Obj l -> List.assoc_opt k l | _ -> None

(* --- one workload's result line -------------------------------------- *)

type result = { correct : bool; attempted : int; failed : int; metrics : (string * float) list }

(* checks the exact shape the contract fixes: four keys, whole counts,
   and exactly the [expected] metric names, each a finite number with
   its unit; [expected] names the metrics when they are known *)
let result_of ?expected j =
  let keys = match j with Obj l -> List.map fst l | _ -> [] in
  let count k =
    match field k j with
    | Some (Num f) when Float.is_integer f -> Ok (int_of_float f)
    | _ -> Error (k ^ " is not a whole number")
  in
  if List.sort compare keys <> [ "attempted"; "correct"; "failed"; "metrics" ] then
    Error "keys must be exactly correct, attempted, failed, metrics"
  else
    match (field "correct" j, count "attempted", count "failed", field "metrics" j) with
    | Some (Bool correct), Ok attempted, Ok failed, Some (Obj ms) ->
      let metric (name, v) =
        match (field "value" v, field "unit" v) with
        | Some (Num x), Some (Str u) when Float.is_finite x && u = Spec.unit_of name -> Ok (name, x)
        | _ -> Error (Printf.sprintf "metric %s lacks a finite value or its unit" name)
      in
      let rec all acc = function
        | [] -> Ok (List.rev acc)
        | m :: rest -> (match metric m with Ok x -> all (x :: acc) rest | Error _ as e -> e)
      in
      (match all [] ms with
       | Error e -> Error e
       | Ok metrics ->
         let names = List.sort compare (List.map fst metrics) in
         if attempted < 1 then Error "attempted must be at least 1"
         else if
           correct
           && (match expected with Some e -> names <> List.sort compare e | None -> false)
         then Error "metric names differ from the benchmark's list"
         else Ok { correct; attempted; failed; metrics })
    | _ -> Error "malformed result"

(* --- comparing two sets of full runs --------------------------------- *)

(* every `suite.exe run` summary among [lines]: workload -> result *)
let runs_of_lines lines =
  List.filter_map
    (fun l ->
      match parse l with
      | Ok j ->
        (match field "workloads" j with
         | Some (Obj ws) ->
           Some
             (List.filter_map
                (fun (w, r) ->
                  match result_of r with Ok r -> Some (w, r) | Error _ -> None)
                ws)
         | _ -> None)
      | Error _ -> None)
    lines

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

type verdict = Better | Same | Worse | Unresolved

let verdict_string = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* [judge e base news] — the medians and the verdict on one (workload,
   metric) pair *)
let judge (e : Spec.e2e) base news =
  let mb = Harness.median base and mn = Harness.median news in
  let worse_by =
    match e.e_better with Spec.Lower -> (mn -. mb) /. mb | Spec.Higher -> (mb -. mn) /. mb
  in
  let spread = Float.max (Harness.spread base) (Harness.spread news) in
  let beats a b = match e.e_better with Spec.Lower -> a < b | Spec.Higher -> a > b in
  let all_better =
    Array.for_all (fun n -> Array.for_all (fun b -> beats n b) base) news
  in
  let v =
    if spread > e.e_bound then if all_better then Better else Unresolved
    else if worse_by > e.e_bound then Worse
    else if -.worse_by > e.e_bound then Better
    else Same
  in
  (mb, mn, v)

(* one row per (workload, end-to-end metric), and [true] when both sides
   hold runs, nothing got worse and no workload's failure share rose *)
let compare_runs base news =
  let values runs w m =
    Array.of_list
      (List.filter_map
         (fun run ->
           match List.assoc_opt w run with
           | Some r -> List.assoc_opt m r.metrics
           | None -> None)
         runs)
  in
  let fail_share runs w =
    let a, f =
      List.fold_left
        (fun (a, f) run ->
          match List.assoc_opt w run with
          | Some r -> (a + r.attempted, f + r.failed)
          | None -> (a, f))
        (0, 0) runs
    in
    if a = 0 then 0.0 else float_of_int f /. float_of_int a
  in
  let ok = ref (base <> [] && news <> []) in
  let b = Buffer.create 4096 in
  Printf.bprintf b "%-16s %-14s %14s %14s %8s %6s  %s\n" "workload" "metric" "base" "new"
    "change" "bound" "verdict";
  List.iter
    (fun (w, _) ->
      List.iter
        (fun (e : Spec.e2e) ->
          let bs = values base w e.e_name and ns = values news w e.e_name in
          if Array.length bs > 0 && Array.length ns > 0 then begin
            let mb, mn, v = judge e bs ns in
            if v = Worse then ok := false;
            Printf.bprintf b "%-16s %-14s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n" w e.e_name mb mn
              (100.0 *. ((mn /. mb) -. 1.0)) (100.0 *. e.e_bound) (verdict_string v)
          end)
        Spec.end_to_end;
      let fb = fail_share base w and fn = fail_share news w in
      if fn > fb then ok := false;
      Printf.bprintf b "%-16s %-14s %14.6f %14.6f %8s %6s  %s\n" w "fail_frac" fb fn "" "rise"
        (if fn > fb then "worse" else "same"))
    Spec.workloads;
  (Buffer.contents b, !ok)

let compare_files base_path new_path =
  compare_runs (runs_of_lines (read_lines base_path)) (runs_of_lines (read_lines new_path))
