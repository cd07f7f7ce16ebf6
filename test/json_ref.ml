(* Reference reader for the JSON that lib/obs/json.ml prints: a strict
   RFC 8259 parser, kept only as a test oracle. It accepts exactly the
   grammar of the RFC (insignificant whitespace between tokens, no
   trailing commas, no leading zeros, no raw control bytes in strings,
   only the eight short escapes and \uXXXX, surrogates only in pairs)
   and requires string contents to be well-formed UTF-8. Numbers keep
   their literal text, so the oracle never rounds. Do not relax it to
   make a test pass: its value is that it says no to anything a strict
   consumer (python3 -m json.tool, a browser) would refuse. *)

type v =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | Arr of v list
  | Obj of (string * v) list

(* the value a printed [Lt_obs.Json.t] must read back as *)
let rec of_json = function
  | Lt_obs.Json.Null -> Null
  | Lt_obs.Json.Bool b -> Bool b
  | Lt_obs.Json.Int n -> Num (string_of_int n)
  | Lt_obs.Json.Str s -> Str s
  | Lt_obs.Json.Arr xs -> Arr (List.map of_json xs)
  | Lt_obs.Json.Obj kvs -> Obj (List.map (fun (k, x) -> (k, of_json x)) kvs)

exception Bad of int * string

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance () else fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub text !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  let is_digit c = c >= '0' && c <= '9' in
  let digits () =
    let start = !pos in
    while (match peek () with Some c -> is_digit c | None -> false) do
      advance ()
    done;
    if !pos = start then fail "expected a digit"
  in
  let number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    (match peek () with
     | Some '0' -> advance ()
     | Some c when is_digit c -> digits ()
     | _ -> fail "expected a digit");
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
     | Some ('e' | 'E') ->
       advance ();
       (match peek () with Some ('+' | '-') -> advance () | _ -> ());
       digits ()
     | _ -> ());
    Num (String.sub text start (!pos - start))
  in
  let hex4 () =
    if !pos + 4 > n then fail "short \\u escape";
    let v = ref 0 in
    for i = 0 to 3 do
      let d =
        match text.[!pos + i] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> fail "bad hex digit"
      in
      v := (!v * 16) + d
    done;
    pos := !pos + 4;
    !v
  in
  let add_utf8 buf u =
    if u < 0x80 then Buffer.add_char buf (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (u lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
    end
    else if u < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xe0 lor (u lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xf0 lor (u lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
    end
  in
  (* one well-formed UTF-8 sequence starting at a byte >= 0x80 *)
  let utf8 buf =
    let b0 = Char.code text.[!pos] in
    let len, lo, hi =
      if b0 >= 0xc2 && b0 <= 0xdf then (2, 0x80, 0x7ff)
      else if b0 >= 0xe0 && b0 <= 0xef then (3, 0x800, 0xffff)
      else if b0 >= 0xf0 && b0 <= 0xf4 then (4, 0x10000, 0x10ffff)
      else fail "invalid UTF-8 lead byte"
    in
    if !pos + len > n then fail "truncated UTF-8 sequence";
    let u = ref (b0 land (0xff lsr (len + 1))) in
    for i = 1 to len - 1 do
      let b = Char.code text.[!pos + i] in
      if b land 0xc0 <> 0x80 then fail "invalid UTF-8 continuation byte";
      u := (!u lsl 6) lor (b land 0x3f)
    done;
    if !u < lo || !u > hi || (!u >= 0xd800 && !u <= 0xdfff) then
      fail "overlong or out-of-range UTF-8";
    Buffer.add_string buf (String.sub text !pos len);
    pos := !pos + len
  in
  let string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        let c = match peek () with Some c -> c | None -> fail "unterminated escape" in
        advance ();
        (match c with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' ->
           let u = hex4 () in
           if u >= 0xdc00 && u <= 0xdfff then fail "lone low surrogate"
           else if u >= 0xd800 && u <= 0xdbff then begin
             expect '\\';
             expect 'u';
             let lo = hex4 () in
             if lo < 0xdc00 || lo > 0xdfff then fail "lone high surrogate";
             add_utf8 buf (0x10000 + ((u - 0xd800) lsl 10) + (lo - 0xdc00))
           end
           else add_utf8 buf u
         | _ -> fail "invalid escape");
        go ()
      | Some c when Char.code c < 0x20 -> fail "raw control byte in string"
      | Some c when Char.code c < 0x80 ->
        Buffer.add_char buf c;
        advance ();
        go ()
      | Some _ ->
        utf8 buf;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let rec value () =
    skip_ws ();
    let v =
      match peek () with
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = string () in
            skip_ws ();
            expect ':';
            let x = value () in
            match peek () with
            | Some ',' ->
              advance ();
              members ((k, x) :: acc)
            | Some '}' ->
              advance ();
              Obj (List.rev ((k, x) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let x = value () in
            match peek () with
            | Some ',' ->
              advance ();
              elements (x :: acc)
            | Some ']' ->
              advance ();
              Arr (List.rev (x :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
        end
      | Some '"' -> Str (string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> number ()
      | _ -> fail "expected a value"
    in
    skip_ws ();
    v
  in
  match value () with
  | v -> if !pos = n then Ok v else Error (Printf.sprintf "byte %d: trailing data" !pos)
  | exception Bad (at, msg) -> Error (Printf.sprintf "byte %d: %s" at msg)
