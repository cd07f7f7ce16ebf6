let prefix_len = 8

(* the width [%08d] prints [n >= 0] in: 8, or every digit of [n] once
   it has more *)
let header_width n =
  let rec digits d m = if m < 10 then d else digits (d + 1) (m / 10) in
  digits prefix_len (n / 10_000_000)

(* [blit_digits b off ~width n] writes [0 <= n < 10^width] as [width]
   zero-padded ASCII digits *)
let blit_digits b off ~width n =
  let n = ref n in
  for i = off + width - 1 downto off do
    Bytes.unsafe_set b i (Char.unsafe_chr (Char.code '0' + (!n mod 10)));
    n := !n / 10
  done

let length_prefix n =
  let width = header_width n in
  let b = Bytes.create width in
  blit_digits b 0 ~width n;
  Bytes.unsafe_to_string b

let length_at s off =
  if off < 0 || off + prefix_len > String.length s then None
  else begin
    let rec digits i acc =
      if i = off + prefix_len then Some acc
      else
        match String.unsafe_get s i with
        | '0' .. '9' as c -> digits (i + 1) ((acc * 10) + Char.code c - Char.code '0')
        | _ -> None
    in
    match digits off 0 with
    | Some _ as n -> n
    | None -> int_of_string_opt (String.sub s off prefix_len)
  end

(* size the output once, then write each prefix and field in place *)
let encode fields =
  let size acc f =
    let n = String.length f in
    acc + header_width n + n
  in
  let b = Bytes.create (List.fold_left size 0 fields) in
  let rec fill off = function
    | [] -> ()
    | f :: rest ->
      let n = String.length f in
      let width = header_width n in
      blit_digits b off ~width n;
      Bytes.unsafe_blit_string f 0 b (off + width) n;
      fill (off + width + n) rest
  in
  fill 0 fields;
  Bytes.unsafe_to_string b

let decode s =
  let len = String.length s in
  let rec go off acc =
    if off = len then Some (List.rev acc)
    else
      match length_at s off with
      | Some n when n >= 0 && off + prefix_len + n <= len ->
        go (off + prefix_len + n) (String.sub s (off + prefix_len) n :: acc)
      | _ -> None
  in
  go 0 []

let tagged tag fields = encode (tag :: fields)

let untag s =
  match decode s with
  | Some (tag :: fields) -> Some (tag, fields)
  | Some [] | None -> None
