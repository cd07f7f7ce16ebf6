type t = {
  first_page : int;
  pages : int;
  mutable free_list : int list;
  allocated : (int, unit) Hashtbl.t;
}

let create ~first_page ~pages =
  if pages <= 0 || first_page < 0 then invalid_arg "Frame_alloc.create";
  { first_page;
    pages;
    free_list = List.init pages (fun i -> first_page + i);
    allocated = Hashtbl.create 64 }

let alloc t =
  match t.free_list with
  | [] -> None
  | page :: rest ->
    t.free_list <- rest;
    Hashtbl.replace t.allocated page ();
    Some page

let alloc_n t n =
  if List.length t.free_list < n then None
  else begin
    let rec take acc k = if k = 0 then List.rev acc else
        match alloc t with
        | Some p -> take (p :: acc) (k - 1)
        | None -> assert false
    in
    Some (take [] n)
  end

let free t page =
  if page < t.first_page || page >= t.first_page + t.pages then
    invalid_arg "Frame_alloc.free: frame not owned";
  if not (Hashtbl.mem t.allocated page) then
    invalid_arg "Frame_alloc.free: double free";
  Hashtbl.remove t.allocated page;
  t.free_list <- page :: t.free_list

type refusal = Too_few | Fragmented

let alloc_contiguous t n =
  if n <= 0 then invalid_arg "Frame_alloc.alloc_contiguous: need frames";
  match alloc_n t n with
  | None -> Error Too_few
  | Some frames ->
    let base = List.fold_left min max_int frames in
    if List.for_all (fun p -> p - base < n) frames then Ok base
    else begin
      (* give the frames back in reverse, so the free list is exactly
         what it was before [alloc_n] *)
      List.iter (free t) (List.rev frames);
      Error Fragmented
    end

let free_count t = List.length t.free_list

let total t = t.pages

let take_snapshot t =
  let free = t.free_list in
  let alloc = Lt_world.Snapshottable.save_hashtbl t.allocated in
  fun () ->
    t.free_list <- free;
    alloc ()

let state_digest t =
  let open Lt_world in
  let d = List.fold_left Digest64.int (Digest64.int Digest64.basis t.pages) t.free_list in
  Snapshottable.digest_hashtbl ~key:string_of_int ~value:(fun () -> "") t.allocated d
