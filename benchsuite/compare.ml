(* compare.exe BASE NEW — diffs two files of `suite.exe run` summaries
   (one or more runs each). For every (workload, end-to-end metric) it
   prints the base and new medians, the change, the metric's bound and a
   verdict: better, same, worse, or unresolved when the run-to-run
   spread exceeds the bound. Exits 1 on any "worse" or on any rise in a
   workload's failure share. *)

let () =
  match Array.to_list Sys.argv with
  | [ _; base; fresh ] ->
    let report, ok = Cmp.compare_files base fresh in
    print_string report;
    exit (if ok then 0 else 1)
  | _ ->
    prerr_endline "usage: compare.exe BASE NEW";
    exit 2
