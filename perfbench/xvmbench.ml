(* Benchmark driver: one workload per process, on one domain.

     xvmbench --workload NAME --seed N --seconds S --trace 0|1
     xvmbench --describe --workload NAME --seed N

   The last line of standard output is the JSON result. [--describe]
   prints the digests of the generated inputs and the node count around
   one statement cycle (used by the self-tests). [--inject view|answer]
   corrupts a view or an answer before a correctness check, so the
   self-tests can see the checks fail. [--check-every N] sets how many
   reads apart the sampled checks of bulk-uniform and skew-hot run
   (default 20: at least once in every process of a run). See NOTES.md. *)

open Bstats
open Workloads

let workloads = [ "bulk-uniform"; "skew-hot"; "serve-durable" ]

let usage () =
  prerr_endline
    "usage: xvmbench --workload bulk-uniform|skew-hot|serve-durable --seed N \
     --seconds S --trace 0|1 [--describe] [--inject view|answer] \
     [--check-every N]";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.
  and trace = ref 0 and describe = ref false and inject = ref No_inject
  and check_every = ref 20 in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: t :: rest -> trace := int_of_string t; parse rest
    | "--describe" :: rest -> describe := true; parse rest
    | "--inject" :: "view" :: rest -> inject := Wrong_view; parse rest
    | "--inject" :: "answer" :: rest -> inject := Wrong_answer; parse rest
    | "--check-every" :: n :: rest -> check_every := int_of_string n; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if (not (List.mem !workload workloads)) || !seed < 0 || !check_every < 1
     || ((not !describe) && (!seconds <= 0. || (!trace <> 0 && !trace <> 1)))
  then usage ();
  let seed = !seed in
  if !describe then begin
    let doc, stream =
      match !workload with
      | "bulk-uniform" -> (Xmark_gen.document ~seed ~target_kb:2048, bulk_stream)
      | "skew-hot" ->
        ( Xmark_gen.document_skewed ~skew:skew_profile
            ~seed:(List.hd (skew_seeds seed)) ~target_kb:256 (),
          skew_stream )
      | _ -> (Xmark_gen.document ~seed ~target_kb:256, serve_stream)
    in
    let store = Store.of_document doc in
    let before = Store.node_count store in
    Array.iter
      (fun t ->
        ignore (Maint.apply_only store (Update.parse t));
        Store.commit store)
      stream;
    Printf.printf "document %s\nstatements %s\nnodes %d %d\n"
      (Digest.to_hex (Digest.string (Xml_tree.serialize doc)))
      (Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list stream))))
      before (Store.node_count store);
    exit 0
  end;
  let mode = if !trace = 1 then Traced else Untraced in
  let c = checks () in
  let work = ".perfbench_work" in
  (try Unix.mkdir work 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat work (Printf.sprintf "wal-%d" (Unix.getpid ())) in
  Printf.printf "workload %s seed %d seconds %g trace %d\n%!" !workload seed
    !seconds !trace;
  let m =
    Fun.protect
      ~finally:(fun () ->
        List.iter rm_rf [ dir; dir ^ "-setup"; dir ^ "-fixture" ];
        try Unix.rmdir work with Unix.Unix_error _ -> ())
      (fun () ->
        match !workload with
        | "bulk-uniform" ->
          (* run.py pools four processes: 4 × 28 reads leave 11 beyond p90 *)
          closed_workload ~setup:bulk_setup ~seeds:[ seed ] ~tick_every:1.5
            ~setup_every:3 ~min_reads:28 ~trace_cycles:1 ~inject:!inject
            ~check_every:!check_every ~mode
            ~seconds:!seconds c
        | "skew-hot" ->
          (* run.py pools five processes: 5 × 24 reads leave 12 beyond p90 *)
          closed_workload ~setup:skew_setup ~seeds:(skew_seeds seed) ~tick_every:1.
            ~setup_every:2 ~min_reads:24 ~trace_cycles:12 ~inject:!inject
            ~check_every:!check_every ~mode
            ~seconds:!seconds c
        | _ ->
          serve_workload ~seed ~dir ~tick_every:1.5 ~mode ~seconds:!seconds
            ~inject:!inject c)
  in
  (match m with
  | Per_layer m ->
    put m "error_rate" "ratio"
      (float_of_int c.failed /. float_of_int (max 1 c.attempted));
    print_result c (metrics_json m)
  | Raw fields -> print_result c (samples_json fields));
  exit (if c.failed = 0 then 0 else 1)
