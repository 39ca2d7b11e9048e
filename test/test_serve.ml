(* Tests for the serving layer: epoch-tagged snapshot publication,
   snapshot isolation under concurrent commits (deterministic and
   randomized via the difftest serve oracle), structure sharing across
   epochs, the admission queue's drain-on-stop contract, the Prometheus
   endpoint, and the load driver's accounting. *)

let n = Pattern.n

let doc_text =
  {|<r><a>x<b>1</b><b>2</b></a><c><d>y</d></c><a><b>3</b></a><e k="v">z</e></r>|}

let v_ab name = Pattern.compile ~name (n "a" ~id:true [ n "b" ~id:true [] ])
let v_cd name = Pattern.compile ~name (n "c" ~id:true [ n "d" ~id:true [] ])

let fresh_set () =
  let store = Store.of_document (Xml_parse.document doc_text) in
  let set = View_set.create store in
  ignore (View_set.add set (v_ab "ab"));
  ignore (View_set.add set (v_cd "cd"));
  set

let stmts =
  [
    Update.insert ~into:"/r/a" "<b>9</b>";
    Update.delete "/r/c/d";
    Update.insert ~into:"/r" "<c><d>w</d></c>";
    Update.delete "//b";
  ]

(* Sequential oracle: a fresh set with the first [k] statements
   applied, captured as a snapshot. *)
let oracle_at k =
  let set = fresh_set () in
  List.iteri (fun i u -> if i < k then ignore (View_set.update set u)) stmts;
  Snapshot.initial set

let check_views_equal what got want =
  Array.iter2
    (fun (g : Snapshot.view) (w : Snapshot.view) ->
      match Snapshot.view_diff g w with
      | None -> ()
      | Some d ->
        Alcotest.failf "%s: view %s diverged from oracle: %s" what
          g.Snapshot.v_name d)
    got.Snapshot.views want.Snapshot.views

(* {1 Snapshot isolation, deterministic}

   A reader holds the epoch-0 snapshot across every subsequent commit;
   it must stay tuple-for-tuple identical to the pre-update oracle, and
   every published epoch must equal the sequential oracle at its
   [applied] watermark. *)

let test_isolation_across_commits () =
  let server = Server.create ~max_batch:1 (fresh_set ()) in
  let held = Server.snapshot server in
  Alcotest.(check int) "initial epoch" 0 held.Snapshot.epoch;
  List.iteri
    (fun i u ->
      Alcotest.(check bool) "admitted" true (Server.submit server u);
      Alcotest.(check int) "batch of one" 1 (Server.step server);
      let s = Server.snapshot server in
      Alcotest.(check int) "epoch bumps by one" (i + 1) s.Snapshot.epoch;
      Alcotest.(check int) "applied watermark" (i + 1) s.Snapshot.applied;
      check_views_equal
        (Printf.sprintf "epoch %d" (i + 1))
        s
        (oracle_at (i + 1));
      (* The held epoch-0 snapshot is immutable: still pre-update. *)
      check_views_equal "held epoch 0" held (oracle_at 0))
    stmts;
  Alcotest.(check int) "empty step is a no-op" 0 (Server.step server)

(* {1 view_diff on adversarial inputs}

   The comparison oracle itself must be trustworthy at its edges: empty
   views, single tuples, and views that agree everywhere except the very
   last tuple (the off-by-one a naive loop bound would miss). Views are
   built by hand — the point is the comparator, not the capture path. *)

let mk_view tuples =
  {
    Snapshot.v_name = "v";
    v_pattern = "-";
    v_tuples = Array.of_list tuples;
    v_total = List.fold_left (fun a t -> a + t.Snapshot.t_count) 0 tuples;
  }

let tup ?(count = 1) key cells =
  { Snapshot.t_key = key; t_count = count; t_cells = Array.of_list cells }

let test_view_diff_adversarial () =
  let id1 = Dewey.root ~lab:1 in
  let id2 = Dewey.child id1 ~lab:2 ~ord:[| 1 |] in
  let id3 = Dewey.child id1 ~lab:2 ~ord:[| 2 |] in
  let cell ?v ?c id = (id, v, c) in
  (* Empty vs empty, empty vs single. *)
  let empty = mk_view [] in
  let single = mk_view [ tup "k" [ cell ~v:"x" id1 ] ] in
  Alcotest.(check (option string)) "empty = empty" None
    (Snapshot.view_diff empty empty);
  Alcotest.(check bool) "empty = empty (equal)" true
    (Snapshot.view_equal empty empty);
  Alcotest.(check (option string)) "single = single" None
    (Snapshot.view_diff single single);
  (match Snapshot.view_diff empty single with
  | Some d ->
    Alcotest.(check bool) "0 vs 1 names cardinality" true
      (d = "cardinality 0 vs 1")
  | None -> Alcotest.fail "empty vs single-tuple not detected");
  (match Snapshot.view_diff single empty with
  | Some d ->
    Alcotest.(check bool) "1 vs 0 names cardinality" true
      (d = "cardinality 1 vs 0")
  | None -> Alcotest.fail "single-tuple vs empty not detected");
  (* Same cardinality, divergence only in the LAST tuple — once per
     divergence channel: payload, derivation count, identifier, key. *)
  let base = [ tup "a" [ cell id1 ]; tup "b" [ cell id2 ] ] in
  let with_last t = mk_view (base @ [ t ]) in
  let check_last what a b =
    Alcotest.(check bool) (what ^ ": equal is false") false
      (Snapshot.view_equal a b);
    match Snapshot.view_diff a b with
    | Some d ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: diff points at last tuple (%s)" what d)
        true
        (String.length d >= 7 && String.sub d 0 7 = "tuple 2")
    | None -> Alcotest.failf "%s: last-tuple divergence missed" what
  in
  check_last "payload"
    (with_last (tup "z" [ cell ~v:"1" id3 ]))
    (with_last (tup "z" [ cell ~v:"2" id3 ]));
  check_last "count"
    (with_last (tup ~count:1 "z" [ cell id3 ]))
    (with_last (tup ~count:2 "z" [ cell id3 ]));
  check_last "identifier"
    (with_last (tup "z" [ cell id2 ]))
    (with_last (tup "z" [ cell id3 ]));
  check_last "key"
    (with_last (tup "z1" [ cell id3 ]))
    (with_last (tup "z2" [ cell id3 ]));
  (* None-vs-Some payloads must not compare equal. *)
  check_last "absent payload"
    (with_last (tup "z" [ cell id3 ]))
    (with_last (tup "z" [ cell ~c:"" id3 ]))

(* {1 Structure sharing}

   A view the statement provably cannot touch keeps its physical tuple
   array across the epoch bump; a touched view gets fresh arrays. *)

let test_structure_sharing () =
  let server = Server.create ~max_batch:1 (fresh_set ()) in
  let s0 = Server.snapshot server in
  (* /r/c/d insertion of <f/> is irrelevant to both a/b and c/d?  No:
     it touches the c/d subtree but inserts only f-labeled nodes, so
     both footprints are disjoint — both views must share. *)
  ignore (Server.submit server (Update.insert ~into:"/r/c/d" "<f/>"));
  ignore (Server.step server);
  let s1 = Server.snapshot server in
  Alcotest.(check int) "epoch advanced" 1 s1.Snapshot.epoch;
  Array.iter2
    (fun (v0 : Snapshot.view) (v1 : Snapshot.view) ->
      Alcotest.(check bool)
        (Printf.sprintf "view %s shares tuples across epochs"
           v0.Snapshot.v_name)
        true
        (v0.Snapshot.v_tuples == v1.Snapshot.v_tuples))
    s0.Snapshot.views s1.Snapshot.views;
  (* A b-insertion touches ab but not cd: ab re-captured, cd shared. *)
  ignore (Server.submit server (Update.insert ~into:"/r/a" "<b>8</b>"));
  ignore (Server.step server);
  let s2 = Server.snapshot server in
  let find s name =
    match Snapshot.find_view s name with
    | Some v -> v
    | None -> Alcotest.failf "view %s missing" name
  in
  Alcotest.(check bool) "touched view re-captured" false
    ((find s1 "ab").Snapshot.v_tuples == (find s2 "ab").Snapshot.v_tuples);
  Alcotest.(check bool) "untouched view still shared" true
    ((find s1 "cd").Snapshot.v_tuples == (find s2 "cd").Snapshot.v_tuples);
  check_views_equal "epoch 2 contents" s2
    (let set = fresh_set () in
     ignore (View_set.update set (Update.insert ~into:"/r/c/d" "<f/>"));
     ignore (View_set.update set (Update.insert ~into:"/r/a" "<b>8</b>"));
     Snapshot.initial set)

(* {1 Admission queue: run drains, stop refuses} *)

let test_run_drains_and_stop_refuses () =
  let server = Server.create ~max_batch:3 (fresh_set ()) in
  List.iter (fun u -> ignore (Server.submit server u)) stmts;
  Alcotest.(check int) "queue holds the batch" (List.length stmts)
    (Server.pending server);
  Server.stop server;
  Alcotest.(check bool) "submit after stop refused" false
    (Server.submit server (Update.delete "//b"));
  Server.run server;
  let s = Server.snapshot server in
  Alcotest.(check int) "run drained everything" (List.length stmts)
    s.Snapshot.applied;
  Alcotest.(check int) "nothing pending" 0 (Server.pending server);
  Alcotest.(check int) "max_batch respected" 2 (Server.batches server);
  check_views_equal "drained contents" s (oracle_at (List.length stmts));
  (* The publication log is consistent: monotone epochs and watermarks. *)
  let log = Server.publish_log server in
  Alcotest.(check int) "one log entry per batch" (Server.batches server)
    (List.length log);
  ignore
    (List.fold_left
       (fun (pe, pa, pt) p ->
         let e = p.Server.p_epoch
         and a = p.Server.p_applied
         and t = p.Server.p_time in
         Alcotest.(check bool) "epochs increase" true (e > pe);
         Alcotest.(check bool) "applied increases" true (a > pa);
         Alcotest.(check bool) "publication times non-decreasing" true
           (t >= pt);
         Alcotest.(check int) "non-durable watermark" (-1) p.Server.p_durable_seq;
         (e, a, t))
       (0, 0, 0.) log)

(* {1 Randomized concurrent oracle} *)

let test_serve_difftest () =
  let r = Difftest.run Difftest.Serve ~seed:7 ~iters:40 () in
  List.iter print_endline r.Qgen.failures;
  Alcotest.(check int) "iterations" 40 r.Qgen.iterations;
  Alcotest.(check int) "isolation violations" 0 r.Qgen.failed

(* {1 Prometheus endpoint} *)

let test_prometheus_endpoint () =
  let prev = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled prev)
    (fun () ->
      let server = Server.create (fresh_set ()) in
      ignore (Server.submit server (Update.insert ~into:"/r/a" "<b>7</b>"));
      ignore (Server.step server);
      let contains hay needle =
        let n = String.length needle and l = String.length hay in
        let rec at i = i + n <= l && (String.sub hay i n = needle || at (i + 1)) in
        at 0
      in
      let body = Server.prometheus server in
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "exposition has %s" needle)
            true (contains body needle))
        [
          "xvm_serve_epoch 1";
          "xvm_serve_applied_statements 1";
          "xvm_serve_pending_updates 0";
          "xvm_dewey_arena_";
          "xvm_maint_work_";
          "xvm_serve_view_tuples{view=\"ab\"}";
        ];
      let ep = Metrics_http.start ~port:0 (fun () -> Server.prometheus server) in
      Fun.protect
        ~finally:(fun () -> Metrics_http.stop ep)
        (fun () ->
          let code, got = Metrics_http.get ~port:(Metrics_http.port ep) "/metrics" in
          Alcotest.(check int) "GET /metrics is 200" 200 code;
          Alcotest.(check bool) "scraped body is the exposition" true
            (contains got "xvm_serve_epoch 1");
          let code404, _ = Metrics_http.get ~port:(Metrics_http.port ep) "/nope" in
          Alcotest.(check int) "unknown path is 404" 404 code404);
      Metrics_http.stop ep (* idempotent *))

(* {1 Load driver} *)

let test_percentiles () =
  let sorted = [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. |] in
  Alcotest.(check (float 1e-9)) "p50" 5. (Load.percentile sorted 0.5);
  Alcotest.(check (float 1e-9)) "p95" 10. (Load.percentile sorted 0.95);
  Alcotest.(check (float 1e-9)) "p99" 10. (Load.percentile sorted 0.99);
  Alcotest.(check (float 1e-9)) "p0 clamps" 1. (Load.percentile sorted 0.);
  Alcotest.(check (float 1e-9)) "singleton" 7. (Load.percentile [| 7. |] 0.99)

let test_load_driver () =
  let gen i =
    if i mod 2 = 0 then Update.insert ~into:"/r/a" "<b>l</b>"
    else Update.delete "/r/a/b[1]"
  in
  let config =
    {
      Load.default with
      Load.readers = 2;
      duration = 0.3;
      write_rate = 100.;
      max_batch = 8;
      seed = 42;
    }
  in
  let r = Load.run config (fresh_set ()) ~gen in
  Alcotest.(check bool) "readers made progress" true (r.Load.reads > 0);
  Alcotest.(check bool) "read latencies recorded" true (r.Load.read_ms <> None);
  Alcotest.(check bool) "writer made progress" true (r.Load.writes_applied > 0);
  Alcotest.(check int) "no statement lost" r.Load.writes_submitted
    r.Load.writes_applied;
  Alcotest.(check bool) "visibility latencies recorded" true
    (r.Load.write_visible_ms <> None);
  (match r.Load.read_ms with
  | Some l ->
    Alcotest.(check bool) "p50 <= p95 <= p99 <= max" true
      (l.Load.p50 <= l.Load.p95 && l.Load.p95 <= l.Load.p99
     && l.Load.p99 <= l.Load.max)
  | None -> ());
  Alcotest.(check bool) "epochs published" true (r.Load.epochs > 0);
  Alcotest.(check bool) "batch fill within bound" true
    (r.Load.max_batch_fill <= 8);
  (* Closed loop: every submission waits for visibility. *)
  let rc =
    Load.run
      { config with Load.write_rate = 0.; closed_loop = true; readers = 1 }
      (fresh_set ()) ~gen
  in
  Alcotest.(check bool) "closed loop applied writes" true
    (rc.Load.writes_applied > 0)

exception Journal_failed

(* A failure inside the serving loop (here the journal hook, raising on
   the 3rd statement) reaches the caller of [Load.run], open- and
   closed-loop, well before the configured duration runs out, and only
   once every reader, submitter and timer domain has stopped: while the
   caller then sleeps, the process uses next to no CPU time (a reader
   left polling snapshots would use all of it). *)
let test_load_failure_joins () =
  let gen i =
    if i mod 2 = 0 then Update.insert ~into:"/r/a" "<b>l</b>"
    else Update.delete "/r/a/b[1]"
  in
  let config =
    { Load.default with Load.readers = 2; duration = 3.; write_rate = 200.; seed = 7 }
  in
  List.iter
    (fun (what, config) ->
      let set = fresh_set () in
      let journaled = ref 0 in
      View_set.set_journal set
        (Some
           (fun _ ->
             incr journaled;
             if !journaled = 3 then raise Journal_failed));
      let t0 = Unix.gettimeofday () in
      (match Load.run config set ~gen with
      | _ -> Alcotest.failf "%s: Load.run returned normally" what
      | exception Journal_failed -> ());
      let elapsed = Unix.gettimeofday () -. t0 in
      if elapsed >= config.Load.duration then
        Alcotest.failf "%s: Load.run took %.2f s of a %.0f s run" what elapsed
          config.Load.duration;
      let cpu0 = Sys.time () in
      Unix.sleepf 0.2;
      let cpu = Sys.time () -. cpu0 in
      if cpu > 0.1 then
        Alcotest.failf "%s: %.2f s of CPU time in a 0.2 s sleep after Load.run" what cpu)
    [
      ("open loop", config);
      ("closed loop", { config with Load.write_rate = 0.; closed_loop = true });
    ]

let () =
  Alcotest.run "serve"
    [
      ( "snapshots",
        [
          Alcotest.test_case "isolation across commits" `Quick
            test_isolation_across_commits;
          Alcotest.test_case "view_diff adversarial" `Quick
            test_view_diff_adversarial;
          Alcotest.test_case "structure sharing" `Quick test_structure_sharing;
          Alcotest.test_case "run drains, stop refuses" `Quick
            test_run_drains_and_stop_refuses;
        ] );
      ( "concurrent",
        [
          Alcotest.test_case "difftest serve oracle" `Quick test_serve_difftest;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "prometheus endpoint" `Quick
            test_prometheus_endpoint;
        ] );
      ( "load",
        [
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "load driver smoke" `Quick test_load_driver;
          Alcotest.test_case "serving failure joins domains" `Quick
            test_load_failure_joins;
        ] );
    ]
