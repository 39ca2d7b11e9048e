(* The differential maintenance oracle under test: bounded seeded runs
   must be clean, the replay pipeline must be lossless, degenerate
   updates must leave all three engines in agreement, an intentionally
   broken engine must be caught and shrunk to a tiny reproducer, and
   the three engines must agree tuple-for-tuple on every XMark
   view/update pair of the paper's evaluation. *)

(* {1 Bounded seeded runs} *)

let clean_run prop ~iters () =
  let r = Difftest.run prop ~seed:7 ~iters () in
  List.iter print_endline r.Qgen.failures;
  Alcotest.(check int) "iterations" iters r.Qgen.iterations;
  Alcotest.(check int) "mismatches" 0 r.Qgen.failed

let test_bounded_run = clean_run Difftest.Engines ~iters:400

(* The multi-view set oracle: batched [View_set.update] against
   one-by-one propagation. *)
let test_bounded_set_run = clean_run Difftest.Batch ~iters:150

(* The heavy-light oracle: adaptive (deferred, partitioned) maintenance
   against eager, tuple-for-tuple at every seeded read point, under
   deliberately tiny thresholds that force rebalance storms and budget
   drains. *)
let test_bounded_heavy_run = clean_run Difftest.Heavy ~iters:150

(* {1 Compact view syntax} *)

let compact_roundtrip pat =
  let s = Pattern.to_string pat in
  Pattern.to_string (Difftest.view_of_compact ~name:"rt" s) = s

let test_compact_examples () =
  List.iter
    (fun s ->
      let pat = Difftest.view_of_compact ~name:"ex" s in
      Alcotest.(check string) ("round-trip " ^ s) s (Pattern.to_string pat))
    [
      "//a";
      "/a{id}";
      "//a{id,val}";
      "//a[val='x y']{id}";
      "//site{id}[/people[//person[val='z']{id,cont}]][//item{id}]";
      "//*{id,cont}[/@k{id,val}]";
    ];
  List.iter
    (fun s ->
      match Difftest.view_of_compact ~name:"bad" s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "malformed %S accepted" s)
    [ ""; "a"; "//"; "//a{id"; "//a[val='x]"; "//a[b]"; "//a{id}junk" ]

let test_compact_qcheck =
  Tutil.qtest ~count:500 "view_of_compact inverts Pattern.to_string"
    Tutil.arb_pattern compact_roundtrip

(* {1 Reproducers} *)

(* A scenario is valid when its reproducer decodes to the same
   scenario, its read points name existing statements and views, and
   checkpoint ≤ crash ≤ statements. *)
let check_valid what (s : Difftest.scenario) =
  let r = Difftest.to_repro s in
  let s' =
    match Difftest.of_repro r with
    | s' -> s'
    | exception Invalid_argument msg -> Alcotest.failf "%s: %s rejected: %s" what r msg
  in
  Alcotest.(check string) (what ^ ": reproducer round-trips") r (Difftest.to_repro s');
  Alcotest.(check bool) (what ^ ": property survives") true
    (s.Difftest.prop = s'.Difftest.prop);
  Alcotest.(check bool) (what ^ ": document survives") true
    (Xml_tree.equal s.Difftest.doc s'.Difftest.doc);
  let names (v : Pattern.t list) = List.map (fun p -> p.Pattern.name) v in
  Alcotest.(check (list string)) (what ^ ": view names survive")
    (names s.Difftest.views) (names s'.Difftest.views);
  let n = List.length s.Difftest.stmts and k = List.length s.Difftest.views in
  Option.iter
    (fun (h : Difftest.heavy) ->
      List.iter
        (fun (i, w) ->
          if i < 0 || i >= n || w < -1 || w >= k then
            Alcotest.failf "%s: read point %d/%d outside %d statements, %d views" what
              i w n k)
        h.Difftest.reads)
    s.Difftest.heavy;
  Option.iter
    (fun (c : Difftest.crash) ->
      let ck = Option.value c.Difftest.checkpoint_at ~default:0 in
      if not (0 <= ck && ck <= c.Difftest.crash_after && c.Difftest.crash_after <= n)
      then
        Alcotest.failf "%s: checkpoint %d, crash %d, %d statements" what ck
          c.Difftest.crash_after n)
    s.Difftest.crash

(* One round trip for every property: 200 generated scenarios each. *)
let test_repro_roundtrip () =
  List.iter
    (fun (name, prop) ->
      let rnd = Random.State.make [| 2718; String.length name |] in
      for i = 1 to 200 do
        check_valid (Printf.sprintf "%s %d" name i) (Difftest.gen prop rnd)
      done)
    Difftest.properties

(* The view-set round trip: every view of a generated [Batch] scenario
   decodes to the same pattern, in the same order. *)
let test_set_repro_roundtrip () =
  let rnd = Random.State.make [| 0x5e7; 3 |] in
  for i = 1 to 100 do
    let s = Difftest.gen Difftest.Batch rnd in
    check_valid (Printf.sprintf "batch %d" i) s;
    let s' = Difftest.of_repro (Difftest.to_repro s) in
    Alcotest.(check (list string)) "views preserved"
      (List.map Pattern.to_string s.Difftest.views)
      (List.map Pattern.to_string s'.Difftest.views);
    Alcotest.(check (list string)) "statements preserved" s.Difftest.stmts
      s'.Difftest.stmts
  done

(* The heavy-light round trip: the budgets and the read points of a
   generated [Heavy] scenario decode unchanged. *)
let test_heavy_repro_roundtrip () =
  let rnd = Random.State.make [| 0x4ea; 5 |] in
  for i = 1 to 100 do
    let s = Difftest.gen Difftest.Heavy rnd in
    check_valid (Printf.sprintf "heavy %d" i) s;
    let s' = Difftest.of_repro (Difftest.to_repro s) in
    match (s.Difftest.heavy, s'.Difftest.heavy) with
    | Some h, Some h' ->
      Alcotest.(check (list (pair int int))) "read points preserved" h.Difftest.reads
        h'.Difftest.reads;
      Alcotest.(check (list int)) "budgets preserved"
        Difftest.[ h.heavy_count; h.heavy_fanout; h.drain_budget; h.tail_budget ]
        Difftest.[ h'.heavy_count; h'.heavy_fanout; h'.drain_budget; h'.tail_budget ]
    | None, _ -> Alcotest.fail "generated heavy scenario has no heavy field group"
    | Some _, None -> Alcotest.fail "heavy field group lost in the round trip"
  done

let part x = Printf.sprintf "%d:%s" (String.length x) x

let repro ?(query = "") ?(heavy = "") ?(crash = "") ?(doc = "<r><a/><b/></r>") prop
    views stmts =
  String.concat "|"
    ([ "xvmdt2"; prop; string_of_int (List.length views) ]
    @ List.map part views
    @ (string_of_int (List.length stmts) :: List.map part stmts)
    @ [ part query; part heavy; part crash; part doc ])

let two_views = [ "//a{id}"; "//b{id}" ]

let two_stmts = [ "delete //a"; "insert into /r <a/>" ]

let test_repro_malformed () =
  (* Controls: well-formed reproducers of every field group decode. *)
  List.iter
    (fun r -> ignore (Difftest.of_repro r))
    [
      repro "engines" [ "//a{id}" ] [ "delete //a" ];
      repro "batch" two_views [ "delete //a" ];
      repro "serve" two_views two_stmts;
      repro "answer" two_views [ "delete //a" ] ~query:"//a{id}";
      repro "heavy" two_views two_stmts ~heavy:"1,2,3,4;0/1,1/-1";
      repro "heavy" two_views two_stmts ~heavy:"1,2,3,4;";
      repro "recover" two_views two_stmts ~crash:"2,1,0";
      repro "recover" two_views two_stmts ~crash:"1,-,1";
    ];
  let rejected ?needle r =
    match Difftest.of_repro r with
    | _ -> Alcotest.failf "malformed reproducer %S accepted" r
    | exception Invalid_argument msg -> (
      match needle with
      | Some nd when not (Tutil.contains msg nd) ->
        Alcotest.failf "rejection of %S does not name %s: %s" r nd msg
      | _ -> ())
  in
  (* The older formats are refused by name. *)
  List.iter (rejected ~needle:"xvmdt2")
    [
      "xvmdt1|4://a|9:delete //a|4:<a/>";
      "xvmdtm1|2|4://a|4://b|9:delete //a|4:<a/>";
      "xvmdta1|1|4://a|4://a|9:delete //a|4:<a/>";
      "xvmdth1|7:1,2,3,4|0:|1|4://a|1|9:delete //a|4:<a/>";
    ];
  let ok = repro "serve" two_views two_stmts in
  List.iter rejected
    [
      "";
      "xvmdt2|";
      "xvmdt2|bogus|1|7://a{id}|1|10:delete //a|0:|0:|0:|4:<a/>";
      (* truncated lengths and trailing input *)
      String.sub ok 0 (String.length ok - 1);
      ok ^ "|";
      ok ^ "x";
      "xvmdt2|batch|2|99://a{id}|7://b{id}|1|10:delete //a|0:|0:|0:|4:<a/>";
      "xvmdt2|batch|2|7://a{id}|7://b{id}|1|10:delete //a|0:|0:|0:|999:<a/>";
      "xvmdt2|batch|2|7://a{id}|7://b{id}|1|-1:|0:|0:|0:|4:<a/>";
      (* view and statement counts *)
      repro "batch" (List.init 65 (fun _ -> "//a{id}")) [ "delete //a" ];
      repro "batch" [] [ "delete //a" ];
      repro "engines" two_views [ "delete //a" ];
      repro "batch" two_views two_stmts;
      repro "serve" two_views [];
      (* read points out of range *)
      repro "heavy" two_views two_stmts ~heavy:"1,2,3,4;2/0";
      repro "heavy" two_views two_stmts ~heavy:"1,2,3,4;0/2";
      repro "heavy" two_views two_stmts ~heavy:"1,2,3,4;0/-2";
      repro "heavy" two_views two_stmts ~heavy:"1,2,3,4;-1/0";
      (* crash and checkpoint out of order *)
      repro "recover" two_views two_stmts ~crash:"3,-,0";
      repro "recover" two_views two_stmts ~crash:"1,2,0";
      repro "recover" two_views two_stmts ~crash:"2,-,1";
      repro "recover" two_views two_stmts ~crash:"-1,-,0";
      (* thresholds *)
      repro "heavy" two_views two_stmts ~heavy:"0,2,3,4;";
      repro "heavy" two_views two_stmts ~heavy:"1,2,3,0;";
      repro "heavy" two_views two_stmts ~heavy:"1,2,3;";
      (* field groups that do not match the property *)
      repro "answer" two_views [ "delete //a" ];
      repro "batch" two_views [ "delete //a" ] ~query:"//a{id}";
      repro "heavy" two_views two_stmts;
      repro "recover" two_views two_stmts;
      repro "serve" two_views two_stmts ~crash:"1,-,0";
      (* unparseable parts *)
      repro "batch" two_views [ "frobnicate //a" ];
      repro "batch" [ "a{id}"; "//b" ] [ "delete //a" ];
      repro "batch" two_views [ "delete //a" ] ~doc:"<a>";
    ]

(* {1 Degenerate updates: all engines agree, known cardinality} *)

let engines_scenario ~doc ~view ~update =
  Difftest.of_repro (repro "engines" [ view ] [ update ] ~doc)

let known_case name ~doc ~view ~update ~cards () =
  let s = engines_scenario ~doc ~view ~update in
  (match Difftest.check s with
  | None -> ()
  | Some f -> Alcotest.fail (Difftest.describe f));
  let mv =
    Difftest.recompute_engine.Difftest.eval (Xml_tree.copy s.Difftest.doc)
      (List.hd s.Difftest.views) (Update.parse update)
  in
  Alcotest.(check int) (name ^ " cardinality") cards (Mview.cardinality mv)

let degenerate_cases =
  List.map
    (fun (name, doc, view, update, cards) ->
      Alcotest.test_case name `Quick
        (known_case name ~doc ~view ~update ~cards))
    [
      (* empty target set: the update is a no-op *)
      ("empty target delete", "<a><b/><b/></a>", "//b{id}", "delete //zz", 2);
      ("empty target insert", "<a><b/></a>", "//b{id}", "insert into //zz <b/>", 1);
      (* root children *)
      ("insert under root", "<a><b/></a>", "//b{id}", "insert into /a <b/><b/>", 3);
      ("delete root child", "<a><b/><c><b/></c></a>", "//b{id}", "delete /a/c", 1);
      (* the document root itself *)
      ("delete root", "<a><b/></a>", "//b{id}", "delete /a", 0);
      (* nested/overlapping target subtrees *)
      ( "overlapping delete",
        "<a><b><b><c/></b></b><c/></a>",
        "//c{id}",
        "delete //b",
        1 );
      ( "nested insert targets",
        "<a><b><b/></b></a>",
        "//c{id}",
        "insert into //b <c/>",
        2 );
      (* same node bound at several view positions after one insert *)
      ("self-join insert", "<d/>", "/d[//d{id}][//d{id}]", "insert into //d <d/>", 1);
    ]

(* {1 The shrinker} *)

(* "Maintenance" that never maintains: it evaluates the view over the
   pre-update document and ignores the update entirely. *)
let broken_engine =
  {
    Difftest.ename = "frozen";
    eval =
      (fun doc pat _u -> Mview.materialize (Store.of_document doc) pat);
  }

let find_failure ~engines ~seed ~tries =
  let rnd = Random.State.make seed in
  let rec find n =
    if n = 0 then Alcotest.failf "broken engine not caught in %d scenarios" tries
    else
      match Difftest.check ~engines (Difftest.gen Difftest.Engines rnd) with
      | Some f -> f
      | None -> find (n - 1)
  in
  find tries

(* The replay line a report prints (its last line), shell-unquoted and
   decoded: the reproducer is wrapped in '…' with each ' written '\''. *)
let replayed d =
  let needle = "replay: xvmcli difftest --replay '" in
  let rec unquote s =
    match Tutil.find_sub s "'\\''" with
    | None -> s
    | Some i ->
      String.sub s 0 i ^ "'" ^ unquote (String.sub s (i + 4) (String.length s - i - 4))
  in
  match Tutil.find_sub d needle with
  | None -> Alcotest.failf "no replay line in:\n%s" d
  | Some i ->
    let st = i + String.length needle in
    Difftest.of_repro (unquote (String.sub d st (String.length d - st - 1)))

let test_broken_engine_shrunk () =
  let engines = [ Difftest.recompute_engine; broken_engine ] in
  let f = Difftest.shrink ~engines (find_failure ~engines ~seed:[| 2024 |] ~tries:300) in
  let nodes = Xml_tree.size f.Difftest.cx.Difftest.doc in
  if nodes > 5 then
    Alcotest.failf "shrunk reproducer still has %d nodes:\n%s" nodes
      (Difftest.describe f);
  (* The report names both engines, and its replay line decodes to a
     scenario with the same verdicts. *)
  let d = Difftest.describe f in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "describe mentions %S" needle)
        true (Tutil.contains d needle))
    [ "frozen"; "recompute"; "replay: xvmcli difftest --replay" ];
  let cx' = replayed d in
  Alcotest.(check bool) "replayed scenario still fails the broken engine" true
    (Difftest.check ~engines cx' <> None);
  Alcotest.(check bool) "replayed scenario passes the real engines" true
    (Difftest.check cx' = None)

(* Every candidate the shrinker offers is a valid scenario, for every
   property. Two synthetic oracles that never run the system: one that
   always holds, so the shrinker offers every candidate of a generated
   scenario, and one that always fails, so it takes the first candidate
   of every round down to the smallest scenario. The shrunk failure's
   replay line decodes to the same property. *)
let test_shrink_candidates_valid () =
  List.iter
    (fun (name, prop) ->
      let rnd = Random.State.make [| 0x5417; String.length name |] in
      for i = 1 to 4 do
        let s = Difftest.gen prop rnd in
        let what = Printf.sprintf "%s %d" name i in
        let seen = ref 0 in
        let inspect result c =
          incr seen;
          check_valid (Printf.sprintf "%s candidate %d" what !seen) c;
          result c
        in
        let start = { Difftest.cx = s; detail = "synthetic"; work = [] } in
        ignore
          (Difftest.shrink ~oracle:(inspect (fun _ -> None)) start);
        let shrunk =
          Difftest.shrink
            ~oracle:(inspect (fun c -> Some { start with Difftest.cx = c }))
            start
        in
        let cx = shrunk.Difftest.cx in
        Alcotest.(check int) (what ^ ": one statement left") 1
          (List.length cx.Difftest.stmts);
        Alcotest.(check int) (what ^ ": one view left") 1 (List.length cx.Difftest.views);
        Alcotest.(check bool) (what ^ ": replays the same property") true
          ((replayed (Difftest.describe shrunk)).Difftest.prop = prop)
      done)
    Difftest.properties

(* {1 XMark: all three engines agree on every paper pair} *)

let xmark_doc = lazy (Xmark_gen.document ~seed:11 ~target_kb:16)

let three_engines vname uname stmt () =
  let doc = Lazy.force xmark_doc in
  let pat = Xmark_views.find vname in
  let eval (e : Difftest.engine) = e.Difftest.eval (Xml_tree.copy doc) pat stmt in
  let ref_mv = eval Difftest.recompute_engine in
  List.iter
    (fun e ->
      match Recompute.diff (eval e) ref_mv with
      | None -> ()
      | Some d ->
        Alcotest.failf "%s vs recompute on %s/%s: %s" e.Difftest.ename vname
          uname d)
    [ Difftest.maint_engine; Difftest.ivma_engine ]

let xmark_cases =
  List.concat_map
    (fun (vname, uname) ->
      let u = Xmark_updates.find uname in
      [
        Alcotest.test_case
          (Printf.sprintf "%s + insert %s" vname uname)
          `Quick
          (three_engines vname uname (Xmark_updates.insert u));
        Alcotest.test_case
          (Printf.sprintf "%s + delete %s" vname uname)
          `Quick
          (three_engines vname uname (Xmark_updates.delete u));
      ])
    Xmark_updates.figure20_pairs

(* {1 Work-profile replay}

   [Difftest.work_profile] is the counter profile of checking a
   scenario. For an engines scenario it must be a pure function of the
   scenario and engine list: replaying the same seed -- directly or
   through the reproducer codec -- performs byte-for-byte the same work.
   This is what makes the "work:" line of a shrunk counterexample report
   trustworthy as a reproduction recipe. *)
let test_work_profile_replay () =
  let rnd = Random.State.make [| 0xd1ff; 42 |] in
  for _ = 1 to 5 do
    let s = Difftest.gen Difftest.Engines rnd in
    let p1 = Difftest.work_profile s in
    Alcotest.(check bool) "checking a scenario counts some work" true (p1 <> []);
    Alcotest.(check (list (pair string int))) "second run, same work" p1
      (Difftest.work_profile s);
    let s' = Difftest.of_repro (Difftest.to_repro s) in
    Alcotest.(check (list (pair string int)))
      "replay through the reproducer codec, same work" p1
      (Difftest.work_profile s')
  done

(* An engines failure carries the work profile of the failing check,
   and [describe] prints it. Not every random scenario exposes the
   frozen engine (a no-op update doesn't); scan until one does. *)
let test_mismatch_carries_work () =
  let engines = [ Difftest.recompute_engine; broken_engine ] in
  let f = find_failure ~engines ~seed:[| 0xd1ff; 43 |] ~tries:100 in
  Alcotest.(check bool) "mismatch has a work profile" true (f.Difftest.work <> []);
  Alcotest.(check bool) "describe prints the work line" true
    (Tutil.contains (Difftest.describe f) "\n  work:   ")

let () =
  Alcotest.run "difftest"
    [
      ( "oracle",
        [
          Alcotest.test_case "bounded seeded run is clean" `Quick test_bounded_run;
          Alcotest.test_case "bounded multi-view set run is clean" `Quick
            test_bounded_set_run;
          Alcotest.test_case "bounded heavy-light run is clean" `Quick
            test_bounded_heavy_run;
          Alcotest.test_case "work profile replays identically" `Quick
            test_work_profile_replay;
          Alcotest.test_case "mismatch carries its work profile" `Quick
            test_mismatch_carries_work;
        ] );
      ( "replay",
        [
          Alcotest.test_case "compact view syntax examples" `Quick
            test_compact_examples;
          test_compact_qcheck;
          Alcotest.test_case "reproducer encode/decode round-trip" `Quick
            test_repro_roundtrip;
          Alcotest.test_case "set reproducer encode/decode round-trip" `Quick
            test_set_repro_roundtrip;
          Alcotest.test_case "heavy reproducer encode/decode round-trip" `Quick
            test_heavy_repro_roundtrip;
          Alcotest.test_case "malformed reproducers rejected" `Quick
            test_repro_malformed;
        ] );
      ("degenerate updates", degenerate_cases);
      ( "shrinker",
        [
          Alcotest.test_case "broken engine caught, shrunk to ≤5 nodes" `Quick
            test_broken_engine_shrunk;
          Alcotest.test_case "every candidate is a valid scenario" `Quick
            test_shrink_candidates_valid;
        ] );
      ("xmark three-engine agreement", xmark_cases);
    ]
