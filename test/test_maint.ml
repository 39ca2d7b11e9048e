(* Tests for the maintenance algorithms: the paper's worked examples
   (Sections 3 and 4) plus the golden property — incremental maintenance
   equals full recomputation on random documents, views and updates. *)

let n = Pattern.n

(* //a//b//c with all IDs stored (view v1 of Example 3.1). *)
let v_abc =
  Pattern.compile ~name:"v1" (n "a" ~id:true [ n "b" ~id:true [ n "c" ~id:true [] ] ])

let check_matches_recompute ?policy doc_text pat stmt =
  let store = Store.of_document (Xml_parse.document doc_text) in
  let mv = Mview.materialize ?policy store pat in
  let r = Maint.propagate mv stmt in
  let store2 = Store.of_document (Xml_parse.document doc_text) in
  let mv2, _ = Recompute.recompute_after store2 stmt ~pat in
  (match Recompute.diff mv mv2 with
  | None -> ()
  | Some d -> Alcotest.fail ("maintained view diverged: " ^ d));
  (mv, r)

let test_example_3_1_insert () =
  (* Insert <a><b/><b><c/></b></a>; only terms whose R-part is a snowcap
     and whose Δ tables are non-empty survive: RaRbΔc, RaΔbΔc, ΔaΔbΔc. *)
  let doc = {|<r><a><b><c/></b></a><x/></r>|} in
  let mv, r =
    check_matches_recompute doc v_abc
      (Update.insert ~into:"/r/a/b" "<a><b/><b><c/></b></a>")
  in
  Alcotest.(check int) "three surviving terms" 3 r.Maint.terms_surviving;
  Alcotest.(check int) "developed = proper snowcaps + all-delta" 3
    r.Maint.terms_developed;
  Alcotest.(check bool) "view grew" true (Mview.cardinality mv > 1)

let test_example_3_4_no_c () =
  (* xml2 has no c element: every term is pruned, the view is unaffected. *)
  let doc = {|<r><a><b><c/></b></a></r>|} in
  let _, r =
    check_matches_recompute doc v_abc (Update.insert ~into:"/r/a" "<a><b/><b/></a>")
  in
  Alcotest.(check int) "no surviving terms" 0 r.Maint.terms_surviving;
  Alcotest.(check int) "nothing added" 0 r.Maint.embeddings_added

let test_example_3_5_vpred () =
  (* //a[val=5]//b: the inserted a has value "3…", so σ(Δa) is empty and
     the view is unaffected. *)
  let v = Pattern.compile ~name:"v2" (n "a" ~vpred:"3" ~id:true [ n "b" ~id:true [] ]) in
  let doc = {|<r><a>3<b/></a></r>|} in
  let _, r =
    check_matches_recompute doc v (Update.insert ~into:"/r" "<a>5<b/><b/></a>")
  in
  Alcotest.(check int) "no embeddings added" 0 r.Maint.embeddings_added

let test_example_3_7_id_pruning () =
  (* Insert <b><c/></b> under an a-node with no b ancestor: the term
     RaRbΔc is pruned by the ID-driven rule, leaving only RaΔbΔc (Δa is
     empty, killing the all-Δ term too). *)
  let doc = {|<r><a><d/></a></r>|} in
  let _, r =
    check_matches_recompute doc v_abc (Update.insert ~into:"/r/a/d" "<b><c/></b>")
  in
  Alcotest.(check int) "single surviving term" 1 r.Maint.terms_surviving

let test_example_3_14_pimt () =
  (* Insertion below a stored-content node modifies existing tuples
     without adding any. *)
  let v =
    Pattern.compile ~name:"vc"
      (n ~axis:Pattern.Child "a" ~id:true
         [ n ~axis:Pattern.Child "b" ~id:true [ n "c" ~id:true ~content:true [] ] ])
  in
  let doc = {|<a><b><c><d><c>t</c></d></c></b></a>|} in
  let mv, r =
    check_matches_recompute doc v (Update.insert ~into:"//d//c" "<extra>some value</extra>")
  in
  Alcotest.(check int) "no new tuples" 0 r.Maint.embeddings_added;
  Alcotest.(check bool) "contents refreshed" true (r.Maint.tuples_modified >= 1);
  let contains_sub hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let has_extra =
    List.exists
      (fun (_, _, cells) ->
        Array.exists
          (fun c ->
            match c.Mview.cell_content with
            | Some s -> contains_sub s "<extra>some value</extra>"
            | None -> false)
          cells)
      (Mview.dump mv)
  in
  Alcotest.(check bool) "refreshed content holds the insertion" true has_extra

(* The document of Fig. 11 / Fig. 12. *)
let fig11 = {|<a><c><b/></c><f><b/></f></a>|}
let fig12 = {|<a><c><b/><b/></c><f><c><b/></c><b/></f></a>|}

let test_example_4_1 () =
  let v = Pattern.compile ~name:"ab" (n "a" ~id:true [ n "b" ~id:true [] ]) in
  let mv, r = check_matches_recompute fig11 v (Update.delete "//c//b") in
  Alcotest.(check int) "one embedding removed" 1 r.Maint.embeddings_removed;
  Alcotest.(check int) "one tuple left" 1 (Mview.cardinality mv)

let test_example_4_5 () =
  (* View //a[//c]//b with IDs on a, c and b; delete //a/f/c. Of the 8
     tuples, only 1, 2 and 4 survive. *)
  let v =
    Pattern.compile ~name:"v2"
      (n "a" ~id:true [ n "c" ~id:true []; n "b" ~id:true [] ])
  in
  let store = Store.of_document (Xml_parse.document fig12) in
  let mv = Mview.materialize store v in
  Alcotest.(check int) "eight tuples initially" 8 (Mview.cardinality mv);
  let mv, r = check_matches_recompute fig12 v (Update.delete "//a/f/c") in
  Alcotest.(check int) "five embeddings removed" 5 r.Maint.embeddings_removed;
  Alcotest.(check int) "three tuples remain" 3 (Mview.cardinality mv)

let test_example_4_8_derivation_counts () =
  (* //a[//b]: the single tuple has derivation count 2; the first deletion
     decrements it, the second removes the tuple. *)
  let v = Pattern.compile ~name:"aexb" (n "a" ~id:true [ n "b" [] ]) in
  let store = Store.of_document (Xml_parse.document fig11) in
  let mv = Mview.materialize store v in
  Alcotest.(check int) "one tuple" 1 (Mview.cardinality mv);
  Alcotest.(check int) "count two" 2 (Mview.total_count mv);
  let _ = Maint.propagate mv (Update.delete "//c//b") in
  Alcotest.(check int) "tuple kept" 1 (Mview.cardinality mv);
  Alcotest.(check int) "count decremented" 1 (Mview.total_count mv);
  let _ = Maint.propagate mv (Update.delete "//f//b") in
  Alcotest.(check int) "tuple removed" 0 (Mview.cardinality mv)

let test_pdmt_content () =
  (* Deleting below a stored-content node refreshes the ancestor's
     payload. *)
  let v =
    Pattern.compile ~name:"cont" (n ~axis:Pattern.Child "a" ~id:true ~content:true [])
  in
  let doc = {|<a><b>x</b><c/></a>|} in
  let mv, r = check_matches_recompute doc v (Update.delete "//b") in
  Alcotest.(check bool) "payload refreshed" true (r.Maint.tuples_modified >= 1);
  let (_, _, cells) = List.hd (Mview.dump mv) in
  Alcotest.(check (option string)) "content shrank" (Some "<a><c/></a>")
    cells.(0).Mview.cell_content

let test_multi_view_shared_store () =
  (* One document update propagated to two views over the same store. *)
  let v1 = Pattern.compile ~name:"ab" (n "a" ~id:true [ n "b" ~id:true [] ]) in
  let v2 = Pattern.compile ~name:"ac" (n "a" ~id:true [ n "c" ~id:true [] ]) in
  let doc = {|<a><c><b/></c><f><b/></f></a>|} in
  let store = Store.of_document (Xml_parse.document doc) in
  let mv1 = Mview.materialize store v1 in
  let mv2 = Mview.materialize store v2 in
  let stmt = Update.insert ~into:"//f" "<c><b/></c>" in
  let applied, _ = Maint.apply_only store stmt in
  let _ = Maint.propagate_applied ~commit:false mv1 applied in
  let _ = Maint.propagate_applied ~commit:true mv2 applied in
  let fresh pat =
    let s2 = Store.of_document (Xml_parse.document doc) in
    let m, _ = Recompute.recompute_after s2 stmt ~pat in
    m
  in
  Alcotest.(check bool) "view 1 consistent" true (Recompute.equal mv1 (fresh v1));
  Alcotest.(check bool) "view 2 consistent" true (Recompute.equal mv2 (fresh v2))

let test_view_set () =
  let doc = {|<a><c><b/>z</c><f><b/></f></a>|} in
  let store = Store.of_document (Xml_parse.document doc) in
  let set = View_set.create store in
  let v1 = Pattern.compile ~name:"ab" (n "a" ~id:true [ n "b" ~id:true [] ]) in
  (* v2 watches c's value: the text-bearing insertion below c flips it. *)
  let v2 = Pattern.compile ~name:"cz" (n "c" ~vpred:"z" ~id:true ~content:true []) in
  let mv1 = View_set.add set v1 in
  let mv2 = View_set.add set v2 in
  Alcotest.(check bool) "find" true
    (match View_set.find set "ab" with Some m -> m == mv1 | None -> false);
  Alcotest.(check bool) "duplicate name rejected" true
    (match View_set.add set v1 with exception Invalid_argument _ -> true | _ -> false);
  let stmts =
    [
      Update.insert ~into:"//f" "<b/>";
      Update.insert ~into:"//c" "<t>q</t>";  (* flips v2's [val='z'] *)
      Update.delete "//c//b";
    ]
  in
  List.iter
    (fun stmt ->
      let reports = View_set.update set stmt in
      Alcotest.(check int) "one report per view" 2 (List.length reports))
    stmts;
  List.iter
    (fun (mv, pat) ->
      let store2 = Store.of_document (Xml_parse.document doc) in
      let oracle =
        List.fold_left
          (fun _ stmt ->
            let m, _ = Recompute.recompute_after store2 stmt ~pat in
            m)
          (Mview.materialize store2 pat) stmts
      in
      match Recompute.diff mv oracle with
      | None -> ()
      | Some d -> Alcotest.fail (pat.Pattern.name ^ " diverged in set: " ^ d))
    [ (mv1, v1); (mv2, v2) ];
  View_set.remove set "ab";
  Alcotest.(check int) "one view left" 1 (List.length (View_set.views set))

let test_dispatch_errors () =
  let v = Pattern.compile ~name:"a" (n "a" ~id:true []) in
  let store = Store.of_document (Xml_parse.document "<a/>") in
  let mv = Mview.materialize store v in
  Alcotest.check_raises "insert guard"
    (Invalid_argument "Maint.propagate_insert: not an insertion") (fun () ->
      ignore (Maint.propagate_insert mv (Update.delete "//a")));
  Alcotest.check_raises "delete guard"
    (Invalid_argument "Maint.propagate_delete: not a deletion") (fun () ->
      ignore (Maint.propagate_delete mv (Update.insert ~into:"//a" "<b/>")))

let test_replace_value () =
  (* Pure value change: no tuples appear or vanish; payloads refresh. *)
  let v =
    Pattern.compile ~name:"rv"
      (n ~axis:Pattern.Child "a" ~id:true
         [ n ~axis:Pattern.Child "b" ~id:true ~value:true ~content:true [] ])
  in
  let doc = {|<a><b>old</b><b>keep<c/></b></a>|} in
  let mv, r =
    check_matches_recompute doc v (Update.replace_value ~target:"/a/b" "new")
  in
  Alcotest.(check bool) "no fallback" false r.Maint.fallback_recompute;
  Alcotest.(check int) "no tuples added" 0 r.Maint.embeddings_added;
  Alcotest.(check int) "no tuples removed" 0 r.Maint.embeddings_removed;
  Alcotest.(check bool) "payloads refreshed" true (r.Maint.tuples_modified >= 2);
  Alcotest.(check int) "same cardinality" 2 (Mview.cardinality mv);
  (* Non-text children survive a replace (XQuery replaces the value, our
     semantics swaps the text children). *)
  let has_c =
    List.exists
      (fun (_, _, cells) ->
        match cells.(1).Mview.cell_content with
        | Some s -> s = "<b><c/>new</b>" (* fresh text is appended last *)
        | None -> false)
      (Mview.dump mv)
  in
  Alcotest.(check bool) "element children kept" true has_c;
  (* Replace flipping a value predicate takes the guarded rebuild. *)
  let v2 = Pattern.compile ~name:"rvp" (n "b" ~vpred:"hot" ~id:true []) in
  let mv2, r2 =
    check_matches_recompute doc v2 (Update.replace_value ~target:"/a/b" "hot")
  in
  Alcotest.(check bool) "flip detected" true r2.Maint.fallback_recompute;
  Alcotest.(check int) "both b's now match" 2 (Mview.cardinality mv2)

let test_vpred_flip_fallback () =
  (* Inserting text below an existing node watched by a value predicate
     flips its selection status: the delta model cannot express this, so
     the propagation must detect it and fall back to an exact rebuild. *)
  let v =
    Pattern.compile ~name:"flip"
      (n ~axis:Pattern.Child "b" ~vpred:"z" ~id:true ~content:true [])
  in
  let doc = {|<b>z<a/></b>|} in
  let mv, r = check_matches_recompute doc v (Update.insert ~into:"//a" "<t>q</t>") in
  Alcotest.(check bool) "fallback taken" true r.Maint.fallback_recompute;
  Alcotest.(check int) "tuple dropped: value is now zq" 0 (Mview.cardinality mv);
  (* Deletion flipping a predicate back on. *)
  let doc2 = {|<b>z<a>q</a></b>|} in
  let mv2, r2 = check_matches_recompute doc2 v (Update.delete "//a") in
  Alcotest.(check bool) "fallback taken on delete" true r2.Maint.fallback_recompute;
  Alcotest.(check int) "tuple appears: value is now z" 1 (Mview.cardinality mv2)

let test_no_fallback_on_plain_updates () =
  (* Structural updates that cannot flip any predicate stay on the
     incremental path. *)
  let v = Pattern.compile ~name:"p" (n "a" ~vpred:"z" ~id:true [ n "b" ~id:true [] ]) in
  let doc = {|<r><a>z<b/></a><c/></r>|} in
  let _, r = check_matches_recompute doc v (Update.insert ~into:"/r/c" "<b/>") in
  Alcotest.(check bool) "no fallback" false r.Maint.fallback_recompute

(* {1 The golden property} *)

let golden ?policy name =
  Tutil.qtest ~count:300 name
    (QCheck.triple Tutil.arb_doc Tutil.arb_pattern Tutil.arb_update)
    (fun (doc, pat, stmt) ->
      let store = Store.of_document (Xml_tree.copy doc) in
      let mv = Mview.materialize ?policy store pat in
      let _ = Maint.propagate mv stmt in
      let store2 = Store.of_document (Xml_tree.copy doc) in
      let mv2, _ = Recompute.recompute_after store2 stmt ~pat in
      match Recompute.diff mv mv2 with
      | None -> true
      | Some d -> QCheck.Test.fail_reportf "diverged: %s" d)

let golden_snowcaps = golden ~policy:Mview.Snowcaps "maintain = recompute (snowcaps)"
let golden_leaves = golden ~policy:Mview.Leaves "maintain = recompute (leaves)"

let golden_no_pruning =
  (* Pruning is an optimization: with it disabled the same view results
     must come out. *)
  Tutil.qtest ~count:150 "maintain without pruning = recompute"
    (QCheck.triple Tutil.arb_doc Tutil.arb_pattern Tutil.arb_update)
    (fun (doc, pat, stmt) ->
      let store = Store.of_document (Xml_tree.copy doc) in
      let mv = Mview.materialize store pat in
      let _ = Maint.propagate ~prune:false mv stmt in
      let store2 = Store.of_document (Xml_tree.copy doc) in
      let mv2, _ = Recompute.recompute_after store2 stmt ~pat in
      match Recompute.diff mv mv2 with
      | None -> true
      | Some d -> QCheck.Test.fail_reportf "diverged: %s" d)

let pruning_soundness =
  (* Props 3.6 / 3.8 / 4.7 as an executable statement: every term rejected
     by the data-driven pruning evaluates to the empty table. *)
  Tutil.qtest ~count:200 "pruned terms are provably empty"
    (QCheck.triple Tutil.arb_doc Tutil.arb_pattern Tutil.arb_update)
    (fun (doc, pat, stmt) ->
      let store = Store.of_document (Xml_tree.copy doc) in
      let mv = Mview.materialize store pat in
      let targets = Update.targets store stmt in
      QCheck.assume
        (match stmt with Update.Replace_value _ -> false | _ -> true);
      let kind, delta, survivors_only =
        match stmt with
        | Update.Insert _ ->
          let app = Update.apply_insert store stmt ~targets in
          (`Insert, Delta.of_insert store pat app, false)
        | Update.Delete _ ->
          let app = Update.apply_delete store ~targets in
          (`Delete, Delta.of_delete store pat app, true)
        | Update.Replace_value _ -> assert false
      in
      let scope = Lattice.full pat in
      List.for_all
        (fun s ->
          Maint.Terms.survives mv delta ~scope ~kind s
          || Tuple_table.is_empty
               (Maint.Terms.eval mv delta ~scope ~s_set:s ~survivors_only))
        (Maint.Terms.candidates mv ~scope))

let golden_sequence =
  (* Several updates in a row keep the view consistent. *)
  Tutil.qtest ~count:150 "update sequences stay consistent"
    (QCheck.triple Tutil.arb_doc Tutil.arb_pattern
       (QCheck.list_of_size (QCheck.Gen.int_range 1 4) Tutil.arb_update))
    (fun (doc, pat, stmts) ->
      let store = Store.of_document (Xml_tree.copy doc) in
      let mv = Mview.materialize store pat in
      List.iter (fun stmt -> ignore (Maint.propagate mv stmt)) stmts;
      let store2 = Store.of_document (Xml_tree.copy doc) in
      let mv2 =
        List.fold_left
          (fun _ stmt ->
            let m, _ = Recompute.recompute_after store2 stmt ~pat in
            m)
          (Mview.materialize store2 pat) stmts
      in
      match Recompute.diff mv mv2 with
      | None -> true
      | Some d -> QCheck.Test.fail_reportf "diverged after sequence: %s" d)

(* A table's rows as a multiset, each row keyed by pattern node. *)
let table_bag (t : Tuple_table.t) =
  let cols = Tuple_table.cols t in
  Array.to_list (Tuple_table.rows t)
  |> List.map (fun row ->
         List.sort compare
           (Array.to_list (Array.mapi (fun p id -> (cols.(p), Dewey.encode id)) row)))
  |> List.sort compare

(* A fresh evaluation of snowcap [s] over the committed relations. *)
let eval_snowcap store pat s =
  Plan.eval_subtree pat
    ~atom:(fun i -> Plan.atom_of_store store pat i)
    ~within:(Lattice.mem s) ~root:0

let mats_integrity =
  (* Invariant: after any propagation, every materialized snowcap table
     equals a fresh evaluation of its sub-pattern over the committed
     relations. *)
  Tutil.qtest ~count:200 "snowcap tables stay exact"
    (QCheck.triple Tutil.arb_doc Tutil.arb_pattern Tutil.arb_update)
    (fun (doc, pat, stmt) ->
      let store = Store.of_document (Xml_tree.copy doc) in
      let mv = Mview.materialize ~policy:Mview.Snowcaps store pat in
      let _ = Maint.propagate mv stmt in
      List.for_all
        (fun (s, table) -> table_bag table = table_bag (eval_snowcap store pat s))
        mv.Mview.mats)

(* {1 One-pass materialization}

   Under [Snowcaps] the snowcap chain and the view come from one
   left-deep pass, each level joined from the one below. Every level
   must equal its own evaluation, the view must equal the [Plan.eval]
   materialization of [Leaves], every level's sortedness metadata must
   hold (the next level's join sorts it in place), and a k-node view
   whose levels are all non-empty costs exactly k-1 merge joins. *)

let sorted_sound (t : Tuple_table.t) =
  match Tuple_table.sorted_by t with
  | None -> true
  | Some node ->
    let col = (Tuple_table.columns t).(Tuple_table.col_pos t node) in
    let arena = Tuple_table.arena t in
    let ok = ref true in
    for i = 1 to Array.length col - 1 do
      if Dewey_arena.compare arena col.(i - 1) col.(i) > 0 then ok := false
    done;
    !ok

let check_one_pass what store pat =
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) what in
  let k = Pattern.node_count pat in
  let mv, snap =
    Obs.with_scope (fun () -> Mview.materialize ~policy:Mview.Snowcaps store pat)
  in
  let mats = mv.Mview.mats in
  if List.map fst mats <> Lattice.chain pat then fail "mats are not the prefix chain";
  List.iter
    (fun (s, table) ->
      let set = Lattice.to_string pat s in
      if table_bag table <> table_bag (eval_snowcap store pat s) then
        fail "snowcap %s differs from its own evaluation" set;
      if not (sorted_sound table) then fail "snowcap %s: sortedness metadata is wrong" set)
    mats;
  if Mview.dump mv <> Mview.dump (Mview.materialize ~policy:Mview.Leaves store pat) then
    fail "Snowcaps dump differs from the Leaves dump";
  let joins = Obs.counter_value snap "algebra.join.merge_calls" in
  let full_levels = List.for_all (fun (_, t) -> not (Tuple_table.is_empty t)) mats in
  if (full_levels && joins <> k - 1) || joins > k - 1 then
    fail "%d merge joins for a %d-node view" joins k;
  full_levels

(* On the XMark documents every level is non-empty, so the join count
   is pinned exactly. *)
let check_full_one_pass what store pat =
  if not (check_one_pass what store pat) then
    Alcotest.failf "%s: an empty level; the join count is not pinned" what

let test_one_pass_figure20 () =
  let store = Store.of_document (Xmark_gen.document ~seed:7 ~target_kb:32) in
  List.sort_uniq compare (List.map fst Xmark_updates.figure20_pairs)
  |> List.iter (fun name -> check_full_one_pass name store (Xmark_views.find name))

let test_one_pass_skewed () =
  let store = Store.of_document (Xmark_gen.document_skewed ~seed:7 ~target_kb:64 ()) in
  List.iter
    (fun name -> check_full_one_pass (name ^ " skewed") store (Xmark_views.find name))
    [ "Q1"; "Q2"; "Q3"; "Q4" ]

let test_one_pass_random () =
  let rnd = Random.State.make [| 25 |] in
  for i = 1 to 300 do
    let s = Difftest.gen Difftest.Engines rnd in
    ignore
      (check_one_pass
         (Printf.sprintf "scenario %d %s" i (Difftest.to_repro s))
         (Store.of_document s.Difftest.doc) (List.hd s.Difftest.views))
  done

(* {1 Maintenance work bounds}

   The paper's efficiency claim is that delta extraction scales with the
   update region, not the document: region-pruned relation scans mean
   the maintenance joins only ever see tuples inside (or straddling) the
   inserted subtrees. The [maint.delta] counters make that executable:
   [nodes] is the number of update-region nodes scanned, [rows] the
   total delta-table output. *)

let propagate_profile ~kb ~view stmt =
  let store = Store.of_document (Xmark_gen.document ~seed:7 ~target_kb:kb) in
  let mv = Mview.materialize store view in
  let (), snap = Obs.with_scope (fun () -> ignore (Maint.propagate mv stmt)) in
  snap

(* Every Figure-20 view/update pair: delta output is linearly bounded by
   the scanned update-region nodes (factor = pattern size), and the
   region itself is a fraction of the document. *)
let test_delta_work_bounded_by_region () =
  List.iter
    (fun (vname, uname) ->
      let view = Xmark_views.find vname and u = Xmark_updates.find uname in
      let doc = Xmark_gen.document ~seed:7 ~target_kb:16 in
      let doc_nodes = Xml_tree.size doc in
      let store = Store.of_document doc in
      let mv = Mview.materialize store view in
      let (), snap =
        Obs.with_scope (fun () ->
            ignore (Maint.propagate mv (Xmark_updates.insert u)))
      in
      let nodes = Obs.counter_value snap "maint.delta.nodes"
      and rows = Obs.counter_value snap "maint.delta.rows" in
      if rows > Pattern.node_count view * nodes then
        Alcotest.failf "%s/%s: %d delta rows from %d region nodes (pattern %d)"
          vname uname rows nodes (Pattern.node_count view);
      if nodes > doc_nodes / 4 then
        Alcotest.failf
          "%s/%s: scanned %d nodes of a %d-node document -- region pruning \
           regressed to a full scan?"
          vname uname nodes doc_nodes)
    Xmark_updates.figure20_pairs

(* A single-target insert of a k-node fragment costs the same whether
   the document is 16 KB or 256 KB, and scales linearly in k. *)
let test_delta_work_doc_size_independent () =
  let frag n =
    String.concat ""
      (List.init n (fun i ->
           Printf.sprintf
             "<person id=\"pX%d\"><name>Zed %d</name></person>" i i))
  in
  let counts ~kb n =
    let snap =
      propagate_profile ~kb ~view:Xmark_views.q1
        (Update.insert ~into:"/site/people" (frag n))
    in
    ( Obs.counter_value snap "maint.delta.nodes",
      Obs.counter_value snap "maint.delta.rows" )
  in
  let small = counts ~kb:16 1 in
  Alcotest.(check (pair int int)) "same work on a 4x document" small
    (counts ~kb:64 1);
  Alcotest.(check (pair int int)) "same work on a 16x document" small
    (counts ~kb:256 1);
  let n5, r5 = counts ~kb:16 5 and n1, r1 = small in
  Alcotest.(check bool) "5x fragment, work grows" true (n5 > n1 && r5 > r1);
  Alcotest.(check bool) "5x fragment, at most linear growth" true
    (n5 <= 5 * n1 + 5 && r5 <= 5 * r1 + 5)

(* Every phase timer of the Figure 18/19 taxonomy reports a span for a
   plain propagate, and the phase timing embedded in the report agrees
   with the [maint.phase] timers. *)
let test_phase_timers_cover_taxonomy () =
  let snap =
    propagate_profile ~kb:16 ~view:Xmark_views.q1
      (Xmark_updates.insert (Xmark_updates.find "X1_L"))
  in
  List.iter
    (fun phase ->
      let key = "maint.phase." ^ phase in
      if Obs.timer_spans snap key = 0 then
        Alcotest.failf "phase timer %s recorded no span" key)
    [
      "find_target"; "apply_doc"; "compute_delta"; "get_expression";
      "execute"; "update_aux";
    ]

(* {1 Payloads by handle}

   Q1/Q17 store [val] and Q6 [cont] payloads, resolved and refreshed by
   arena handle. An Appendix-A insertion, its undo and the same insertion
   again re-mint the freed ordinals: the third statement must find every
   identifier in the arena (nothing interned) and still bind, and
   refresh, the new nodes. No statement may look a whole identifier up
   (views without value predicates). *)

let undo_of (u : Xmark_updates.t) =
  let suffix =
    if String.starts_with ~prefix:"<name>" u.fragment then "/name[name]" else "/item"
  in
  Update.delete (u.path ^ suffix)

let test_reinsert_payloads () =
  let store = Store.of_document (Xmark_gen.document ~seed:7 ~target_kb:256) in
  let set = View_set.create store in
  let views = List.map (View_set.add set) Xmark_views.[ q1; q6; q17 ] in
  List.iter
    (fun mv ->
      Alcotest.(check bool) "no value predicate" true
        (Array.for_all Option.is_none mv.Mview.pat.Pattern.vpreds))
    views;
  List.iter
    (fun name ->
      let u = Xmark_updates.find name in
      List.iteri
        (fun step stmt ->
          let what = Printf.sprintf "%s step %d" name step in
          let reports, snap = Obs.with_scope (fun () -> View_set.update set stmt) in
          let cv = Obs.counter_value snap in
          Alcotest.(check int) (what ^ ": whole-id walks") 0 (cv "dewey.arena.walks");
          if step = 2 then
            Alcotest.(check int) (what ^ ": re-insert interns nothing") 0
              (cv "dewey.arena.interned");
          if step <> 1 then
            Alcotest.(check bool) (what ^ ": some view changed") true
              (List.exists
                 (fun (_, r) -> r.Maint.embeddings_added + r.Maint.tuples_modified > 0)
                 reports);
          List.iter
            (fun mv ->
              let fresh = Mview.materialize ~policy:Mview.Leaves store mv.Mview.pat in
              match Recompute.diff mv fresh with
              | None -> ()
              | Some d -> Alcotest.failf "%s, %s: %s" what mv.Mview.pat.Pattern.name d)
            views)
        [ Xmark_updates.insert u; undo_of u; Xmark_updates.insert u ])
    [ "X1_L"; "X17_L"; "B5_LB" ]

(* {1 Spliced cont payloads}

   Each statement runs through a view set over [cont] views. After it,
   every view must equal recomputation, every [cont] must be the
   serialization of its node, and the refreshes must have spliced and
   reserialized the expected numbers of payloads. *)

let cont_view ?(axis = Pattern.Descendant) tag =
  Pattern.compile ~name:("cont-" ^ tag) (n ~axis tag ~id:true ~content:true [])

let check_conts what store mv =
  List.iter
    (fun (_, _, cells) ->
      Array.iter
        (fun c ->
          match (c.Mview.cell_content, Store.node_of store c.Mview.cell_id) with
          | None, _ -> ()
          | Some s, Some node ->
            Alcotest.(check string) (what ^ ": cont is the serialization")
              (Xml_tree.serialize node) s
          | Some _, None -> Alcotest.failf "%s: cont of a gone node" what)
        cells)
    (Mview.dump mv)

(* Run [stmts] over views of [tags]; return the (spliced, reserialized)
   counts of each statement. *)
let run_splices ?(tags = [ "a" ]) doc stmts =
  let store = Store.of_document (Xml_parse.document doc) in
  let set = View_set.create store in
  let views = List.map (fun tag -> View_set.add set (cont_view tag)) tags in
  List.map
    (fun u ->
      let what = Update.to_string u in
      let _, snap = Obs.with_scope (fun () -> View_set.update set u) in
      List.iter
        (fun mv ->
          check_conts what store mv;
          let fresh = Mview.materialize ~policy:Mview.Leaves store mv.Mview.pat in
          match Recompute.diff mv fresh with
          | None -> ()
          | Some d -> Alcotest.failf "%s: %s" what d)
        views;
      let cv = Obs.counter_value snap in
      (cv "maint.payload.spliced", cv "maint.payload.reserialized"))
    stmts

let splice_case name ?tags doc stmts expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check (list (pair int int)))
        "(spliced, reserialized) per statement" expected (run_splices ?tags doc stmts))

let ins = Update.insert and del = Update.delete

(* A text-built insertion whose fragment is one attribute: the parser
   never makes one, the statement type allows it. *)
let insert_attribute ~into =
  let attr = Xml_tree.attribute "k" "v" in
  Update.Insert
    {
      target = Xpath.parse into;
      forest = (fun _ -> [ Xml_tree.copy attr ]);
      placement = Update.Into;
      template = Some [ attr ];
    }

let splice_rules =
  [
    splice_case "insert into splices" {|<r><a><b/></a><a>t</a></r>|}
      [ ins ~into:"//a" "<c>t</c><d/>" ] [ (2, 0) ];
    splice_case "delete cuts the last child" {|<r><a><b/><c>t<d/></c></a></r>|}
      [ del "//a/c" ] [ (1, 0) ];
    splice_case "escaped text" {|<r><a>x</a></r>|}
      [ ins ~into:"//a" {|<c k="&quot;q&quot;">1 &amp; 2 &lt; 3 &gt; 0</c>|};
        del "//a/c"; ins ~into:"//a" "<c>&amp;&amp;</c><e>t&lt;</e>"; del "//a/c";
        del "//a/e" ]
      [ (1, 0); (1, 0); (1, 0); (0, 1); (1, 0) ];
    (* The outer item is a target and above the inner one: serialized. *)
    splice_case "nested item-in-item" ~tags:[ "item" ]
      {|<r><item><item><b/></item></item></r>|}
      [ ins ~into:"//item" "<item><name>n</name></item>"; del "//item/item[name]";
        ins ~into:"//item" "<item><name>n</name></item>" ]
      [ (1, 1); (1, 1); (1, 1) ];
    splice_case "re-insert after undo" ~tags:[ "a"; "c" ] {|<r><a><b/></a><a>t</a></r>|}
      [ ins ~into:"//a" "<c>t</c>"; del "//a/c"; ins ~into:"//a" "<c>t</c>" ]
      [ (2, 0); (2, 0); (2, 0) ];
  ]

let splice_fallbacks =
  [
    splice_case "self-closing target" {|<r><a/><a k="v"/></r>|}
      [ ins ~into:"//a" "<c/>" ] [ (0, 2) ];
    splice_case "attribute root" {|<r><a><b/></a></r>|}
      [ insert_attribute ~into:"//a" ] [ (0, 1) ];
    splice_case "before / after" {|<r><a><b/></a></r>|}
      [ Update.insert_after ~target:"//a/b" "<c/>";
        Update.insert_before ~target:"//a/b" "<c/>" ]
      [ (0, 1); (0, 1) ];
    splice_case "insert_forest" {|<r><a><b/></a></r>|}
      [ Update.insert_forest ~into:(Xpath.parse "//a") (fun _ ->
            [ Xml_tree.element "c" ]) ]
      [ (0, 1) ];
    splice_case "ancestor of a target" {|<r><a><b>t</b></a></r>|}
      [ ins ~into:"//b" "<c/>"; del "//b/c" ] [ (0, 1); (0, 1) ];
    splice_case "two changes under one" {|<r><a><b/><c/><c/></a></r>|}
      [ del "//a/c" ] [ (0, 1) ];
    splice_case "delete leaves no content" {|<r><a k="v"><c/></a></r>|}
      [ del "//a/c" ] [ (0, 1) ];
    splice_case "delete not the last" {|<r><a><c/><b/></a></r>|}
      [ del "//a/c" ] [ (0, 1) ];
    splice_case "delete an attribute" {|<r><a k="v"><b/></a></r>|}
      [ del "//a/@k" ] [ (0, 1) ];
    splice_case "replace value" {|<r><a>x<b/></a></r>|}
      [ Update.replace_value ~target:"//a" "y" ] [ (0, 1) ];
  ]

(* Every copy of a fragment root holds the one serialization. *)
let test_fresh_roots_shared () =
  let store = Store.of_document (Xml_parse.document {|<r><a/><a><b/></a></r>|}) in
  let set = View_set.create store in
  let mv = View_set.add set (cont_view "c") in
  ignore (View_set.update set (ins ~into:"//a" "<c>t<d/></c>"));
  match List.map (fun (_, _, cells) -> cells.(0).Mview.cell_content) (Mview.dump mv) with
  | [ Some x; Some y ] ->
    Alcotest.(check string) "the fragment's serialization" "<c>t<d/></c>" x;
    Alcotest.(check bool) "one string for both copies" true (x == y)
  | _ -> Alcotest.fail "expected two cont cells"

(* Appendix-A item and increase statements on a generated document: the
   item targets' Q6 payloads are spliced, and nothing is serialized
   again. *)
let test_splice_xmark () =
  let store = Store.of_document (Xmark_gen.document ~seed:7 ~target_kb:64) in
  let set = View_set.create store in
  let views = List.map (View_set.add set) Xmark_views.[ q2; q6; q13 ] in
  let x17 = Xmark_updates.find "X17_L" and x2 = Xmark_updates.find "X2_L" in
  List.iter
    (fun (u, splices) ->
      let what = Update.to_string u in
      let _, snap = Obs.with_scope (fun () -> View_set.update set u) in
      List.iter (check_conts what store) views;
      let cv = Obs.counter_value snap in
      Alcotest.(check bool) (what ^ ": spliced") splices (cv "maint.payload.spliced" > 0);
      Alcotest.(check int) (what ^ ": reserialized") 0 (cv "maint.payload.reserialized"))
    [ (Xmark_updates.insert x17, true); (del (x17.Xmark_updates.path ^ "/item"), true);
      (Xmark_updates.insert x2, false);
      (del (x2.Xmark_updates.path ^ "/increase[increase]"), false);
      (Xmark_updates.insert x2, false) ]

(* Random documents, [cont] views and insert/undo pairs whose fragments
   (rooted at [m], a label the documents lack) hold texts and attribute
   values that need escaping. *)
let splice_views =
  [ cont_view "a"; cont_view "b"; cont_view "*"; cont_view "m";
    Pattern.compile ~name:"a-b"
      (n "a" ~id:true [ n ~axis:Pattern.Child "b" ~id:true ~content:true [] ]) ]

let gen_splice_stmts =
  let open QCheck.Gen in
  let fragment =
    let* kids = list_size (int_range 0 2) Tutil.gen_doc_tree_special in
    let* text = oneofa Tutil.special_words in
    pure (Xml_tree.element "m" ~children:(Xml_tree.text text :: kids))
  in
  let pair =
    let* path = Tutil.gen_path in
    let* roots = list_size (int_range 1 2) fragment in
    let text = String.concat "" (List.map Xml_tree.serialize roots) in
    pure [ Update.insert ~into:path text; Update.delete "//m" ]
  in
  map List.concat (list_size (int_range 1 3) pair)

let splice_property =
  Tutil.qtest ~count:150 "insert/undo = Recompute"
    (QCheck.make
       QCheck.Gen.(pair Tutil.gen_doc_tree gen_splice_stmts)
       ~print:(fun (d, us) ->
         String.concat "\n" (Xml_tree.serialize d :: List.map Update.to_string us)))
    (fun (doc, stmts) ->
      let store = Store.of_document (Xml_tree.copy doc) in
      let set = View_set.create store in
      let views = List.map (View_set.add set) splice_views in
      List.for_all
        (fun u ->
          ignore (View_set.update set u);
          List.for_all
            (fun mv ->
              let fresh = Mview.materialize ~policy:Mview.Leaves store mv.Mview.pat in
              Recompute.diff mv fresh = None)
            views)
        stmts)

(* {1 Entry table}

   The view's entries live in an open-addressing table keyed by the
   handles of their stored cells. The property runs random adds, bumps,
   removes and lookups against a [Hashtbl] model over a two-node view,
   with tuples chosen to collide: homed at the last slot (so clusters
   wrap past the end of the slot array) or at an existing tuple's home.
   Each phase of 500 steps grows or shrinks the table, so it resizes. *)

let table_view () =
  let store = Store.of_document (Xmark_gen.document ~seed:3 ~target_kb:16) in
  let pat = Pattern.compile ~name:"et" (n "a" ~id:true [ n "b" ~id:true [] ]) in
  (store, Mview.empty_shell ~policy:Mview.Leaves store pat)

let tuple_cols (a, b) = [| [| a |]; [| b |] |]

(* Every model tuple is found with its count; with [~full], every entry
   is in the model and carries its tuple's sort key. *)
let check_table ?(full = true) what store mv model =
  Alcotest.(check int) (what ^ ": cardinality") (Hashtbl.length model) (Mview.cardinality mv);
  Hashtbl.iter
    (fun t c ->
      let got = Mview.count_of mv (tuple_cols t) 0 in
      if got <> c then
        Alcotest.failf "%s: tuple (%d, %d) count %d, expected %d" what (fst t) (snd t) got c)
    model;
  if full then begin
    let arena = Store.arena store in
    let key h = Dewey.encode (Dewey_arena.to_dewey arena h) in
    Mview.iter_entries mv (fun e ->
        let t = (e.Mview.cells.(0).Mview.cell_h, e.Mview.cells.(1).Mview.cell_h) in
        if Hashtbl.find_opt model t <> Some e.Mview.count then
          Alcotest.failf "%s: entry (%d, %d) not in the model" what (fst t) (snd t);
        if e.Mview.key <> key (fst t) ^ key (snd t) then
          Alcotest.failf "%s: entry (%d, %d) sort key" what (fst t) (snd t))
  end

let entry_table_property seed () =
  let rng = Random.State.make [| seed |] in
  let store, mv = table_view () in
  let handles = Dewey_arena.size (Store.arena store) in
  let model = Hashtbl.create 64 in
  let random_tuple () = (Random.State.int rng handles, Random.State.int rng handles) in
  let home (a, b) = Mview.home_slot mv [| a; b |] in
  (* A random tuple whose home slot is [slot], when one turns up. *)
  let rec homed slot tries =
    let t = random_tuple () in
    if home t = slot || tries = 0 then t else homed slot (tries - 1)
  in
  let existing () =
    let l = Hashtbl.fold (fun t _ acc -> t :: acc) model [] in
    List.nth l (Random.State.int rng (List.length l))
  in
  let max_slots = ref 0 and collided = ref 0 in
  for step = 0 to 2999 do
    let growing = step / 500 mod 2 = 0 in
    let t =
      match Random.State.int rng 4 with
      | 0 -> random_tuple ()
      | 1 -> homed (Mview.slot_count mv - 1) 4000
      | 2 when Hashtbl.length model > 0 -> homed (home (existing ())) 4000
      | _ -> if Hashtbl.length model > 0 then existing () else random_tuple ()
    in
    if Hashtbl.fold (fun u _ acc -> acc || (u <> t && home u = home t)) model false then
      incr collided;
    let what = Printf.sprintf "seed %d step %d" seed step in
    (if Random.State.int rng 10 < if growing then 7 else 3 then begin
       Mview.add_binding mv (tuple_cols t) 0;
       Hashtbl.replace model t (1 + Option.value (Hashtbl.find_opt model t) ~default:0)
     end
     else
       match Hashtbl.find_opt model t with
       | None ->
         Alcotest.(check int) (what ^ ": absent lookup") 0 (Mview.count_of mv (tuple_cols t) 0);
         Alcotest.check_raises (what ^ ": absent remove")
           (Invalid_argument "Mview.remove_binding: tuple not in view") (fun () ->
             Mview.remove_binding mv (tuple_cols t) 0)
       | Some c ->
         Mview.remove_binding mv (tuple_cols t) 0;
         if c = 1 then Hashtbl.remove model t else Hashtbl.replace model t (c - 1));
    max_slots := max !max_slots (Mview.slot_count mv);
    check_table ~full:(step mod 50 = 0) what store mv model
  done;
  Hashtbl.iter
    (fun t c ->
      for _ = 1 to c do
        Mview.remove_binding mv (tuple_cols t) 0
      done)
    model;
  Hashtbl.reset model;
  check_table "drained" store mv model;
  Alcotest.(check bool) "table resized" true (!max_slots >= 256);
  Alcotest.(check bool) "probes collided" true (!collided > 500)

(* A cluster homed at the last slot wraps to slot 0, where more tuples
   are homed; deleting from its head must shift every later member back
   across the wrap. *)
let test_wrapping_cluster () =
  let store, mv = table_view () in
  let handles = Dewey_arena.size (Store.arena store) in
  let slots = Mview.slot_count mv in
  let homed slot k =
    let out = ref [] and a = ref 0 in
    while List.length !out < k do
      let t = (!a / handles, !a mod handles) in
      if Mview.home_slot mv [| fst t; snd t |] = slot then out := t :: !out;
      incr a
    done;
    List.rev !out
  in
  let tuples = homed (slots - 1) 3 @ homed 0 2 @ homed (slots - 2) 1 in
  let model = Hashtbl.create 8 in
  List.iter
    (fun t ->
      Mview.add_binding mv (tuple_cols t) 0;
      Hashtbl.replace model t 1)
    tuples;
  Alcotest.(check int) "no resize" slots (Mview.slot_count mv);
  check_table "filled" store mv model;
  List.iter
    (fun t ->
      Mview.remove_binding mv (tuple_cols t) 0;
      Hashtbl.remove model t;
      check_table "after a delete" store mv model)
    tuples

(* {1 Value-predicate watches}

   The walk from each target stops at the first node an earlier walk
   visited. The reference is the full walk it replaced: every target's
   whole ancestor chain, skipping nodes already watched. *)

let reference_watches mv targets =
  let pat = mv.Mview.pat and store = mv.Mview.store in
  let vnodes = ref [] in
  Array.iteri
    (fun i vp ->
      match vp with
      | Some _ when String.length pat.Pattern.tags.(i) > 0 && pat.Pattern.tags.(i).[0] <> '@' ->
        vnodes := i :: !vnodes
      | Some _ | None -> ())
    pat.Pattern.vpreds;
  let seen = Hashtbl.create 16 and out = ref [] in
  let watch node =
    if not (Hashtbl.mem seen node.Xml_tree.serial) then begin
      Hashtbl.add seen node.Xml_tree.serial ();
      List.iter
        (fun i ->
          if Pattern.tag_matches pat.Pattern.tags.(i) node then
            out := (i, Store.handle_of_node store node, Pattern.vpred_holds pat i node) :: !out)
        !vnodes
    end
  in
  let rec up node =
    watch node;
    match node.Xml_tree.parent with None -> () | Some p -> up p
  in
  List.iter up targets;
  !out

let watch_views =
  [
    Pattern.compile ~name:"wab" (n "a" ~vpred:"x" ~id:true [ n "b" ~vpred:"y" ~id:true [] ]);
    Pattern.compile ~name:"wstar" (n "*" ~vpred:"z" ~id:true [ n "c" ~id:true [] ]);
  ]

let watches_match_full_walk =
  Tutil.qtest ~count:300 "watches = full walk" Tutil.arb_doc (fun doc ->
      let store = Store.of_document (Xml_tree.copy doc) in
      List.for_all
        (fun pat ->
          let mv = Mview.materialize store pat in
          List.for_all
            (fun path ->
              let targets = Update.select store (Xpath.parse path) in
              Maint.vpred_watches mv targets = reference_watches mv targets)
            [ "//b"; "//*"; "//c//d"; "//a//e"; "//b//*" ])
        watch_views)

let test_watches_shared_ancestors () =
  (* Every b's ancestors are a's that share their upper chain. *)
  let doc = {|<r><a>x<a>x<b/><b/></a><a><b/><a><b/></a></a></a></r>|} in
  let store = Store.of_document (Xml_parse.document doc) in
  let mv = Mview.materialize store (List.hd watch_views) in
  let targets = Update.select store (Xpath.parse "//b") in
  let got = Maint.vpred_watches mv targets in
  Alcotest.(check (list (triple int int bool))) "early stop = full walk"
    (reference_watches mv targets) got;
  (* Four a's, each watched once, plus the four targets on node b. *)
  Alcotest.(check int) "watches" 8 (List.length got);
  Alcotest.(check bool) "no flip before any update" false (Maint.watches_flipped mv got)

(* One statement through a view set over [pats]: returns whether each
   view took the fallback, after checking every view against
   recomputation. *)
let set_fallbacks doc pats stmt =
  let store = Store.of_document (Xml_parse.document doc) in
  let set = View_set.create store in
  let views = List.map (View_set.add set) pats in
  let reports = View_set.update set stmt in
  List.iter
    (fun mv ->
      let fresh = Mview.materialize ~policy:Mview.Leaves store mv.Mview.pat in
      match Recompute.diff mv fresh with
      | None -> ()
      | Some d -> Alcotest.failf "%s: %s" mv.Mview.pat.Pattern.name d)
    views;
  List.map (fun mv -> (List.assq mv reports).Maint.fallback_recompute) views

let test_watch_flips () =
  let plain = Pattern.compile ~name:"plain" (n "b" ~id:true ~value:true []) in
  let cold = Pattern.compile ~name:"cold" (n "b" ~vpred:"cold" ~id:true []) in
  Alcotest.(check (list bool)) "replace value of flips"
    [ true; false ]
    (set_fallbacks {|<r><a><b>hot</b><b>cold</b></a></r>|} [ cold; plain ]
       (Update.replace_value ~target:"/r/a/b" "cold"));
  let z = Pattern.compile ~name:"cz" (n "c" ~vpred:"z" ~id:true []) in
  Alcotest.(check (list bool)) "text insert flips"
    [ true; false ]
    (set_fallbacks {|<r><c>z<d/></c><b/></r>|} [ z; plain ]
       (Update.insert ~into:"//d" "<t>q</t>"));
  let zb = Pattern.compile ~name:"zb" (n "b" ~vpred:"z" ~id:true []) in
  let doc = {|<r><b>z<a/></b><b>z</b><b>y</b></r>|} in
  Alcotest.(check (list bool)) "deleted watched nodes do not flip"
    [ false; false ]
    (set_fallbacks doc [ zb; plain ] (Update.delete "/r/b"));
  (* The single-view path checks its watches itself. *)
  let _, r = check_matches_recompute doc zb (Update.delete "/r/b") in
  Alcotest.(check bool) "single view: no fallback" false r.Maint.fallback_recompute;
  let _, r = check_matches_recompute doc zb (Update.insert ~into:"//a" "<t>q</t>") in
  Alcotest.(check bool) "single view: flip" true r.Maint.fallback_recompute

let () =
  Alcotest.run "maint"
    [
      ( "paper examples (insert)",
        [
          Alcotest.test_case "Example 3.1/3.2 terms" `Quick test_example_3_1_insert;
          Alcotest.test_case "Example 3.4 data pruning" `Quick test_example_3_4_no_c;
          Alcotest.test_case "Example 3.5 value pruning" `Quick test_example_3_5_vpred;
          Alcotest.test_case "Example 3.7 ID pruning" `Quick test_example_3_7_id_pruning;
          Alcotest.test_case "Example 3.14 PIMT" `Quick test_example_3_14_pimt;
        ] );
      ( "paper examples (delete)",
        [
          Alcotest.test_case "Example 4.1" `Quick test_example_4_1;
          Alcotest.test_case "Example 4.5" `Quick test_example_4_5;
          Alcotest.test_case "Example 4.8 derivation counts" `Quick
            test_example_4_8_derivation_counts;
          Alcotest.test_case "PDMT content refresh" `Quick test_pdmt_content;
        ] );
      ( "drivers",
        [
          Alcotest.test_case "multi-view shared store" `Quick test_multi_view_shared_store;
          Alcotest.test_case "delta work bounded by region" `Quick
            test_delta_work_bounded_by_region;
          Alcotest.test_case "delta work doc-size independent" `Quick
            test_delta_work_doc_size_independent;
          Alcotest.test_case "phase timers cover the taxonomy" `Quick
            test_phase_timers_cover_taxonomy;
          Alcotest.test_case "view set" `Quick test_view_set;
          Alcotest.test_case "dispatch guards" `Quick test_dispatch_errors;
          Alcotest.test_case "replace value" `Quick test_replace_value;
          Alcotest.test_case "vpred flip fallback" `Quick test_vpred_flip_fallback;
          Alcotest.test_case "no fallback on plain updates" `Quick
            test_no_fallback_on_plain_updates;
          Alcotest.test_case "re-inserted payloads by handle" `Quick
            test_reinsert_payloads;
        ] );
      ( "one-pass chain",
        [
          Alcotest.test_case "figure-20 views" `Quick test_one_pass_figure20;
          Alcotest.test_case "Q1-Q4 skewed" `Quick test_one_pass_skewed;
          Alcotest.test_case "random difftest patterns" `Quick test_one_pass_random;
        ] );
      ( "cont splices",
        splice_rules @ splice_fallbacks
        @ [
            Alcotest.test_case "fresh roots share cont" `Quick
              test_fresh_roots_shared;
            Alcotest.test_case "Appendix-A items" `Quick test_splice_xmark;
            splice_property;
          ] );
      ( "entry table",
        [
          Alcotest.test_case "model property, seed 1" `Quick (entry_table_property 1);
          Alcotest.test_case "model property, seed 2" `Quick (entry_table_property 2);
          Alcotest.test_case "wrapping cluster" `Quick test_wrapping_cluster;
        ] );
      ( "vpred watches",
        [
          watches_match_full_walk;
          Alcotest.test_case "shared ancestors" `Quick test_watches_shared_ancestors;
          Alcotest.test_case "flips in a view set" `Quick test_watch_flips;
        ] );
      ( "golden properties",
        [ golden_snowcaps; golden_leaves; golden_sequence; golden_no_pruning;
          pruning_soundness; mats_integrity ] );
    ]
