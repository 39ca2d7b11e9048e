(* Tests for batch view-set maintenance: the name index, the relevance
   pre-filter (skip safety), the skip/clean/commit reassembly, and the
   flat-in-N scan counters of the shared update-region index. *)

let n = Pattern.n

let doc_text =
  {|<r><a>x<b>1</b><b>2</b></a><c><d>y</d></c><a><b>3</b></a><e k="v">z</e></r>|}

let fresh_store () = Store.of_document (Xml_parse.document doc_text)

(* Id-only views (empty [cvn]): eligible for the relevance skip. *)
let v_ab name = Pattern.compile ~name (n "a" ~id:true [ n "b" ~id:true [] ])
let v_cd name = Pattern.compile ~name (n "c" ~id:true [ n "d" ~id:true [] ])
let v_b name = Pattern.compile ~name (n "b" ~id:true [])
let v_star name = Pattern.compile ~name (n "*" ~id:true [])

let names set = List.map (fun mv -> mv.Mview.pat.Pattern.name) (View_set.views set)

(* {1 Name index} *)

let test_name_index () =
  let set = View_set.create (fresh_store ()) in
  let _ = View_set.add set (v_ab "one") in
  let _ = View_set.add set (v_cd "two") in
  (match View_set.find set "one" with
  | Some mv -> Alcotest.(check string) "found one" "one" mv.Mview.pat.Pattern.name
  | None -> Alcotest.fail "view 'one' not found");
  Alcotest.(check bool) "absent name" true (View_set.find set "zzz" = None);
  (match View_set.add set (v_b "one") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate name accepted");
  Alcotest.(check (list string)) "insertion order" [ "one"; "two" ] (names set);
  View_set.remove set "one";
  Alcotest.(check bool) "removed" true (View_set.find set "one" = None);
  Alcotest.(check (list string)) "order after remove" [ "two" ] (names set);
  let _ = View_set.add set (v_b "one") in
  Alcotest.(check bool) "name reusable after remove" true
    (View_set.find set "one" <> None);
  Alcotest.(check (list string)) "re-added goes last" [ "two"; "one" ] (names set)

(* {1 Relevance skip} *)

let check_against_recompute mv pat stmt =
  let store = Store.of_document (Xml_parse.document doc_text) in
  let mv2, _ = Recompute.recompute_after store stmt ~pat in
  match Recompute.diff mv mv2 with
  | None -> ()
  | Some d -> Alcotest.fail ("batched view diverged from recompute: " ^ d)

let test_skip_irrelevant () =
  (* Inserted fragment holds only f/g nodes: disjoint from the a/b
     footprint, and the view stores no payloads, so it is skipped — and
     the skip must be invisible in the view's extent. *)
  let stmt = Update.insert ~into:"/r/c" "<f><g/></f>" in
  let set = View_set.create (fresh_store ()) in
  let mv = View_set.add set (v_ab "w") in
  let reports = View_set.update set stmt in
  let r = List.assq mv reports in
  Alcotest.(check bool) "skipped" true r.Maint.skipped_irrelevant;
  Alcotest.(check int) "no terms developed" 0 r.Maint.terms_developed;
  check_against_recompute mv (v_ab "w") stmt

let test_star_skipped_without_elements () =
  (* A [*] pattern tag matches any element: an insert of elements outside
     the exact-tag footprint must not be skipped for a star view. *)
  let stmt = Update.insert ~into:"/r/c" "<f><g/></f>" in
  let set = View_set.create (fresh_store ()) in
  let mv = View_set.add set (v_star "s") in
  let reports = View_set.update set stmt in
  let r = List.assq mv reports in
  Alcotest.(check bool) "not skipped" false r.Maint.skipped_irrelevant;
  Alcotest.(check bool) "view grew" true (r.Maint.embeddings_added > 0);
  check_against_recompute mv (v_star "s") stmt;
  (* An update region without elements — an attribute-only delete, a
     text-only insert, a statement with no targets — cannot reach a star
     node, so the view is skipped. *)
  List.iter
    (fun (what, stmt) ->
      let set = View_set.create (fresh_store ()) in
      let mv = View_set.add set (v_star "s") in
      let r = List.assq mv (View_set.update set stmt) in
      Alcotest.(check bool) (what ^ " skipped") true r.Maint.skipped_irrelevant;
      check_against_recompute mv (v_star "s") stmt)
    [
      ("attribute delete", Update.delete "//@k");
      ( "text insert",
        Update.insert_forest ~into:(Xpath.parse "/r/c") (fun _ ->
            [ Xml_tree.text "hello" ]) );
      ("no targets", Update.delete "//zz");
    ]

(* {2 Payload-storing views}

   A view that stores val/cont may be skipped only when none of its
   payload nodes is labeled like a node on the update's root paths (an
   ancestor-or-self of an insertion point, a strict ancestor of a deleted
   root). *)

let v_e_cont name = Pattern.compile ~name (n "e" ~id:true ~content:true [])

let check_against_recompute_on text mv pat stmt =
  let store = Store.of_document (Xml_parse.document text) in
  let mv2, _ = Recompute.recompute_after store stmt ~pat in
  match Recompute.diff mv mv2 with
  | None -> ()
  | Some d -> Alcotest.fail ("batched view diverged from recompute: " ^ d)

let e_content mv =
  match Mview.dump mv with
  | [ (_, _, cells) ] -> Option.value ~default:"" cells.(0).Mview.cell_content
  | _ -> Alcotest.fail "expected exactly one e tuple"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_cont_insert_below_not_skipped () =
  (* [f] is outside the footprint {e}, but the insertion point is [e]
     itself: its stored content changes. *)
  let stmt = Update.insert ~into:"/r/e" "<f/>" in
  let set = View_set.create (fresh_store ()) in
  let mv = View_set.add set (v_e_cont "ec") in
  let r = List.assq mv (View_set.update set stmt) in
  Alcotest.(check bool) "not skipped" false r.Maint.skipped_irrelevant;
  Alcotest.(check int) "content refreshed" 1 r.Maint.tuples_modified;
  Alcotest.(check bool) "content holds the new child" true
    (contains (e_content mv) "<f/>");
  check_against_recompute mv (v_e_cont "ec") stmt

let test_cont_delete_below_not_skipped () =
  (* The deleted [b] roots hang below [e]; once detached they have no
     parent, yet [e]'s content must still be refreshed. *)
  let text = {|<r><e><b>1</b>x<b>2</b></e><c><b>3</b></c></r>|} in
  let stmt = Update.delete "//b" in
  let set = View_set.create (Store.of_document (Xml_parse.document text)) in
  let mv = View_set.add set (v_e_cont "ec") in
  let r = List.assq mv (View_set.update set stmt) in
  Alcotest.(check bool) "not skipped" false r.Maint.skipped_irrelevant;
  Alcotest.(check int) "content refreshed" 1 r.Maint.tuples_modified;
  Alcotest.(check bool) "content lost the b children" false
    (contains (e_content mv) "<b>");
  check_against_recompute_on text mv (v_e_cont "ec") stmt

let test_cont_sibling_insert_skipped () =
  (* Insertion under [c], a sibling of [e]: no node labeled [e] is on the
     root path [r/c], so the payload-storing view is skipped. *)
  let stmt = Update.insert ~into:"/r/c" "<f/>" in
  let set = View_set.create (fresh_store ()) in
  let mv = View_set.add set (v_e_cont "ec") in
  let before = e_content mv in
  let r = List.assq mv (View_set.update set stmt) in
  Alcotest.(check bool) "skipped" true r.Maint.skipped_irrelevant;
  Alcotest.(check string) "content unchanged" before (e_content mv);
  check_against_recompute mv (v_e_cont "ec") stmt

(* Every Figure-20 view under every Appendix-A statement, insert and
   delete forms, maintained as one batched set: each view equals a fresh
   recomputation, and the payload-aware skip fires although every one of
   these views stores a val or cont payload. *)
let test_figure20_batched_skips () =
  let doc = Xmark_gen.document ~seed:42 ~target_kb:32 in
  let skipped_total = ref 0 in
  List.iter
    (fun (u : Xmark_updates.t) ->
      List.iter
        (fun (form, stmt) ->
          let set = View_set.create (Store.of_document (Xml_tree.copy doc)) in
          List.iter (fun (_, pat) -> ignore (View_set.add set pat)) Xmark_views.all;
          let reports, snap = Obs.with_scope (fun () -> View_set.update set stmt) in
          skipped_total :=
            !skipped_total + Obs.counter_value snap "maint.work.skipped_irrelevant";
          let ref_store = Store.of_document (Xml_tree.copy doc) in
          ignore (Maint.apply_only ref_store stmt);
          Store.commit ref_store;
          List.iter
            (fun (mv, (r : Maint.report)) ->
              let name = mv.Mview.pat.Pattern.name in
              let expected = Mview.materialize ref_store mv.Mview.pat in
              (match Recompute.diff mv expected with
              | None -> ()
              | Some d ->
                Alcotest.failf "%s under %s %s diverged: %s" name form
                  u.Xmark_updates.name d);
              if name = "Q6" && u.Xmark_updates.name = "X1_L" && form = "insert"
              then
                Alcotest.(check bool) "Q6 skipped under insert X1_L" true
                  r.Maint.skipped_irrelevant)
            reports)
        [ ("insert", Xmark_updates.insert u); ("delete", Xmark_updates.delete u) ])
    Xmark_updates.all;
  Alcotest.(check bool) "skips counted" true (!skipped_total > 0)

(* Property form of skip safety: on random documents, whether or not the
   pre-filter fires, every view in the batched set matches a fresh
   recomputation. The insert's f/g labels are outside the generator's
   vocabulary, so insert runs exercise the skip path; deletes of [e]
   subtrees may or may not touch each view's footprint. *)
let prop_skip_safety =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"batched set = recompute (incl. skipped views)"
       ~count:120 Tutil.arb_doc (fun doc ->
         let pats = [ v_cd "p0"; v_ab "p1" ] in
         List.for_all
           (fun stmt ->
             let store = Store.of_document (Xml_tree.copy doc) in
             let set = View_set.create store in
             let mvs = List.map (fun p -> View_set.add set p) pats in
             ignore (View_set.update set stmt);
             List.for_all2
               (fun mv pat ->
                 let store2 = Store.of_document (Xml_tree.copy doc) in
                 let mv2, _ = Recompute.recompute_after store2 stmt ~pat in
                 Recompute.diff mv mv2 = None)
               mvs pats)
           [ Update.insert ~into:"//a" "<f><g/></f>"; Update.delete "//e" ]))

(* {1 Skip / clean / commit reassembly}

   One statement over four views takes all three eager paths of
   [View_set.update]: [k1]'s c/d footprint is disjoint from the inserted
   [b] (skip), [k0] and [k3] propagate incrementally before the shared
   commit (clean), and [k2]'s [val='x12'] watch on the first [a] flips
   to false (commit, an exact rebuild after the shared commit). *)

let v_a_x12 name = Pattern.compile ~name (n "a" ~vpred:"x12" ~id:true [])

let test_reassembly_known_answer () =
  let stmt = Update.insert ~into:"/r/a" "<b>9</b>" in
  let pats = [ v_ab "k0"; v_cd "k1"; v_a_x12 "k2"; v_b "k3" ] in
  let set = View_set.create (fresh_store ()) in
  let mvs = List.map (fun p -> View_set.add set p) pats in
  Alcotest.(check int) "k2 selects the first a" 1
    (Mview.cardinality (List.nth mvs 2));
  let reports = View_set.update set stmt in
  Alcotest.(check (list string)) "reports in insertion order"
    [ "k0"; "k1"; "k2"; "k3" ]
    (List.map (fun (mv, _) -> mv.Mview.pat.Pattern.name) reports);
  Alcotest.(check bool) "report views are the set's views" true
    (List.for_all2 (fun mv (mv', _) -> mv == mv') mvs reports);
  Alcotest.(check (list (pair bool bool)))
    "(skipped_irrelevant, fallback_recompute) per view"
    [ (false, false); (true, false); (false, true); (false, false) ]
    (List.map
       (fun (_, r) -> (r.Maint.skipped_irrelevant, r.Maint.fallback_recompute))
       reports);
  Alcotest.(check (list int)) "clean views added one b per a"
    [ 2; 0; 0; 2 ]
    (List.map (fun (_, r) -> r.Maint.embeddings_added) reports);
  List.iter2 (fun mv pat -> check_against_recompute mv pat stmt) mvs pats;
  Alcotest.(check int) "k2 lost the first a" 0 (Mview.cardinality (List.nth mvs 2))

(* {1 Adaptive (heavy-light) maintenance} *)

let test_adaptive_defer_and_drain () =
  (* Thresholds tuned so label [b] (sibling fan-out 2 under the first
     [a]) classifies heavy: an insert whose delta reaches the view
     through [b] defers (zeroed skipped report, view stale); a read
     drains back to exactly the eager/recompute result. *)
  let store = fresh_store () in
  let set = View_set.create store in
  let mv = View_set.add set (v_ab "w") in
  let config =
    { Hl.default_config with Hl.heavy_fanout = 2; Hl.heavy_count = 1 lsl 20 }
  in
  View_set.set_adaptive set (Some (Hl.create ~config store));
  (match View_set.adaptive set with
  | Some hl ->
    Alcotest.(check bool) "b classified heavy" true (Hl.is_heavy hl "b")
  | None -> Alcotest.fail "classifier not installed");
  let stmt = Update.insert ~into:"/r/a" "<b>9</b>" in
  let reports, snap = Obs.with_scope (fun () -> View_set.update set stmt) in
  let r = List.assq mv reports in
  (* A deferral is not a skip: zeroed report, skip flag and counter
     untouched, the deferral counted on its own. *)
  Alcotest.(check bool) "deferred: not reported as a skip" false
    r.Maint.skipped_irrelevant;
  Alcotest.(check bool) "deferred: zeroed report" true
    (r.Maint.embeddings_added = 0 && r.Maint.tuples_modified = 0
    && r.Maint.terms_developed = 0 && not r.Maint.fallback_recompute);
  Alcotest.(check int) "deferred: skip counter untouched" 0
    (Obs.counter_value snap "maint.work.skipped_irrelevant");
  Alcotest.(check int) "deferred: deferral counted" 1
    (Obs.counter_value snap "maint.defer.deferrals");
  Alcotest.(check (list string)) "view stale" [ "w" ] (View_set.stale set);
  Alcotest.(check bool) "drain rebuilt the view" true (View_set.drain_view set "w");
  Alcotest.(check (list string)) "nothing stale after drain" [] (View_set.stale set);
  Alcotest.(check bool) "second drain is a no-op" false
    (View_set.drain_view set "w");
  check_against_recompute mv (v_ab "w") stmt;
  (* Detaching the classifier drains implicitly and restores pure eager
     behavior. *)
  View_set.set_adaptive set None;
  let reports = View_set.update set (Update.insert ~into:"/r/a" "<b>10</b>") in
  let r = List.assq mv reports in
  Alcotest.(check bool) "eager again after detach" false r.Maint.skipped_irrelevant

let test_adaptive_light_stays_eager () =
  (* No label crosses the (default, huge) thresholds: the adaptive path
     must be observationally the eager path — no deferral, no stale
     views, identical extent. *)
  let store = fresh_store () in
  let set = View_set.create store in
  let mv = View_set.add set (v_ab "w") in
  View_set.set_adaptive set (Some (Hl.create store));
  let stmt = Update.insert ~into:"/r/a" "<b>9</b>" in
  let reports = View_set.update set stmt in
  let r = List.assq mv reports in
  Alcotest.(check bool) "not deferred" false r.Maint.skipped_irrelevant;
  Alcotest.(check (list string)) "nothing stale" [] (View_set.stale set);
  check_against_recompute mv (v_ab "w") stmt

(* {1 Snowcap deletion on handles}

   A snowcap table is purged only through the non-empty Δ⁻ tables of its
   own columns; with all of them empty it is not scanned at all, which
   [maint.work.purge_rows] (rows scanned by R \ Δ⁻ purges) shows. *)

(* [r/a/b] under the default snowcap policy materializes the chain
   prefixes {r} (1 row) and {r,a} (2 rows). *)
let v_rab name =
  Pattern.compile ~name (n "r" ~id:true [ n "a" ~id:true [ n "b" ~id:true [] ] ])

let purge_rows stmt =
  let mv = Mview.materialize (fresh_store ()) (v_rab "sc") in
  let r, snap = Obs.with_scope (fun () -> Maint.propagate mv stmt) in
  let expected, _ = Recompute.recompute_after (fresh_store ()) stmt ~pat:(v_rab "sc") in
  (match Recompute.diff mv expected with
  | None -> ()
  | Some d -> Alcotest.fail ("snowcap purge diverged from recompute: " ^ d));
  (r.Maint.embeddings_removed, Obs.counter_value snap "maint.work.purge_rows")

let test_purge_skips_untouched_snowcaps () =
  (* No r/a/b node is deleted: no snowcap row is looked at. *)
  Alcotest.(check (pair int int)) "delete //d: nothing removed, no rows scanned"
    (0, 0) (purge_rows (Update.delete "//d"));
  (* Only b nodes die, and neither snowcap has a b column. *)
  Alcotest.(check (pair int int)) "delete //b: 3 removed, no rows scanned"
    (3, 0) (purge_rows (Update.delete "//b"));
  (* a nodes die: {r,a} (2 rows) is scanned once, {r} is left alone. *)
  Alcotest.(check (pair int int)) "delete /r/a: 3 removed, only {r,a} scanned"
    (3, 2) (purge_rows (Update.delete "/r/a"))

(* {1 Shared-index counters flat in N} *)

let delta_counters pats stmt =
  let set = View_set.create (fresh_store ()) in
  List.iter (fun p -> ignore (View_set.add set p)) pats;
  let _, snap = Obs.with_scope (fun () -> View_set.update set stmt) in
  let get k = try List.assoc k (Obs.nonzero_counters snap) with Not_found -> 0 in
  (get "maint.delta.nodes", get "maint.delta.extractions")

let test_insert_counters_flat () =
  let stmt = Update.insert ~into:"/r/a" "<b>new</b>" in
  let one = delta_counters [ v_b "f0" ] stmt in
  let four = delta_counters [ v_b "f0"; v_ab "f1"; v_star "f2"; v_cd "f3" ] stmt in
  Alcotest.(check (pair int int)) "insert scan work independent of view count"
    one four

let test_delete_counters_flat () =
  (* Same-footprint views, so the shared delete build's wanted-label
     narrowing extracts the same slices whatever the view count. *)
  let stmt = Update.delete "//b" in
  let one = delta_counters [ v_b "g0" ] stmt in
  let four =
    delta_counters
      [ v_b "g0"; v_b "g1"; v_b "g2"; Pattern.compile ~name:"g3" (n "a" [ n "b" ~id:true [] ]) ]
      stmt
  in
  Alcotest.(check (pair int int)) "delete scan work independent of view count"
    one four

let () =
  Alcotest.run "batch"
    [
      ( "view_set",
        [
          Alcotest.test_case "name index" `Quick test_name_index;
          Alcotest.test_case "irrelevant view skipped" `Quick test_skip_irrelevant;
          Alcotest.test_case "star view skipped only without elements" `Quick
            test_star_skipped_without_elements;
          prop_skip_safety;
          Alcotest.test_case "cont view: insert below is not skipped" `Quick
            test_cont_insert_below_not_skipped;
          Alcotest.test_case "cont view: delete below is not skipped" `Quick
            test_cont_delete_below_not_skipped;
          Alcotest.test_case "cont view: sibling insert is skipped" `Quick
            test_cont_sibling_insert_skipped;
          Alcotest.test_case "figure-20 views x appendix-A batched" `Quick
            test_figure20_batched_skips;
          Alcotest.test_case "skip/clean/commit reassembly known answer" `Quick
            test_reassembly_known_answer;
        ] );
      ( "snowcaps",
        [
          Alcotest.test_case "purge skips untouched snowcaps" `Quick
            test_purge_skips_untouched_snowcaps;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "heavy delta defers; drain reconciles" `Quick
            test_adaptive_defer_and_drain;
          Alcotest.test_case "no heavy labels = eager behavior" `Quick
            test_adaptive_light_stays_eager;
        ] );
      ( "counters",
        [
          Alcotest.test_case "insert delta work flat in N" `Quick
            test_insert_counters_flat;
          Alcotest.test_case "delete delta work flat in N" `Quick
            test_delete_counters_flat;
        ] );
    ]
