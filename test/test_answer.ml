(* The answering subsystem under test: the containment checker against
   brute-force homomorphism enumeration (with semantic witness replay
   through [Embed]), the rewriting planner's three plan shapes on
   handcrafted views, the seeded answer-from-views differential oracle,
   and known answers for the relevance skip that keeps views under
   independent updates. *)

let doc_of = Xml_parse.document

let compact = Difftest.view_of_compact

(* {1 Containment vs brute force} *)

(* Small patterns: a root with at most three descendants over a tiny
   alphabet, so exhaustive map enumeration stays trivial (<= 4^4). *)
let gen_small_pattern =
  let open QCheck.Gen in
  let label = frequency [ (4, oneofl [ "a"; "b"; "c" ]); (1, pure "*") ] in
  let axis = oneofl [ Pattern.Child; Pattern.Descendant ] in
  let vpred =
    frequency [ (4, pure None); (1, map (fun w -> Some w) (oneofl [ "x"; "y" ])) ]
  in
  let leaf =
    let* tag = label in
    let* ax = axis in
    let* vp = vpred in
    pure (Pattern.n ~axis:ax ~id:true ?vpred:vp tag [])
  in
  let* tag = label in
  let* ax = axis in
  let* vp = vpred in
  let* shape = int_range 0 3 in
  let* kids =
    match shape with
    | 0 -> pure []
    | 1 -> map (fun k -> [ k ]) leaf
    | 2 -> map (fun (a, b) -> [ a; b ]) (pair leaf leaf)
    | _ ->
      (* one nested chain: root -> mid -> leaf *)
      let* mid_tag = label in
      let* mid_ax = axis in
      let* l = leaf in
      pure [ Pattern.n ~axis:mid_ax ~id:true mid_tag [ l ] ]
  in
  pure (Pattern.compile ~name:"p" (Pattern.n ~axis:ax ~id:true ?vpred:vp tag kids))

let arb_small_pattern = QCheck.make gen_small_pattern ~print:Pattern.to_string

(* Independently-written validity predicate for a candidate map
   [h : p -> q] — the oracle the search is checked against. *)
let valid_hom (p : Pattern.t) (q : Pattern.t) h =
  let ok_tag general specific =
    general = specific
    || general = "*"
       && specific <> "#text"
       && not (String.length specific > 0 && specific.[0] = '@')
  in
  let strict_desc j anc =
    let rec up k = k >= 0 && (k = anc || up q.Pattern.parents.(k)) in
    j <> anc && up q.Pattern.parents.(j)
  in
  let ok = ref true in
  for i = 0 to Pattern.node_count p - 1 do
    let j = h.(i) in
    if not (ok_tag p.Pattern.tags.(i) q.Pattern.tags.(j)) then ok := false;
    (match p.Pattern.vpreds.(i) with
    | None -> ()
    | Some c -> if q.Pattern.vpreds.(j) <> Some c then ok := false);
    if i = 0 then begin
      if
        p.Pattern.axes.(0) = Pattern.Child
        && not (j = 0 && q.Pattern.axes.(0) = Pattern.Child)
      then ok := false
    end
    else begin
      let pj = h.(p.Pattern.parents.(i)) in
      match p.Pattern.axes.(i) with
      | Pattern.Child ->
        if not (q.Pattern.parents.(j) = pj && q.Pattern.axes.(j) = Pattern.Child)
        then ok := false
      | Pattern.Descendant -> if not (strict_desc j pj) then ok := false
    end
  done;
  !ok

(* Every map p -> q, exhaustively. *)
let all_maps np nq =
  let rec go i acc =
    if i = np then [ Array.of_list (List.rev acc) ]
    else
      List.concat (List.init nq (fun j -> go (i + 1) (j :: acc)))
  in
  go 0 []

let hom_set hs =
  List.sort compare (List.map Array.to_list hs)

let test_containment_vs_brute =
  QCheck.Test.make ~count:500 ~name:"homomorphisms = brute-force enumeration"
    (QCheck.pair arb_small_pattern arb_small_pattern)
    (fun (p, q) ->
      let got = hom_set (Containment.homomorphisms ~from:p ~into:q) in
      let want =
        hom_set
          (List.filter (valid_hom p q)
             (all_maps (Pattern.node_count p) (Pattern.node_count q)))
      in
      if got <> want then
        QCheck.Test.fail_reportf "checker %d maps, oracle %d maps"
          (List.length got) (List.length want);
      true)

(* Witness replay: a homomorphism [h : p -> q] composed with any document
   embedding of [q] must be a document embedding of [p]. *)
let test_containment_witness_replay =
  QCheck.Test.make ~count:300 ~name:"witness replay over random documents"
    (QCheck.triple Tutil.arb_doc arb_small_pattern arb_small_pattern)
    (fun (doc, p, q) ->
      match Containment.homomorphism ~from:p ~into:q with
      | None -> true
      | Some h ->
        let store = Store.of_document doc in
        let p_embs = Embed.embeddings store p in
        List.iter
          (fun eq ->
            let composed = Array.map (fun i -> eq.(i)) h in
            let mem =
              List.exists
                (fun ep ->
                  Array.length ep = Array.length composed
                  && Array.for_all2 Dewey.equal ep composed)
                p_embs
            in
            if not mem then
              QCheck.Test.fail_reportf
                "composed q-embedding is not a p-embedding (hom %s)"
                (String.concat ","
                   (List.map string_of_int (Array.to_list h))))
          (Embed.embeddings store q);
        true)

let test_contains_basics () =
  let p s = compact ~name:"p" s in
  Alcotest.(check bool) "//a contains /a" true
    (Containment.contains (p "//a{id}") (p "/a{id}"));
  Alcotest.(check bool) "/a does not contain //a" false
    (Containment.contains (p "/a{id}") (p "//a{id}"));
  Alcotest.(check bool) "star generalizes" true
    (Containment.contains (p "//*{id}") (p "//b{id}"));
  Alcotest.(check bool) "star never matches text" false
    (Containment.contains (p "//*{id}") (p "//#text{id}"));
  Alcotest.(check bool) "dropping a predicate generalizes" true
    (Containment.contains (p "//a{id}") (p "//a{id}[/b]"));
  Alcotest.(check bool) "vpred must be preserved" false
    (Containment.contains (p "//a[val='x']{id}") (p "//a{id}"))

(* {1 Answering plans on handcrafted views} *)

let tdoc = "<r><a><b>x</b></a><a><b>y</b><c>w</c></a><b>z</b></r>"

(* Each case: one store, the listed views materialized, the query
   answered, the plan's describe-prefix asserted, and the rows compared
   tuple-for-tuple against base recomputation. *)
let check_plan ~views ~query ~expect () =
  let store = Store.of_document (doc_of tdoc) in
  let set = View_set.create store in
  List.iteri
    (fun i s ->
      ignore (View_set.add set (compact ~name:(Printf.sprintf "v%d" i) s)))
    views;
  let q = compact ~name:"q" query in
  let sources = List.map Answer.source_of_mview (View_set.views set) in
  match Answer.answer ~store ~sources q with
  | None -> Alcotest.fail "no answer despite a store"
  | Some (plan, rows) ->
    let d = Answer.describe plan in
    if
      String.length d < String.length expect
      || String.sub d 0 (String.length expect) <> expect
    then Alcotest.failf "expected a %s… plan, got %s" expect d;
    (match Answer.diff ~expect:(Answer.base_rows store q) ~got:rows with
    | None -> ()
    | Some msg -> Alcotest.failf "views vs base: %s" msg)

let test_single_exact =
  check_plan ~views:[ "//a{id}[/b{id,val}]" ] ~query:"//a{id}[/b{id,val}]"
    ~expect:"single("

let test_single_val_eq =
  check_plan ~views:[ "//a{id}[/b{id,val}]" ]
    ~query:"//a{id}[/b[val='x']{id,val}]" ~expect:"single("

let test_single_child_of =
  check_plan ~views:[ "//r{id}[//b{id}]" ] ~query:"//r{id}[/b{id}]"
    ~expect:"single("

let test_single_root_at =
  check_plan ~views:[ "//r{id}" ] ~query:"/r{id}" ~expect:"single("

let test_single_projection =
  check_plan ~views:[ "//b{id,val,cont}" ] ~query:"//b{id}" ~expect:"single("

let test_count_merge =
  (* The query stores only [r]; the three [b] bindings must merge into
     one tuple of derivation count 3 on both sides. *)
  check_plan ~views:[ "//r{id}[//b{id}]" ] ~query:"//r{id}[//b]"
    ~expect:"single("

let test_no_weakening_match =
  (* A query [//] edge must not be answered from a view's stricter [/]
     edge: with only that view, the planner falls back. *)
  check_plan ~views:[ "//a{id}[/b{id}]" ] ~query:"//a{id}[//b{id}]"
    ~expect:"fallback("

let test_join () =
  (* The split node must carry a subtree, or the pruned top leg would
     already be the whole query and [single] legitimately wins. *)
  let q = compact ~name:"q" "//a{id}[/b{id}[/#text{id,val}]][/c{id}]" in
  let store = Store.of_document (doc_of tdoc) in
  let set = View_set.create store in
  ignore (View_set.add set (Pattern.prune q 1 ~name:"v0"));
  ignore (View_set.add set (Pattern.subpattern q 1 ~name:"v1"));
  let sources = List.map Answer.source_of_mview (View_set.views set) in
  match Answer.answer ~store ~sources q with
  | None -> Alcotest.fail "no answer despite a store"
  | Some (plan, rows) ->
    let d = Answer.describe plan in
    if String.length d < 5 || String.sub d 0 5 <> "join(" then
      Alcotest.failf "expected a join(… plan, got %s" d;
    (match Answer.diff ~expect:(Answer.base_rows store q) ~got:rows with
    | None -> ()
    | Some msg -> Alcotest.failf "views vs base: %s" msg)

let test_fallback = check_plan ~views:[ "//c{id}" ] ~query:"//b{id,val}" ~expect:"fallback("

(* [Root_at] rests on the document root having no Dewey parent. *)
let test_root_parent_none () =
  let store = Store.of_document (doc_of tdoc) in
  let rid = Store.id_of store (Store.root store) in
  Alcotest.(check bool) "root has no parent" true (Dewey.parent rid = None);
  match Xpath.eval (Store.root store) (Xpath.parse "//b") with
  | [] -> Alcotest.fail "no b nodes"
  | n :: _ ->
    Alcotest.(check bool) "non-root has a parent" true
      (Dewey.parent (Store.id_of store n) <> None)

(* {1 prune / subpattern} *)

let test_prune_subpattern () =
  let q = compact ~name:"q" "//a{id}[/b{id,val}[/d]][/c{id}]" in
  let top = Pattern.prune q 1 ~name:"t" in
  let bottom = Pattern.subpattern q 1 ~name:"s" in
  Alcotest.(check int) "prune drops b's subtree only" 3 (Pattern.node_count top);
  Alcotest.(check int) "subpattern keeps b's subtree" 2
    (Pattern.node_count bottom);
  Alcotest.(check bool) "subpattern root is //-anchored" true
    (bottom.Pattern.axes.(0) = Pattern.Descendant);
  Alcotest.(check bool) "split keeps its ID in the top leg" true
    top.Pattern.annots.(1).Pattern.store_id

(* Degenerate split points — the pattern root, a leaf, and a node that
   already stores a payload. The two legs re-enter the planner as views
   of the original query; whatever plan shape it picks (join, single
   with compensation, fallback), the rows must match base evaluation.
   Locks in the join-emit index fix for splits where one leg is trivial
   or the split node carries stored attributes. *)

let rec subtree_size q i =
  List.fold_left (fun acc c -> acc + subtree_size q c) 1 (Pattern.children q i)

let degenerate_splits q =
  let n = Pattern.node_count q in
  let rec leaf i =
    if i >= n then 0 else if Pattern.children q i = [] then i else leaf (i + 1)
  in
  let stored = ref 0 in
  Array.iteri
    (fun i (a : Pattern.annot) ->
      if !stored = 0 && (a.Pattern.store_val || a.Pattern.store_cont) then
        stored := i)
    q.Pattern.annots;
  List.sort_uniq compare [ 0; leaf 0; !stored ]

let prop_degenerate_splits =
  Tutil.qtest ~count:150 "prune ⋈ subpattern answers q at degenerate splits"
    (QCheck.pair Tutil.arb_doc Tutil.arb_pattern) (fun (doc, q) ->
      List.for_all
        (fun i ->
          let top = Pattern.prune q i ~name:"t" in
          let bottom = Pattern.subpattern q i ~name:"s" in
          (* Structural invariants of the split itself: the join key is
             stored on both sides, the bottom leg is //-anchored, and
             node counts partition the query (the split node counted in
             both legs). *)
          top.Pattern.annots.(i).Pattern.store_id
          && bottom.Pattern.axes.(0) = Pattern.Descendant
          && bottom.Pattern.annots.(0).Pattern.store_id
          && Pattern.node_count bottom = subtree_size q i
          && Pattern.node_count top
             = Pattern.node_count q - subtree_size q i + 1
          && (i <> 0 || Pattern.node_count top = 1)
          &&
          let store = Store.of_document (Xml_tree.copy doc) in
          let set = View_set.create store in
          ignore (View_set.add set top);
          ignore (View_set.add set bottom);
          let sources = List.map Answer.source_of_mview (View_set.views set) in
          match Answer.answer ~store ~sources q with
          | None -> false
          | Some (_, rows) ->
            Answer.diff ~expect:(Answer.base_rows store q) ~got:rows = None)
        (degenerate_splits q))

(* {1 Seeded differential oracles} *)

let test_answer_oracle () =
  let r = Difftest.run_answer ~seed:7 ~iters:400 () in
  List.iter print_endline r.Qgen.failures;
  Alcotest.(check int) "iterations" 400 r.Qgen.iterations;
  Alcotest.(check int) "mismatches" 0 r.Qgen.failed

let test_answer_repro_roundtrip () =
  let rnd = Random.State.make [| 0xa45; 11 |] in
  for _ = 1 to 50 do
    let c = Difftest.gen_answer_case rnd in
    let c' = Difftest.answer_of_repro (Difftest.repro_of_answer c) in
    Alcotest.(check string) "query preserved"
      (Pattern.to_string c.Difftest.aquery)
      (Pattern.to_string c'.Difftest.aquery);
    Alcotest.(check int) "view count preserved"
      (List.length c.Difftest.aset.Difftest.sviews)
      (List.length c'.Difftest.aset.Difftest.sviews);
    Alcotest.(check string) "document preserved"
      (Xml_tree.serialize c.Difftest.aset.Difftest.sdoc)
      (Xml_tree.serialize c'.Difftest.aset.Difftest.sdoc)
  done

(* {1 Independent updates skip maintenance}

   [xvmcli answer --update] keeps its views through [View_set.update],
   whose relevance skip decides per statement which views cannot change.
   Known answers on documents shaped like the DTD
   [r -> (a|b)*, a -> c*, b -> EMPTY] and, for nesting, [a -> (a|b)*]:
   a view is skipped when the statement's labels miss its footprint and
   no payload it stores can change, and skipped or not, it stays equal
   to recomputation. *)

let sdoc = "<r><a><c>u</c><c>v</c></a><b/><a><c>w</c></a><b/></r>"
let nested_doc = "<a><a><b/></a><b/><a><a><b/></a></a></a>"

let check_skip ?(doc = sdoc) cases () =
  List.iter
    (fun (view, stmt, skipped) ->
      let what = Printf.sprintf "%s under %s" view stmt in
      let store = Store.of_document (doc_of doc) in
      let set = View_set.create store in
      let mv = View_set.add set (compact ~name:"v" view) in
      (match View_set.update set (Update.parse stmt) with
      | [ (_, r) ] ->
        Alcotest.(check bool) (what ^ ": skipped") skipped
          r.Maint.skipped_irrelevant
      | _ -> Alcotest.fail (what ^ ": expected one report"));
      match Recompute.diff mv (Mview.materialize store mv.Mview.pat) with
      | None -> ()
      | Some d -> Alcotest.failf "%s: view diverged: %s" what d)
    cases

let test_skip_delete =
  check_skip
    [
      ("//c{id}", "delete //b", true);
      ("//c{id}", "delete //a", false);
      ("//c{id}", "delete //zz", true);
    ]

let test_skip_insert =
  check_skip
    [
      ("//a{id,cont}", "insert into //c <d/>", false);
      ("//a{id,cont}", "insert into //b <d/>", true);
      ("//b{id}", "insert into //a <b/>", false);
    ]

let test_skip_replace =
  let stmt = "replace value of //c with \"q\"" in
  check_skip
    [
      ("//a{id}", stmt, true);
      ("//a{id,val}", stmt, false);
      (* The replaced text nodes share the view's #text label, though none
         sits below an [a]: the label test keeps the view. *)
      ("//a{id}[/#text{id}]", stmt, false);
    ]

let test_skip_nested =
  check_skip ~doc:nested_doc
    [ ("//b{id}", "delete //a//a", false); ("//a{id}", "delete //b", true) ]

let () =
  Alcotest.run "answer"
    [
      ( "containment",
        [
          QCheck_alcotest.to_alcotest test_containment_vs_brute;
          QCheck_alcotest.to_alcotest test_containment_witness_replay;
          Alcotest.test_case "basic pairs" `Quick test_contains_basics;
        ] );
      ( "plans",
        [
          Alcotest.test_case "single exact" `Quick test_single_exact;
          Alcotest.test_case "val compensation" `Quick test_single_val_eq;
          Alcotest.test_case "child-of compensation" `Quick test_single_child_of;
          Alcotest.test_case "root-at compensation" `Quick test_single_root_at;
          Alcotest.test_case "payload projection" `Quick test_single_projection;
          Alcotest.test_case "count merge" `Quick test_count_merge;
          Alcotest.test_case "no //-from-/ weakening" `Quick test_no_weakening_match;
          Alcotest.test_case "two-view join" `Quick test_join;
          Alcotest.test_case "base fallback" `Quick test_fallback;
          Alcotest.test_case "root parent is None" `Quick test_root_parent_none;
          Alcotest.test_case "prune/subpattern shapes" `Quick test_prune_subpattern;
          prop_degenerate_splits;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "answer-from-views clean" `Quick test_answer_oracle;
          Alcotest.test_case "reproducer roundtrip" `Quick test_answer_repro_roundtrip;
        ] );
      ( "independence via skip",
        [
          Alcotest.test_case "delete" `Quick test_skip_delete;
          Alcotest.test_case "insert" `Quick test_skip_insert;
          Alcotest.test_case "replace value" `Quick test_skip_replace;
          Alcotest.test_case "nested labels" `Quick test_skip_nested;
        ] );
    ]
