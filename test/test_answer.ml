(* The answering subsystem under test: the rewriting planner's three
   plan shapes on handcrafted views, the known answers of query
   answering from person views (single view, view joins), the seeded
   answer-from-views differential oracle, and known answers for the
   relevance skip that keeps views under independent updates. *)

let doc_of = Xml_parse.document

let compact = Difftest.view_of_compact

(* {1 Answering plans on handcrafted views} *)

let tdoc = "<r><a><b>x</b></a><a><b>y</b><c>w</c></a><b>z</b></r>"

(* Each case: one store, the listed views materialized, the query
   answered, the plan's describe-prefix asserted, and the rows compared
   tuple-for-tuple against base recomputation (and counted, when [nrows]
   is given). *)
let check_plan ?(doc = tdoc) ?nrows ~views ~query ~expect () =
  let store = Store.of_document (doc_of doc) in
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
    | Some msg -> Alcotest.failf "views vs base: %s" msg);
    Option.iter (fun n -> Alcotest.(check int) "rows" n (List.length rows)) nrows

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

let test_permuted_view =
  (* The view stores [a]'s children in the other order: the projection
     permutes the view's stored positions, so the view's (c, b) order
     must be re-sorted into the query's (b, c) order. *)
  check_plan ~doc:"<r><a><b>1</b><b>2</b><c>3</c><c>4</c></a><a><b>5</b><c>6</c></a></r>"
    ~views:[ "//a{id}[/c{id,val}][/b{id,val}]" ]
    ~query:"//a{id}[/b{id,val}][/c{id,val}]" ~expect:"single("

let test_permuted_projection_merges =
  (* Permuted and narrowed: the dropped [b] IDs make rows merge. *)
  check_plan ~views:[ "//r{id}[//b{id}][//a{id}]" ] ~query:"//r{id}[//a{id}][//b]"
    ~expect:"single("

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

(* {1 Answering from person views}

   Known answers on three persons, two named ann and two with a
   homepage. Every case is also diffed against base recomputation. *)

let pdoc =
  {|<site><people>
      <person id="p0"><name>ann</name><homepage>h0</homepage></person>
      <person id="p1"><name>bob</name></person>
      <person id="p2"><name>ann</name><homepage>h2</homepage></person>
    </people></site>|}

let persons_names = "/site[/people[/person{id}[/name{id,val}]]]"
let persons_homepages = "/site[/people[/person{id}[/homepage{id,val}]]]"

let test_person_exact =
  check_plan ~doc:pdoc ~nrows:3 ~views:[ persons_names ] ~query:persons_names
    ~expect:"single("

let test_person_projection =
  check_plan ~doc:pdoc ~nrows:3 ~views:[ persons_names ]
    ~query:"/site[/people[/person[/name{val}]]]" ~expect:"single("

let test_person_filter =
  check_plan ~doc:pdoc ~nrows:2 ~views:[ persons_names ]
    ~query:"/site[/people[/person{id}[/name[val='ann']{id,val}]]]" ~expect:"single("

(* Content the view does not store, a different shape, and a view
   narrower than the query: none answers from the view. *)
let test_person_not_answerable () =
  List.iter
    (fun (view, query) -> check_plan ~doc:pdoc ~views:[ view ] ~query ~expect:"fallback(" ())
    [
      (persons_names, "/site[/people[/person{cont}[/name]]]");
      (persons_names, "//person{id}");
      ("/site[/people[/person{id}[/name[val='x']{id,val}]]]", persons_names);
    ]

(* Names beside homepages under one person, from a names view and a
   homepages view: no view, nor a split of the query at one node, covers
   both siblings, so the planner falls back. *)
let test_person_sibling_stitch =
  check_plan ~doc:pdoc ~nrows:2 ~views:[ persons_names; persons_homepages ]
    ~query:"/site[/people[/person{id}[/name{id,val}][/homepage{id,val}]]]"
    ~expect:"fallback("

(* Homepages under persons: the persons view answers the query down to
   the person, a homepage view the rest, joined on the person's ID. *)
let test_person_join =
  check_plan ~doc:pdoc ~nrows:2
    ~views:[ "/site[/people[/person{id}]]"; "//person{id}[/homepage{id,val}]" ]
    ~query:persons_homepages ~expect:"join("

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

(* {1 Canonical order vs the string-keyed reference}

   The former canonical form, kept here as the reference only: one key
   string per row holding every cell's encoded ID and its payloads,
   hashed to merge and sorted. *)

let ref_cell_key (id, v, c) =
  Dewey.encode id ^ "\x02"
  ^ (match v with None -> "" | Some s -> "v" ^ s)
  ^ "\x02"
  ^ match c with None -> "" | Some s -> "c" ^ s

let ref_row_key (r : Answer.row) =
  String.concat "\x01" (Array.to_list (Array.map ref_cell_key r.Answer.cells))

let ref_canonical rows =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (r : Answer.row) ->
      let k = ref_row_key r in
      match Hashtbl.find_opt tbl k with
      | Some (r' : Answer.row) ->
        Hashtbl.replace tbl k { r' with Answer.count = r'.Answer.count + r.Answer.count }
      | None -> Hashtbl.add tbl k r)
    rows;
  Hashtbl.fold (fun k r acc -> (k, r) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

(* Random row lists over a small pool of identifiers (so rows repeat),
   with ordinals past 63 (two-byte varints, whose byte order is not
   numeric order). The cells of every row are permuted alike, as a
   projection that reorders a view's stored positions would. Payloads
   are a function of the ID and the column, except for variants: copies
   of a row whose last cell carries a different payload, which must not
   merge with it. *)
let gen_rows =
  let open QCheck.Gen in
  let gen_id =
    let* depth = int_range 1 3 in
    let* steps =
      list_repeat depth
        (pair (int_range 0 3) (list_size (int_range 1 2) (int_range 0 200)))
    in
    pure
      (Dewey.of_steps
         (Array.of_list
            (List.map (fun (lab, ord) -> { Dewey.lab; ord = Array.of_list ord }) steps)))
  in
  let* pool = array_size (int_range 1 6) gen_id in
  let* width = int_range 1 3 in
  let* flags = array_repeat width (pair bool bool) in
  let* perm = map Array.of_list (shuffle_l (List.init width Fun.id)) in
  let payload tag on id = if on then Some (tag ^ Dewey.to_string id) else None in
  let gen_row =
    let* ids = array_repeat width (oneofa pool) in
    let* count = int_range 1 3 in
    let cells =
      Array.mapi
        (fun k id ->
          let v, c = flags.(k) in
          (id, payload "v" v id, payload "c" c id))
        ids
    in
    pure { Answer.count; cells = Array.map (fun p -> cells.(p)) perm }
  in
  let variant (r : Answer.row) =
    let cells = Array.copy r.Answer.cells in
    let last = width - 1 in
    let id, v, c = cells.(last) in
    let bump = Option.map (fun s -> s ^ "*") in
    cells.(last) <- (if v <> None then (id, bump v, c) else (id, v, bump c));
    { r with Answer.cells }
  in
  let* rows = list_size (int_range 0 25) gen_row in
  let some_of rows n =
    if rows = [] then pure [] else list_size (int_range 0 n) (oneofl rows)
  in
  let* dups = some_of rows 4 in
  let last_val, last_cont = flags.(perm.(width - 1)) in
  let* variants = if last_val || last_cont then some_of rows 4 else pure [] in
  shuffle_l (rows @ dups @ List.map variant variants)

let prop_canonical_vs_reference =
  Tutil.qtest ~count:500 "canonical = string-keyed reference (order and counts)"
    (QCheck.make gen_rows ~print:(fun rows ->
         String.concat "\n" (List.map (fun r -> Answer.row_to_string r) rows)))
    (fun rows ->
      let got = Answer.canonical rows and want = ref_canonical rows in
      got = want && Answer.diff ~expect:want ~got = None)

(* Rows that differ only in a payload stay apart, and merging sums. *)
let test_canonical_ties () =
  let id = Dewey.root ~lab:1 in
  let row count v = { Answer.count; cells = [| (id, Some v, None) |] } in
  let got = Answer.canonical [ row 1 "b"; row 2 "a"; row 3 "b" ] in
  Alcotest.(check (list (pair int string)))
    "one row per payload, counts summed"
    [ (2, "a"); (4, "b") ]
    (List.map
       (fun (r : Answer.row) ->
         let _, v, _ = r.Answer.cells.(0) in
         (r.Answer.count, Option.get v))
       got)

(* {1 The four plan shapes on an XMark document}

   The view set and queries of the benchmark's bulk-uniform reads (a
   single view, a single view with a value compensation, a two-view
   join, a base fallback) on a 256 KB document, answered before and
   after Appendix-A insert/undo pairs. *)

let item_name_query =
  Pattern.compile ~name:"Qjoin"
    Pattern.(
      n ~axis:Child ~id:true "site"
        [ n ~axis:Child ~id:true "regions"
            [ n ~id:true ~content:true "item" [ n ~axis:Child ~value:true "name" [] ] ] ])

let xmark_case () =
  let store = Store.of_document (Xmark_gen.document ~seed:3 ~target_kb:256) in
  let set = View_set.create store in
  List.iter
    (fun n -> ignore (View_set.add set (Xmark_views.find n)))
    [ "Q1"; "Q2"; "Q3"; "Q4"; "Q6"; "Q13"; "Q17" ];
  ignore (View_set.add set (Pattern.subpattern item_name_query 2 ~name:"Qitem_name"));
  let first_name =
    match View_set.find set "Q1" with
    | Some mv -> (
      match Mview.dump mv with
      | (_, _, cells) :: _ -> Option.get cells.(4).Mview.cell_value
      | [] -> Alcotest.fail "empty Q1")
    | None -> Alcotest.fail "no Q1"
  in
  let queries =
    [
      ("single(Q2)", Pattern.rename Xmark_views.q2 "Q2x");
      ( "single(Q1), 1 compensation",
        compact ~name:"Q1v"
          (Printf.sprintf
             "/site{id}[/people{id}[/person{id}[/@id{id}][/name[val='%s']{id,val}]]]"
             first_name) );
      ("join(Q6 * Qitem_name", item_name_query);
      ("fallback(", compact ~name:"Qfb" "//bidder{id}[//date{id}]");
    ]
  in
  (store, set, queries)

let answers store set queries =
  let sources = List.map Answer.source_of_mview (View_set.views set) in
  List.map
    (fun (shape, q) ->
      let plan = Answer.plan ~sources q in
      let d = Answer.describe plan in
      if not (String.starts_with ~prefix:shape d) then
        Alcotest.failf "%s: expected a %s… plan, got %s" q.Pattern.name shape d;
      let base = Answer.base_rows store q in
      let rows = Option.value (Answer.run plan) ~default:base in
      (match Answer.diff ~expect:base ~got:rows with
      | None -> ()
      | Some msg -> Alcotest.failf "%s: views vs base: %s" q.Pattern.name msg);
      if rows = [] then Alcotest.failf "%s: no rows" q.Pattern.name;
      rows)
    queries

let test_xmark_shapes () =
  let store, set, queries = xmark_case () in
  let before = answers store set queries in
  let changed = ref 0 in
  List.iter
    (fun name ->
      let u = Xmark_updates.find name in
      ignore (View_set.update set (Xmark_updates.insert u));
      if answers store set queries <> before then incr changed;
      (* The undo deletes exactly the fragment roots: generated
         documents have no name under a name, no increase under an
         increase and no item under an item. *)
      let starts prefix = String.starts_with ~prefix u.Xmark_updates.fragment in
      let suffix =
        if starts "<name>" then "/name[name]"
        else if starts "<increase>" then "/increase[increase]"
        else "/item"
      in
      ignore (View_set.update set (Update.parse ("delete " ^ u.Xmark_updates.path ^ suffix)));
      let after = answers store set queries in
      List.iter2
        (fun (_, q) (b, a) ->
          match Answer.diff ~expect:b ~got:a with
          | None -> ()
          | Some msg -> Alcotest.failf "%s after %s and its undo: %s" q.Pattern.name name msg)
        queries (List.combine before after))
    [ "X1_L"; "X2_L"; "X17_L" ];
  (* X2_L adds increases (Q2x), X17_L items (Qjoin); X1_L's names
     miss Q1v's value. *)
  Alcotest.(check int) "insertions that changed an answer" 2 !changed

let test_diff_names_rows () =
  let store, set, queries = xmark_case () in
  let rows = List.nth (answers store set queries) 2 in
  let dropped = List.nth rows 1 in
  let missing = List.filteri (fun i _ -> i <> 1) rows in
  let contains msg sub =
    let n = String.length sub in
    let rec at i = i + n <= String.length msg && (String.sub msg i n = sub || at (i + 1)) in
    at 0
  in
  (match Answer.diff ~expect:rows ~got:missing with
  | Some msg when contains msg ("missing row " ^ Answer.row_to_string dropped) -> ()
  | r -> Alcotest.failf "planted missing row: %s" (Option.value r ~default:"no diff"));
  (* An extra row: the first row re-rooted under an identifier no
     document node has. *)
  let first = List.hd rows in
  let stray = Dewey.child (Dewey.root ~lab:0) ~lab:0 ~ord:[| 999 |] in
  let extra = { first with Answer.cells = Array.map (fun (_, v, c) -> (stray, v, c)) first.Answer.cells } in
  (match Answer.diff ~expect:rows ~got:(Answer.canonical (extra :: rows)) with
  | Some msg when contains msg ("extra row " ^ Answer.row_to_string extra) -> ()
  | r -> Alcotest.failf "planted extra row: %s" (Option.value r ~default:"no diff"));
  match Answer.diff ~expect:rows ~got:rows with
  | None -> ()
  | Some msg -> Alcotest.failf "identical lists differ: %s" msg

(* No silent fallback: the [answer] scope counts each plan shape, the
   fallbacks [Answer.answer] takes to base evaluation, and rows out. *)
let test_answer_counters () =
  let store, set, queries = xmark_case () in
  let sources = List.map Answer.source_of_mview (View_set.views set) in
  let rows, snap =
    Obs.with_scope (fun () ->
        List.concat_map
          (fun (_, q) ->
            match Answer.answer ~store ~sources q with
            | Some (_, rows) -> rows
            | None -> Alcotest.fail "no answer despite a store")
          queries)
  in
  let cv = Obs.counter_value snap in
  Alcotest.(check (list int))
    "single, join, fallback plans; base fallbacks; rows out"
    [ 2; 1; 1; 1; List.length rows ]
    [
      cv "answer.plans_single"; cv "answer.plans_join"; cv "answer.plans_fallback";
      cv "answer.base_fallbacks"; cv "answer.rows_out";
    ]

(* {1 Seeded differential oracles} *)

let test_answer_oracle () =
  let r = Difftest.run Difftest.Answer ~seed:7 ~iters:400 () in
  List.iter print_endline r.Qgen.failures;
  Alcotest.(check int) "iterations" 400 r.Qgen.iterations;
  Alcotest.(check int) "mismatches" 0 r.Qgen.failed

(* An [Answer] scenario survives the xvmdt2 reproducer codec: query,
   views and document decode unchanged. *)
let test_answer_repro_roundtrip () =
  let rnd = Random.State.make [| 0xa45; 11 |] in
  for _ = 1 to 50 do
    let c = Difftest.gen Difftest.Answer rnd in
    let c' = Difftest.of_repro (Difftest.to_repro c) in
    let query (s : Difftest.scenario) =
      match s.Difftest.query with
      | Some q -> Pattern.to_string q
      | None -> Alcotest.fail "answer scenario without a query"
    in
    Alcotest.(check string) "query preserved" (query c) (query c');
    Alcotest.(check int) "view count preserved"
      (List.length c.Difftest.views)
      (List.length c'.Difftest.views);
    Alcotest.(check string) "document preserved"
      (Xml_tree.serialize c.Difftest.doc)
      (Xml_tree.serialize c'.Difftest.doc)
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
          Alcotest.test_case "permuted view" `Quick test_permuted_view;
          Alcotest.test_case "permuted projection merges" `Quick
            test_permuted_projection_merges;
          Alcotest.test_case "root parent is None" `Quick test_root_parent_none;
          Alcotest.test_case "prune/subpattern shapes" `Quick test_prune_subpattern;
          prop_degenerate_splits;
        ] );
      ( "single view",
        [
          Alcotest.test_case "exact" `Quick test_person_exact;
          Alcotest.test_case "projection" `Quick test_person_projection;
          Alcotest.test_case "residual filter" `Quick test_person_filter;
          Alcotest.test_case "not answerable" `Quick test_person_not_answerable;
        ] );
      ( "view joins",
        [
          Alcotest.test_case "id join" `Quick test_person_sibling_stitch;
          Alcotest.test_case "structural join" `Quick test_person_join;
        ] );
      ( "canonical",
        [
          prop_canonical_vs_reference;
          Alcotest.test_case "payload ties" `Quick test_canonical_ties;
        ] );
      ( "xmark plan shapes",
        [
          Alcotest.test_case "four shapes across insert/undo" `Quick test_xmark_shapes;
          Alcotest.test_case "diff names planted rows" `Quick test_diff_names_rows;
          Alcotest.test_case "answer scope counts" `Quick test_answer_counters;
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
