(* Target oracle: [Update.select] finds targets over the store's label
   relations; the tree-walking [Xpath.eval], restricted to live nodes, is
   the reference. Every maintenance engine calls [Update.targets], so the
   differential maintenance oracle cannot catch a target bug: this suite
   compares the two evaluators node for node, in order. *)

let reference store path =
  List.filter (Store.mem store) (Xpath.eval (Store.root store) path)

let check_select store path =
  let got = Update.select store path and want = reference store path in
  if not (List.length got = List.length want && List.for_all2 ( == ) got want)
  then
    Alcotest.failf "%s: select gives %d nodes, the tree walker %d"
      (Xpath.to_string path) (List.length got) (List.length want)

let apply store u =
  let targets = Update.targets store u in
  match u with
  | Update.Delete _ -> ignore (Update.apply_delete store ~targets)
  | Update.Insert _ -> ignore (Update.apply_insert store u ~targets)
  | Update.Replace_value { text; _ } ->
    ignore (Update.apply_replace store ~text ~targets)

let path_of = function
  | Update.Delete p -> p
  | Update.Insert { target; _ } | Update.Replace_value { target; _ } -> target

let counter snap name = Obs.counter_value snap ("xpath." ^ name)

(* Undo of an Appendix-A insertion: delete the fragment roots it added.
   Generated documents nest no name, increase or item in itself. *)
let undo_of (u : Xmark_updates.t) =
  let starts prefix = String.starts_with ~prefix u.Xmark_updates.fragment in
  let suffix =
    if starts "<name>" then "/name[name]"
    else if starts "<increase>" then "/increase[increase]"
    else "/item"
  in
  Update.delete (u.Xmark_updates.path ^ suffix)

(* Every Appendix-A path and undo path, checked before the first
   statement and after each insertion and each undo is committed. *)
let test_appendix_a () =
  let store = Store.of_document (Xmark_gen.document ~seed:21 ~target_kb:120) in
  let stmts =
    List.concat_map (fun u -> [ Xmark_updates.insert u; undo_of u ]) Xmark_updates.all
  in
  let paths = List.map path_of stmts in
  let check_all () = List.iter (check_select store) paths in
  let (), snap =
    Obs.with_scope (fun () ->
        check_all ();
        List.iter
          (fun u ->
            apply store u;
            Store.commit store;
            check_all ())
          stmts)
  in
  Alcotest.(check int) "no tree fallback" 0 (counter snap "tree_fallbacks");
  Alcotest.(check bool) "relation steps taken" true (counter snap "relation_steps" > 0);
  Alcotest.(check bool) "some targets found" true
    (List.exists (fun p -> Update.select store p <> []) paths)

(* Seeded random statements: their target paths cover [*], [//x//x],
   attribute steps and [and]/[or]/value predicates. Each path is checked
   before the statement, after it is applied but not committed (the tree
   fallback), and after the commit. *)
let test_random_statements () =
  let rnd = Random.State.make [| 2011 |] in
  let uncommitted = ref 0 in
  let (), snap =
    Obs.with_scope (fun () ->
        for _ = 1 to 2000 do
          let s = Difftest.gen Difftest.Engines rnd in
          let store = Store.of_document (Xml_tree.copy s.Difftest.doc) in
          let u = Update.parse (List.hd s.Difftest.stmts) in
          let path = path_of u in
          check_select store path;
          apply store u;
          if not (Store.settled store) then begin
            incr uncommitted;
            check_select store path
          end;
          Store.commit store;
          check_select store path
        done)
  in
  Alcotest.(check bool) "statements left the store unsettled" true (!uncommitted > 0);
  Alcotest.(check bool) "each unsettled check fell back" true
    (counter snap "tree_fallbacks" >= !uncommitted);
  Alcotest.(check bool) "relation steps taken" true (counter snap "relation_steps" > 0)

let doc_text = {|<r><a k="1"><b>x</b><a><b>y</b></a></a><c><b/></c></r>|}

(* An applied but uncommitted statement: the relations still hold the
   old document, so [select] must read the tree. *)
let test_uncommitted () =
  let store = Store.of_document (Xml_parse.document doc_text) in
  apply store (Update.parse "insert into //a <b>z</b>");
  let paths = List.map Xpath.parse [ "//b"; "//a/b"; "/r/a//b"; "//a[b='z']" ] in
  let (), snap = Obs.with_scope (fun () -> List.iter (check_select store) paths) in
  Alcotest.(check int) "one fallback per path" (List.length paths)
    (counter snap "tree_fallbacks");
  Alcotest.(check int) "two new b" 5
    (List.length (Update.select store (Xpath.parse "//b")));
  Store.commit store;
  let (), snap = Obs.with_scope (fun () -> List.iter (check_select store) paths) in
  Alcotest.(check int) "no fallback once committed" 0 (counter snap "tree_fallbacks")

(* Nested contexts: the [/] step's parent test must look past the top
   context node, and the [//] step must not repeat rows. *)
let test_nested_context () =
  let store = Store.of_document (Xml_parse.document doc_text) in
  List.iter
    (fun p -> check_select store (Xpath.parse p))
    [ "//a/b"; "//a//b"; "//a/@k"; "//a[b='y']/b"; "/r//a/a"; "//a//a//b"; "//r//b" ];
  let count p = List.length (Update.select store (Xpath.parse p)) in
  Alcotest.(check int) "//a/b" 2 (count "//a/b");
  Alcotest.(check int) "//a//b" 2 (count "//a//b")

let test_deleted_root () =
  let store = Store.of_document (Xml_parse.document doc_text) in
  apply store (Update.parse "delete /r");
  Store.commit store;
  List.iter
    (fun p ->
      let path = Xpath.parse p in
      check_select store path;
      Alcotest.(check int) p 0 (List.length (Update.select store path)))
    [ "/r"; "//b"; "/r/a"; "//a//b"; "/r//*" ]

let () =
  Alcotest.run "targets"
    [
      ( "target oracle",
        [
          Alcotest.test_case "appendix A and undo paths" `Quick test_appendix_a;
          Alcotest.test_case "random statements" `Quick test_random_statements;
          Alcotest.test_case "uncommitted statement" `Quick test_uncommitted;
          Alcotest.test_case "nested contexts" `Quick test_nested_context;
          Alcotest.test_case "deleted root" `Quick test_deleted_root;
        ] );
    ]
