(* Tests for DTD handling and schema-violation detection (Section 3.3). *)

open Dtd

(* DTD d1 of Fig. 5(a): d1 → a+, a → b+, b → c, c → ε. *)
let d1 =
  create ~root:"d1"
    [ ("d1", Plus (Sym "a")); ("a", Plus (Sym "b")); ("b", Sym "c"); ("c", Epsilon) ]

(* DTD d2 of Fig. 5(b): d2 → (a,b,c)+, a → b+? No — a → BS, BS → x | ε,
   x → x | ε, b → ε, c → ε. We inline the non-terminals. *)
let d2 =
  create ~root:"d2"
    [
      ("d2", Plus (Seq (Sym "a", Seq (Sym "b", Sym "c"))));
      ("a", Opt (Sym "x"));
      ("x", Opt (Sym "x"));
      ("b", Epsilon);
      ("c", Epsilon);
    ]

let test_regex_semantics () =
  let re = Seq (Sym "a", Alt (Sym "b", Epsilon)) in
  Alcotest.(check bool) "ab" true (word_matches re [ "a"; "b" ]);
  Alcotest.(check bool) "a" true (word_matches re [ "a" ]);
  Alcotest.(check bool) "b" false (word_matches re [ "b" ]);
  Alcotest.(check bool) "nullable star" true (word_matches (Star (Sym "a")) []);
  Alcotest.(check bool) "plus needs one" false (word_matches (Plus (Sym "a")) []);
  Alcotest.(check bool) "plus repeats" true (word_matches (Plus (Sym "a")) [ "a"; "a" ])

let test_mandatory () =
  Alcotest.(check (list string)) "seq unions" [ "a"; "b" ]
    (mandatory (Seq (Sym "a", Sym "b")));
  Alcotest.(check (list string)) "alt intersects" []
    (mandatory (Alt (Sym "a", Sym "b")));
  Alcotest.(check (list string)) "alt common" [ "a" ]
    (mandatory (Alt (Seq (Sym "a", Sym "b"), Sym "a")));
  Alcotest.(check (list string)) "star optional" [] (mandatory (Star (Sym "a")));
  Alcotest.(check (list string)) "plus mandatory" [ "a" ] (mandatory (Plus (Sym "a")))

let test_delta_constraints_d1 () =
  let cs = delta_constraints d1 in
  (* b ⇒ c directly; a ⇒ b directly; a ⇒ c transitively; d1 ⇒ a, b, c. *)
  List.iter
    (fun pair ->
      Alcotest.(check bool)
        (Printf.sprintf "(%s,%s)" (fst pair) (snd pair))
        true (List.mem pair cs))
    [ ("b", "c"); ("a", "b"); ("a", "c"); ("d1", "a"); ("d1", "b"); ("d1", "c") ]

let test_example_3_9 () =
  (* Inserting <a><b/></a>: Δ⁺c = ∅ while Δ⁺b ≠ ∅ — rejected. *)
  let forest = Xml_parse.fragment "<a><b></b></a>" in
  let labels =
    List.concat_map
      (fun t -> List.map Xml_tree.label (Xml_tree.descendants_or_self t))
      forest
  in
  let present l = List.mem l labels in
  let violations = check_delta d1 ~present in
  Alcotest.(check bool) "(b,c) violated" true (List.mem ("b", "c") violations);
  (* A valid insertion passes. *)
  let ok_forest = Xml_parse.fragment "<a><b><c/></b></a>" in
  let ok_labels =
    List.concat_map
      (fun t -> List.map Xml_tree.label (Xml_tree.descendants_or_self t))
      ok_forest
  in
  Alcotest.(check (list (pair string string))) "no violation" []
    (check_delta d1 ~present:(fun l -> List.mem l ok_labels))

let test_example_3_10 () =
  (* Under d2, an inserted a must come with b and c. *)
  let cs = delta_constraints d2 in
  Alcotest.(check bool) "d2 ⇒ a" true (List.mem ("d2", "a") cs);
  Alcotest.(check bool) "d2 ⇒ b" true (List.mem ("d2", "b") cs);
  Alcotest.(check bool) "d2 ⇒ c" true (List.mem ("d2", "c") cs);
  (* Sequence-level check: appending a lone <a/> under the d2 root breaks
     the (a,b,c)+ model. *)
  let root = Xml_parse.document "<d2><a/><b/><c/></d2>" in
  let bad = Xml_parse.fragment "<a/>" in
  (match check_insert d2 ~parent:root ~forest:bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "lone <a/> should violate d2");
  let good = Xml_parse.fragment "<a/><b/><c/>" in
  match check_insert d2 ~parent:root ~forest:good with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("valid insertion rejected: " ^ e)

let test_validate_tree () =
  let ok = Xml_parse.document "<d1><a><b><c/></b></a></d1>" in
  (match validate_tree d1 ok with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let bad = Xml_parse.document "<d1><a><b/></a></d1>" in
  match validate_tree d1 bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "invalid tree accepted"

let test_check_insert_inner_validity () =
  (* The inserted forest itself must be valid. *)
  let root = Xml_parse.document "<d1><a><b><c/></b></a></d1>" in
  let a = List.hd (Xml_tree.element_children root) in
  match check_insert d1 ~parent:a ~forest:(Xml_parse.fragment "<b/>") with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "b without c accepted"

let test_parse () =
  let t =
    parse
      {|# the Fig. 5(a) grammar, inlined
        d1 = a+
        a = b+
        b = c
        c = EMPTY|}
  in
  Alcotest.(check string) "root" "d1" (root t);
  Alcotest.(check bool) "rule exists" true (rule t "b" <> None);
  Alcotest.(check bool) "word check" true
    (word_matches (Option.get (rule t "a")) [ "b"; "b" ]);
  let t2 = parse "r = (a | b), c?" in
  Alcotest.(check bool) "alt/opt" true
    (word_matches (Option.get (rule t2 "r")) [ "a" ]
    && word_matches (Option.get (rule t2 "r")) [ "b"; "c" ]
    && not (word_matches (Option.get (rule t2 "r")) [ "c" ]))

let test_parse_errors () =
  let bad s = match parse s with exception Parse_error _ -> true | _ -> false in
  Alcotest.(check bool) "no equals" true (bad "abc");
  Alcotest.(check bool) "empty" true (bad "");
  Alcotest.(check bool) "unclosed paren" true (bad "a = (b");
  Alcotest.(check bool) "trailing" true (bad "a = b c")

(* {1 Edge cases: recursion, mixed content, optional/star models} *)

let test_recursive_declarations () =
  (* A self-referential content model is an ordinary regex over labels;
     nothing in validation or delta reasoning may loop on it. *)
  let t = parse "a = (a | b)*\nb = EMPTY" in
  Alcotest.(check string) "root" "a" (root t);
  (match validate_tree t (Xml_parse.document "<a><a><b/></a><b/><a/></a>") with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match validate_tree t (Xml_parse.document "<a><c/></a>") with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "undeclared child accepted");
  Alcotest.(check (list (pair string string))) "star content ⇒ no constraints" []
    (delta_constraints t)

let test_delta_constraints_cycle () =
  (* Mutually-mandatory labels: the transitive closure must terminate and
     must contain both orientations but no self-pairs. *)
  let t = create ~root:"r" [ ("r", Sym "a"); ("a", Sym "b"); ("b", Sym "a") ] in
  let cs = delta_constraints t in
  List.iter
    (fun pair ->
      Alcotest.(check bool)
        (Printf.sprintf "(%s,%s)" (fst pair) (snd pair))
        true (List.mem pair cs))
    [ ("a", "b"); ("b", "a"); ("r", "a"); ("r", "b") ];
  Alcotest.(check bool) "no self-pair" false
    (List.exists (fun (x, y) -> x = y) cs)

let test_mixed_content_transparency () =
  (* Text and attributes are transparent to content models: only element
     children are matched against the rule. *)
  let t = create ~root:"a" [ ("a", Sym "b"); ("b", Epsilon) ] in
  (match validate_tree t (Xml_parse.document "<a>t<b/>u</a>") with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("mixed content rejected: " ^ e));
  (match validate_tree t (Xml_parse.document {|<a k="v"><b/></a>|}) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("attribute rejected: " ^ e));
  match validate_tree t (Xml_parse.document "<a>t</a>") with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "missing mandatory b accepted"

let test_optional_star_models () =
  let t = parse "r = a?, b*\na = EMPTY\nb = EMPTY" in
  List.iter
    (fun s ->
      match validate_tree t (Xml_parse.document s) with
      | Ok () -> ()
      | Error e -> Alcotest.fail (s ^ ": " ^ e))
    [ "<r/>"; "<r><a/></r>"; "<r><b/><b/><b/></r>"; "<r><a/><b/></r>" ];
  (match validate_tree t (Xml_parse.document "<r><a/><a/></r>") with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "two a's accepted by a?");
  (* check_insert replays the whole child word: a second a is rejected,
     while more b's always fit the star. *)
  let root = Xml_parse.document "<r><a/><b/></r>" in
  (match check_insert t ~parent:root ~forest:(Xml_parse.fragment "<a/>") with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "insert breaking a? accepted");
  match check_insert t ~parent:root ~forest:(Xml_parse.fragment "<b/><b/>") with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("star insert rejected: " ^ e)

let () =
  Alcotest.run "dtd"
    [
      ( "regex",
        [
          Alcotest.test_case "derivative matching" `Quick test_regex_semantics;
          Alcotest.test_case "mandatory symbols" `Quick test_mandatory;
        ] );
      ( "delta reasoning",
        [
          Alcotest.test_case "constraints of d1" `Quick test_delta_constraints_d1;
          Alcotest.test_case "Example 3.9" `Quick test_example_3_9;
          Alcotest.test_case "Example 3.10" `Quick test_example_3_10;
        ] );
      ( "validation",
        [
          Alcotest.test_case "validate_tree" `Quick test_validate_tree;
          Alcotest.test_case "inner validity" `Quick test_check_insert_inner_validity;
        ] );
      ( "parser",
        [
          Alcotest.test_case "syntax" `Quick test_parse;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "recursive declarations" `Quick
            test_recursive_declarations;
          Alcotest.test_case "constraint-closure cycle" `Quick
            test_delta_constraints_cycle;
          Alcotest.test_case "mixed content" `Quick test_mixed_content_transparency;
          Alcotest.test_case "optional/star models" `Quick test_optional_star_models;
        ] );
    ]
