(* Tests for the XML tree model and the parser/serializer. *)

let el ?(children = []) name = Xml_tree.element ~children name
let txt = Xml_tree.text
let attr = Xml_tree.attribute

let fixture () =
  el "a"
    ~children:
      [
        attr "k" "v";
        el "b" ~children:[ txt "hello" ];
        txt " world";
        el "c" ~children:[ el "d"; txt "!" ];
      ]

let test_labels () =
  let d = fixture () in
  Alcotest.(check string) "element" "a" (Xml_tree.label d);
  Alcotest.(check string) "attribute" "@k"
    (Xml_tree.label (Option.get (Xml_tree.attribute_node d "k")));
  Alcotest.(check string) "text" "#text" (Xml_tree.label (txt "x"))

let test_string_value () =
  let d = fixture () in
  Alcotest.(check string) "concat of text descendants" "hello world!"
    (Xml_tree.string_value d);
  Alcotest.(check string) "attribute value" "v"
    (Xml_tree.string_value (Option.get (Xml_tree.attribute_node d "k")))

let test_structure () =
  let d = fixture () in
  Alcotest.(check int) "size" 8 (Xml_tree.size d);
  Alcotest.(check int) "element children" 2 (List.length (Xml_tree.element_children d));
  let c = List.nth (Xml_tree.element_children d) 1 in
  Alcotest.(check bool) "ancestor" true (Xml_tree.is_ancestor d c);
  Alcotest.(check bool) "not reflexive" false (Xml_tree.is_ancestor d d);
  Alcotest.(check int) "descendants_or_self" 8
    (List.length (Xml_tree.descendants_or_self d))

let test_append_remove () =
  let d = el "root" in
  let k = el "kid" in
  Xml_tree.append_child d k;
  Alcotest.(check int) "one child" 1 (List.length d.Xml_tree.children);
  Alcotest.(check bool) "parent set" true
    (match k.Xml_tree.parent with Some p -> p == d | None -> false);
  Alcotest.check_raises "double attach"
    (Invalid_argument "Xml_tree.append_child: child already attached") (fun () ->
      Xml_tree.append_child d k);
  Xml_tree.remove_child d k;
  Alcotest.(check int) "removed" 0 (List.length d.Xml_tree.children);
  Alcotest.(check bool) "parent cleared" true (k.Xml_tree.parent = None)

let test_copy () =
  let d = fixture () in
  let c = Xml_tree.copy d in
  Alcotest.(check string) "same serialization" (Xml_tree.serialize d)
    (Xml_tree.serialize c);
  Alcotest.(check bool) "fresh serials" true (c.Xml_tree.serial <> d.Xml_tree.serial);
  Alcotest.(check bool) "no parent" true (c.Xml_tree.parent = None)

let test_serialize () =
  let d = fixture () in
  Alcotest.(check string) "rendering"
    {|<a k="v"><b>hello</b> world<c><d/>!</c></a>|}
    (Xml_tree.serialize d);
  Alcotest.(check bool) "decl" true
    (String.length (Xml_tree.serialize ~decl:true d)
    > String.length (Xml_tree.serialize d))

let test_escaping () =
  let d = el "a" ~children:[ attr "k" "a\"b<c"; txt "x<y&z" ] in
  let s = Xml_tree.serialize d in
  Alcotest.(check string) "escaped" {|<a k="a&quot;b&lt;c">x&lt;y&amp;z</a>|} s;
  let back = Xml_parse.document s in
  Alcotest.(check string) "roundtrip value" "x<y&z" (Xml_tree.string_value back)

let test_parse_roundtrip () =
  let src = {|<a k="v"><b>hello</b><c><d/>!</c></a>|} in
  let d = Xml_parse.document src in
  Alcotest.(check string) "parse-serialize identity" src (Xml_tree.serialize d)

let test_parse_misc () =
  let d =
    Xml_parse.document
      "<?xml version=\"1.0\"?>\n<!-- c --><a>\n  <b/> <!-- inner -->\n</a>"
  in
  Alcotest.(check string) "prolog and comments skipped" "<a><b/></a>"
    (Xml_tree.serialize d)

let test_parse_entities () =
  let d = Xml_parse.document "<a>&lt;&amp;&gt;&quot;&apos;&#65;</a>" in
  Alcotest.(check string) "entities" "<&>\"'A" (Xml_tree.string_value d)

let test_parse_cdata () =
  let d = Xml_parse.document {|<a>pre<![CDATA[1 < 2 & "raw"]]>post</a>|} in
  Alcotest.(check string) "cdata merges with text" {|pre1 < 2 & "raw"post|}
    (Xml_tree.string_value d);
  Alcotest.(check int) "one text node" 1 (List.length d.Xml_tree.children);
  (* The classic "]]>" escape: split across two CDATA sections. *)
  let d = Xml_parse.document "<a><![CDATA[x]]]]><![CDATA[>y]]></a>" in
  Alcotest.(check string) "]]> via split sections" "x]]>y" (Xml_tree.string_value d)

let test_parse_unicode_refs () =
  let d = Xml_parse.document "<a>&#x2603;&#233;&#x1D11E;</a>" in
  Alcotest.(check string) "2/3/4-byte UTF-8 output"
    "\xE2\x98\x83\xC3\xA9\xF0\x9D\x84\x9E" (Xml_tree.string_value d);
  let d = Xml_parse.document {|<a k="&#xB0;"/>|} in
  Alcotest.(check string) "refs in attribute values" "\xC2\xB0"
    (Xml_tree.string_value (Option.get (Xml_tree.attribute_node d "k")));
  let bad s =
    match Xml_parse.document s with
    | exception Xml_parse.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "surrogate rejected" true (bad "<a>&#xD800;</a>");
  Alcotest.(check bool) "past Unicode rejected" true (bad "<a>&#x110000;</a>");
  Alcotest.(check bool) "NUL rejected" true (bad "<a>&#0;</a>");
  Alcotest.(check bool) "underscored digits rejected" true (bad "<a>&#2_0;</a>");
  Alcotest.(check bool) "negative rejected" true (bad "<a>&#-33;</a>")

let test_parse_doctype_subset () =
  let d =
    Xml_parse.document
      {|<!DOCTYPE a [ <!ELEMENT a (b*)> <!ENTITY x "1>2"> <!-- ]> --> ]><a><b/></a>|}
  in
  Alcotest.(check string) "internal subset with > skipped" "<a><b/></a>"
    (Xml_tree.serialize d);
  match Xml_parse.document "<!DOCTYPE a [ <!ELEMENT a (b*)> <a/>" with
  | exception Xml_parse.Parse_error _ -> ()
  | _ -> Alcotest.fail "unterminated doctype accepted"

let test_parse_pi () =
  let d = Xml_parse.document {|<?xml version="1.0"?><?pi data="a>b" q='?>'?><a>x<?mid s="?>"?>y</a>|} in
  Alcotest.(check string) "quote-aware PI skipping" "<a>xy</a>"
    (Xml_tree.serialize d);
  Alcotest.(check int) "text around PI merges" 1 (List.length d.Xml_tree.children)

let test_error_positions () =
  let pos s =
    match Xml_parse.document s with
    | exception Xml_parse.Parse_error m -> m
    | _ -> Alcotest.fail "expected a parse error"
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let m = pos "<a>\n  <b>\n</c></a>" in
  Alcotest.(check bool) ("line tracked in: " ^ m) true (contains m "line 3");
  let m = pos "<a>&nope;</a>" in
  Alcotest.(check bool) ("column tracked in: " ^ m) true
    (contains m "line 1, column 10")

let test_parse_fragment () =
  let f = Xml_parse.fragment "<a/><b>x</b>" in
  Alcotest.(check int) "two roots" 2 (List.length f)

let test_parse_errors () =
  let bad s =
    match Xml_parse.document s with
    | exception Xml_parse.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "mismatched tag" true (bad "<a></b>");
  Alcotest.(check bool) "unterminated" true (bad "<a>");
  Alcotest.(check bool) "trailing garbage" true (bad "<a/>junk");
  Alcotest.(check bool) "bad entity" true (bad "<a>&nope;</a>")

let test_serialized_size =
  Tutil.qtest ~count:100 "serialized_size matches serialize length" Tutil.arb_doc
    (fun d -> Xml_tree.serialized_size d = String.length (Xml_tree.serialize d))

let test_serialized_size_escapes =
  Tutil.qtest ~count:300 "serialized_size counts escapes" Tutil.arb_doc_special
    (fun d -> Xml_tree.serialized_size d = String.length (Xml_tree.serialize d))

let test_splice_cut () =
  let some = Alcotest.(option string) in
  Alcotest.(check some) "splice before the closing tag" (Some "<a x=\"&gt;\"><b/><c/></a>")
    (Xml_tree.splice_content "<a x=\"&gt;\"><b/></a>" "<c/>");
  Alcotest.(check some) "no closing tag in a self-closing element" None
    (Xml_tree.splice_content "<a k=\"v\"/>" "<c/>");
  Alcotest.(check some) "nor in an attribute" None (Xml_tree.splice_content " k=\"v\"" "<c/>");
  Alcotest.(check some) "nor in a text" None (Xml_tree.splice_content "x &gt;" "<c/>");
  Alcotest.(check some) "cut before the closing tag" (Some "<a>x&amp;</a>")
    (Xml_tree.cut_content "<a>x&amp;<b>&lt;</b></a>" 11);
  Alcotest.(check some) "a cut leaving no content" None (Xml_tree.cut_content "<a><b/></a>" 4);
  Alcotest.(check some) "a cut into the start tag" None (Xml_tree.cut_content "<a><b/></a>" 6)

let test_roundtrip_random =
  Tutil.qtest ~count:100 "parse(serialize(d)) = d (modulo whitespace)" Tutil.arb_doc
    (fun d ->
      let s = Xml_tree.serialize d in
      Xml_tree.serialize (Xml_parse.document s) = s)

(* The fuzz oracle's rich generator (entities, CDATA-worthy text,
   multi-byte UTF-8, mixed content) doubles as a QCheck generator; on
   its canonical trees the round trip is the identity node-for-node. *)
let test_roundtrip_rich =
  Tutil.qtest ~count:500 "parse(serialize(t)) = t on rich trees"
    (QCheck.make Fuzz_oracle.random_document ~print:Xml_tree.serialize)
    (fun t -> Xml_tree.equal t (Xml_parse.document (Xml_tree.serialize t)))

(* The serializer as it was before escaping appended whole runs and
   before elements walked their children twice: one [add_char] per byte
   and a [List.partition] of every child list. Kept as the reference
   the current serializer must match byte for byte. *)
let reference_serialize n =
  let open Xml_tree in
  let buf = Buffer.create 1024 in
  let escape s ~attr =
    String.iter
      (fun c ->
        match c with
        | '<' -> Buffer.add_string buf "&lt;"
        | '>' -> Buffer.add_string buf "&gt;"
        | '&' -> Buffer.add_string buf "&amp;"
        | '"' when attr -> Buffer.add_string buf "&quot;"
        | c -> Buffer.add_char buf c)
      s
  in
  let rec go n =
    match n.kind with
    | Text -> escape n.text ~attr:false
    | Attribute ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf n.name;
      Buffer.add_string buf "=\"";
      escape n.text ~attr:true;
      Buffer.add_char buf '"'
    | Element ->
      let attrs, content = List.partition (fun c -> c.kind = Attribute) n.children in
      Buffer.add_char buf '<';
      Buffer.add_string buf n.name;
      List.iter go attrs;
      if content = [] then Buffer.add_string buf "/>"
      else begin
        Buffer.add_char buf '>';
        List.iter go content;
        Buffer.add_string buf "</";
        Buffer.add_string buf n.name;
        Buffer.add_char buf '>'
      end
  in
  go n;
  Buffer.contents buf

(* A copy with every child list rotated by one, so attributes also
   follow content. *)
let rec rotated (n : Xml_tree.node) =
  match n.Xml_tree.kind with
  | Xml_tree.Text -> Xml_tree.text n.Xml_tree.text
  | Xml_tree.Attribute -> Xml_tree.attribute n.Xml_tree.name n.Xml_tree.text
  | Xml_tree.Element ->
    let kids = List.map rotated n.Xml_tree.children in
    let kids = match kids with c :: rest -> rest @ [ c ] | [] -> [] in
    Xml_tree.element ~children:kids n.Xml_tree.name

let test_serialize_reference =
  Tutil.qtest ~count:500 "serialize = reference serializer on rich trees"
    (QCheck.make Fuzz_oracle.random_document ~print:Xml_tree.serialize)
    (fun t ->
      let same t = Xml_tree.serialize t = reference_serialize t in
      same t && same (rotated t))

let () =
  Alcotest.run "xml"
    [
      ( "tree",
        [
          Alcotest.test_case "labels" `Quick test_labels;
          Alcotest.test_case "string_value" `Quick test_string_value;
          Alcotest.test_case "structure" `Quick test_structure;
          Alcotest.test_case "append/remove" `Quick test_append_remove;
          Alcotest.test_case "copy" `Quick test_copy;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "serialize" `Quick test_serialize;
          Alcotest.test_case "escaping" `Quick test_escaping;
          test_serialized_size;
          test_serialized_size_escapes;
          Alcotest.test_case "content splice and cut" `Quick test_splice_cut;
          test_serialize_reference;
        ] );
      ( "parser",
        [
          Alcotest.test_case "roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "prolog/comments" `Quick test_parse_misc;
          Alcotest.test_case "entities" `Quick test_parse_entities;
          Alcotest.test_case "CDATA" `Quick test_parse_cdata;
          Alcotest.test_case "unicode references" `Quick test_parse_unicode_refs;
          Alcotest.test_case "doctype internal subset" `Quick
            test_parse_doctype_subset;
          Alcotest.test_case "processing instructions" `Quick test_parse_pi;
          Alcotest.test_case "error positions" `Quick test_error_positions;
          Alcotest.test_case "fragment" `Quick test_parse_fragment;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          test_roundtrip_random;
          test_roundtrip_rich;
        ] );
    ]
