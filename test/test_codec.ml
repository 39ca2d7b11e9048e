(* Tests for materialized-view persistence. *)

let doc () = Xmark_gen.document ~seed:33 ~target_kb:60

let test_roundtrip () =
  let store = Store.of_document (doc ()) in
  let mv = Mview.materialize store Xmark_views.q13 in
  let data = Mview_codec.save mv in
  let loaded = Mview_codec.load store Xmark_views.q13 data in
  match Recompute.diff mv loaded with
  | None -> ()
  | Some d -> Alcotest.fail ("roundtrip diverged: " ^ d)

let test_loaded_view_maintains () =
  (* A reloaded view keeps maintaining correctly (snowcaps are rebuilt at
     load time). *)
  let stmt = Xmark_updates.insert (Xmark_updates.find "X17_L") in
  let store = Store.of_document (doc ()) in
  let mv = Mview.materialize store Xmark_views.q13 in
  let data = Mview_codec.save mv in
  let loaded = Mview_codec.load store Xmark_views.q13 data in
  let _ = Maint.propagate loaded stmt in
  let store2 = Store.of_document (doc ()) in
  let oracle, _ = Recompute.recompute_after store2 stmt ~pat:Xmark_views.q13 in
  match Recompute.diff loaded oracle with
  | None -> ()
  | Some d -> Alcotest.fail ("loaded view diverged after update: " ^ d)

let test_file_roundtrip () =
  let store = Store.of_document (doc ()) in
  let mv = Mview.materialize store Xmark_views.q1 in
  let path = Filename.temp_file "xvm" ".view" in
  Mview_codec.save_to_file mv path;
  let loaded = Mview_codec.load_from_file store Xmark_views.q1 path in
  Sys.remove path;
  Alcotest.(check bool) "file roundtrip" true (Recompute.equal mv loaded)

let test_corrupt () =
  let store = Store.of_document (doc ()) in
  let mv = Mview.materialize store Xmark_views.q1 in
  let data = Mview_codec.save mv in
  let corrupt s =
    match Mview_codec.load store Xmark_views.q1 s with
    | exception Mview_codec.Corrupt _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "bad magic" true (corrupt ("ZZZZ" ^ data));
  Alcotest.(check bool) "truncated" true
    (corrupt (String.sub data 0 (String.length data - 3)));
  Alcotest.(check bool) "trailing" true (corrupt (data ^ "x"));
  Alcotest.(check bool) "wrong pattern" true
    (match Mview_codec.load store Xmark_views.q4 data with
    | exception Mview_codec.Corrupt _ -> true
    | _ -> false)

(* Append a valid CRC-32 footer to an arbitrary body — used to craft
   adversarial images that get past the checksum gate and into the
   decoder's own validation. *)
let with_footer body =
  let crc = Crc32.string body in
  body ^ String.init 4 (fun i -> Char.chr ((crc lsr (8 * (3 - i))) land 0xff))

let test_format_v2 () =
  let store = Store.of_document (doc ()) in
  let mv = Mview.materialize store Xmark_views.q1 in
  let data = Mview_codec.save mv in
  Alcotest.(check string) "v2 magic" "XVM2" (String.sub data 0 4);
  let corrupt ?msg s =
    match Mview_codec.load store Xmark_views.q1 s with
    | exception Mview_codec.Corrupt m ->
      (match msg with
      | Some expected -> Alcotest.(check string) "corrupt reason" expected m
      | None -> ())
    | exception e -> Alcotest.failf "escaped exception: %s" (Printexc.to_string e)
    | _ -> Alcotest.fail "corrupt image accepted"
  in
  (* A v1 image is refused with a version message, not misparsed. *)
  corrupt ~msg:"unsupported codec version 1 (re-save the view)"
    ("XVM1" ^ String.sub data 4 (String.length data - 4));
  (* One flipped bit in the middle of the body trips the checksum. *)
  let b = Bytes.of_string data in
  let mid = Bytes.length b / 2 in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x10));
  corrupt ~msg:"checksum mismatch" (Bytes.to_string b);
  (* Overlong varints fail bounded decoding instead of shifting into
     undefined [lsl] territory. *)
  corrupt ~msg:"varint overflow" (with_footer ("XVM2" ^ String.make 10 '\xff'));
  (* A huge declared entry count is rejected up front — before the
     decoder allocates or loops on it. *)
  let huge = Buffer.create 16 in
  Buffer.add_string huge "XVM2";
  Buffer.add_char huge '\x02' (* node count of the a[b] pattern *);
  Buffer.add_char huge '\x01' (* one stored attribute *);
  Buffer.add_string huge "\xff\xff\xff\xff\xff\xff\x03" (* ~2^46 entries *);
  let pat =
    Pattern.compile ~name:"a[b]" (Pattern.n "a" ~id:true [ Pattern.n "b" [] ])
  in
  (match Mview_codec.load store pat (with_footer (Buffer.contents huge)) with
  | exception Mview_codec.Corrupt m ->
    Alcotest.(check string) "entry count validated"
      "declared entry count exceeds remaining bytes" m
  | exception e -> Alcotest.failf "escaped exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "absurd entry count accepted");
  (* Crc32 known-answer check (IEEE vector). *)
  Alcotest.(check int) "crc32 of '123456789'" 0xCBF43926 (Crc32.string "123456789")

let test_counts_preserved () =
  (* Derivation counts survive the roundtrip. *)
  let root = Xml_parse.document {|<a><c><b/><b/></c><f><b/></f></a>|} in
  let store = Store.of_document root in
  let pat =
    Pattern.compile ~name:"a[b]" (Pattern.n "a" ~id:true [ Pattern.n "b" [] ])
  in
  let mv = Mview.materialize store pat in
  Alcotest.(check int) "count 3" 3 (Mview.total_count mv);
  let loaded = Mview_codec.load store pat (Mview_codec.save mv) in
  Alcotest.(check int) "count preserved" 3 (Mview.total_count loaded);
  Alcotest.(check int) "one tuple" 1 (Mview.cardinality loaded)

(* Hand-built v2 images of the one-node view //a{id}: one entry per
   identifier, each with count 1 and no payloads. Every length here is
   below 128, so each varint is one byte. *)
let a_view = Pattern.compile ~name:"a" (Pattern.n "a" ~id:true [])

let image_of_ids ids =
  let buf = Buffer.create 64 in
  Buffer.add_string buf "XVM2";
  List.iter (fun v -> Buffer.add_char buf (Char.chr v)) [ 1; 1; List.length ids ];
  List.iter
    (fun id ->
      let enc = Dewey.encode id in
      Buffer.add_char buf '\x01';
      Buffer.add_char buf (Char.chr (String.length enc));
      Buffer.add_string buf enc;
      Buffer.add_string buf "\x00\x00")
    ids;
  with_footer (Buffer.contents buf)

let a_ids store = List.map (Store.id_of store) (Update.select store (Xpath.parse "//a"))

let refused store data expected =
  match Mview_codec.load store a_view data with
  | exception Mview_codec.Corrupt m -> Alcotest.(check string) "corrupt reason" expected m
  | exception e -> Alcotest.failf "escaped exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "image accepted"

let test_duplicate_tuple () =
  let store = Store.of_document (Xml_parse.document "<r><a/><a/></r>") in
  let ids = a_ids store in
  let loaded = Mview_codec.load store a_view (image_of_ids ids) in
  Alcotest.(check bool) "hand-built image loads" true
    (Recompute.equal loaded (Mview.materialize store a_view));
  refused store (image_of_ids (ids @ [ List.hd ids ])) "Mview.restore_entry: duplicate tuple"

let test_unknown_identifier () =
  let store = Store.of_document (Xml_parse.document "<r><a/></r>") in
  let a = List.hd (a_ids store) in
  let unknown = Dewey.child a ~lab:(Dewey.label a) ~ord:[| 99 |] in
  Alcotest.(check bool) "never interned" true
    (Dewey_arena.find (Store.arena store) unknown = None);
  refused store (image_of_ids [ a; unknown ]) "Mview.restore_entry: identifier not in the store"

let () =
  Alcotest.run "codec"
    [
      ( "persistence",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "loaded view maintains" `Quick test_loaded_view_maintains;
          Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
          Alcotest.test_case "corruption detected" `Quick test_corrupt;
          Alcotest.test_case "format v2 hardening" `Quick test_format_v2;
          Alcotest.test_case "derivation counts preserved" `Quick
            test_counts_preserved;
          Alcotest.test_case "duplicate tuple refused" `Quick test_duplicate_tuple;
          Alcotest.test_case "unknown identifier refused" `Quick test_unknown_identifier;
        ] );
    ]
