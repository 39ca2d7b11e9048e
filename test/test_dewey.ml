(* Unit and property tests for the dynamic Dewey identifiers. *)

let ord = QCheck.Gen.(map Array.of_list (list_size (int_range 1 4) (int_range (-3) 5)))

let arb_ord =
  QCheck.make ord ~print:(fun o ->
      String.concat "_" (Array.to_list (Array.map string_of_int o)))

let arb_ord_pair = QCheck.pair arb_ord arb_ord

(* A small random identifier builder. *)
let gen_id =
  QCheck.Gen.(
    let* depth = int_range 1 5 in
    let rec build i acc =
      if i >= depth then pure acc
      else
        let* lab = int_range 0 6 in
        let* o = ord in
        build (i + 1) (Dewey.child acc ~lab ~ord:o)
    in
    let* root_lab = int_range 0 6 in
    build 1 (Dewey.root ~lab:root_lab))

let arb_id = QCheck.make gen_id ~print:(fun id -> Dewey.to_string id)

let test_ord_between =
  Tutil.qtest "Ord.between is strictly between" arb_ord_pair (fun (a, b) ->
      let c = Dewey.Ord.compare a b in
      QCheck.assume (c <> 0);
      let lo, hi = if c < 0 then (a, b) else (b, a) in
      let m = Dewey.Ord.between lo hi in
      Dewey.Ord.compare lo m < 0 && Dewey.Ord.compare m hi < 0)

let test_ord_after_before =
  Tutil.qtest "Ord.after/before bracket their input" arb_ord (fun o ->
      Dewey.Ord.compare o (Dewey.Ord.after o) < 0
      && Dewey.Ord.compare (Dewey.Ord.before o) o < 0)

let test_codec =
  Tutil.qtest "encode/decode roundtrip" arb_id (fun id ->
      Dewey.equal (Dewey.decode (Dewey.encode id)) id)

let test_codec_injective =
  Tutil.qtest "distinct ids encode distinctly" (QCheck.pair arb_id arb_id)
    (fun (a, b) ->
      QCheck.assume (not (Dewey.equal a b));
      Dewey.encode a <> Dewey.encode b)

let test_parent_ancestor =
  Tutil.qtest "child/parent/ancestor coherence" arb_id (fun id ->
      let c = Dewey.child id ~lab:3 ~ord:Dewey.Ord.first in
      Dewey.is_parent id c
      && Dewey.is_ancestor id c
      && Dewey.is_ancestor_or_self id c
      && Dewey.is_ancestor_or_self id id
      && (not (Dewey.is_ancestor id id))
      && (match Dewey.parent c with Some p -> Dewey.equal p id | None -> false)
      && Dewey.compare id c < 0)

let test_order_total =
  Tutil.qtest "document order is antisymmetric" (QCheck.pair arb_id arb_id)
    (fun (a, b) ->
      let c1 = Dewey.compare a b and c2 = Dewey.compare b a in
      if Dewey.equal a b then c1 = 0 && c2 = 0 else c1 = -c2 && c1 <> 0)

let test_siblings_order () =
  let p = Dewey.root ~lab:0 in
  let o1 = Dewey.Ord.first in
  let o2 = Dewey.Ord.after o1 in
  let mid = Dewey.Ord.between o1 o2 in
  let c1 = Dewey.child p ~lab:1 ~ord:o1 in
  let c2 = Dewey.child p ~lab:1 ~ord:o2 in
  let cm = Dewey.child p ~lab:1 ~ord:mid in
  Alcotest.(check bool) "c1 < cm" true (Dewey.compare c1 cm < 0);
  Alcotest.(check bool) "cm < c2" true (Dewey.compare cm c2 < 0);
  Alcotest.(check bool) "siblings are not ancestors" false (Dewey.is_ancestor c1 c2)

let test_label_path () =
  let id =
    Dewey.child (Dewey.child (Dewey.root ~lab:5) ~lab:2 ~ord:[| 1 |]) ~lab:9 ~ord:[| 4 |]
  in
  Alcotest.(check (array int)) "label path" [| 5; 2; 9 |] (Dewey.label_path id);
  Alcotest.(check int) "own label" 9 (Dewey.label id);
  Alcotest.(check int) "depth" 3 (Dewey.depth id);
  Alcotest.(check bool) "has ancestor 5" true (Dewey.has_ancestor_label id ~lab:5);
  Alcotest.(check bool) "has ancestor 2" true (Dewey.has_ancestor_label id ~lab:2);
  Alcotest.(check bool) "self label needs ~self" false (Dewey.has_ancestor_label id ~lab:9);
  Alcotest.(check bool) "self label with ~self" true
    (Dewey.has_ancestor_label ~self:true id ~lab:9)

let test_ancestors () =
  let a = Dewey.root ~lab:0 in
  let b = Dewey.child a ~lab:1 ~ord:[| 1 |] in
  let c = Dewey.child b ~lab:2 ~ord:[| 2 |] in
  let ancs = Dewey.ancestors c in
  Alcotest.(check int) "two ancestors" 2 (List.length ancs);
  Alcotest.(check bool) "root first" true (Dewey.equal (List.nth ancs 0) a);
  Alcotest.(check bool) "then parent" true (Dewey.equal (List.nth ancs 1) b)

let test_no_relabel () =
  (* Inserting between any two adjacent siblings never requires touching
     existing identifiers: fresh ordinals keep fitting. *)
  let p = Dewey.root ~lab:0 in
  let o1 = ref Dewey.Ord.first in
  let o2 = ref (Dewey.Ord.after !o1) in
  for _ = 1 to 64 do
    let m = Dewey.Ord.between !o1 !o2 in
    assert (Dewey.Ord.compare !o1 m < 0 && Dewey.Ord.compare m !o2 < 0);
    o2 := m
  done;
  Alcotest.(check bool) "still ordered" true
    (Dewey.compare (Dewey.child p ~lab:1 ~ord:!o1) (Dewey.child p ~lab:1 ~ord:!o2) < 0)

(* Deep ordinals: repeated sibling splits grow ordinal sequences well
   past the shallow 1–4 range above; the codec and the ordering must not
   degrade there. *)
let ord_deep =
  QCheck.Gen.(map Array.of_list (list_size (int_range 9 14) (int_range (-70) 70)))

let arb_ord_deep =
  QCheck.make ord_deep ~print:(fun o ->
      String.concat "_" (Array.to_list (Array.map string_of_int o)))

let gen_id_deep =
  QCheck.Gen.(
    let* depth = int_range 1 4 in
    let rec build i acc =
      if i >= depth then pure acc
      else
        let* lab = int_range 0 200 in
        let* o = ord_deep in
        build (i + 1) (Dewey.child acc ~lab ~ord:o)
    in
    let* root_lab = int_range 0 6 in
    build 1 (Dewey.root ~lab:root_lab))

let arb_id_deep = QCheck.make gen_id_deep ~print:(fun id -> Dewey.to_string id)

let arb_id_any =
  QCheck.make
    QCheck.Gen.(oneof [ gen_id; gen_id_deep ])
    ~print:(fun id -> Dewey.to_string id)

(* Identifiers with multi-byte varints everywhere (labels past 127,
   ordinals of either sign up to the extremes), and pairs that often
   share a prefix of steps, physically or not. *)
let gen_id_wide =
  QCheck.Gen.(
    let num =
      oneof
        [ int_range (-70) 70; int_range (-20000) 20000; oneofl [ max_int; min_int; 63; 64; -64; -65 ] ]
    in
    let* depth = int_range 1 4 in
    let rec build i acc =
      if i >= depth then pure acc
      else
        let* lab = oneof [ int_range 0 5; int_range 120 20000 ] in
        let* o = map Array.of_list (list_size (int_range 1 3) num) in
        build (i + 1) (Dewey.child acc ~lab ~ord:o)
    in
    let* root_lab = oneof [ int_range 0 3; int_range 126 130 ] in
    build 1 (Dewey.root ~lab:root_lab))

let gen_id_pair_wide =
  QCheck.Gen.(
    let* a = gen_id_wide in
    let* b = gen_id_wide in
    let* mode = int_range 0 2 in
    match mode with
    | 0 -> pure (a, b)
    | 1 ->
      (* [b] re-rooted under an ancestor-or-self of [a] *)
      let* k = int_range 1 (Dewey.depth a) in
      let prefix = Array.sub (a :> Dewey.step array) 0 k in
      pure (a, Dewey.of_steps (Array.append prefix (Array.sub (b :> Dewey.step array) 0 (Dewey.depth b - 1))))
    | _ -> pure (a, Dewey.of_steps (Array.copy (a :> Dewey.step array))))

let test_compare_encoded =
  Tutil.qtest ~count:2000 "compare_encoded = String.compare of encodings"
    (QCheck.make gen_id_pair_wide ~print:(fun (a, b) ->
         Dewey.to_string a ^ " vs " ^ Dewey.to_string b))
    (fun (a, b) ->
      let sign x = compare x 0 in
      sign (Dewey.compare_encoded a b) = sign (String.compare (Dewey.encode a) (Dewey.encode b))
      && sign (Dewey.compare_encoded b a) = sign (String.compare (Dewey.encode b) (Dewey.encode a)))

let test_ord_between_deep =
  Tutil.qtest "Ord.between is strictly between (deep ordinals)"
    (QCheck.pair arb_ord_deep arb_ord_deep) (fun (a, b) ->
      let c = Dewey.Ord.compare a b in
      QCheck.assume (c <> 0);
      let lo, hi = if c < 0 then (a, b) else (b, a) in
      let m = Dewey.Ord.between lo hi in
      Dewey.Ord.compare lo m < 0 && Dewey.Ord.compare m hi < 0)

let test_ord_after_before_deep =
  Tutil.qtest "Ord.after/before bracket their input (deep ordinals)" arb_ord_deep
    (fun o ->
      Dewey.Ord.compare o (Dewey.Ord.after o) < 0
      && Dewey.Ord.compare (Dewey.Ord.before o) o < 0)

let test_codec_deep =
  Tutil.qtest "encode/decode roundtrip at ordinal depth > 8" arb_id_deep (fun id ->
      Dewey.equal (Dewey.decode (Dewey.encode id)) id)

(* Known answers at the varint byte boundaries. Layout: varint step
   count, then per step varint label, varint ordinal length, zig-zag
   varint ordinals. Zig-zag maps 63→126 and -64→127 (the last one-byte
   values), 64→128 and -65→129 (the first two-byte ones), and
   8192→16384 (the first three-byte one). *)
let test_codec_known () =
  let enc lab o = Dewey.encode (Dewey.of_steps [| { Dewey.lab; ord = [| o |] } |]) in
  let check name want lab o =
    Alcotest.(check string) name want (enc lab o);
    Alcotest.(check bool) (name ^ " decodes back") true
      (Dewey.equal (Dewey.decode want)
         (Dewey.of_steps [| { Dewey.lab; ord = [| o |] } |]))
  in
  check "ord 0" "\x01\x00\x01\x00" 0 0;
  check "ord 63: last 1-byte positive" "\x01\x00\x01\x7e" 0 63;
  check "ord 64: first 2-byte positive" "\x01\x00\x01\x80\x01" 0 64;
  check "ord -64: last 1-byte negative" "\x01\x00\x01\x7f" 0 (-64);
  check "ord -65: first 2-byte negative" "\x01\x00\x01\x81\x01" 0 (-65);
  check "ord 8191: last 2-byte" "\x01\x00\x01\xfe\x7f" 0 8191;
  check "ord 8192: first 3-byte" "\x01\x00\x01\x80\x80\x01" 0 8192;
  check "label 127: last 1-byte (not zig-zagged)" "\x01\x7f\x01\x00" 127 0;
  check "label 128: first 2-byte" "\x01\x80\x01\x01\x00" 128 0

let test_decode_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Dewey.decode: empty") (fun () ->
      ignore (Dewey.decode "\x00"));
  Alcotest.check_raises "overdeclared steps"
    (Invalid_argument "Dewey.decode: step count exceeds input") (fun () ->
      ignore (Dewey.decode "\x02\x01"));
  Alcotest.check_raises "truncated" (Invalid_argument "Dewey.decode: truncated")
    (fun () -> ignore (Dewey.decode "\x01\x01"));
  (* Ten continuation bytes would shift past the 63-bit range; the codec
     must fail rather than decode an unspecified value. *)
  Alcotest.check_raises "varint overflow"
    (Invalid_argument "Dewey.decode: varint overflow") (fun () ->
      ignore (Dewey.decode (String.make 10 '\xff')))

(* {1 Intern arena}

   The arena's int-arithmetic predicates must agree with the boxed
   reference implementation on arbitrary identifiers, and interning
   must be canonical (same id, same handle) and closed under parents. *)

let test_arena_agrees =
  Tutil.qtest "arena predicates agree with Dewey" (QCheck.pair arb_id_any arb_id_any)
    (fun (x, y) ->
      let a = Dewey_arena.create () in
      let hx = Dewey_arena.intern a x and hy = Dewey_arena.intern a y in
      let sgn c = compare c 0 in
      sgn (Dewey_arena.compare a hx hy) = sgn (Dewey.compare x y)
      && Dewey_arena.is_prefix a hx hy = Dewey.is_ancestor_or_self x y
      && Dewey_arena.is_ancestor a hx hy = Dewey.is_ancestor x y
      && Dewey_arena.is_parent a hx hy = Dewey.is_parent x y)

let test_arena_canonical =
  Tutil.qtest "interning is canonical and parent-closed" arb_id_any (fun id ->
      let a = Dewey_arena.create () in
      let h = Dewey_arena.intern a id in
      Dewey_arena.intern a id = h
      && Dewey.equal (Dewey_arena.to_dewey a h) id
      && Dewey_arena.depth a h = Dewey.depth id
      && Dewey_arena.label a h = Dewey.label id
      && (match Dewey.parent id with
         | None -> Dewey_arena.parent a h = -1
         | Some p -> (
           match Dewey_arena.find a p with
           | Some hp -> Dewey_arena.parent a h = hp
           | None -> false)))

let test_arena_sorts_like_dewey =
  Tutil.qtest "arena sort order = Dewey sort order"
    (QCheck.list_of_size (QCheck.Gen.int_range 2 20) arb_id_any) (fun ids ->
      let a = Dewey_arena.create () in
      let hs = List.map (Dewey_arena.intern a) ids in
      let by_id = List.sort Dewey.compare ids in
      let by_handle =
        List.map (Dewey_arena.to_dewey a)
          (List.sort (Dewey_arena.compare a) hs)
      in
      List.for_all2 Dewey.equal by_id by_handle)

let test_arena_ancestor_at () =
  let a = Dewey_arena.create () in
  let i1 = Dewey.root ~lab:3 in
  let i2 = Dewey.child i1 ~lab:5 ~ord:[| 1; -2 |] in
  let i3 = Dewey.child i2 ~lab:7 ~ord:[| 4 |] in
  let h3 = Dewey_arena.intern a i3 in
  (* Closure: ancestors were interned along the way. *)
  Alcotest.(check int) "three ids interned" 3 (Dewey_arena.size a);
  let h2 = Dewey_arena.ancestor_at a h3 2 in
  let h1 = Dewey_arena.ancestor_at a h3 1 in
  Alcotest.(check bool) "depth-2 ancestor" true
    (Dewey.equal (Dewey_arena.to_dewey a h2) i2);
  Alcotest.(check bool) "depth-1 ancestor" true
    (Dewey.equal (Dewey_arena.to_dewey a h1) i1);
  Alcotest.(check int) "root parent is -1" (-1) (Dewey_arena.parent a h1);
  Alcotest.(check bool) "is_prefix root of leaf" true (Dewey_arena.is_prefix a h1 h3);
  Alcotest.(check bool) "leaf not prefix of root" false
    (Dewey_arena.is_prefix a h3 h1)

let () =
  Alcotest.run "dewey"
    [
      ( "ordinals",
        [
          test_ord_between;
          test_ord_after_before;
          test_ord_between_deep;
          test_ord_after_before_deep;
          Alcotest.test_case "sibling insertion order" `Quick test_siblings_order;
          Alcotest.test_case "no relabeling under splits" `Quick test_no_relabel;
        ] );
      ( "structure",
        [
          test_parent_ancestor;
          test_order_total;
          Alcotest.test_case "label paths" `Quick test_label_path;
          Alcotest.test_case "ancestors" `Quick test_ancestors;
        ] );
      ( "codec",
        [
          test_codec;
          test_codec_injective;
          test_codec_deep;
          Alcotest.test_case "varint known answers" `Quick test_codec_known;
          test_compare_encoded;
          Alcotest.test_case "decode errors" `Quick test_decode_errors;
        ] );
      ( "arena",
        [
          test_arena_agrees;
          test_arena_canonical;
          test_arena_sorts_like_dewey;
          Alcotest.test_case "ancestor navigation" `Quick test_arena_ancestor_at;
        ] );
    ]
