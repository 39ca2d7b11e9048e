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

let test_codec_blit =
  Tutil.qtest "exact-size blit = encode" (QCheck.pair arb_id (QCheck.int_bound 5))
    (fun (id, off) ->
      let enc = Dewey.encode id in
      let n = Dewey.encoded_size id in
      let b = Bytes.make (off + n + 2) '#' in
      let stop = Dewey.blit_encoded id b off in
      n = String.length enc
      && stop = off + n
      && Bytes.sub_string b off n = enc
      && Bytes.sub_string b 0 off = String.make off '#'
      && Bytes.sub_string b stop 2 = "##"
      && (match Dewey.blit_encoded id b (off + 3) with
         | exception Invalid_argument _ -> true
         | _ -> false))

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

(* {1 Child index}

   The arena finds identifiers through a child index keyed by (parent
   handle, label, last-step ordinal digits). A probe must match every
   digit and the digit count: ordinals from [Ord.between]/[Ord.before]
   share leading digits with their neighbours. *)

module Dewey_tbl = Hashtbl.Make (Dewey)

(* [n] identifiers over a pool of sibling ordinals that mixes
   single-digit, [between] and [before] ordinals, each a child of an
   earlier identifier (recent ones preferred, so paths grow deep). *)
let random_ids rng n =
  let ords = ref [ [| 1 |]; [| 2 |]; [| 3 |] ] in
  for _ = 1 to 60 do
    let pool = Array.of_list !ords in
    let a = pool.(Random.State.int rng (Array.length pool)) in
    let b = pool.(Random.State.int rng (Array.length pool)) in
    let c = Dewey.Ord.compare a b in
    let o =
      if c = 0 then Dewey.Ord.before a
      else if c < 0 then Dewey.Ord.between a b
      else Dewey.Ord.between b a
    in
    ords := o :: !ords
  done;
  let pool = Array.of_list !ords in
  let ids = Array.make n (Dewey.root ~lab:0) in
  for i = 1 to n - 1 do
    let parent =
      if Random.State.int rng 4 = 0 then ids.(Random.State.int rng i)
      else ids.(max 0 (i - 1 - Random.State.int rng 8))
    in
    let parent = if Dewey.depth parent > 40 then ids.(0) else parent in
    ids.(i) <-
      Dewey.child parent ~lab:(Random.State.int rng 4)
        ~ord:pool.(Random.State.int rng (Array.length pool))
  done;
  ids

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let test_arena_index_reference () =
  let rng = Random.State.make [| 27 |] in
  let ids = random_ids rng 5000 in
  Alcotest.(check bool) "some ordinal has several digits" true
    (Array.exists (fun id -> Array.length (Dewey.last_ord id) > 1) ids);
  Alcotest.(check bool) "some path is deep" true
    (Array.exists (fun id -> Dewey.depth id > 20) ids);
  let a = Dewey_arena.create () in
  let reference = Dewey_tbl.create 8192 in
  let by_handle = Hashtbl.create 8192 in
  Array.iter
    (fun id ->
      let h = Dewey_arena.intern a id in
      match Dewey_tbl.find_opt reference id with
      | Some h' -> if h <> h' then Alcotest.failf "two handles for %s" (Dewey.to_string id)
      | None ->
        (match Hashtbl.find_opt by_handle h with
        | Some id' ->
          Alcotest.failf "%s and %s share handle %d" (Dewey.to_string id)
            (Dewey.to_string id') h
        | None -> Hashtbl.add by_handle h id);
        Dewey_tbl.add reference id h)
    (shuffle rng ids);
  let size = Dewey_arena.size a in
  (* Second pass, another order: every handle is found again, nothing is
     interned. *)
  Array.iter
    (fun id ->
      if Dewey_arena.intern a id <> Dewey_tbl.find reference id then
        Alcotest.failf "re-intern of %s moved" (Dewey.to_string id))
    (shuffle rng ids);
  Alcotest.(check int) "second pass interns nothing" size (Dewey_arena.size a);
  (* [find] agrees with the reference on every interned id and on every
     ancestor (the arena is parent-closed), and each handle boxes its id. *)
  Dewey_tbl.iter
    (fun id h ->
      (match Dewey_arena.find a id with
      | Some h' when h' = h -> ()
      | _ -> Alcotest.failf "find misses %s" (Dewey.to_string id));
      if not (Dewey.equal (Dewey_arena.to_dewey a h) id) then
        Alcotest.failf "handle %d boxes another id" h;
      List.iter
        (fun anc ->
          if Dewey_arena.find a anc = None then
            Alcotest.failf "ancestor %s missing" (Dewey.to_string anc))
        (Dewey.ancestors id))
    reference;
  (* Ids never interned are not found: a fresh ordinal under each id. *)
  Dewey_tbl.iter
    (fun id _ ->
      let absent = Dewey.child id ~lab:0 ~ord:[| 1; 2; 3; 4; 5; 6 |] in
      if Dewey_arena.find a absent <> None then
        Alcotest.failf "found never-interned %s" (Dewey.to_string absent))
    reference

let test_arena_probe_misses () =
  let a = Dewey_arena.create () in
  let root = Dewey.root ~lab:0 in
  let other = Dewey.child root ~lab:1 ~ord:[| 2 |] in
  let hr = Dewey_arena.intern a root in
  let ho = Dewey_arena.intern a other in
  let h15 = Dewey_arena.intern a (Dewey.child root ~lab:1 ~ord:[| 1; 5 |]) in
  let h7 = Dewey_arena.intern a (Dewey.child root ~lab:1 ~ord:[| 7 |]) in
  let probe parent lab ord = Dewey_arena.find_child a ~parent ~lab ~ord in
  Alcotest.(check int) "hit [1;5]" h15 (probe hr 1 [| 1; 5 |]);
  Alcotest.(check int) "hit [7]" h7 (probe hr 1 [| 7 |]);
  Alcotest.(check int) "strict digit-prefix [1] misses" (-1) (probe hr 1 [| 1 |]);
  Alcotest.(check int) "extension [1;5;0] misses" (-1) (probe hr 1 [| 1; 5; 0 |]);
  Alcotest.(check int) "same first digit [1;6] misses" (-1) (probe hr 1 [| 1; 6 |]);
  Alcotest.(check int) "same ordinal, other label misses" (-1) (probe hr 2 [| 7 |]);
  Alcotest.(check int) "same step, other parent misses" (-1) (probe ho 1 [| 7 |]);
  Alcotest.(check int) "same step at the roots misses" (-1) (probe (-1) 1 [| 7 |]);
  Alcotest.(check bool) "whole-id walk misses the prefix ordinal" true
    (Dewey_arena.find a (Dewey.child root ~lab:1 ~ord:[| 1 |]) = None);
  (* [intern_child] hits return the canonical handle; a miss interns. *)
  Alcotest.(check int) "intern_child hit" h7
    (Dewey_arena.intern_child a ~parent:hr ~lab:1 ~ord:[| 7 |]);
  let n = Dewey_arena.size a in
  let h1 = Dewey_arena.intern_child a ~parent:hr ~lab:1 ~ord:[| 1 |] in
  Alcotest.(check int) "intern_child miss adds one" (n + 1) (Dewey_arena.size a);
  Alcotest.(check bool) "boxed id of a minted child" true
    (Dewey.equal (Dewey_arena.to_dewey a h1) (Dewey.child root ~lab:1 ~ord:[| 1 |]));
  Alcotest.(check int) "depth of a minted child" 2 (Dewey_arena.depth a h1);
  Alcotest.(check int) "the prefix no longer shadows [1;5]" h15 (probe hr 1 [| 1; 5 |]);
  (* Many siblings that share the label and the first digit fill probe
     clusters: keys that differ only in a later digit must still miss. *)
  let hp = Dewey_arena.intern_child a ~parent:hr ~lab:3 ~ord:[| 9 |] in
  for k = 1 to 500 do
    ignore (Dewey_arena.intern_child a ~parent:hp ~lab:1 ~ord:[| 2; 2 * k |])
  done;
  for k = 1 to 500 do
    if probe hp 1 [| 2; (2 * k) + 1 |] <> -1 then Alcotest.failf "[2;%d] hit" ((2 * k) + 1)
  done;
  Alcotest.(check int) "[2] under the wide parent misses" (-1) (probe hp 1 [| 2 |])

(* Wide fan-out under one parent drives the slot table through many
   resizes; every handle stays findable by probe and by walk. Half the
   ordinals share their first digit (and, three ways, their label), so
   probe clusters hold keys that differ only in a later digit. *)
let test_arena_index_growth () =
  let a = Dewey_arena.create () in
  let hr = Dewey_arena.intern a (Dewey.root ~lab:0) in
  let hs = ref [] in
  for i = 1 to 20_000 do
    let ord = if i mod 2 = 0 then [| 1; i |] else [| i |] in
    let h = Dewey_arena.intern_child a ~parent:hr ~lab:(i mod 3) ~ord in
    hs := (i mod 3, ord, h) :: !hs;
    (* Spot-check earlier handles at every power of two: just after a
       resize. *)
    if i land (i - 1) = 0 then
      List.iter
        (fun (lab, ord, h) ->
          if Dewey_arena.find_child a ~parent:hr ~lab ~ord <> h then
            Alcotest.failf "handle %d lost after %d interns" h i)
        !hs
  done;
  List.iter
    (fun (lab, ord, h) ->
      if Dewey_arena.find_child a ~parent:hr ~lab ~ord <> h then
        Alcotest.failf "handle %d lost" h;
      if Dewey_arena.find a (Dewey_arena.to_dewey a h) <> Some h then
        Alcotest.failf "walk misses handle %d" h)
    !hs;
  Alcotest.(check int) "one handle per child" 20_001 (Dewey_arena.size a)

let test_arena_walks_counted () =
  let a = Dewey_arena.create () in
  let id = Dewey.child (Dewey.root ~lab:0) ~lab:1 ~ord:[| 3 |] in
  let (), snap =
    Obs.with_scope (fun () ->
        let h = Dewey_arena.intern a id in
        ignore (Dewey_arena.find a id);
        ignore (Dewey_arena.find_child a ~parent:(Dewey_arena.parent a h) ~lab:1 ~ord:[| 3 |]);
        ignore (Dewey_arena.intern_child a ~parent:h ~lab:2 ~ord:[| 1 |]))
  in
  let cv = Obs.counter_value snap in
  Alcotest.(check int) "intern and find walk, probes do not" 2 (cv "dewey.arena.walks");
  Alcotest.(check int) "three handles interned" 3 (cv "dewey.arena.interned")

(* [intern_child] compares the handle after the one it last returned
   before probing. Run each key sequence through it and through a
   probe-only reference — [intern] of the whole identifier walks the
   child index and never looks at a next handle — on two arenas with
   the same history: every key must get the same handle, and the two
   must count the same fresh handles and hits. *)
let test_arena_next_handle () =
  let root = Dewey.root ~lab:0 in
  let a = Dewey_arena.create () and r = Dewey_arena.create () in
  let hr = Dewey_arena.intern a root in
  Alcotest.(check int) "same root handle" hr (Dewey_arena.intern r root);
  (* Keys are (parent handle, label, ordinal); both arenas hand out the
     same handles, so one parent handle names the same node in both. *)
  let run what keys =
    let ha, sa =
      Obs.with_scope (fun () ->
          List.map
            (fun (parent, lab, ord) -> Dewey_arena.intern_child a ~parent ~lab ~ord)
            keys)
    in
    let hr, sr =
      Obs.with_scope (fun () ->
          List.map
            (fun (parent, lab, ord) ->
              Dewey_arena.intern r
                (Dewey.child (Dewey_arena.to_dewey r parent) ~lab ~ord))
            keys)
    in
    Alcotest.(check (list int)) (what ^ ": handles") hr ha;
    List.iter
      (fun c ->
        Alcotest.(check int) (what ^ ": " ^ c)
          (Obs.counter_value sr ("dewey.arena." ^ c))
          (Obs.counter_value sa ("dewey.arena." ^ c)))
      [ "interned"; "hits" ];
    ha
  in
  let key h =
    (Dewey_arena.parent a h, Dewey_arena.label a h, Dewey.last_ord (Dewey_arena.to_dewey a h))
  in
  (* Make [h] the next handle: intern the key of the handle before it. *)
  let next_is what h = ignore (run (what ^ ", aim") [ key (h - 1) ]) in
  let fresh what k =
    let n = Dewey_arena.size a in
    let h = List.hd (run what [ k ]) in
    Alcotest.(check int) (what ^ ": a fresh handle") n h;
    h
  in
  (* A fragment root under the root and its three children, in preorder. *)
  let insert_frag what order =
    let top = List.hd (run (what ^ ", root") [ (hr, 1, [| 4 |]) ]) in
    (top, run what (order (List.init 3 (fun k -> (top, 2, [| k + 1 |])))))
  in
  let top, kids = insert_frag "first insert" Fun.id in
  let _, again = insert_frag "re-insert, same order" Fun.id in
  Alcotest.(check (list int)) "re-insert finds the same handles" kids again;
  let _, rev = insert_frag "re-insert, reverse order" List.rev in
  Alcotest.(check (list int)) "reverse order finds them too" (List.rev kids) rev;
  (* Another parent: the next handle has the key's label and ordinal. *)
  let other = fresh "second parent" (hr, 1, [| 5 |]) in
  next_is "other parent" (List.hd kids);
  ignore (fresh "same step, other parent" (other, 2, [| 1 |]));
  ignore (run "same step, its own parent" [ (top, 2, [| 1 |]); (top, 2, [| 2 |]) ]);
  (* Ordinals next to the next handle's [1;5]: a strict digit-prefix and
     an extension. *)
  let d15 = fresh "ordinal [1;5]" (other, 3, [| 1; 5 |]) in
  let d16 = fresh "ordinal [1;6]" (other, 3, [| 1; 6 |]) in
  next_is "digit-prefix" d15;
  ignore (fresh "strict digit-prefix of the next ordinal" (other, 3, [| 1 |]));
  next_is "extension" d15;
  ignore (fresh "extension of the next ordinal" (other, 3, [| 1; 5; 0 |]));
  next_is "same key" d16;
  Alcotest.(check (list int)) "the next handle's own key" [ d16 ]
    (run "the next handle's own key" [ (other, 3, [| 1; 6 |]) ]);
  next_is "label mismatch" d16;
  ignore (fresh "label mismatch" (other, 4, [| 1; 6 |]));
  (* The last handle was just returned: the next one is past the end. *)
  let last = Dewey_arena.size a - 1 in
  ignore (run "return the last handle" [ key last ]);
  let past = fresh "next handle past the end" (other, 5, [| 1 |]) in
  Alcotest.(check (list int)) "past the end, then a hit" [ past; d15 ]
    (run "past the end, then a hit" [ (other, 5, [| 1 |]); (other, 3, [| 1; 5 |]) ]);
  Alcotest.(check int) "same size" (Dewey_arena.size r) (Dewey_arena.size a)

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
          test_codec_blit;
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
          Alcotest.test_case "child index agrees with a Dewey table" `Quick
            test_arena_index_reference;
          Alcotest.test_case "child probes miss near keys" `Quick test_arena_probe_misses;
          Alcotest.test_case "child index survives resizes" `Quick test_arena_index_growth;
          Alcotest.test_case "whole-id walks are counted" `Quick test_arena_walks_counted;
          Alcotest.test_case "next-handle check agrees with probes" `Quick
            test_arena_next_handle;
        ] );
    ]
