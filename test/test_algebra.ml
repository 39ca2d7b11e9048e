(* Tests for tuple tables, structural joins and the ID-based physical
   operators. *)

let store_of s = Store.of_document (Xml_parse.document s)

let fixture () =
  store_of {|<a><c><b>x</b><b/></c><f><c><b>y</b></c><b/></f><c/></a>|}

let atom store pat i = Plan.atom_of_store store pat i

let pat_cb =
  Pattern.compile ~name:"cb" (Pattern.n "c" ~id:true [ Pattern.n "b" ~id:true [] ])

(* Naive nested-loop structural join used as the oracle. *)
let naive_join left right ~ppos ~cpos ~axis =
  let out = ref [] in
  Array.iter
    (fun l ->
      Array.iter
        (fun r ->
          let ok =
            match axis with
            | Pattern.Child -> Dewey.is_parent l.(ppos) r.(cpos)
            | Pattern.Descendant -> Dewey.is_ancestor l.(ppos) r.(cpos)
          in
          if ok then out := Array.append l r :: !out)
        right)
    left;
  List.sort compare (List.map (Array.map Dewey.encode) !out) |> List.map Array.to_list

let join_result t =
  List.sort compare
    (Array.to_list
       (Array.map
          (fun r -> Array.to_list (Array.map Dewey.encode r))
          (Tuple_table.rows t)))

let test_join_fixture () =
  let s = fixture () in
  let c = atom s pat_cb 0 and b = atom s pat_cb 1 in
  let joined = Struct_join.join c b ~parent:0 ~child:1 ~axis:Pattern.Descendant in
  Alcotest.(check int) "c ancestor of b pairs" 3 (Tuple_table.length joined);
  let joined_child = Struct_join.join c b ~parent:0 ~child:1 ~axis:Pattern.Child in
  Alcotest.(check int) "c parent of b pairs" 3 (Tuple_table.length joined_child);
  Alcotest.(check (list (list string))) "same as naive"
    (naive_join (Tuple_table.rows c) (Tuple_table.rows b) ~ppos:0 ~cpos:0
       ~axis:Pattern.Descendant)
    (join_result joined)

(* Atoms are sorted canonical-relation scans, so this drives the
   sort-merge path of the dispatching join on both axes. *)
let test_join_random =
  Tutil.qtest ~count:200 "structural join = nested loop"
    (QCheck.triple Tutil.arb_doc
       (QCheck.oneofl [ Pattern.Child; Pattern.Descendant ])
       (QCheck.pair (QCheck.oneofa Tutil.labels) (QCheck.oneofa Tutil.labels)))
    (fun (d, axis, (l1, l2)) ->
      let store = Store.of_document d in
      let pat =
        Pattern.compile ~name:"j" (Pattern.n l1 ~id:true [ Pattern.n ~axis l2 ~id:true [] ])
      in
      let left = atom store pat 0 and right = atom store pat 1 in
      Tuple_table.sorted_on left 0
      && Tuple_table.sorted_on right 1
      &&
      let joined = Struct_join.join left right ~parent:0 ~child:1 ~axis in
      join_result joined
      = naive_join (Tuple_table.rows left) (Tuple_table.rows right) ~ppos:0 ~cpos:0
          ~axis)

(* Both physical implementations against the oracle on the same inputs,
   including the hash join on shuffled (unsorted) inputs. *)
let test_join_impls_random =
  Tutil.qtest ~count:200 "merge join = hash join = nested loop"
    (QCheck.triple Tutil.arb_doc
       (QCheck.oneofl [ Pattern.Child; Pattern.Descendant ])
       (QCheck.pair (QCheck.oneofa Tutil.labels) (QCheck.oneofa Tutil.labels)))
    (fun (d, axis, (l1, l2)) ->
      let store = Store.of_document d in
      let pat =
        Pattern.compile ~name:"j" (Pattern.n l1 ~id:true [ Pattern.n ~axis l2 ~id:true [] ])
      in
      let left = atom store pat 0 and right = atom store pat 1 in
      let oracle =
        naive_join (Tuple_table.rows left) (Tuple_table.rows right) ~ppos:0 ~cpos:0
          ~axis
      in
      let merged = Struct_join.merge_join left right ~parent:0 ~child:1 ~axis in
      let shuffle t =
        let rows = Array.copy (Tuple_table.rows t) in
        let n = Array.length rows in
        for i = n - 1 downto 1 do
          let j = (i * 7919 + 13) mod (i + 1) in
          let tmp = rows.(i) in
          rows.(i) <- rows.(j);
          rows.(j) <- tmp
        done;
        Tuple_table.of_rows ~cols:(Tuple_table.cols t) rows
      in
      let sl = shuffle left and sr = shuffle right in
      let hashed = Struct_join.hash_join sl sr ~parent:0 ~child:1 ~axis in
      (* The dispatcher must not take the merge path on unsorted inputs of
         more than one row (their metadata is unknown). *)
      let dispatched = Struct_join.join sl sr ~parent:0 ~child:1 ~axis in
      join_result merged = oracle
      && join_result hashed = oracle
      && join_result dispatched = oracle)

(* Regression: output column order is left-columns-then-right-columns and
   the merge output is sorted on the child column. *)
let test_join_column_order () =
  let s = fixture () in
  let pat =
    Pattern.compile ~name:"p"
      (Pattern.n "a" ~id:true [ Pattern.n "c" ~id:true [ Pattern.n "b" ~id:true [] ] ])
  in
  let ac =
    Struct_join.join (atom s pat 0) (atom s pat 1) ~parent:0 ~child:1
      ~axis:Pattern.Descendant
  in
  Alcotest.(check (list int)) "two-way cols" [ 0; 1 ]
    (Array.to_list (Tuple_table.cols ac));
  let acb =
    Struct_join.join ac (atom s pat 2) ~parent:1 ~child:2 ~axis:Pattern.Descendant
  in
  Alcotest.(check (list int)) "three-way cols" [ 0; 1; 2 ]
    (Array.to_list (Tuple_table.cols acb));
  Alcotest.(check bool) "merge output sorted on child" true
    (Tuple_table.sorted_by ac = Some 1);
  (* Rows bind each column to a node of the matching label. *)
  let dict = Store.dict s in
  Tuple_table.iter
    (fun row ->
      let lab p = Label_dict.label dict (Dewey.label row.(p)) in
      Alcotest.(check (list string)) "row labels follow cols" [ "a"; "c"; "b" ]
        [ lab 0; lab 1; lab 2 ])
    acb

(* XVM_BOXED_TABLES: only the explicit truthy spellings request the
   boxed layout; everything else — unset, empty, "0", "no", garbage —
   keeps the columnar default. *)
let test_boxed_env_parse () =
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "%S requests boxed"
           (Option.value ~default:"<unset>" v))
        true
        (Tuple_table.boxed_requested v))
    [ Some "1"; Some "true"; Some "TRUE"; Some "True"; Some " 1 "; Some "\ttrue\n" ];
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "%S stays columnar"
           (Option.value ~default:"<unset>" v))
        false
        (Tuple_table.boxed_requested v))
    [ None; Some ""; Some "0"; Some "false"; Some "no"; Some "yes"; Some "2"; Some "on"; Some "boxed" ]

let test_tuple_table () =
  let t = Tuple_table.of_ids ~node:7 [| Dewey.root ~lab:1 |] in
  Alcotest.(check int) "col_pos" 0 (Tuple_table.col_pos t 7);
  Alcotest.(check bool) "missing col raises" true
    (match Tuple_table.col_pos t 3 with exception Not_found -> true | _ -> false);
  Alcotest.(check int) "length" 1 (Tuple_table.length t);
  Tuple_table.filter t (fun _ -> false);
  Alcotest.(check bool) "filter empties" true (Tuple_table.is_empty t)

let test_append_growth () =
  let a = Dewey.root ~lab:0 in
  let kids = Array.init 100 (fun i -> Dewey.child a ~lab:1 ~ord:[| i + 1 |]) in
  let t = Tuple_table.create ~cols:[| 3 |] in
  Array.iter (fun id -> Tuple_table.append_row t [| id |]) kids;
  Alcotest.(check int) "appended length" 100 (Tuple_table.length t);
  Alcotest.(check bool) "rows snapshot exact" true
    (Array.length (Tuple_table.rows t) = 100);
  Tuple_table.append_rows t (Array.map (fun id -> [| id |]) kids);
  Alcotest.(check int) "bulk appended" 200 (Tuple_table.length t);
  Alcotest.(check bool) "row content survives growth" true
    (Dewey.equal (Tuple_table.get t 0).(0) kids.(0)
    && Dewey.equal (Tuple_table.get t 99).(0) kids.(99)
    && Dewey.equal (Tuple_table.get t 100).(0) kids.(0))

let test_sortedness_metadata () =
  let a = Dewey.root ~lab:0 in
  let k i = Dewey.child a ~lab:1 ~ord:[| i |] in
  let t = Tuple_table.of_ids ~sorted:true ~node:0 [| k 1; k 2 |] in
  Alcotest.(check bool) "declared sorted" true (Tuple_table.sorted_on t 0);
  Tuple_table.append_row t [| k 5 |];
  Alcotest.(check bool) "in-order append keeps metadata" true
    (Tuple_table.sorted_by t = Some 0);
  Tuple_table.append_row t [| k 3 |];
  Alcotest.(check bool) "out-of-order append drops metadata" true
    (Tuple_table.sorted_by t = None);
  Tuple_table.sort_by_node t 0;
  Alcotest.(check bool) "sort restores metadata" true
    (Tuple_table.sorted_by t = Some 0);
  Tuple_table.filter t (fun row -> not (Dewey.equal row.(0) (k 2)));
  Alcotest.(check bool) "filter keeps metadata" true
    (Tuple_table.sorted_by t = Some 0);
  Alcotest.(check int) "filter in place" 3 (Tuple_table.length t)

let test_sort_by_node () =
  let a = Dewey.root ~lab:0 in
  let b = Dewey.child a ~lab:1 ~ord:[| 1 |] in
  let c = Dewey.child a ~lab:1 ~ord:[| 2 |] in
  let t = Tuple_table.of_ids ~node:0 [| c; a; b |] in
  Tuple_table.sort_by_node t 0;
  Alcotest.(check bool) "sorted" true
    (Dewey.equal (Tuple_table.get t 0).(0) a
    && Dewey.equal (Tuple_table.get t 1).(0) b
    && Dewey.equal (Tuple_table.get t 2).(0) c)

let test_id_region () =
  let a = Dewey.root ~lab:0 in
  let b = Dewey.child a ~lab:1 ~ord:[| 1 |] in
  let c = Dewey.child b ~lab:2 ~ord:[| 1 |] in
  let other = Dewey.child a ~lab:1 ~ord:[| 2 |] in
  let region = Id_region.of_roots [ b ] in
  Alcotest.(check bool) "root in region" true (Id_region.mem region b);
  Alcotest.(check bool) "descendant in region" true (Id_region.mem region c);
  Alcotest.(check bool) "ancestor not in region" false (Id_region.mem region a);
  Alcotest.(check bool) "sibling not in region" false (Id_region.mem region other);
  Alcotest.(check bool) "strictly inside excludes the root" false
    (Id_region.strictly_inside region b);
  Alcotest.(check bool) "strictly inside descendant" true
    (Id_region.strictly_inside region c);
  Alcotest.(check bool) "empty region" true
    (Id_region.is_empty (Id_region.of_roots []) && not (Id_region.mem (Id_region.of_roots []) a));
  Alcotest.(check int) "nested roots normalize" 1
    (Array.length (Id_region.roots (Id_region.of_roots [ b; c ])))

(* Δ⁻ extraction (a preorder walk of the detached subtrees) against the
   naive filter of the pre-delete relation over the deleted region. *)
let delta_ids store pat app =
  let t = (Delta.of_delete store pat app).Delta.tables.(0) in
  List.init (Tuple_table.length t) (fun r -> Dewey.encode (Tuple_table.cell_id t r 0))

let region_filter all region =
  Array.to_list all
  |> List.filter (fun e -> Id_region.mem region e.Store.id)
  |> List.map (fun e -> Dewey.encode e.Store.id)

let test_region_scan_random =
  Tutil.qtest ~count:200 "region-pruned scan = filtered full scan"
    (QCheck.pair Tutil.arb_doc (QCheck.pair (QCheck.oneofa Tutil.labels) QCheck.small_int))
    (fun (d, (target, pick)) ->
      let store = Store.of_document d in
      let pat =
        Pattern.compile ~name:"r"
          (Pattern.n ~axis:Pattern.Descendant target ~id:true [])
      in
      let all = Plan.entries_matching store pat 0 in
      (* Region: a pseudo-random subset of the document's element nodes,
         nested roots included, in no particular order. *)
      let every = max 1 ((pick mod 3) + 1) in
      let roots = ref [] in
      Array.iteri
        (fun i e -> if i mod every = 0 then roots := e.Store.node :: !roots)
        (Store.relation store "a");
      Array.iteri
        (fun i e -> if i mod 2 = 0 then roots := e.Store.node :: !roots)
        (Store.relation store "c");
      let region = Id_region.of_roots (List.map (Store.id_of store) !roots) in
      let naive = region_filter all region in
      let app = Update.apply_delete store ~targets:!roots in
      delta_ids store pat app = naive)

(* Boundary cases of Δ⁻ extraction: empty relations, empty regions, and
   single-node regions at the first/last relation rows. *)
let test_entries_in_region_boundaries () =
  let pat_b =
    Pattern.compile ~name:"b" (Pattern.n ~axis:Pattern.Descendant "b" ~id:true [])
  in
  let enc e = Dewey.encode e.Store.id in
  let scan pick =
    let s = fixture () in
    let all = Plan.entries_matching s pat_b 0 in
    let app = Update.apply_delete s ~targets:(pick s all) in
    delta_ids s pat_b app
  in
  let all = Plan.entries_matching (fixture ()) pat_b 0 in
  let last = Array.length all - 1 in
  Alcotest.(check (list string)) "whole-document region = full relation"
    (Array.to_list (Array.map enc all))
    (scan (fun s _ -> [ Store.root s ]));
  Alcotest.(check (list string)) "empty region" [] (scan (fun _ _ -> []));
  Alcotest.(check (list string)) "single-node region at the first row"
    [ enc all.(0) ]
    (scan (fun _ a -> [ a.(0).Store.node ]));
  Alcotest.(check (list string)) "single-node region at the last row"
    [ enc all.(last) ]
    (scan (fun _ a -> [ a.(last).Store.node ]));
  Alcotest.(check (list string)) "single-node regions at both extremes"
    [ enc all.(0); enc all.(last) ]
    (scan (fun _ a -> [ a.(last).Store.node; a.(0).Store.node ]));
  let pat_z =
    Pattern.compile ~name:"z" (Pattern.n ~axis:Pattern.Descendant "zzz" ~id:true [])
  in
  let s = fixture () in
  Alcotest.(check int) "empty relation" 0
    (List.length (delta_ids s pat_z (Update.apply_delete s ~targets:[ Store.root s ])))

let test_path_ops () =
  let s = fixture () in
  let dict = Store.dict s in
  let rb = Store.relation s "b" in
  let ids = Array.map (fun e -> e.Store.id) rb in
  (* Path Filter: b nodes below a c. *)
  let c_code = Option.get (Label_dict.find dict "c") in
  let under_c =
    Path_ops.path_filter ids (fun path ->
        Array.exists (fun l -> l = c_code) (Array.sub path 0 (Array.length path - 1)))
  in
  Alcotest.(check int) "path filter" 3 (Array.length under_c);
  Alcotest.(check bool) "has_label_ancestor agrees" true
    (Array.for_all (fun id -> Path_ops.has_label_ancestor dict ~label:"c" id) under_c);
  Alcotest.(check bool) "star label always true" true
    (Path_ops.has_label_ancestor dict ~label:"*" ids.(0));
  (* Path Navigate: parents of the b nodes are the two c's and f. *)
  let parents = Path_ops.path_navigate ids in
  Alcotest.(check int) "navigate dedups" 3 (Array.length parents)

let test_plan_scope () =
  (* eval_subtree with a restricted scope only joins the included nodes. *)
  let s = fixture () in
  let pat =
    Pattern.compile ~name:"p"
      (Pattern.n "a" ~id:true [ Pattern.n "c" ~id:true [ Pattern.n "b" ~id:true [] ] ])
  in
  let within = [| true; true; false |] in
  let t =
    Plan.eval_subtree pat ~atom:(atom s pat) ~within:(fun i -> within.(i)) ~root:0
  in
  Alcotest.(check int) "a-c pairs only" 3 (Tuple_table.length t);
  Alcotest.(check bool) "no b column" true
    (match Tuple_table.col_pos t 2 with exception Not_found -> true | _ -> false)

(* {1 Counter-based complexity regression tests}

   The observability counters turn the join's complexity contract into
   an executable assertion. [algebra.join.comparisons] counts Dewey
   comparisons on the merge path and prefix probes on the hash path, so
   the budget below constrains whichever implementation actually ran:
   on this adversarial deep-descendant input the stack-based merge join
   measures ~1.7*(|L|+|R|+|out|) comparisons, the hash-prefix baseline
   ~12800 and a nested loop 160000 against a budget of 7200 -- swapping
   the dispatched join for either blows the bound by an order of
   magnitude. *)

(* [chains] root-level sections, each a [depth]-deep chain of wrap
   elements ending in a para: maximal ancestor-stack churn per output
   pair, the worst case for a structural merge join. *)
let deep_doc ~chains ~depth =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "<root>";
  for i = 1 to chains do
    Buffer.add_string buf "<section>";
    for _ = 1 to depth do
      Buffer.add_string buf "<wrap>"
    done;
    Buffer.add_string buf (Printf.sprintf "<para>p%d</para>" i);
    for _ = 1 to depth do
      Buffer.add_string buf "</wrap>"
    done;
    Buffer.add_string buf "</section>"
  done;
  Buffer.add_string buf "</root>";
  Xml_parse.document (Buffer.contents buf)

let comparisons snap = Obs.counter_value snap "algebra.join.comparisons"

let deep_atoms () =
  let store = Store.of_document (deep_doc ~chains:400 ~depth:30) in
  let pat =
    Pattern.compile ~name:"sp"
      (Pattern.n "section" ~id:true
         [ Pattern.n ~axis:Pattern.Descendant "para" ~id:true [] ])
  in
  (atom store pat 0, atom store pat 1)

let linear_budget ~left ~right ~out =
  6 * (Tuple_table.length left + Tuple_table.length right + Tuple_table.length out)

let test_merge_join_comparison_bound () =
  let left, right = deep_atoms () in
  let joined, snap =
    Obs.with_scope (fun () ->
        Struct_join.join left right ~parent:0 ~child:1 ~axis:Pattern.Descendant)
  in
  let budget = linear_budget ~left ~right ~out:joined in
  let c = comparisons snap in
  if c > budget then
    Alcotest.failf
      "structural join did %d comparisons on |L|=%d |R|=%d |out|=%d, over the \
       linear budget %d: not a sort-merge join any more?"
      c (Tuple_table.length left) (Tuple_table.length right)
      (Tuple_table.length joined) budget;
  Alcotest.(check int) "no hash fallback on sorted inputs" 0
    (Obs.counter_value snap "algebra.join.hash_fallbacks");
  Alcotest.(check bool) "merge path taken" true
    (Obs.counter_value snap "algebra.join.merge_calls" >= 1)

(* The same budget rejects the hash-prefix baseline on the same input:
   it probes one hash entry per ancestor prefix of every right row, so
   deep documents cost depth*|R| probes. This keeps the bound above
   honest -- it genuinely discriminates between the implementations. *)
let test_hash_join_exceeds_linear_budget () =
  let left, right = deep_atoms () in
  let joined, snap =
    Obs.with_scope (fun () ->
        Struct_join.hash_join left right ~parent:0 ~child:1
          ~axis:Pattern.Descendant)
  in
  let budget = linear_budget ~left ~right ~out:joined in
  Alcotest.(check bool) "hash-prefix join exceeds the merge budget" true
    (comparisons snap > budget)

(* Dispatcher counters across both axes on sorted store atoms: every
   call must take the merge path, never the fallback. *)
let test_sorted_inputs_never_fall_back () =
  let s = fixture () in
  let c = atom s pat_cb 0 and b = atom s pat_cb 1 in
  let (), snap =
    Obs.with_scope (fun () ->
        List.iter
          (fun axis ->
            ignore (Struct_join.join c b ~parent:0 ~child:1 ~axis))
          [ Pattern.Child; Pattern.Descendant ])
  in
  Alcotest.(check int) "zero fallbacks" 0
    (Obs.counter_value snap "algebra.join.hash_fallbacks");
  Alcotest.(check int) "two merge calls" 2
    (Obs.counter_value snap "algebra.join.merge_calls");
  Alcotest.(check int) "row counters flushed" (2 * Tuple_table.length c)
    (Obs.counter_value snap "algebra.join.rows_left")

(* {1 Columnar layout equivalence}

   The arena-handle columnar layout must be observationally identical to
   the boxed row layout: same rows through the compatibility API, same
   join outputs and sortedness metadata, same table-op results. *)

let boxed_atom store node label =
  Tuple_table.of_ids ~sorted:true ~node
    (Array.map (fun e -> e.Store.id) (Store.relation store label))

let cols_atom store node label =
  let _, handles = Store.relation_handles store label in
  Tuple_table.of_handles ~sorted:true ~arena:(Store.arena store) ~node
    (Array.copy handles)

let arb_doc_label =
  QCheck.pair Tutil.arb_doc (QCheck.oneofa Tutil.labels)

let test_columnar_join_equiv =
  Tutil.qtest ~count:200 "columnar merge join = boxed merge join"
    (QCheck.triple Tutil.arb_doc
       (QCheck.oneofl [ Pattern.Child; Pattern.Descendant ])
       (QCheck.pair (QCheck.oneofa Tutil.labels) (QCheck.oneofa Tutil.labels)))
    (fun (d, axis, (l1, l2)) ->
      let store = Store.of_document d in
      let bl = boxed_atom store 0 l1 and br = boxed_atom store 1 l2 in
      let cl = cols_atom store 0 l1 and cr = cols_atom store 1 l2 in
      let boxed, snap_b =
        Obs.with_scope (fun () ->
            Struct_join.merge_join bl br ~parent:0 ~child:1 ~axis)
      in
      let cols, snap_c =
        Obs.with_scope (fun () ->
            Struct_join.merge_join cl cr ~parent:0 ~child:1 ~axis)
      in
      join_result cols = join_result boxed
      && Tuple_table.sorted_by cols = Tuple_table.sorted_by boxed
      (* counter parity: the complexity regression tests must not depend
         on the physical layout *)
      && comparisons snap_c = comparisons snap_b)

let test_columnar_table_ops =
  Tutil.qtest ~count:200 "columnar table ops mirror boxed" arb_doc_label
    (fun (d, lab) ->
      let store = Store.of_document d in
      let b = boxed_atom store 0 lab and c = cols_atom store 0 lab in
      join_result b = join_result c
      && (let n = Tuple_table.length b in
          let ok = ref (Tuple_table.length c = n) in
          for i = 0 to n - 1 do
            if
              not
                (Dewey.equal (Tuple_table.cell_id b i 0)
                   (Tuple_table.cell_id c i 0))
            then ok := false
          done;
          !ok)
      && (let b2 = Tuple_table.copy b and c2 = Tuple_table.copy c in
          Tuple_table.append_table b2 b;
          Tuple_table.append_table c2 c;
          join_result b2 = join_result c2
          && Tuple_table.sorted_by b2 = Tuple_table.sorted_by c2)
      &&
      let b3 = Tuple_table.copy b and c3 = Tuple_table.copy c in
      let keep row = Dewey.depth row.(0) mod 2 = 0 in
      Tuple_table.filter b3 keep;
      Tuple_table.filter c3 keep;
      join_result b3 = join_result c3)

let test_columnar_sort =
  Tutil.qtest ~count:100 "columnar sort_by_node = boxed order" arb_doc_label
    (fun (d, lab) ->
      let store = Store.of_document d in
      let _, handles = Store.relation_handles store lab in
      let shuf = Array.copy handles in
      let n = Array.length shuf in
      for i = n - 1 downto 1 do
        let j = ((i * 7919) + 13) mod (i + 1) in
        let t = shuf.(i) in
        shuf.(i) <- shuf.(j);
        shuf.(j) <- t
      done;
      let c = Tuple_table.of_handles ~arena:(Store.arena store) ~node:0 shuf in
      Tuple_table.sort_by_node c 0;
      join_result c = join_result (boxed_atom store 0 lab))

let () =
  Alcotest.run "algebra"
    [
      ( "joins",
        [
          Alcotest.test_case "fixture join" `Quick test_join_fixture;
          Alcotest.test_case "merge join comparison bound" `Quick
            test_merge_join_comparison_bound;
          Alcotest.test_case "hash join exceeds linear budget" `Quick
            test_hash_join_exceeds_linear_budget;
          Alcotest.test_case "sorted inputs never fall back" `Quick
            test_sorted_inputs_never_fall_back;
          Alcotest.test_case "column order" `Quick test_join_column_order;
          test_join_random;
          test_join_impls_random;
        ] );
      ( "tables",
        [
          Alcotest.test_case "boxed env parse" `Quick test_boxed_env_parse;
          Alcotest.test_case "tuple table" `Quick test_tuple_table;
          Alcotest.test_case "append growth" `Quick test_append_growth;
          Alcotest.test_case "sortedness metadata" `Quick test_sortedness_metadata;
          Alcotest.test_case "sort by node" `Quick test_sort_by_node;
        ] );
      ( "columnar",
        [
          test_columnar_join_equiv;
          test_columnar_table_ops;
          test_columnar_sort;
        ] );
      ( "id ops",
        [
          Alcotest.test_case "id region" `Quick test_id_region;
          Alcotest.test_case "region scan boundaries" `Quick
            test_entries_in_region_boundaries;
          test_region_scan_random;
          Alcotest.test_case "path filter/navigate" `Quick test_path_ops;
          Alcotest.test_case "scoped plan" `Quick test_plan_scope;
        ] );
    ]
