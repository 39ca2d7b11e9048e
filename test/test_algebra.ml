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

(* [shuffle t] is [t]'s rows in a fixed pseudo-random order, rebuilt
   with [of_cols] from the permuted handles and no order metadata. *)
let shuffle t =
  let n = Tuple_table.length t in
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = ((i * 7919) + 13) mod (i + 1) in
    let tmp = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- tmp
  done;
  Tuple_table.of_cols ~arena:(Tuple_table.arena t) ~cols:(Tuple_table.cols t) ~len:n
    (Array.map (fun col -> Array.map (fun i -> col.(i)) perm) (Tuple_table.columns t))

let sorted_on_column t node =
  let arena = Tuple_table.arena t in
  let col = (Tuple_table.columns t).(Tuple_table.col_pos t node) in
  let ok = ref true in
  for i = 1 to Array.length col - 1 do
    if Dewey_arena.compare arena col.(i - 1) col.(i) > 0 then ok := false
  done;
  !ok

(* The join against the nested loop on sorted store atoms and on the
   same atoms shuffled, which it must sort before merging: either way one
   merge per join, and an output in document order of the child column. *)
let test_join_shuffled_random =
  Tutil.qtest ~count:200 "join on shuffled inputs = nested loop"
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
      let check l r =
        let out, snap =
          Obs.with_scope (fun () -> Struct_join.join l r ~parent:0 ~child:1 ~axis)
        in
        join_result out = oracle
        && Tuple_table.sorted_by out = Some 1
        && sorted_on_column out 1
        && Obs.counter_value snap "algebra.join.merge_calls" = 1
      in
      check left right
      && check (shuffle left) (shuffle right)
      && check left (shuffle right)
      && check (shuffle left) right)

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
  Array.iter
    (fun row ->
      let lab p = Label_dict.label dict (Dewey.label row.(p)) in
      Alcotest.(check (list string)) "row labels follow cols" [ "a"; "c"; "b" ]
        [ lab 0; lab 1; lab 2 ])
    (Tuple_table.rows acb)

(* Tables over a fresh arena: [ids] interned in order. *)
let table_of_ids ?sorted arena ~node ids =
  Tuple_table.of_handles ?sorted ~arena ~node (Array.map (Dewey_arena.intern arena) ids)

let ids_of t = Array.map (fun row -> row.(0)) (Tuple_table.rows t)

let test_tuple_table () =
  let arena = Dewey_arena.create () in
  let t = table_of_ids arena ~node:7 [| Dewey.root ~lab:1 |] in
  Alcotest.(check int) "col_pos" 0 (Tuple_table.col_pos t 7);
  Alcotest.(check bool) "missing col raises" true
    (match Tuple_table.col_pos t 3 with exception Not_found -> true | _ -> false);
  Alcotest.(check int) "length" 1 (Tuple_table.length t);
  Tuple_table.remove_ids t [ (7, Tuple_table.copy t) ];
  Alcotest.(check bool) "remove_ids empties" true (Tuple_table.is_empty t)

let test_append_growth () =
  let arena = Dewey_arena.create () in
  let a = Dewey.root ~lab:0 in
  let kids = Array.init 100 (fun i -> Dewey.child a ~lab:1 ~ord:[| i + 1 |]) in
  let t = Tuple_table.empty ~arena ~cols:[| 3 |] in
  Array.iter (fun id -> Tuple_table.append_table t (table_of_ids arena ~node:3 [| id |])) kids;
  Alcotest.(check int) "appended length" 100 (Tuple_table.length t);
  Alcotest.(check bool) "columns compacted exactly" true
    (Array.length (Tuple_table.columns t).(0) = 100);
  Tuple_table.append_table t (table_of_ids arena ~node:3 kids);
  Alcotest.(check int) "bulk appended" 200 (Tuple_table.length t);
  let ids = ids_of t in
  Alcotest.(check bool) "row content survives growth" true
    (Dewey.equal ids.(0) kids.(0)
    && Dewey.equal ids.(99) kids.(99)
    && Dewey.equal ids.(100) kids.(0))

let test_sortedness_metadata () =
  let arena = Dewey_arena.create () in
  let a = Dewey.root ~lab:0 in
  let k i = Dewey.child a ~lab:1 ~ord:[| i |] in
  let t = table_of_ids ~sorted:true arena ~node:0 [| k 1; k 2 |] in
  Alcotest.(check bool) "declared sorted" true (Tuple_table.sorted_on t 0);
  Tuple_table.append_table t (table_of_ids arena ~node:0 [| k 5 |]);
  Alcotest.(check bool) "in-order append keeps metadata" true
    (Tuple_table.sorted_by t = Some 0);
  Tuple_table.append_table t (table_of_ids arena ~node:0 [| k 3 |]);
  Alcotest.(check bool) "out-of-order append drops metadata" true
    (Tuple_table.sorted_by t = None);
  Tuple_table.sort_by_node t 0;
  Alcotest.(check bool) "sort restores metadata" true
    (Tuple_table.sorted_by t = Some 0);
  Tuple_table.remove_ids t [ (0, table_of_ids arena ~node:0 [| k 2 |]) ];
  Alcotest.(check bool) "remove_ids keeps metadata" true
    (Tuple_table.sorted_by t = Some 0);
  Alcotest.(check int) "remove_ids in place" 3 (Tuple_table.length t)

let test_sort_by_node () =
  let arena = Dewey_arena.create () in
  let a = Dewey.root ~lab:0 in
  let b = Dewey.child a ~lab:1 ~ord:[| 1 |] in
  let c = Dewey.child a ~lab:1 ~ord:[| 2 |] in
  let t = table_of_ids arena ~node:0 [| c; a; b |] in
  Tuple_table.sort_by_node t 0;
  let ids = ids_of t in
  Alcotest.(check bool) "sorted" true
    (Dewey.equal ids.(0) a && Dewey.equal ids.(1) b && Dewey.equal ids.(2) c)

(* {1 Table operations against a plain-array model}

   A two-column table over pattern nodes 3 and 5 is modelled as an
   array of [| h3; h5 |] handle rows. [append_table] from a source whose
   columns are listed the other way round ([| 5; 3 |]) must line the
   columns up by pattern node, not by position; [remove_ids] is a filter,
   [sort_by_node] a sort on one column, and [copy] shares nothing. After
   every operation the order metadata must be sound: a column it names
   is in document order. *)

let model_of t =
  let cols = Tuple_table.columns t in
  let p3 = Tuple_table.col_pos t 3 and p5 = Tuple_table.col_pos t 5 in
  Array.init (Tuple_table.length t) (fun r -> [| cols.(p3).(r); cols.(p5).(r) |])

let table_of_model arena ~cols rows =
  (* [cols] is [| 3; 5 |] or [| 5; 3 |]; model rows are always h3, h5. *)
  let at node = if node = 3 then 0 else 1 in
  Tuple_table.of_cols ~arena ~cols ~len:(Array.length rows)
    (Array.map (fun node -> Array.map (fun r -> r.(at node)) rows) cols)

let metadata_sound t =
  match Tuple_table.sorted_by t with None -> true | Some n -> sorted_on_column t n

let test_table_ops_model =
  Tutil.qtest ~count:300 "table ops = array model"
    QCheck.(
      triple Tutil.arb_doc
        (pair (small_list (pair small_nat small_nat)) (small_list (pair small_nat small_nat)))
        (small_list small_nat))
    (fun (d, (picks, picks'), dead) ->
      let store = Store.of_document d in
      let arena = Store.arena store in
      let pool =
        Array.concat
          (List.map
             (fun l -> snd (Store.relation_handles store l))
             (Store.relation_labels store))
      in
      let h k = pool.(k mod Array.length pool) in
      let rows ps = Array.of_list (List.map (fun (a, b) -> [| h a; h b |]) ps) in
      let m = rows picks and m' = rows picks' in
      let cmp3 a b = Dewey_arena.compare arena a.(0) b.(0) in
      let sorted_m = Array.copy m in
      Array.stable_sort cmp3 sorted_m;
      (* append_table, permuted source, onto a table sorted on node 3 *)
      let t = table_of_model arena ~cols:[| 3; 5 |] sorted_m in
      Tuple_table.mark_sorted_by t 3;
      Tuple_table.append_table t (table_of_model arena ~cols:[| 5; 3 |] m');
      let m1 = Array.append sorted_m m' in
      let appended = model_of t = m1 && metadata_sound t in
      (* copy is independent of its source *)
      let c = Tuple_table.copy t in
      let dead_h = Array.of_list (List.map h dead) in
      Tuple_table.remove_ids c [ (5, Tuple_table.of_handles ~arena ~node:5 dead_h) ];
      let m2 =
        Array.of_list
          (List.filter (fun r -> not (Array.mem r.(1) dead_h)) (Array.to_list m1))
      in
      let removed = model_of c = m2 && model_of t = m1 && metadata_sound c in
      (* sort_by_node: a permutation of the rows, in order on node 3 *)
      Tuple_table.sort_by_node c 3;
      let sorted = model_of c in
      let m3 = Array.copy m2 in
      Array.stable_sort cmp3 m3;
      let bag a = List.sort compare (Array.to_list a) in
      appended && removed
      && bag sorted = bag m2
      && Array.for_all2 (fun a b -> cmp3 a b = 0) sorted m3
      && Tuple_table.sorted_by c = Some 3
      && metadata_sound c)

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
      let all = fst (Plan.entries_matching_handles store pat 0) in
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
    let all = fst (Plan.entries_matching_handles s pat_b 0) in
    let app = Update.apply_delete s ~targets:(pick s all) in
    delta_ids s pat_b app
  in
  let all = fst (Plan.entries_matching_handles (fixture ()) pat_b 0) in
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
   an executable assertion. [algebra.join.comparisons] counts identifier
   comparisons: on this adversarial deep-descendant input the stack-based
   merge join measures ~1.7*(|L|+|R|+|out|) comparisons against a budget
   of 7200, where a nested loop would need 160000. *)

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
  Alcotest.(check int) "one merge" 1
    (Obs.counter_value snap "algebra.join.merge_calls")

(* Join counters across both axes on sorted store atoms: one merge per
   call, with the input sizes flushed. *)
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
  Alcotest.(check int) "two merge calls" 2
    (Obs.counter_value snap "algebra.join.merge_calls");
  Alcotest.(check int) "row counters flushed" (2 * Tuple_table.length c)
    (Obs.counter_value snap "algebra.join.rows_left")

let () =
  Alcotest.run "algebra"
    [
      ( "joins",
        [
          Alcotest.test_case "fixture join" `Quick test_join_fixture;
          Alcotest.test_case "merge join comparison bound" `Quick
            test_merge_join_comparison_bound;
          Alcotest.test_case "sorted inputs never fall back" `Quick
            test_sorted_inputs_never_fall_back;
          Alcotest.test_case "column order" `Quick test_join_column_order;
          test_join_random;
          test_join_shuffled_random;
        ] );
      ( "tables",
        [
          Alcotest.test_case "tuple table" `Quick test_tuple_table;
          Alcotest.test_case "append growth" `Quick test_append_growth;
          Alcotest.test_case "sortedness metadata" `Quick test_sortedness_metadata;
          Alcotest.test_case "sort by node" `Quick test_sort_by_node;
          test_table_ops_model;
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
