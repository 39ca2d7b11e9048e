(* Tests for the document store: ID assignment, canonical relations, and
   the staged attach/detach/commit update discipline. *)

let fixture () =
  Store.of_document
    (Xml_parse.document {|<a><c><b>x</b><b/></c><f><c><b>y</b></c><b/></f></a>|})

let ids_sorted entries =
  let ids = Array.map (fun e -> e.Store.id) entries in
  Array.for_all (fun _ -> true) ids
  &&
  let ok = ref true in
  for i = 0 to Array.length ids - 2 do
    if Dewey.compare ids.(i) ids.(i + 1) >= 0 then ok := false
  done;
  !ok

let test_indexing () =
  let s = fixture () in
  Alcotest.(check int) "node count" 10 (Store.node_count s);
  let rb = Store.relation s "b" in
  Alcotest.(check int) "four b nodes" 4 (Array.length rb);
  Alcotest.(check bool) "relation in document order" true (ids_sorted rb);
  Alcotest.(check int) "two c nodes" 2 (Array.length (Store.relation s "c"));
  Alcotest.(check int) "unknown label" 0 (Array.length (Store.relation s "zzz"));
  Alcotest.(check bool) "labels include #text" true
    (List.mem "#text" (Store.relation_labels s))

let test_id_node_inverse () =
  let s = fixture () in
  Xml_tree.iter
    (fun n ->
      let id = Store.id_of s n in
      match Store.node_of s id with
      | Some n' -> Alcotest.(check bool) "inverse" true (n == n')
      | None -> Alcotest.fail "node_of failed")
    (Store.root s)

let test_ids_structural () =
  let s = fixture () in
  Xml_tree.iter
    (fun n ->
      match n.Xml_tree.parent with
      | None -> ()
      | Some p ->
        Alcotest.(check bool) "parent id is parent" true
          (Dewey.is_parent (Store.id_of s p) (Store.id_of s n)))
    (Store.root s)

let test_attach_commit () =
  let s = fixture () in
  let f = List.nth (Xml_tree.element_children (Store.root s)) 1 in
  let fresh = Xml_parse.fragment "<b>new</b><c/>" in
  Store.attach s ~parent:f fresh;
  (* IDs are assigned immediately... *)
  let new_b = List.hd fresh in
  let id = Store.id_of s new_b in
  Alcotest.(check bool) "new node resolvable" true
    (match Store.node_of s id with Some n -> n == new_b | None -> false);
  Alcotest.(check bool) "after existing siblings" true
    (Dewey.compare (Store.id_of s (List.hd f.Xml_tree.children)) id < 0);
  (* ...but relations only change at commit. *)
  Alcotest.(check int) "relation unchanged before commit" 4
    (Array.length (Store.relation s "b"));
  Store.commit s;
  Alcotest.(check int) "relation updated" 5 (Array.length (Store.relation s "b"));
  Alcotest.(check bool) "still sorted" true (ids_sorted (Store.relation s "b"))

let test_detach_commit () =
  let s = fixture () in
  let c1 = List.hd (Xml_tree.element_children (Store.root s)) in
  let before = Store.node_count s in
  Store.detach s c1;
  (* Detached nodes are dead for the outside world immediately… *)
  Alcotest.(check bool) "mem is false after detach" false (Store.mem s c1);
  Alcotest.(check bool) "node_of misses after detach" true
    (let id = Store.id_of s c1 in
     Store.node_of s id = None);
  Alcotest.(check int) "relation unchanged before commit" 4
    (Array.length (Store.relation s "b"));
  Store.commit s;
  Alcotest.(check int) "live count drops at commit" (before - 4)
    (Store.node_count s);
  Alcotest.(check int) "b relation purged" 2 (Array.length (Store.relation s "b"));
  Alcotest.(check int) "c relation purged" 1 (Array.length (Store.relation s "c"))

let test_attach_then_detach_before_commit () =
  let s = fixture () in
  let f = List.nth (Xml_tree.element_children (Store.root s)) 1 in
  let fresh = Xml_parse.fragment "<b>ghost</b>" in
  Store.attach s ~parent:f fresh;
  Store.detach s (List.hd fresh);
  Store.commit s;
  Alcotest.(check int) "ghost never enters the relation" 4
    (Array.length (Store.relation s "b"))

(* Boundary cases of the binary-searched relation spans: spans touching
   the first and last rows of the relation, single-node subtrees, and
   empty relations. *)
let test_relation_span_boundaries () =
  let s = fixture () in
  let rb = Store.relation s "b" in
  let id_list entries =
    Array.to_list (Array.map (fun e -> Dewey.encode e.Store.id) entries)
  in
  let span ~root = id_list (Store.relation_span s "b" ~root) in
  let root_id = Store.id_of s (Store.root s) in
  Alcotest.(check (list string)) "whole document = first through last row"
    (id_list rb) (span ~root:root_id);
  let c0 = (Store.relation s "c").(0).Store.id in
  Alcotest.(check (list string)) "span starting at the first row"
    [ Dewey.encode rb.(0).Store.id; Dewey.encode rb.(1).Store.id ]
    (span ~root:c0);
  let f = (Store.relation s "f").(0).Store.id in
  Alcotest.(check (list string)) "span ending at the last row"
    [ Dewey.encode rb.(2).Store.id; Dewey.encode rb.(3).Store.id ]
    (span ~root:f);
  Alcotest.(check (list string)) "subtree at the first row"
    [ Dewey.encode rb.(0).Store.id ]
    (span ~root:rb.(0).Store.id);
  Alcotest.(check (list string)) "single-node subtree at the last row"
    [ Dewey.encode rb.(3).Store.id ]
    (span ~root:rb.(3).Store.id);
  let t0 = (Store.relation s "#text").(0).Store.id in
  Alcotest.(check (list string)) "single-node subtree without hits" []
    (span ~root:t0);
  Alcotest.(check int) "empty relation" 0
    (Array.length (Store.relation_span s "zzz" ~root:root_id))

(* {1 Heavy-light partition} *)

let test_label_stats () =
  let s = fixture () in
  let st = Store.label_stat s "b" in
  Alcotest.(check int) "b count" 4 st.Store.ls_count;
  (* Parents of the four [b]s: the two [c]s and [f]. *)
  Alcotest.(check int) "b parents" 3 st.Store.ls_parents;
  Alcotest.(check int) "b max fan-out" 2 st.Store.ls_max_fanout;
  let st = Store.label_stat s "zzz" in
  Alcotest.(check int) "empty label count" 0 st.Store.ls_count

let test_partition_tail_and_drain () =
  let s = fixture () in
  (* Label [b] is heavy: committed adds buffer in its pending tail;
     readers still see the merged relation (fresh copy, never mutating
     shared state); an explicit drain folds the tail into the main run. *)
  Store.set_partition s (Some (( = ) "b"));
  let f = List.nth (Xml_tree.element_children (Store.root s)) 1 in
  Store.attach s ~parent:f (Xml_parse.fragment "<b>new</b><c/>");
  Store.commit s;
  Alcotest.(check int) "b adds buffered in tail" 1 (Store.pending_rows s);
  Alcotest.(check int) "reader sees merged relation" 5
    (Array.length (Store.relation s "b"));
  Alcotest.(check bool) "merged view sorted" true (ids_sorted (Store.relation s "b"));
  Alcotest.(check int) "light label merged eagerly" 3
    (Array.length (Store.relation s "c"));
  Alcotest.(check int) "relation_size counts the tail" 5
    (Store.relation_size s "b");
  Store.drain_label s "b";
  Alcotest.(check int) "drain empties the tail" 0 (Store.pending_rows s);
  Alcotest.(check int) "relation unchanged by drain" 5
    (Array.length (Store.relation s "b"));
  (* Removing the partition drains implicitly. *)
  Store.attach s ~parent:f (Xml_parse.fragment "<b>again</b>");
  Store.commit s;
  Alcotest.(check int) "buffered again" 1 (Store.pending_rows s);
  Store.set_partition s None;
  Alcotest.(check int) "detach drains" 0 (Store.pending_rows s);
  Alcotest.(check int) "all rows present" 6 (Array.length (Store.relation s "b"))

let test_partition_tail_budget () =
  let s = fixture () in
  (* A tail budget of 1 force-merges at commit once the tail would hold
     more than one row: two buffered adds must land drained. *)
  Store.set_partition s ~tail_budget:1 (Some (( = ) "b"));
  let f = List.nth (Xml_tree.element_children (Store.root s)) 1 in
  Store.attach s ~parent:f (Xml_parse.fragment "<b>p</b><b>q</b>");
  Store.commit s;
  Alcotest.(check int) "budget forced the merge" 0 (Store.pending_rows s);
  Alcotest.(check int) "rows all in the main run" 6
    (Array.length (Store.relation s "b"))

let test_shared_dict () =
  let dict = Label_dict.create () in
  let s1 = Store.of_document ~dict (Xml_parse.document "<a><b/></a>") in
  let s2 = Store.of_document ~dict (Xml_parse.document "<a><b/></a>") in
  Alcotest.(check bool) "same codes across stores" true
    (Dewey.label (Store.id_of s1 (Store.root s1))
    = Dewey.label (Store.id_of s2 (Store.root s2)))

let () =
  Alcotest.run "store"
    [
      ( "indexing",
        [
          Alcotest.test_case "canonical relations" `Quick test_indexing;
          Alcotest.test_case "id/node inverse" `Quick test_id_node_inverse;
          Alcotest.test_case "ids are structural" `Quick test_ids_structural;
          Alcotest.test_case "shared dictionary" `Quick test_shared_dict;
          Alcotest.test_case "relation span boundaries" `Quick
            test_relation_span_boundaries;
        ] );
      ( "updates",
        [
          Alcotest.test_case "attach + commit" `Quick test_attach_commit;
          Alcotest.test_case "detach + commit" `Quick test_detach_commit;
          Alcotest.test_case "attach then detach" `Quick
            test_attach_then_detach_before_commit;
        ] );
      ( "partition",
        [
          Alcotest.test_case "label statistics" `Quick test_label_stats;
          Alcotest.test_case "heavy tail buffering + drain" `Quick
            test_partition_tail_and_drain;
          Alcotest.test_case "tail budget forces merge" `Quick
            test_partition_tail_budget;
        ] );
    ]
