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

(* {1 Resolution by handle}

   [node_of_handle h] must agree with [node_of (to_dewey h)] on every
   handle the arena holds, through an insert, a detach before the
   commit, the commit, and a re-insert that mints the freed ordinal
   again (the same handle then holds the new node). *)
let check_handles_agree what s =
  let arena = Store.arena s in
  for h = 0 to Dewey_arena.size arena - 1 do
    let by_id = Store.node_of s (Dewey_arena.to_dewey arena h) in
    let by_handle = Store.node_of_handle s h in
    let same =
      match (by_id, by_handle) with
      | None, None -> true
      | Some a, Some b -> a == b
      | _ -> false
    in
    if not same then Alcotest.failf "%s: handle %d resolves differently" what h
  done

let test_node_of_handle () =
  let s = fixture () in
  check_handles_agree "fresh" s;
  let f = List.nth (Xml_tree.element_children (Store.root s)) 1 in
  let first = Xml_parse.fragment "<b>new<c/></b>" in
  Store.attach s ~parent:f first;
  check_handles_agree "after insert" s;
  let b = List.hd first in
  let h = Store.handle_of_node s b in
  Alcotest.(check bool) "inserted node by handle" true
    (match Store.node_of_handle s h with Some n -> n == b | None -> false);
  Store.commit s;
  Store.detach s b;
  check_handles_agree "after detach" s;
  Alcotest.(check bool) "detached root gone by handle" true
    (Option.is_none (Store.node_of_handle s h));
  let hc = Store.handle_of_node s (List.nth b.Xml_tree.children 1) in
  Alcotest.(check bool) "detached descendant gone by handle" true
    (Option.is_none (Store.node_of_handle s hc));
  Store.commit s;
  check_handles_agree "after commit" s;
  Alcotest.(check bool) "swept handle vacant" true
    (Option.is_none (Store.node_of_handle s h));
  let size = Dewey_arena.size (Store.arena s) in
  let again = Xml_parse.fragment "<b>again<c/></b>" in
  Store.attach s ~parent:f again;
  let b' = List.hd again in
  Alcotest.(check int) "re-insert mints the same handle" h (Store.handle_of_node s b');
  Alcotest.(check int) "re-insert interns nothing" size (Dewey_arena.size (Store.arena s));
  Alcotest.(check bool) "the handle holds the new node" true
    (match Store.node_of_handle s h with Some n -> n == b' | None -> false);
  check_handles_agree "after re-insert" s;
  Store.commit s;
  check_handles_agree "after second commit" s;
  Alcotest.(check bool) "out-of-range handles resolve to nothing" true
    (Option.is_none (Store.node_of_handle s (-1))
    && Option.is_none (Store.node_of_handle s (Dewey_arena.size (Store.arena s) + 5)))

let test_attach_then_detach_before_commit () =
  let s = fixture () in
  let f = List.nth (Xml_tree.element_children (Store.root s)) 1 in
  let fresh = Xml_parse.fragment "<b>ghost</b>" in
  Store.attach s ~parent:f fresh;
  Store.detach s (List.hd fresh);
  Store.commit s;
  Alcotest.(check int) "ghost never enters the relation" 4
    (Array.length (Store.relation s "b"))

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

(* Staged runs are filled in preorder; where a walk starts out of
   document order (a nested insertion target, ordinals supplied out of
   child order) the run is sorted once when sealed. *)
let test_runs_out_of_order () =
  let doc = Xml_parse.document "<r><e><e/></e></r>" in
  let s = Store.of_document doc in
  let app =
    Update.apply_insert s (Update.parse "insert into //e <x><y/></x>")
      ~targets:(Update.targets s (Update.parse "insert into //e <x/>"))
  in
  Alcotest.(check int) "fresh nodes" 4 app.Update.fresh;
  let runs = Store.staged_runs s in
  List.iter
    (fun (l, es, _) ->
      Alcotest.(check bool) ("staged run " ^ l ^ " sorted") true (ids_sorted es))
    runs;
  Alcotest.(check bool) "staged elements sorted" true
    (ids_sorted (fst (Store.staged_elements s)));
  Store.commit s;
  Alcotest.(check bool) "x relation sorted" true (ids_sorted (Store.relation s "x"));
  Alcotest.(check int) "x rows" 2 (Array.length (Store.relation s "x"));
  (* Supplied ordinals running against the child list. *)
  let doc = Xml_parse.document "<a><b/><b/><b/></a>" in
  let pos n =
    match n.Xml_tree.parent with
    | None -> [| 1 |]
    | Some p ->
      let rec find i = function
        | [] -> 0
        | c :: rest -> if c == n then i else find (i + 1) rest
      in
      [| 10 - find 0 p.Xml_tree.children |]
  in
  let s = Store.of_document ~ord_of:pos doc in
  let rb = Store.relation s "b" in
  Alcotest.(check bool) "reversed ordinals sorted" true (ids_sorted rb);
  Alcotest.(check bool) "last child first" true
    (rb.(0).Store.node == List.nth doc.Xml_tree.children 2)

(* {1 Store invariants under random statement streams}

   After every statement the committed store must equal a fresh index
   of its own tree: each relation equals the relation of
   [of_document ~dict ~ord_of] reloaded over the same tree (identifiers,
   nodes, and handles that resolve to those identifiers), relations are
   strictly increasing, and [mem]/[node_of] resolve every live node. *)

let store_violation store =
  let root = Store.root store in
  let fail fmt = Printf.ksprintf (fun m -> Some m) fmt in
  if not (Store.mem store root) then
    (* A deleted document root leaves nothing indexed. *)
    match Store.relation_labels store with
    | [] when Store.node_count store = 0 -> None
    | _ -> fail "dead document still indexed"
  else begin
    let reload =
      Store.of_document ~dict:(Store.dict store)
        ~ord_of:(fun n -> Dewey.last_ord (Store.id_of store n))
        root
    in
    let arena = Store.arena store in
    let labels =
      List.sort_uniq compare (Store.relation_labels store @ Store.relation_labels reload)
    in
    let bad = ref None in
    let note m = if !bad = None then bad := Some m in
    List.iter
      (fun l ->
        let es, hs = Store.relation_handles store l in
        let es' = Store.relation reload l in
        if Array.length es <> Array.length es' then
          note (Printf.sprintf "relation %s: %d rows, reload has %d" l
                  (Array.length es) (Array.length es'))
        else
          Array.iteri
            (fun i e ->
              let e' = es'.(i) in
              if not (Dewey.equal e.Store.id e'.Store.id && e.Store.node == e'.Store.node)
              then note (Printf.sprintf "relation %s row %d differs from the reload" l i)
              else if not (Dewey.equal (Dewey_arena.to_dewey arena hs.(i)) e.Store.id)
              then note (Printf.sprintf "relation %s row %d: handle names another id" l i)
              else if i > 0 && Dewey.compare es.(i - 1).Store.id e.Store.id >= 0 then
                note (Printf.sprintf "relation %s not strictly increasing at %d" l i))
            es)
      labels;
    let count = ref 0 in
    Xml_tree.iter
      (fun n ->
        incr count;
        if not (Store.mem store n) then note "live node not mem"
        else
          match Store.node_of store (Store.id_of store n) with
          | Some n' when n' == n -> ()
          | _ -> note "node_of misses a live node")
      root;
    if !count <> Store.node_count store then
      note (Printf.sprintf "node_count %d, tree has %d" (Store.node_count store) !count);
    !bad
  end

let drive_stream ~what ~adaptive doc views stmts =
  let store = Store.of_document (Xml_tree.copy doc) in
  let set = View_set.create store in
  List.iter (fun pat -> ignore (View_set.add set pat)) views;
  Option.iter
    (fun cfg -> View_set.set_adaptive set (Some (Hl.create ~config:cfg store)))
    adaptive;
  List.iteri
    (fun i stmt ->
      ignore (View_set.update set (Update.parse stmt));
      match store_violation store with
      | None -> ()
      | Some m ->
        Alcotest.failf "%s, after statement %d (%s): %s" what i stmt m)
    stmts

let test_invariants_recover () =
  let rnd = Random.State.make [| 42; 0x5701 |] in
  for k = 1 to 300 do
    let s = Difftest.gen Difftest.Recover rnd in
    drive_stream
      ~what:(Printf.sprintf "recover stream %d" k)
      ~adaptive:None s.Difftest.doc s.Difftest.views s.Difftest.stmts
  done

let test_invariants_heavy () =
  let rnd = Random.State.make [| 42; 0x5702 |] in
  for k = 1 to 300 do
    let s = Difftest.gen Difftest.Heavy rnd in
    let h = Option.get s.Difftest.heavy in
    let cfg =
      {
        Hl.default_config with
        Hl.heavy_count = h.Difftest.heavy_count;
        Hl.heavy_fanout = h.Difftest.heavy_fanout;
        Hl.drain_budget = h.Difftest.drain_budget;
        Hl.tail_budget = h.Difftest.tail_budget;
      }
    in
    drive_stream
      ~what:(Printf.sprintf "heavy stream %d" k)
      ~adaptive:(Some cfg) s.Difftest.doc s.Difftest.views s.Difftest.stmts
  done

(* [replace value] must give the new text node a fresh identifier: the
   old text's stays reserved until the commit sweeps it. *)
let test_replace_value_known_answer () =
  let doc = Xml_parse.document "<r><a>x</a><b>p</b></r>" in
  let store = Store.of_document doc in
  let set = View_set.create store in
  let mv =
    View_set.add set
      (Difftest.view_of_compact ~name:"v" "//a{id}[/#text{id,val}]")
  in
  ignore (View_set.update set (Update.parse {|replace value of /r/a with "y"|}));
  let a = List.hd (Xml_tree.element_children doc) in
  let text = List.hd a.Xml_tree.children in
  Alcotest.(check string) "document" "<r><a>y</a><b>p</b></r>" (Xml_tree.serialize doc);
  Alcotest.(check bool) "new text resolves" true
    (match Store.node_of store (Store.id_of store text) with
    | Some n -> n == text
    | None -> false);
  Alcotest.(check int) "#text relation" 2 (Array.length (Store.relation store "#text"));
  Alcotest.(check int) "maintained view" 1 (Mview.cardinality mv);
  Alcotest.(check int) "materialized view" 1
    (Mview.cardinality (Mview.materialize store mv.Mview.pat));
  Alcotest.(check (option string)) "store invariants" None (store_violation store)

let () =
  Alcotest.run "store"
    [
      ( "indexing",
        [
          Alcotest.test_case "canonical relations" `Quick test_indexing;
          Alcotest.test_case "id/node inverse" `Quick test_id_node_inverse;
          Alcotest.test_case "ids are structural" `Quick test_ids_structural;
          Alcotest.test_case "shared dictionary" `Quick test_shared_dict;
        ] );
      ( "updates",
        [
          Alcotest.test_case "attach + commit" `Quick test_attach_commit;
          Alcotest.test_case "detach + commit" `Quick test_detach_commit;
          Alcotest.test_case "attach then detach" `Quick
            test_attach_then_detach_before_commit;
          Alcotest.test_case "replace value re-mints no identifier" `Quick
            test_replace_value_known_answer;
          Alcotest.test_case "out-of-order runs sorted once" `Quick
            test_runs_out_of_order;
          Alcotest.test_case "node_of_handle agrees with node_of" `Quick
            test_node_of_handle;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "reload-equal after every statement (recover streams)"
            `Quick test_invariants_recover;
          Alcotest.test_case "reload-equal after every statement (heavy streams)"
            `Quick test_invariants_heavy;
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
