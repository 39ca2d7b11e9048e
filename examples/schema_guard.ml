(* Schema-violation detection at update time (Section 3.3): the Δ⁺ tables
   extracted from a pending insertion are checked against constraints
   derived from a DTD before the update touches the document.

   Run with: dune exec examples/schema_guard.exe *)

let forest_labels forest =
  List.concat_map
    (fun t -> List.map Xml_tree.label (Xml_tree.descendants_or_self t))
    forest

let guard dtd ~parent ~fragment =
  let forest = Xml_parse.fragment fragment in
  (* Fast Δ⁺-level reasoning first (Examples 3.9 / 3.10)… *)
  let labels = forest_labels forest in
  match Dtd.check_delta dtd ~present:(fun l -> List.mem l labels) with
  | (a, b) :: _ ->
    Error (Printf.sprintf "Δ⁺ constraint violated: inserting <%s> requires a <%s>" a b)
  | [] -> (
    (* …then the full content-model check at the insertion point. *)
    match Dtd.check_insert dtd ~parent ~forest with
    | Ok () -> Ok forest
    | Error e -> Error e)

let () =
  (* DTD d1 of Fig. 5(a): every b must contain a c. *)
  let d1 = Dtd.parse {|d1 = a+
                       a = b+
                       b = c
                       c = EMPTY|} in
  Printf.printf "DTD d1 constraints (Δ⁺a ≠ ∅ ⇒ Δ⁺x ≠ ∅):\n";
  List.iter
    (fun (a, b) -> Printf.printf "  %s ⇒ %s\n" a b)
    (Dtd.delta_constraints d1);
  print_newline ();

  let store = Store.of_document (Xml_parse.document "<d1><a><b><c/></b></a></d1>") in
  let a_node = List.hd (Update.select store (Xpath.parse "//a")) in

  let attempt label parent fragment =
    match guard d1 ~parent ~fragment with
    | Ok forest ->
      Store.attach store ~parent forest;
      Store.commit store;
      Printf.printf "%-28s ACCEPTED -> %s\n" label
        (Xml_tree.serialize (Store.root store))
    | Error e -> Printf.printf "%-28s REJECTED (%s)\n" label e
  in

  (* Example 3.9: a b without its mandatory c is rejected up front. *)
  attempt "insert <b/> under a:" a_node "<b/>";
  attempt "insert <b><c/></b> under a:" a_node "<b><c/></b>";

  (* DTD d2 of Fig. 5(b): the root's children follow (a, b, c)+. *)
  print_newline ();
  let d2 = Dtd.parse {|d2 = (a, b, c)+
                       a = x?
                       x = x?
                       b = EMPTY
                       c = EMPTY|} in
  let store2 = Store.of_document (Xml_parse.document "<d2><a/><b/><c/></d2>") in
  let root2 = Store.root store2 in
  let attempt2 label fragment =
    match guard d2 ~parent:root2 ~fragment with
    | Ok _ -> Printf.printf "%-28s ACCEPTED\n" label
    | Error e -> Printf.printf "%-28s REJECTED (%s)\n" label e
  in
  (* Example 3.10: an a must come with b and c. *)
  attempt2 "insert <a/> under root:" "<a/>";
  attempt2 "insert <a/><b/><c/>:" "<a/><b/><c/>"
