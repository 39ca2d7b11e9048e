let entries_matching store pat i =
  let tag = pat.Pattern.tags.(i) in
  if tag = "*" then begin
    (* Union of all element relations, re-sorted into document order. *)
    let all =
      List.concat_map
        (fun label ->
          if String.length label > 0 && (label.[0] = '@' || label.[0] = '#') then []
          else Array.to_list (Store.relation store label))
        (Store.relation_labels store)
    in
    let arr = Array.of_list all in
    Array.sort (fun a b -> Dewey.compare a.Store.id b.Store.id) arr;
    arr
  end
  else Store.relation store tag

(* Handle-paired variant of the scan helper, for the columnar layout:
   the matching entries alongside the parallel array of arena handles,
   both in document order. *)
let entries_matching_handles store pat i =
  let tag = pat.Pattern.tags.(i) in
  if tag = "*" then begin
    let parts =
      List.filter_map
        (fun label ->
          if String.length label > 0 && (label.[0] = '@' || label.[0] = '#') then None
          else Some (Store.relation_handles store label))
        (Store.relation_labels store)
    in
    let entries = Array.concat (List.map fst parts) in
    let handles = Array.concat (List.map snd parts) in
    Store.sort_pairs (Store.arena store) entries handles
  end
  else Store.relation_handles store tag

let root_anchor_ok pat i id =
  i <> 0 || pat.Pattern.axes.(0) = Pattern.Descendant || Dewey.depth id = 1

let atom_keep pat i e =
  root_anchor_ok pat i e.Store.id
  &&
  match pat.Pattern.vpreds.(i) with
  | None -> true
  | Some c -> Xml_tree.string_value e.Store.node = c

let atom_of_store store pat i =
  if Tuple_table.columnar_enabled () then begin
    let entries, handles = entries_matching_handles store pat i in
    let n = Array.length handles in
    if
      pat.Pattern.vpreds.(i) = None
      && (i <> 0 || pat.Pattern.axes.(0) = Pattern.Descendant)
    then
      (* No selection: the relation's handle column verbatim (copied —
         tables own their columns). *)
      Tuple_table.of_handles ~sorted:true ~arena:(Store.arena store) ~node:i
        (Array.copy handles)
    else begin
      let buf = Array.make n 0 in
      let k = ref 0 in
      Array.iteri
        (fun idx e ->
          if atom_keep pat i e then begin
            buf.(!k) <- handles.(idx);
            incr k
          end)
        entries;
      Tuple_table.of_handles ~sorted:true ~arena:(Store.arena store) ~node:i
        (Array.sub buf 0 !k)
    end
  end
  else begin
    let entries = entries_matching store pat i in
    let selected =
      Array.of_seq (Seq.filter (atom_keep pat i) (Array.to_seq entries))
    in
    (* Canonical relations are in document order; selection preserves it. *)
    Tuple_table.of_ids ~sorted:true ~node:i (Array.map (fun e -> e.Store.id) selected)
  end

(* Columns an evaluation of the subtree at [j] would produce. *)
let rec subtree_cols pat ~within j =
  j
  :: List.concat_map
       (fun c -> if within c then subtree_cols pat ~within c else [])
       (Pattern.children pat j)

let rec eval_subtree pat ~atom ~within ~root =
  let table = ref (atom root) in
  List.iter
    (fun j ->
      if within j then
        if Tuple_table.is_empty !table then
          (* Short-circuit, but keep the column set complete so that
             consumers can still address every pattern node. *)
          table :=
            Tuple_table.create
              ~cols:
                (Array.append
                   (Tuple_table.cols !table)
                   (Array.of_list (subtree_cols pat ~within j)))
        else begin
          let sub = eval_subtree pat ~atom ~within ~root:j in
          (* Both operands are owned by this evaluation (atoms are fresh
             single-column tables, sub-results fresh join outputs), so
             in-place sorting is safe; the sorts are no-ops whenever the
             metadata already proves document order — atoms and the first
             join per subtree take the merge path with no sort at all. *)
          Tuple_table.sort_by_node !table root;
          Tuple_table.sort_by_node sub j;
          table :=
            Struct_join.join !table sub ~parent:root ~child:j
              ~axis:pat.Pattern.axes.(j)
        end)
    (Pattern.children pat root);
  !table

let eval store pat =
  eval_subtree pat
    ~atom:(fun i -> atom_of_store store pat i)
    ~within:(fun _ -> true)
    ~root:0
