(* The matching entries alongside the parallel array of arena handles,
   both in document order ([*] merges every element relation). *)
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

let selected_handles pat i (entries, handles) =
  if
    pat.Pattern.vpreds.(i) = None
    && (i <> 0 || pat.Pattern.axes.(0) = Pattern.Descendant)
  then
    (* No selection: the handle column verbatim (copied — tables own
       their columns). *)
    Array.copy handles
  else begin
    let buf = Array.make (Array.length handles) 0 in
    let k = ref 0 in
    Array.iteri
      (fun idx e ->
        if Pattern.vpred_holds pat i e.Store.node && root_anchor_ok pat i e.Store.id
        then begin
          buf.(!k) <- handles.(idx);
          incr k
        end)
      entries;
    Array.sub buf 0 !k
  end

let atom_of_store store pat i =
  Tuple_table.of_handles ~sorted:true ~arena:(Store.arena store) ~node:i
    (selected_handles pat i (entries_matching_handles store pat i))

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
            Tuple_table.empty ~arena:(Tuple_table.arena !table)
              ~cols:
                (Array.append
                   (Tuple_table.cols !table)
                   (Array.of_list (subtree_cols pat ~within j)))
        else begin
          let sub = eval_subtree pat ~atom ~within ~root:j in
          (* Both operands are owned by this evaluation (atoms are fresh
             single-column tables, sub-results fresh join outputs), so the
             join may sort them in place; atoms and the first join per
             subtree are already in order and need no sort at all. *)
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
