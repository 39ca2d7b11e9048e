let obs = Obs.Scope.v "answer"
let c_single = Obs.Scope.counter obs "plans_single"
let c_join = Obs.Scope.counter obs "plans_join"
let c_fallback = Obs.Scope.counter obs "plans_fallback"
let c_base_fallbacks = Obs.Scope.counter obs "base_fallbacks"
let c_rows_out = Obs.Scope.counter obs "rows_out"

type cell = Dewey.t * string option * string option
type row = { count : int; cells : cell array }

(* {1 Canonical order}

   A row's ID key is the concatenated [Dewey.encode] of its cells' IDs —
   the key [Mview] keeps per entry. Encodings are self-delimiting, so
   ID-key order is the lexicographic order of the cells' IDs under
   [Dewey.compare_encoded], which compares without building the key.
   Ties are broken by payloads cell by cell ([val] before [cont], absent
   before present); rows merge only when IDs and payloads are all equal.
   No payload is copied into a key. The comparison loops are top-level
   recursive functions, as in [Dewey]: a local [let rec] would be a
   closure allocated on every comparison. *)

let rec ids_compare_from (a : cell array) (b : cell array) la lb i =
  if i = la || i = lb then Int.compare la lb
  else
    let ia, _, _ = a.(i) and ib, _, _ = b.(i) in
    let c = Dewey.compare_encoded ia ib in
    if c <> 0 then c else ids_compare_from a b la lb (i + 1)

let compare_ids (a : row) (b : row) =
  ids_compare_from a.cells b.cells (Array.length a.cells) (Array.length b.cells) 0

let compare_payload a b =
  match (a, b) with
  | None, None -> 0
  | None, Some _ -> -1
  | Some _, None -> 1
  | Some x, Some y -> String.compare x y

let rec payloads_compare_from (a : cell array) (b : cell array) n i =
  if i = n then 0
  else
    let _, va, ca = a.(i) and _, vb, cb = b.(i) in
    let c = compare_payload va vb in
    if c <> 0 then c
    else
      let c = compare_payload ca cb in
      if c <> 0 then c else payloads_compare_from a b n (i + 1)

let compare_payloads (a : row) (b : row) =
  payloads_compare_from a.cells b.cells (Array.length a.cells) 0

let compare_rows a b =
  let c = compare_ids a b in
  if c <> 0 then c else compare_payloads a b

(* Sort, then merge equal neighbours. *)
let canonical rows =
  let rows = List.stable_sort compare_rows rows in
  let rec go acc cur = function
    | [] -> List.rev (cur :: acc)
    | x :: rest ->
      if compare_rows cur x = 0 then go acc { cur with count = cur.count + x.count } rest
      else go (cur :: acc) x rest
  in
  match rows with [] -> [] | x :: rest -> go [] x rest

(* {1 Sources} *)

(* A view handed over live (its entries, in key order) or as plain rows
   in any order (snapshot images, test oracles). *)
type feed = View of Mview.t | Rows of (unit -> row list)

type source = { src_name : string; src_pat : Pattern.t; src_feed : feed }

let source ~name pat rows = { src_name = name; src_pat = pat; src_feed = Rows rows }

let source_of_mview mv =
  { src_name = mv.Mview.pat.Pattern.name; src_pat = mv.Mview.pat; src_feed = View mv }

type comp =
  | Val_eq of int * string
  | Child_of of int * int
  | Root_at of int

type single = {
  s_src : source;
  s_comps : comp list;
  s_project : (int * Pattern.annot) array;
      (* per query stored node in preorder: the view stored position it
         comes from, and the query's annot (payloads the view stores but
         the query does not are stripped). *)
  s_in_order : bool;
      (* [s_project] keeps every stored position in the view's order, so
         the view's key order is the rows' order *)
}

(* How each output cell of a join is built: a stored position in the top
   or bottom leg's projected row, plus the query's annot there. *)
type emit = From_top of int * Pattern.annot | From_bottom of int * Pattern.annot

type join = {
  j_split : int;
  j_top : single;
  j_bottom : single;
  j_top_pos : int;  (* split's position in top-leg rows *)
  j_bottom_pos : int;  (* split's position in bottom-leg rows (always 0) *)
  j_emit : emit array;
}

type plan = Single of single | Join of join | Fallback

let annot_le (a : Pattern.annot) (b : Pattern.annot) =
  ((not a.Pattern.store_id) || b.Pattern.store_id)
  && ((not a.Pattern.store_val) || b.Pattern.store_val)
  && ((not a.Pattern.store_cont) || b.Pattern.store_cont)

let stored_pos pat i =
  let rec find k = function
    | [] -> raise Not_found
    | j :: rest -> if j = i then k else find (k + 1) rest
  in
  find 0 (Pattern.stored_nodes pat)

(* Tree isomorphism of [query] onto [view] with compensations: exact tag
   equality, matching children bijectively; a query [/]-edge may map to a
   view [//]-edge when both endpoint IDs are stored (compensated by a
   [Child_of] / [Root_at] filter); an extra query value predicate is
   compensated by [Val_eq] when the view stores [val] there. Compensations
   are first recorded against view *node* indices, then resolved to stored
   positions. *)
let match_single ~(query : Pattern.t) ~(view : Pattern.t) =
  if Pattern.node_count query <> Pattern.node_count view then None
  else begin
    let m = Array.make (Pattern.node_count query) (-1) in
    let vpred_comp qi vj =
      match (query.Pattern.vpreds.(qi), view.Pattern.vpreds.(vj)) with
      | None, None -> Some []
      | Some a, Some b -> if a = b then Some [] else None
      | Some c, None ->
        if view.Pattern.annots.(vj).Pattern.store_val then Some [ `Val (vj, c) ]
        else None
      | None, Some _ -> None
    in
    let edge_comp qi vj =
      if qi = 0 then
        match (query.Pattern.axes.(0), view.Pattern.axes.(0)) with
        | Pattern.Child, Pattern.Child | Pattern.Descendant, Pattern.Descendant ->
          Some []
        | Pattern.Child, Pattern.Descendant ->
          if view.Pattern.annots.(vj).Pattern.store_id then Some [ `Root vj ]
          else None
        | Pattern.Descendant, Pattern.Child -> None
      else
        match (query.Pattern.axes.(qi), view.Pattern.axes.(vj)) with
        | Pattern.Child, Pattern.Child | Pattern.Descendant, Pattern.Descendant ->
          Some []
        | Pattern.Child, Pattern.Descendant ->
          let vp = view.Pattern.parents.(vj) in
          if
            view.Pattern.annots.(vj).Pattern.store_id
            && view.Pattern.annots.(vp).Pattern.store_id
          then Some [ `Child (vj, vp) ]
          else None
        | Pattern.Descendant, Pattern.Child -> None
    in
    let rec match_node qi vj =
      if query.Pattern.tags.(qi) <> view.Pattern.tags.(vj) then None
      else if not (annot_le query.Pattern.annots.(qi) view.Pattern.annots.(vj)) then
        None
      else
        match (vpred_comp qi vj, edge_comp qi vj) with
        | Some c1, Some c2 -> (
          m.(qi) <- vj;
          match
            match_children (Pattern.children query qi) (Pattern.children view vj)
          with
          | Some c3 -> Some (c1 @ c2 @ c3)
          | None -> None)
        | _ -> None
    and match_children qcs vcs =
      match qcs with
      | [] -> if vcs = [] then Some [] else None
      | qc :: qrest ->
        let rec try_pick before = function
          | [] -> None
          | vc :: after -> (
            match match_node qc vc with
            | Some c1 -> (
              match match_children qrest (List.rev_append before after) with
              | Some c2 -> Some (c1 @ c2)
              | None -> try_pick (vc :: before) after)
            | None -> try_pick (vc :: before) after)
        in
        try_pick [] vcs
    in
    match match_node 0 0 with
    | None -> None
    | Some comps ->
      let comps =
        List.map
          (function
            | `Val (vj, c) -> Val_eq (stored_pos view vj, c)
            | `Child (vj, vp) -> Child_of (stored_pos view vj, stored_pos view vp)
            | `Root vj -> Root_at (stored_pos view vj))
          comps
      in
      let project =
        Pattern.stored_nodes query
        |> List.map (fun s -> (stored_pos view m.(s), query.Pattern.annots.(s)))
        |> Array.of_list
      in
      Some (comps, project, Array.copy m)
  end

let single_of ~query src =
  match match_single ~query ~view:src.src_pat with
  | None -> None
  | Some (comps, project, _) ->
    let width = List.length (Pattern.stored_nodes src.src_pat) in
    Some
      {
        s_src = src;
        s_comps = comps;
        s_project = project;
        s_in_order = Array.map fst project = Array.init width Fun.id;
      }

(* Compensations read a stored cell's ID and value through [id] and
   [value], so that view entries are filtered before rows are built. *)
let comp_holds ~id ~value = function
  | Val_eq (pos, c) -> value pos = Some c
  | Child_of (cpos, ppos) -> (
    match Dewey.parent (id cpos) with
    | Some p -> Dewey.equal p (id ppos)
    | None -> false)
  | Root_at pos -> Dewey.parent (id pos) = None

(* A cell with the payloads [a] does not store dropped. *)
let strip (a : Pattern.annot) id v c =
  (id, (if a.Pattern.store_val then v else None), if a.Pattern.store_cont then c else None)

let project_cell cells (pos, a) =
  let id, v, c = cells.(pos) in
  strip a id v c

(* Rows of a single-view plan, canonical. *)
let run_single s =
  match s.s_src.src_feed with
  | View mv ->
    let holds (cells : Mview.cell array) =
      let id p = cells.(p).Mview.cell_id and value p = cells.(p).Mview.cell_value in
      List.for_all (comp_holds ~id ~value) s.s_comps
    in
    let rows =
      List.filter_map
        (fun (e : Mview.entry) ->
          if s.s_comps = [] || holds e.Mview.cells then
            Some
              {
                count = e.Mview.count;
                cells =
                  Array.map
                    (fun (pos, a) ->
                      let c = e.Mview.cells.(pos) in
                      strip a c.Mview.cell_id c.Mview.cell_value c.Mview.cell_content)
                    s.s_project;
              }
          else None)
        (Mview.entries_in_order mv)
    in
    (* Distinct view keys in order are already canonical. *)
    if s.s_in_order then rows else canonical rows
  | Rows rows ->
    rows ()
    |> List.filter_map (fun r ->
           let id p = let i, _, _ = r.cells.(p) in i
           and value p = let _, v, _ = r.cells.(p) in v in
           if List.for_all (comp_holds ~id ~value) s.s_comps then
             Some { count = r.count; cells = Array.map (project_cell r.cells) s.s_project }
           else None)
    |> canonical

(* {1 Planning} *)

let plan ~sources (query : Pattern.t) =
  let rec first f = function
    | [] -> None
    | x :: rest -> ( match f x with Some _ as r -> r | None -> first f rest)
  in
  match first (single_of ~query) sources with
  | Some s ->
    Obs.Counter.incr c_single;
    Single s
  | None ->
    let nq = Pattern.node_count query in
    let try_split split =
      let top_pat = Pattern.prune query split ~name:(query.Pattern.name ^ "#top") in
      let bottom_pat =
        Pattern.subpattern query split ~name:(query.Pattern.name ^ "#bottom")
      in
      match first (single_of ~query:top_pat) sources with
      | None -> None
      | Some top -> (
        match first (single_of ~query:bottom_pat) sources with
        | None -> None
        | Some bottom ->
          let ndesc = List.length (Pattern.descendants query split) in
          let emit =
            Pattern.stored_nodes query
            |> List.map (fun s ->
                   let a = query.Pattern.annots.(s) in
                   if s > split && s <= split + ndesc then
                     From_bottom (stored_pos bottom_pat (s - split), a)
                   else
                     (* [prune] keeps indices [<= split] unchanged and
                        shifts the nodes after the subtree down by its
                        size. *)
                     let top_i = if s <= split then s else s - ndesc in
                     From_top (stored_pos top_pat top_i, a))
            |> Array.of_list
          in
          Obs.Counter.incr c_join;
          Some
            (Join
               {
                 j_split = split;
                 j_top = top;
                 j_bottom = bottom;
                 j_top_pos = stored_pos top_pat split;
                 j_bottom_pos = 0;
                 j_emit = emit;
               }))
    in
    let rec splits k =
      if k >= nq then begin
        Obs.Counter.incr c_fallback;
        Fallback
      end
      else match try_split k with Some p -> p | None -> splits (k + 1)
    in
    splits 1

module Id_tbl = Hashtbl.Make (Dewey)

(* The bottom leg indexed by the split node's ID (no encoded strings),
   probed with each top-leg row; the joined rows are then sorted and
   merged. *)
let run_join j =
  let top_rows = run_single j.j_top and bottom_rows = run_single j.j_bottom in
  let by_id = Id_tbl.create (List.length bottom_rows) in
  List.iter
    (fun b -> let id, _, _ = b.cells.(j.j_bottom_pos) in Id_tbl.add by_id id b)
    bottom_rows;
  List.concat_map
    (fun t ->
      let id, _, _ = t.cells.(j.j_top_pos) in
      List.map
        (fun b ->
          {
            count = t.count * b.count;
            cells =
              Array.map
                (function
                  | From_top (pos, a) -> project_cell t.cells (pos, a)
                  | From_bottom (pos, a) -> project_cell b.cells (pos, a))
                j.j_emit;
          })
        (Id_tbl.find_all by_id id))
    top_rows
  |> canonical

let rows_out rows =
  if Obs.enabled () then Obs.Counter.add c_rows_out (List.length rows);
  rows

let run = function
  | Single s -> Some (rows_out (run_single s))
  | Join j -> Some (rows_out (run_join j))
  | Fallback -> None

(* Rows [r] and [r'] of [full] by ID key over the columns [positions]. *)
let rec rows_compare_from full (positions : int array) r r' k =
  if k = Array.length positions then 0
  else
    let col = Array.unsafe_get positions k in
    let c =
      Dewey.compare_encoded (Tuple_table.cell_id full r col) (Tuple_table.cell_id full r' col)
    in
    if c <> 0 then c else rows_compare_from full positions r r' (k + 1)

(* The query's embedding table projected onto its stored nodes: rows
   sorted by ID key and grouped, payloads resolved once per distinct
   row. *)
let base_rows store pat =
  let full = Plan.eval store pat in
  let stored = Array.of_list (Pattern.stored_nodes pat) in
  let positions = Array.map (Tuple_table.col_pos full) stored in
  let columns = Tuple_table.columns full in
  let id r k = Tuple_table.cell_id full r positions.(k) in
  let compare_at r r' = rows_compare_from full positions r r' 0 in
  let order = Array.init (Tuple_table.length full) Fun.id in
  Array.stable_sort compare_at order;
  let row_of r count =
    {
      count;
      cells =
        Array.mapi
          (fun k i ->
            let id = id r k in
            let { Pattern.store_val; store_cont; _ } = pat.Pattern.annots.(i) in
            let node =
              if store_val || store_cont then
                Store.node_of_handle store columns.(positions.(k)).(r)
              else None
            in
            ( id,
              (if store_val then Option.map Xml_tree.string_value node else None),
              if store_cont then Option.map Xml_tree.serialize node else None ))
          stored;
    }
  in
  let rec groups i acc =
    if i < 0 then acc
    else
      let r = order.(i) in
      let rec start j = if j > 0 && compare_at order.(j - 1) r = 0 then start (j - 1) else j in
      let j = start i in
      groups (j - 1) (row_of order.(j) (i - j + 1) :: acc)
  in
  rows_out (groups (Array.length order - 1) [])

let answer ?store ~sources query =
  let p = plan ~sources query in
  match run p with
  | Some rows -> Some (p, rows)
  | None -> (
    match store with
    | Some st ->
      Obs.Counter.incr c_base_fallbacks;
      Some (Fallback, base_rows st query)
    | None -> None)

let describe = function
  | Single s ->
    Printf.sprintf "single(%s), %d compensation%s" s.s_src.src_name
      (List.length s.s_comps)
      (if List.length s.s_comps = 1 then "" else "s")
  | Join j ->
    Printf.sprintf "join(%s * %s @ query node %d)" j.j_top.s_src.src_name
      j.j_bottom.s_src.src_name j.j_split
  | Fallback -> "fallback(base recompute)"

let cells_to_string ?dict cells =
  let cell (id, v, c) =
    Dewey.to_string ?dict id
    ^ (match v with None -> "" | Some s -> Printf.sprintf " val=%S" s)
    ^ match c with None -> "" | Some s -> Printf.sprintf " cont=%S" s
  in
  Printf.sprintf "[%s]" (String.concat "; " (Array.to_list (Array.map cell cells)))

let row_to_string ?dict r = Printf.sprintf "%dx %s" r.count (cells_to_string ?dict r.cells)

let diff ~expect ~got =
  let rec first_diff e g =
    match (e, g) with
    | [], [] -> None
    | x :: _, [] -> Some ("missing row " ^ row_to_string x)
    | [], y :: _ -> Some ("extra row " ^ row_to_string y)
    | x :: e', y :: g' ->
      let c = compare_rows x y in
      if c < 0 then Some ("missing row " ^ row_to_string x)
      else if c > 0 then Some ("extra row " ^ row_to_string y)
      else if x.count <> y.count then
        Some (Printf.sprintf "row %s: count %d vs %d" (cells_to_string x.cells) x.count y.count)
      else first_diff e' g'
  in
  first_diff expect got
  |> Option.map (fun d ->
         Printf.sprintf "expect %d rows, got %d rows; %s" (List.length expect)
           (List.length got) d)
