type placement = Into | Before | After

type t =
  | Delete of Xpath.path
  | Insert of {
      target : Xpath.path;
      forest : Xml_tree.node -> Xml_tree.node list;
      placement : placement;
      template : Xml_tree.node list option;
    }
  | Replace_value of { target : Xpath.path; text : string }

let delete s = Delete (Xpath.parse s)

let insert_at placement path fragment =
  let target = Xpath.parse path in
  let template = Xml_parse.fragment fragment in
  Insert
    {
      target;
      forest = (fun _ -> List.map Xml_tree.copy template);
      placement;
      template = Some template;
    }

let insert ~into fragment = insert_at Into into fragment
let insert_before ~target fragment = insert_at Before target fragment
let insert_after ~target fragment = insert_at After target fragment

let insert_forest ~into forest =
  Insert { target = into; forest; placement = Into; template = None }

let replace_value ~target text = Replace_value { target = Xpath.parse target; text }

let parse s =
  let s = String.trim s in
  let prefix p =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  let after p = String.trim (String.sub s (String.length p) (String.length s - String.length p)) in
  let split_on_fragment what rest =
    match String.index_opt rest '<' with
    | None -> invalid_arg (Printf.sprintf "Update.parse: missing fragment in %s" what)
    | Some i ->
      (String.trim (String.sub rest 0 i), String.sub rest i (String.length rest - i))
  in
  if prefix "delete" then delete (after "delete")
  else if prefix "insert into" then begin
    let path, frag = split_on_fragment "'insert into'" (after "insert into") in
    insert ~into:path frag
  end
  else if prefix "insert before" then begin
    let path, frag = split_on_fragment "'insert before'" (after "insert before") in
    insert_before ~target:path frag
  end
  else if prefix "insert after" then begin
    let path, frag = split_on_fragment "'insert after'" (after "insert after") in
    insert_after ~target:path frag
  end
  else if prefix "replace value of" then begin
    (* replace value of PATH with TEXT — the text is an OCaml-escaped,
       quoted string literal (the exact rendering of [to_string]). Split
       at the rightmost quote-opening separator so paths containing the
       word with inside a value predicate cannot confuse the scan. *)
    let rest = after "replace value of" in
    let sep = " with \"" in
    let sep_len = String.length sep in
    let rec find_last i best =
      if i + sep_len > String.length rest then best
      else if String.sub rest i sep_len = sep then find_last (i + 1) (Some i)
      else find_last (i + 1) best
    in
    match find_last 0 None with
    | None -> invalid_arg "Update.parse: expected 'with \"TEXT\"' in replace"
    | Some i ->
      let path = String.trim (String.sub rest 0 i) in
      let lit = String.sub rest (i + 6) (String.length rest - i - 6) in
      let text =
        try Scanf.sscanf lit "%S%!" (fun s -> s)
        with Scanf.Scan_failure _ | Failure _ | End_of_file ->
          invalid_arg "Update.parse: malformed string literal in replace"
      in
      replace_value ~target:path text
  end
  else if prefix "for" then begin
    (* The statement form of Section 2.3:
       for $x in PATH insert FRAGMENT [into $x] *)
    let rest = after "for" in
    match String.index_opt rest ' ' with
    | None -> invalid_arg "Update.parse: malformed for clause"
    | Some i ->
      let _var = String.sub rest 0 i in
      let rest = String.trim (String.sub rest i (String.length rest - i)) in
      if not (prefix "for" || String.length rest > 3 && String.sub rest 0 3 = "in ") then
        invalid_arg "Update.parse: expected 'in' after the variable";
      let rest = String.trim (String.sub rest 2 (String.length rest - 2)) in
      let insert_kw = " insert " in
      let rec find_kw i =
        if i + String.length insert_kw > String.length rest then
          invalid_arg "Update.parse: expected 'insert' in for clause"
        else if String.sub rest i (String.length insert_kw) = insert_kw then i
        else find_kw (i + 1)
      in
      let k = find_kw 0 in
      let path = String.trim (String.sub rest 0 k) in
      let tail = String.sub rest (k + String.length insert_kw) (String.length rest - k - String.length insert_kw) in
      let _, frag = split_on_fragment "'for … insert'" tail in
      (* A trailing "into $x" after the fragment is implied and ignored. *)
      let frag =
        match String.rindex_opt frag '>' with
        | Some j -> String.sub frag 0 (j + 1)
        | None -> frag
      in
      insert ~into:path frag
  end
  else
    invalid_arg
      "Update.parse: expected 'delete …', 'insert into|before|after …', \
       'replace value of … with \"…\"' or 'for … insert …'"

let to_string = function
  | Delete p -> "delete " ^ Xpath.to_string p
  | Replace_value { target; text } ->
    Printf.sprintf "replace value of %s with %S" (Xpath.to_string target) text
  | Insert { target; placement; template; _ } ->
    let mode =
      match placement with Into -> "into" | Before -> "before" | After -> "after"
    in
    let frag =
      match template with
      | Some nodes -> String.concat "" (List.map Xml_tree.serialize nodes)
      | None -> "<...>"
    in
    Printf.sprintf "insert %s %s %s" mode (Xpath.to_string target) frag

let journalable = function
  | Delete _ | Replace_value _ -> true
  | Insert { template; _ } -> template <> None

(* {1 Finding targets}

   A path is evaluated over the store's label relations, step by step,
   each step's result a duplicate-free sequence in document order. The
   leading run of [/] steps expands tree children from the root: the
   children of an antichain in document order are in document order.
   From the first [//] step on, a step is a semi-join of its label's
   relation with the context (see [semijoin]), so its output is in
   relation order. Predicates are checked on each surviving node. *)

let obs = Obs.Scope.v "xpath"
let c_relation_steps = Obs.Scope.counter obs "relation_steps"
let c_relation_rows = Obs.Scope.counter obs "relation_rows"
let c_tree_fallbacks = Obs.Scope.counter obs "tree_fallbacks"

(* The context of a relation step: every node below the virtual root
   above the document (a path starting with [//]), or the nodes of the
   previous step with their arena handles, in document order. *)
type context = Below_root | Nodes of (int * Xml_tree.node) array

(* [parent] is among [ctx.(lo .. hi-1)], a run in document order. *)
let rec mem_run arena ctx lo hi parent =
  lo < hi
  &&
  let mid = (lo + hi) lsr 1 in
  let c = Dewey_arena.compare arena parent (fst ctx.(mid)) in
  c = 0
  || if c < 0 then mem_run arena ctx lo mid parent
     else mem_run arena ctx (mid + 1) hi parent

(* The rows of one sorted run that [step] keeps, in run order. Context
   nodes are taken by {e top}: a context node no earlier one contains,
   together with the context nodes inside it, [ctx.(i .. j-1)]. A
   galloping search finds the top's subtree interval in the run and only
   that interval is read. A [//] row below a top has a context ancestor;
   a [/] row needs its arena parent among the top's context run. *)
let semijoin arena step ctx (es, hs) =
  let out = ref [] and read = ref 0 in
  let keep k =
    let node = es.(k).Store.node in
    if Xpath.accepts step node then out := (hs.(k), node) :: !out
  in
  let n = Array.length hs in
  (match ctx with
  | Below_root ->
    read := n;
    for k = 0 to n - 1 do keep k done
  | Nodes ctx ->
    let m = Array.length ctx in
    let pos = ref 0 and i = ref 0 in
    while !i < m && !pos < n do
      let top = fst ctx.(!i) in
      let j = ref (!i + 1) in
      while !j < m && Dewey_arena.is_ancestor arena top (fst ctx.(!j)) do incr j done;
      let k = ref (Dewey_arena.gallop arena hs !pos n top) in
      let start = !k in
      while !k < n && Dewey_arena.is_prefix arena top hs.(!k) do
        let h = hs.(!k) in
        if
          h <> top
          &&
          match step.Xpath.axis with
          | Xpath.Descendant -> true
          | Xpath.Child ->
            let p = Dewey_arena.parent arena h in
            if !j = !i + 1 then p = top else mem_run arena ctx !i !j p
        then keep !k;
        incr k
      done;
      read := !read + (!k - start);
      pos := !k;
      i := !j
    done);
  Obs.Counter.add c_relation_rows !read;
  List.rev !out

let relation_step store step ctx =
  Obs.Counter.incr c_relation_steps;
  let arena = Store.arena store in
  let label =
    match step.Xpath.test with
    | Xpath.Name n -> n
    | Xpath.Attr a -> "@" ^ a
    | Xpath.Star -> invalid_arg "Update.relation_step: * test"
  in
  let rows =
    match Store.relation_runs store label with
    | [] -> []
    | [ run ] -> semijoin arena step ctx run
    | runs ->
      List.fold_left
        (fun acc run ->
          List.merge
            (fun (a, _) (b, _) -> Dewey_arena.compare arena a b)
            acc (semijoin arena step ctx run))
        [] runs
  in
  Nodes (Array.of_list rows)

let select store path =
  let root = Store.root store in
  (* The leading [/] steps, and the steps from the first [//] on. *)
  let rec split prefix = function
    | ({ Xpath.axis = Xpath.Child; _ } as s) :: rest -> split (s :: prefix) rest
    | rest -> (List.rev prefix, rest)
  in
  let prefix, rest = split [] path in
  let relations ctx =
    match List.fold_left (fun ctx step -> relation_step store step ctx) ctx rest with
    | Below_root -> [ root ] (* the empty path *)
    | Nodes rows -> Array.to_list (Array.map snd rows)
  in
  if (not (Store.settled store)) || List.exists (fun s -> s.Xpath.test = Xpath.Star) rest
  then begin
    Obs.Counter.incr c_tree_fallbacks;
    List.filter (Store.mem store) (Xpath.eval root path)
  end
  else if not (Store.mem store root) then []
  else
    match prefix with
    | [] -> relations Below_root
    | first :: steps ->
      (* The first step's axis is taken from a virtual root above [root]. *)
      let children ctx step =
        List.concat_map
          (fun n -> List.filter (Xpath.accepts step) n.Xml_tree.children)
          ctx
      in
      let tops =
        List.fold_left children (if Xpath.accepts first root then [ root ] else []) steps
      in
      if rest = [] || tops = [] then tops
      else
        let handle n = (Store.handle_of_node store n, n) in
        relations (Nodes (Array.of_list (List.map handle tops)))

let targets store u =
  match u with
  | Delete p -> select store p
  | Insert { target; _ } | Replace_value { target; _ } -> select store target

type applied_insert = {
  pairs : (Dewey.t * Xml_tree.node list) list;
  changed : int list;
  fresh : int;
  fragment : Xml_tree.node list option;
}

type applied_delete = {
  roots : Dewey.t list;
  root_nodes : Xml_tree.node list;
  root_handles : int list;
  last_content : bool list;
  deleted : (Dewey.t * Xml_tree.node) list Lazy.t;
}

(* [changed]: each node whose content changes, with the forest attached
   to it. *)
let applied_insert ?fragment store ~staged changed =
  {
    pairs = List.map (fun (n, forest) -> (Store.id_of store n, forest)) changed;
    changed = List.map (fun (n, _) -> Store.handle_of_node store n) changed;
    fresh = Store.staged_count store - staged;
    fragment;
  }

let apply_insert store u ~targets =
  let staged = Store.staged_count store in
  let forest, placement, template =
    match u with
    | Insert { forest; placement; template; _ } -> (forest, placement, template)
    | Delete _ | Replace_value _ -> invalid_arg "Update.apply_insert: not an insertion"
  in
  (* Every copy of a parsed fragment has its structure and labels: look
     its label codes up once (none when nothing is attached). *)
  let shape = if targets = [] then None else Option.map (Store.shape store) template in
  let changed =
    List.filter_map
      (fun target ->
        (* The pair records the node whose content changes: the target for
           into-insertions, its parent for sibling insertions. A sibling
           insertion at the document root is a no-op (no siblings). *)
        match placement with
        | Into ->
          let copies = forest target in
          Store.attach store ?shape ~parent:target copies;
          Some (target, copies)
        | Before | After -> (
          match target.Xml_tree.parent with
          | None -> None
          | Some parent ->
            let copies = forest target in
            let where = match placement with Before -> `Before | _ -> `After in
            Store.attach_beside store ?shape ~sibling:target ~where copies;
            Some (parent, copies)))
      targets
  in
  let fragment = match placement with Into -> template | Before | After -> None in
  applied_insert ?fragment store ~staged changed

let apply_insert_at store ~target forest =
  let staged = Store.staged_count store in
  Store.attach store ~parent:target forest;
  applied_insert store ~staged [ (target, forest) ]

let is_content n = n.Xml_tree.kind <> Xml_tree.Attribute

(* [root] is its parent's last content child, after another one: read
   before the detach, which the tree no longer shows. *)
let ends_content root =
  let rec scan before = function
    | [] -> false
    | c :: rest ->
      if c == root then before && is_content root && not (List.exists is_content rest)
      else scan (before || is_content c) rest
  in
  match root.Xml_tree.parent with
  | None -> false
  | Some p -> scan false p.Xml_tree.children

(* Detach the (disjoint) subtrees [root_nodes]. *)
let applied_delete store root_nodes =
  let root_handles = List.map (Store.handle_of_node store) root_nodes in
  let roots = List.map (Dewey_arena.to_dewey (Store.arena store)) root_handles in
  let last_content =
    List.map
      (fun root ->
        let last = ends_content root in
        Store.detach store root;
        last)
      root_nodes
  in
  (* Identifiers inside detached subtrees resolve until the commit, so the
     full enumeration can run lazily, during Δ⁻ computation. *)
  let deleted =
    lazy
      (List.concat_map
         (fun root ->
           List.map (fun n -> (Store.id_of store n, n)) (Xml_tree.descendants_or_self root))
         root_nodes)
  in
  { roots; root_nodes; root_handles; last_content; deleted }

let apply_replace store ~text ~targets =
  let text_children =
    List.concat_map
      (fun target ->
        List.filter
          (fun c -> c.Xml_tree.kind = Xml_tree.Text)
          target.Xml_tree.children)
      targets
  in
  let changed =
    List.map
      (fun target -> (target, if text = "" then [] else [ Xml_tree.text text ]))
      targets
  in
  (* Attach the replacement before detaching the old text: the new text
     node then takes an ordinal after the old one's, which stays reserved
     until the commit sweeps it. Attaching first under an emptied parent
     would mint the detached node's identifier a second time. *)
  let staged = Store.staged_count store in
  List.iter
    (fun (target, fresh) -> if fresh <> [] then Store.attach store ~parent:target fresh)
    changed;
  let ins = applied_insert store ~staged changed in
  (applied_delete store text_children, ins)

let apply_delete store ~targets =
  (* Skip targets nested below an earlier target: detaching the ancestor
     already removes them, and their nodes must be collected only once. *)
  let picked = Hashtbl.create 16 in
  let root_nodes = ref [] in
  List.iter
    (fun target ->
      let rec inside n =
        Hashtbl.mem picked n.Xml_tree.serial
        || match n.Xml_tree.parent with None -> false | Some p -> inside p
      in
      if not (inside target) then begin
        Hashtbl.replace picked target.Xml_tree.serial ();
        root_nodes := target :: !root_nodes
      end)
    targets;
  applied_delete store (List.rev !root_nodes)
