type axis = Child | Descendant

type annot = { store_id : bool; store_val : bool; store_cont : bool }

let no_annot = { store_id = false; store_val = false; store_cont = false }

type t = {
  name : string;
  tags : string array;
  axes : axis array;
  parents : int array;
  annots : annot array;
  vpreds : string option array;
}

type spec = {
  s_tag : string;
  s_axis : axis;
  s_annot : annot;
  s_vpred : string option;
  s_children : spec list;
}

let n ?(axis = Descendant) ?(id = false) ?(value = false) ?(content = false) ?vpred
    tag children =
  {
    s_tag = tag;
    s_axis = axis;
    s_annot = { store_id = id; store_val = value; store_cont = content };
    s_vpred = vpred;
    s_children = children;
  }

(* cvn nodes must also store IDs (Section 3.6). *)
let force_id a =
  if (a.store_val || a.store_cont) && not a.store_id then { a with store_id = true }
  else a

let compile ~name root =
  let count =
    let rec sz s = List.fold_left (fun acc c -> acc + sz c) 1 s.s_children in
    sz root
  in
  let tags = Array.make count "" in
  let axes = Array.make count Descendant in
  let parents = Array.make count (-1) in
  let annots = Array.make count no_annot in
  let vpreds = Array.make count None in
  let next = ref 0 in
  let rec fill s parent =
    let i = !next in
    incr next;
    tags.(i) <- s.s_tag;
    axes.(i) <- s.s_axis;
    parents.(i) <- parent;
    annots.(i) <- force_id s.s_annot;
    vpreds.(i) <- s.s_vpred;
    List.iter (fun c -> fill c i) s.s_children
  in
  fill root (-1);
  { name; tags; axes; parents; annots; vpreds }

let node_count t = Array.length t.tags

let children t i =
  let out = ref [] in
  for j = Array.length t.parents - 1 downto 0 do
    if t.parents.(j) = i then out := j :: !out
  done;
  !out

let stored_nodes t =
  let out = ref [] in
  for i = Array.length t.annots - 1 downto 0 do
    let a = t.annots.(i) in
    if a.store_id || a.store_val || a.store_cont then out := i :: !out
  done;
  !out

let cvn t =
  let out = ref [] in
  for i = Array.length t.annots - 1 downto 0 do
    let a = t.annots.(i) in
    if a.store_val || a.store_cont then out := i :: !out
  done;
  !out

let descendants t i =
  (* Preorder layout: descendants of [i] are the contiguous indices after
     [i] whose parent chain reaches [i]. *)
  let out = ref [] in
  let n = node_count t in
  let rec reaches j = j <> -1 && (j = i || reaches t.parents.(j)) in
  for j = n - 1 downto i + 1 do
    if reaches t.parents.(j) then out := j :: !out
  done;
  !out

let tag_matches tag (node : Xml_tree.node) =
  match node.Xml_tree.kind with
  | Xml_tree.Element -> tag = "*" || tag = node.Xml_tree.name
  | Xml_tree.Attribute ->
    String.length tag > 1 && tag.[0] = '@'
    && String.sub tag 1 (String.length tag - 1) = node.Xml_tree.name
  | Xml_tree.Text -> tag = "#text"

let subpattern t i ~name =
  if i < 0 || i >= node_count t then invalid_arg "Pattern.subpattern";
  (* Preorder layout: the subtree of [i] is the contiguous index range
     [i .. i + |desc i|], so new index = old index - i. *)
  let desc = descendants t i in
  let count = 1 + List.length desc in
  let sub f = Array.init count (fun j -> f (i + j)) in
  {
    name;
    tags = sub (fun j -> t.tags.(j));
    axes = sub (fun j -> if j = i then Descendant else t.axes.(j));
    parents = sub (fun j -> if j = i then -1 else t.parents.(j) - i);
    annots =
      sub (fun j ->
          if j = i then { store_id = true; store_val = false; store_cont = false }
          else t.annots.(j));
    vpreds = sub (fun j -> t.vpreds.(j));
  }

let prune t i ~name =
  if i < 0 || i >= node_count t then invalid_arg "Pattern.prune";
  let drop = descendants t i in
  let keep = ref [] in
  for j = node_count t - 1 downto 0 do
    if not (List.mem j drop) then keep := j :: !keep
  done;
  let keep = Array.of_list !keep in
  let pos = Array.make (node_count t) (-1) in
  Array.iteri (fun new_i old_i -> pos.(old_i) <- new_i) keep;
  {
    name;
    tags = Array.map (fun j -> t.tags.(j)) keep;
    axes = Array.map (fun j -> t.axes.(j)) keep;
    parents =
      Array.map (fun j -> if t.parents.(j) = -1 then -1 else pos.(t.parents.(j))) keep;
    annots =
      Array.map
        (fun j -> if j = i then { t.annots.(j) with store_id = true } else t.annots.(j))
        keep;
    vpreds = Array.map (fun j -> t.vpreds.(j)) keep;
  }

let vpred_holds t i node =
  match t.vpreds.(i) with
  | None -> true
  | Some c -> Xml_tree.string_value node = c

let to_string t =
  let buf = Buffer.create 64 in
  let annot_str i =
    let a = t.annots.(i) in
    let parts =
      (if a.store_id then [ "id" ] else [])
      @ (if a.store_val then [ "val" ] else [])
      @ if a.store_cont then [ "cont" ] else []
    in
    if parts = [] then "" else "{" ^ String.concat "," parts ^ "}"
  in
  let rec render i =
    Buffer.add_string buf (match t.axes.(i) with Child -> "/" | Descendant -> "//");
    Buffer.add_string buf t.tags.(i);
    (match t.vpreds.(i) with
    | Some c -> Buffer.add_string buf (Printf.sprintf "[val='%s']" c)
    | None -> ());
    Buffer.add_string buf (annot_str i);
    List.iter
      (fun j ->
        Buffer.add_char buf '[';
        render j;
        Buffer.add_char buf ']')
      (children t i)
  in
  render 0;
  Buffer.contents buf

let rename t name = { t with name }

let with_annots t annots =
  if Array.length annots <> node_count t then
    invalid_arg "Pattern.with_annots: length mismatch";
  { t with annots = Array.map force_id annots }
