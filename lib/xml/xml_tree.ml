type kind = Element | Attribute | Text

type node = {
  serial : int;
  kind : kind;
  name : string;
  text : string;
  mutable children : node list;
  mutable parent : node option;
}

let next_serial =
  let counter = ref 0 in
  fun () ->
    incr counter;
    !counter

let make kind name text =
  { serial = next_serial (); kind; name; text; children = []; parent = None }

let append_child parent child =
  (match child.parent with
  | Some _ -> invalid_arg "Xml_tree.append_child: child already attached"
  | None -> ());
  child.parent <- Some parent;
  parent.children <- parent.children @ [ child ]

let append_children parent kids =
  List.iter
    (fun child ->
      match child.parent with
      | Some _ -> invalid_arg "Xml_tree.append_children: child already attached"
      | None -> child.parent <- Some parent)
    kids;
  parent.children <- parent.children @ kids

let element ?(children = []) name =
  let n = make Element name "" in
  append_children n children;
  n

let text s = make Text "#text" s
let attribute name value = make Attribute name value

let remove_child parent child =
  let keep, drop = List.partition (fun c -> c != child) parent.children in
  List.iter (fun c -> c.parent <- None) drop;
  parent.children <- keep

let insert_children parent ~anchor ~where kids =
  if not (List.memq anchor parent.children) then
    invalid_arg "Xml_tree.insert_children: anchor is not a child";
  List.iter
    (fun kid ->
      match kid.parent with
      | Some _ -> invalid_arg "Xml_tree.insert_children: kid already attached"
      | None -> kid.parent <- Some parent)
    kids;
  parent.children <-
    List.concat_map
      (fun c ->
        if c == anchor then
          match where with `Before -> kids @ [ c ] | `After -> c :: kids
        else [ c ])
      parent.children

let rec copy n =
  let fresh = make n.kind n.name n.text in
  append_children fresh (List.map copy n.children);
  fresh

let label n =
  match n.kind with
  | Element -> n.name
  | Attribute -> "@" ^ n.name
  | Text -> "#text"

let rec iter f n =
  f n;
  List.iter (iter f) n.children

let descendants_or_self n =
  let acc = ref [] in
  iter (fun m -> acc := m :: !acc) n;
  List.rev !acc

let element_children n = List.filter (fun c -> c.kind = Element) n.children
let attribute_node n name =
  List.find_opt (fun c -> c.kind = Attribute && c.name = name) n.children

let size n =
  let count = ref 0 in
  iter (fun _ -> incr count) n;
  !count

let string_value n =
  match n.kind with
  | Attribute | Text -> n.text
  | Element ->
    let buf = Buffer.create 32 in
    iter (fun m -> if m.kind = Text then Buffer.add_string buf m.text) n;
    Buffer.contents buf

let rec equal a b =
  a.kind = b.kind && a.name = b.name && a.text = b.text
  && List.compare_lengths a.children b.children = 0
  && List.for_all2 equal a.children b.children

let is_ancestor a d =
  let rec up n = match n.parent with
    | None -> false
    | Some p -> p == a || up p
  in
  up d

(* The runs between special characters are appended whole. *)
let escape buf s ~attr =
  let start = ref 0 in
  let special i rep =
    Buffer.add_substring buf s !start (i - !start);
    Buffer.add_string buf rep;
    start := i + 1
  in
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | '<' -> special i "&lt;"
    | '>' -> special i "&gt;"
    | '&' -> special i "&amp;"
    | '"' when attr -> special i "&quot;"
    | _ -> ()
  done;
  Buffer.add_substring buf s !start (String.length s - !start)

let rec add_to_buffer buf n =
  match n.kind with
  | Text -> escape buf n.text ~attr:false
  | Attribute ->
    Buffer.add_char buf ' ';
    Buffer.add_string buf n.name;
    Buffer.add_string buf "=\"";
    escape buf n.text ~attr:true;
    Buffer.add_char buf '"'
  | Element ->
    Buffer.add_char buf '<';
    Buffer.add_string buf n.name;
    if add_attributes buf false n.children then begin
      Buffer.add_char buf '>';
      add_content buf n.children;
      Buffer.add_string buf "</";
      Buffer.add_string buf n.name;
      Buffer.add_char buf '>'
    end
    else Buffer.add_string buf "/>"

(* Appends the attribute children; true when some child is content. *)
and add_attributes buf has_content = function
  | [] -> has_content
  | c :: rest ->
    if c.kind = Attribute then begin
      add_to_buffer buf c;
      add_attributes buf has_content rest
    end
    else add_attributes buf true rest

and add_content buf = function
  | [] -> ()
  | c :: rest ->
    if c.kind <> Attribute then add_to_buffer buf c;
    add_content buf rest

let serialize ?(decl = false) n =
  let buf = Buffer.create 1024 in
  if decl then Buffer.add_string buf "<?xml version=\"1.0\"?>\n";
  add_to_buffer buf n;
  Buffer.contents buf

(* Bytes [escape] writes for [s]. *)
let escaped_size s ~attr =
  let n = ref (String.length s) in
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | '<' | '>' -> n := !n + 3
    | '&' -> n := !n + 4
    | '"' when attr -> n := !n + 5
    | _ -> ()
  done;
  !n

let serialized_size n =
  let total = ref 0 in
  iter
    (fun m ->
      match m.kind with
      | Text -> total := !total + escaped_size m.text ~attr:false
      | Attribute ->
        total := !total + String.length m.name + escaped_size m.text ~attr:true + 4
      | Element ->
        let has_content = List.exists (fun c -> c.kind <> Attribute) m.children in
        let tag = String.length m.name in
        total := !total + (if has_content then (2 * tag) + 5 else tag + 3))
    n;
  !total

(* Where the closing tag of [s] starts, when [s] is the serialization of
   an element with content ("...</name>"); [-1] for a self-closing
   element, an attribute or a text. Escaping keeps ['<'] out of texts
   and attribute values, so the last ['<'] opens the closing tag. *)
let close_tag_start s =
  let n = String.length s in
  if n < 4 || s.[n - 1] <> '>' || s.[n - 2] = '/' then -1
  else
    match String.rindex_opt s '<' with
    | Some i when s.[i + 1] = '/' -> i
    | Some _ | None -> -1

let splice_content s fragment =
  let i = close_tag_start s in
  if i < 0 then None
  else begin
    let n = String.length s and f = String.length fragment in
    let b = Bytes.create (n + f) in
    Bytes.blit_string s 0 b 0 i;
    Bytes.blit_string fragment 0 b i f;
    Bytes.blit_string s i b (i + f) (n - i);
    Some (Bytes.unsafe_to_string b)
  end

let cut_content s k =
  let i = close_tag_start s in
  (* Some content byte must stay: an element left with none may
     serialize self-closing. *)
  if i < 0 || k < 0 || k >= i - (String.index s '>' + 1) then None
  else begin
    let n = String.length s in
    let b = Bytes.create (n - k) in
    Bytes.blit_string s 0 b 0 (i - k);
    Bytes.blit_string s i b (i - k) (n - i);
    Some (Bytes.unsafe_to_string b)
  end
