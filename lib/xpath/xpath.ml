type axis = Child | Descendant

type test = Name of string | Star | Attr of string

type pred =
  | Exists of path
  | Eq of path * string
  | And of pred * pred
  | Or of pred * pred

and step = { axis : axis; test : test; preds : pred list }

and path = step list

exception Parse_error of string

(* {1 Parsing} *)

type lexer = { src : string; mutable pos : int }

let lex_fail lx msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d in %S" msg lx.pos lx.src))

let peek lx = if lx.pos < String.length lx.src then Some lx.src.[lx.pos] else None

let skip_ws lx =
  while (match peek lx with Some (' ' | '\t' | '\n') -> true | Some _ | None -> false) do
    lx.pos <- lx.pos + 1
  done

let is_name_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' -> true
  | _ -> false

let read_name lx =
  let start = lx.pos in
  while (match peek lx with Some c -> is_name_char c | None -> false) do
    lx.pos <- lx.pos + 1
  done;
  if lx.pos = start then lex_fail lx "expected a name";
  String.sub lx.src start (lx.pos - start)

let eat lx s =
  let n = String.length s in
  if lx.pos + n <= String.length lx.src && String.sub lx.src lx.pos n = s then begin
    lx.pos <- lx.pos + n;
    true
  end
  else false

let read_literal lx =
  let quote =
    match peek lx with
    | Some (('"' | '\'') as q) ->
      lx.pos <- lx.pos + 1;
      q
    | Some _ | None -> lex_fail lx "expected a string literal"
  in
  let start = lx.pos in
  while (match peek lx with Some c -> c <> quote | None -> false) do
    lx.pos <- lx.pos + 1
  done;
  if peek lx = None then lex_fail lx "unterminated string literal";
  let s = String.sub lx.src start (lx.pos - start) in
  lx.pos <- lx.pos + 1;
  s

(* A bare word in a predicate: either a keyword ('and' / 'or') boundary or a
   path start. We parse paths first and let the caller handle keywords. *)

let rec parse_steps lx ~first_axis =
  let axis = ref first_axis in
  let steps = ref [] in
  let continue = ref true in
  while !continue do
    skip_ws lx;
    let test =
      if eat lx "@" then Attr (read_name lx)
      else if eat lx "*" then Star
      else Name (read_name lx)
    in
    let preds = ref [] in
    skip_ws lx;
    while peek lx = Some '[' do
      lx.pos <- lx.pos + 1;
      let p = parse_or lx in
      skip_ws lx;
      if not (eat lx "]") then lex_fail lx "expected ']'";
      preds := p :: !preds;
      skip_ws lx
    done;
    steps := { axis = !axis; test; preds = List.rev !preds } :: !steps;
    if eat lx "//" then axis := Descendant
    else if eat lx "/" then axis := Child
    else continue := false
  done;
  List.rev !steps

and parse_or lx =
  let left = parse_and lx in
  skip_ws lx;
  if keyword lx "or" then Or (left, parse_or lx) else left

and parse_and lx =
  let left = parse_primary lx in
  skip_ws lx;
  if keyword lx "and" then And (left, parse_and lx) else left

and keyword lx kw =
  skip_ws lx;
  let n = String.length kw in
  if
    lx.pos + n <= String.length lx.src
    && String.sub lx.src lx.pos n = kw
    && (lx.pos + n = String.length lx.src || not (is_name_char lx.src.[lx.pos + n]))
  then begin
    lx.pos <- lx.pos + n;
    true
  end
  else false

and parse_primary lx =
  skip_ws lx;
  if eat lx "(" then begin
    let p = parse_or lx in
    skip_ws lx;
    if not (eat lx ")") then lex_fail lx "expected ')'";
    p
  end
  else if eat lx "." then begin
    skip_ws lx;
    if eat lx "=" then begin
      skip_ws lx;
      Eq ([], read_literal lx)
    end
    else lex_fail lx "expected '=' after '.'"
  end
  else begin
    let axis = if eat lx "//" then Descendant else (ignore (eat lx "/") ; Child) in
    let p = parse_steps lx ~first_axis:axis in
    skip_ws lx;
    if eat lx "=" then begin
      skip_ws lx;
      Eq (p, read_literal lx)
    end
    else Exists p
  end

let parse s =
  let lx = { src = s; pos = 0 } in
  skip_ws lx;
  let first_axis =
    if eat lx "//" then Descendant
    else if eat lx "/" then Child
    else lex_fail lx "expected '/' or '//'"
  in
  let p = parse_steps lx ~first_axis in
  skip_ws lx;
  if lx.pos <> String.length s then lex_fail lx "trailing input";
  p

(* {1 Printing} *)

let test_to_string = function
  | Name n -> n
  | Star -> "*"
  | Attr a -> "@" ^ a

let rec pred_to_string = function
  | Exists p -> rel_to_string p
  | Eq ([], lit) -> Printf.sprintf ".='%s'" lit
  | Eq (p, lit) -> Printf.sprintf "%s='%s'" (rel_to_string p) lit
  | And (a, b) -> Printf.sprintf "(%s and %s)" (pred_to_string a) (pred_to_string b)
  | Or (a, b) -> Printf.sprintf "(%s or %s)" (pred_to_string a) (pred_to_string b)

and step_to_string s =
  test_to_string s.test
  ^ String.concat "" (List.map (fun p -> "[" ^ pred_to_string p ^ "]") s.preds)

and rel_to_string p =
  match p with
  | [] -> "."
  | first :: rest ->
    let sep s = match s.axis with Child -> "/" | Descendant -> "//" in
    step_to_string first
    ^ String.concat "" (List.map (fun s -> sep s ^ step_to_string s) rest)

let to_string p =
  match p with
  | [] -> "/"
  | first :: _ ->
    let lead = match first.axis with Child -> "/" | Descendant -> "//" in
    lead ^ rel_to_string p

(* {1 Evaluation} *)

let test_matches test (n : Xml_tree.node) =
  match (test, n.Xml_tree.kind) with
  | Name name, Xml_tree.Element -> n.Xml_tree.name = name
  | Star, Xml_tree.Element -> true
  | Attr name, Xml_tree.Attribute -> n.Xml_tree.name = name
  | (Name _ | Star), (Xml_tree.Attribute | Xml_tree.Text) -> false
  | Attr _, (Xml_tree.Element | Xml_tree.Text) -> false

(* Predicates stop at the first witness: [exists_from node path ok] is a
   depth-first search for a node reached from [node] along [path] that
   satisfies [ok], building no match list. *)
let rec exists_from node path ok =
  match path with
  | [] -> ok node
  | step :: rest -> (
    let hit c = accepts step c && exists_from c rest ok in
    match step.axis with
    | Child -> List.exists hit node.Xml_tree.children
    | Descendant ->
      let rec below n = List.exists (fun c -> hit c || below c) n.Xml_tree.children in
      below node)

and holds node pred =
  match pred with
  | Exists p -> exists_from node p (fun _ -> true)
  | Eq ([], lit) -> Xml_tree.string_value node = lit
  | Eq (p, lit) -> exists_from node p (fun n -> Xml_tree.string_value n = lit)
  | And (a, b) -> holds node a && holds node b
  | Or (a, b) -> holds node a || holds node b

and accepts step n = test_matches step.test n && List.for_all (holds n) step.preds

(* One evaluation step from a single context node; result order follows the
   traversal, i.e. document order for that context. *)
let step_from node step =
  let candidates =
    match step.axis with
    | Child -> node.Xml_tree.children
    | Descendant ->
      let acc = ref [] in
      let rec walk n =
        List.iter
          (fun c ->
            acc := c :: !acc;
            walk c)
          n.Xml_tree.children
      in
      walk node;
      List.rev !acc
  in
  List.filter (accepts step) candidates

let matches_from node path =
  match path with
  | [] -> [ node ]
  | step :: rest ->
    let seen = Hashtbl.create 16 in
    let out = ref [] in
    let rec go ctx remaining =
      match remaining with
      | [] ->
        if not (Hashtbl.mem seen ctx.Xml_tree.serial) then begin
          Hashtbl.add seen ctx.Xml_tree.serial ();
          out := ctx :: !out
        end
      | s :: rest -> List.iter (fun n -> go n rest) (step_from ctx s)
    in
    List.iter (fun n -> go n rest) (step_from node step);
    List.rev !out

(* When context nodes nest (e.g. after a descendant step), depth-first
   expansion is not globally document-ordered, so [eval] sorts its final
   result. Rather than ranking the whole document (O(document) per query,
   however small the result), each result gets a root-path signature of
   sibling positions; lexicographic order on signatures is preorder, and
   an ancestor's signature is a strict prefix of its descendants'. Cost
   is O(results × (depth + fanout on the path)). *)

let path_signature n =
  let rec up n acc =
    match n.Xml_tree.parent with
    | None -> acc
    | Some p ->
      let rec index i = function
        | [] -> invalid_arg "Xpath: node missing from its parent"
        | c :: rest -> if c == n then i else index (i + 1) rest
      in
      up p (index 0 p.Xml_tree.children :: acc)
  in
  Array.of_list (up n [])

let signature_compare a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else
      let c = Stdlib.compare (a.(i) : int) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let eval root path =
  let results =
    match path with
    | [] -> [ root ]
    | first :: rest ->
      let ctx0 =
        match first.axis with
        | Child -> if accepts first root then [ root ] else []
        | Descendant -> List.filter (accepts first) (Xml_tree.descendants_or_self root)
      in
      let seen = Hashtbl.create 64 in
      let out = ref [] in
      List.iter
        (fun c ->
          List.iter
            (fun n ->
              if not (Hashtbl.mem seen n.Xml_tree.serial) then begin
                Hashtbl.add seen n.Xml_tree.serial ();
                out := n :: !out
              end)
            (matches_from c rest))
        ctx0;
      List.rev !out
  in
  (* Sort into document order by root-path signature. *)
  match results with
  | [] | [ _ ] -> results
  | _ ->
    List.map (fun n -> (path_signature n, n)) results
    |> List.sort (fun (a, _) (b, _) -> signature_compare a b)
    |> List.map snd
