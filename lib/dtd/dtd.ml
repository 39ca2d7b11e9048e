type regex =
  | Empty
  | Epsilon
  | Sym of string
  | Seq of regex * regex
  | Alt of regex * regex
  | Star of regex
  | Plus of regex
  | Opt of regex

type t = { root : string; rules : (string, regex) Hashtbl.t }

let create ~root rules =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (label, re) -> Hashtbl.replace tbl label re) rules;
  { root; rules = tbl }

let root t = t.root
let rule t label = Hashtbl.find_opt t.rules label

let labels t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.rules [] |> List.sort_uniq compare

exception Parse_error of string

(* {1 Textual syntax} *)

let parse text =
  let parse_rule line =
    match String.index_opt line '=' with
    | None -> raise (Parse_error (Printf.sprintf "missing '=' in rule %S" line))
    | Some eq ->
      let label = String.trim (String.sub line 0 eq) in
      let body = String.sub line (eq + 1) (String.length line - eq - 1) in
      let lx = ref 0 in
      let src = body in
      let len = String.length src in
      let peek () = if !lx < len then Some src.[!lx] else None in
      let skip_ws () =
        while (match peek () with Some (' ' | '\t') -> true | _ -> false) do incr lx done
      in
      let fail msg = raise (Parse_error (Printf.sprintf "%s in rule %S" msg line)) in
      let is_word c =
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true | _ -> false
      in
      let read_word () =
        let start = !lx in
        while (match peek () with Some c -> is_word c | None -> false) do incr lx done;
        if !lx = start then fail "expected a name";
        String.sub src start (!lx - start)
      in
      (* expr := alt ; alt := seq ('|' seq)* ; seq := post (',' post)* ;
         post := prim [*+?] ; prim := name | EMPTY | '(' expr ')' *)
      let rec parse_alt () =
        let left = parse_seq () in
        skip_ws ();
        if peek () = Some '|' then begin
          incr lx;
          Alt (left, parse_alt ())
        end
        else left
      and parse_seq () =
        let left = parse_post () in
        skip_ws ();
        if peek () = Some ',' then begin
          incr lx;
          Seq (left, parse_seq ())
        end
        else left
      and parse_post () =
        let prim = parse_prim () in
        skip_ws ();
        match peek () with
        | Some '*' -> incr lx; Star prim
        | Some '+' -> incr lx; Plus prim
        | Some '?' -> incr lx; Opt prim
        | Some _ | None -> prim
      and parse_prim () =
        skip_ws ();
        match peek () with
        | Some '(' ->
          incr lx;
          let e = parse_alt () in
          skip_ws ();
          if peek () <> Some ')' then fail "expected ')'";
          incr lx;
          e
        | Some c when is_word c ->
          let w = read_word () in
          if w = "EMPTY" then Epsilon else Sym w
        | Some _ | None -> fail "expected a name, EMPTY or '('"
      in
      let re = parse_alt () in
      skip_ws ();
      if !lx <> len then fail "trailing input";
      (label, re)
  in
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  match List.map parse_rule lines with
  | [] -> raise (Parse_error "empty DTD")
  | ((root, _) :: _) as rules -> create ~root rules

(* {1 Brzozowski derivatives} *)

let rec nullable = function
  | Empty | Sym _ -> false
  | Epsilon | Star _ | Opt _ -> true
  | Seq (a, b) -> nullable a && nullable b
  | Alt (a, b) -> nullable a || nullable b
  | Plus a -> nullable a

let rec deriv re sym =
  match re with
  | Empty | Epsilon -> Empty
  | Sym s -> if s = sym then Epsilon else Empty
  | Seq (a, b) ->
    let da = Seq (deriv a sym, b) in
    if nullable a then Alt (da, deriv b sym) else da
  | Alt (a, b) -> Alt (deriv a sym, deriv b sym)
  | Star a -> Seq (deriv a sym, Star a)
  | Plus a -> Seq (deriv a sym, Star a)
  | Opt a -> deriv a sym

let word_matches re w = nullable (List.fold_left deriv re w)

let rec mandatory = function
  | Empty | Epsilon | Star _ | Opt _ -> []
  | Sym s -> [ s ]
  | Seq (a, b) -> List.sort_uniq compare (mandatory a @ mandatory b)
  | Alt (a, b) -> List.filter (fun s -> List.mem s (mandatory b)) (mandatory a)
  | Plus a -> mandatory a

(* {1 Δ⁺ reasoning} *)

let delta_constraints t =
  (* Direct implications, then transitive closure. *)
  let direct =
    Hashtbl.fold
      (fun label re acc -> List.map (fun m -> (label, m)) (mandatory re) @ acc)
      t.rules []
  in
  let pairs = ref (List.sort_uniq compare direct) in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (a, b) ->
        List.iter
          (fun (b', c) ->
            if b = b' && a <> c && not (List.mem (a, c) !pairs) then begin
              pairs := (a, c) :: !pairs;
              changed := true
            end)
          !pairs)
      !pairs
  done;
  List.sort_uniq compare !pairs

let check_delta t ~present =
  List.filter (fun (a, b) -> present a && not (present b)) (delta_constraints t)

(* {1 Full validation} *)

let child_word node =
  List.filter_map
    (fun c ->
      match c.Xml_tree.kind with
      | Xml_tree.Element -> Some c.Xml_tree.name
      | Xml_tree.Attribute | Xml_tree.Text -> None)
    node.Xml_tree.children

let check_node t node =
  match node.Xml_tree.kind with
  | Xml_tree.Attribute | Xml_tree.Text -> Ok ()
  | Xml_tree.Element -> (
    match rule t node.Xml_tree.name with
    | None -> Ok ()
    | Some re ->
      let w = child_word node in
      if word_matches re w then Ok ()
      else
        Error
          (Printf.sprintf "element <%s>: children (%s) do not match its content model"
             node.Xml_tree.name (String.concat ", " w)))

let validate_tree t node =
  let failure = ref None in
  Xml_tree.iter
    (fun n ->
      if !failure = None then
        match check_node t n with Ok () -> () | Error e -> failure := Some e)
    node;
  match !failure with None -> Ok () | Some e -> Error e

let check_insert t ~parent ~forest =
  match parent.Xml_tree.kind with
  | Xml_tree.Attribute | Xml_tree.Text ->
    Error "cannot insert element content under a non-element node"
  | Xml_tree.Element -> (
    let new_word =
      child_word parent
      @ List.filter_map
          (fun n ->
            match n.Xml_tree.kind with
            | Xml_tree.Element -> Some n.Xml_tree.name
            | Xml_tree.Attribute | Xml_tree.Text -> None)
          forest
    in
    let parent_ok =
      match rule t parent.Xml_tree.name with
      | None -> Ok ()
      | Some re ->
        if word_matches re new_word then Ok ()
        else
          Error
            (Printf.sprintf
               "insertion under <%s> yields children (%s) violating its content model"
               parent.Xml_tree.name
               (String.concat ", " new_word))
    in
    match parent_ok with
    | Error _ as e -> e
    | Ok () ->
      let rec first_error = function
        | [] -> Ok ()
        | tree :: rest -> (
          match validate_tree t tree with Ok () -> first_error rest | Error _ as e -> e)
      in
      first_error forest)
