(* Shared helpers and QCheck generators for the test suites. *)

let labels = [| "a"; "b"; "c"; "d"; "e" |]
let words = [| "x"; "y"; "z" |]

(* {1 Random documents} *)

(* Texts and attribute values that [Xml_tree.serialize] must escape. *)
let special_words = [| "x"; "a&b"; "<y>"; "\"q\""; "&amp;"; "z>" |]

let gen_doc_tree_over words =
  let open QCheck.Gen in
  let label = oneofa labels in
  let word = oneofa words in
  let rec tree depth =
    let* lab = label in
    let* kids =
      if depth <= 0 then pure []
      else
        let* n = int_range 0 3 in
        list_repeat n (tree (depth - 1))
    in
    let* texts = frequency [ (2, pure []); (1, (fun st -> [ Xml_tree.text (word st) ])) ] in
    let* attrs =
      frequency
        [
          (3, pure []);
          (1, (fun st -> [ Xml_tree.attribute "k" (word st) ]));
        ]
    in
    pure (Xml_tree.element ~children:(attrs @ texts @ kids) lab)
  in
  QCheck.Gen.(int_range 1 3 >>= tree)

let gen_doc_tree = gen_doc_tree_over words
let gen_doc_tree_special = gen_doc_tree_over special_words

let arb_doc =
  QCheck.make gen_doc_tree ~print:(fun d -> Xml_tree.serialize d)

let arb_doc_special =
  QCheck.make gen_doc_tree_special ~print:(fun d -> Xml_tree.serialize d)

(* {1 Random patterns} *)

let gen_pattern =
  let open QCheck.Gen in
  let label = frequency [ (6, oneofa labels); (1, pure "*") ] in
  let axis = oneofl [ Pattern.Child; Pattern.Descendant ] in
  let annot =
    frequency
      [
        (3, pure (fun spec -> spec true false false));
        (1, pure (fun spec -> spec true true false));
        (1, pure (fun spec -> spec true false true));
        (1, pure (fun spec -> spec false false false));
      ]
  in
  let vpred = frequency [ (5, pure None); (1, map (fun w -> Some w) (oneofa words)) ] in
  let rec node depth =
    let* tag = label in
    let* ax = axis in
    let* mk = annot in
    let* vp = vpred in
    let* kids =
      if depth <= 0 then pure []
      else
        let* n = int_range 0 2 in
        list_repeat n (node (depth - 1))
    in
    pure
      (mk (fun id value content ->
           Pattern.n ~axis:ax ~id ~value ~content ?vpred:vp tag kids))
  in
  let* root = node 2 in
  pure (Pattern.compile ~name:"rand" root)

let arb_pattern = QCheck.make gen_pattern ~print:Pattern.to_string

(* {1 Random updates} *)

let gen_path =
  QCheck.Gen.(
    oneofl
      [
        "//a"; "//b"; "//c"; "//d"; "//a//b"; "//b//c"; "/a"; "/a/b"; "//a/b";
        "//c[d]"; "//a[b or c]"; "//b[c and d]"; "//e";
      ])

let gen_fragment =
  let open QCheck.Gen in
  let* tree = gen_doc_tree in
  let* extra = frequency [ (2, pure []); (1, map (fun t -> [ t ]) gen_doc_tree) ] in
  pure (tree :: extra)

let fragment_text frag =
  String.concat "" (List.map Xml_tree.serialize frag)

let gen_update =
  let open QCheck.Gen in
  frequency
    [
      ( 2,
        let* path = gen_path in
        let* frag = gen_fragment in
        pure
          (Update.insert_forest ~into:(Xpath.parse path) (fun _ ->
               List.map Xml_tree.copy frag)) );
      ( 1,
        let* path = gen_path in
        let* frag = gen_fragment in
        let* before = bool in
        pure
          (if before then Update.insert_before ~target:path (fragment_text frag)
           else Update.insert_after ~target:path (fragment_text frag)) );
      ( 2,
        let* path = gen_path in
        pure (Update.delete path) );
      ( 1,
        let* path = gen_path in
        let* text = frequency [ (3, map Fun.id (oneofa words)); (1, pure "") ] in
        pure (Update.replace_value ~target:path text) );
    ]

let arb_update = QCheck.make gen_update ~print:Update.to_string

(* {1 Oracles} *)

(* Reference view computation: naive embeddings with derivation counts,
   producing the same dump shape as [Mview.dump]-based comparison. *)
let reference_dump store pat =
  let embeddings = Embed.embeddings store pat in
  let stored = Pattern.stored_nodes pat in
  let tally = Hashtbl.create 64 in
  List.iter
    (fun binding ->
      let key =
        String.concat ""
          (List.map (fun i -> Dewey.encode binding.(i)) stored)
      in
      let prev = try Hashtbl.find tally key with Not_found -> 0 in
      Hashtbl.replace tally key (prev + 1))
    embeddings;
  List.sort compare (Hashtbl.fold (fun k c acc -> (k, c) :: acc) tally [])

let mview_count_dump mv =
  List.map (fun (key, count, _) -> (key, count)) (Mview.dump mv)
  |> List.sort compare

(* Fresh (store, mview) over a copy of [doc]. *)
let setup ?policy doc pat =
  let store = Store.of_document (Xml_tree.copy doc) in
  let mv = Mview.materialize ?policy store pat in
  (store, mv)

let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

(* {1 Strings} *)

(* Offset of the first occurrence of [needle] in [hay]. *)
let find_sub hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec at i =
    if i + nl > hl then None
    else if String.sub hay i nl = needle then Some i
    else at (i + 1)
  in
  at 0

let contains hay needle = find_sub hay needle <> None
