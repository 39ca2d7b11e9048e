(* Differential oracles: seeded scenarios checked against an
   independent reference, one harness for six properties.

   A scenario is a document, a view set and a statement sequence, plus
   the field groups its property needs (a query, heavy-light read points
   and thresholds, or a crash point). One generator draws scenarios from
   the [Qgen.plain] vocabulary so that random views actually match
   random documents; the statement generator forces the degenerate
   shapes where IVM bugs hide — empty target sets, root-adjacent
   targets, nested/overlapping target subtrees. One checker dispatches
   on the property. A failing scenario is greedily shrunk before being
   reported: every candidate reduction (read point, statement or view
   dropped, document subtree dropped or hoisted, statement step or
   predicate dropped, query or view node dropped) strictly shrinks the
   scenario, so the loop terminates without an iteration bound, though a
   budget caps pathological cases anyway. One versioned codec prints
   the result as an [xvmcli difftest --replay] line. *)

let profile = Qgen.plain

(* {1 Scenarios} *)

type property = Engines | Batch | Serve | Recover | Answer | Heavy

let properties =
  [
    ("engines", Engines);
    ("batch", Batch);
    ("serve", Serve);
    ("recover", Recover);
    ("answer", Answer);
    ("heavy", Heavy);
  ]

let property_name p = fst (List.find (fun (_, q) -> q = p) properties)

type heavy = {
  reads : (int * int) list;
  heavy_count : int;
  heavy_fanout : int;
  drain_budget : int;
  tail_budget : int;
}

type crash = { crash_after : int; checkpoint_at : int option; unsynced_tail : bool }

type scenario = {
  prop : property;
  doc : Xml_tree.node;
  views : Pattern.t list;
  stmts : string list;
  query : Pattern.t option;
  heavy : heavy option;
  crash : crash option;
}

type failure = { cx : scenario; detail : string; work : (string * int) list }

(* Views are named by position, so a scenario rebuilt from its
   reproducer names them exactly as the original did. *)
let view_name i = Printf.sprintf "v%d" i

let renumber views = List.mapi (fun i v -> Pattern.rename v (view_name i)) views

(* {1 Engines} *)

type engine = {
  ename : string;
  eval : Xml_tree.node -> Pattern.t -> Update.t -> Mview.t;
}

let recompute_engine =
  {
    ename = "recompute";
    eval =
      (fun doc pat u ->
        let store = Store.of_document doc in
        fst (Recompute.recompute_after store u ~pat));
  }

let maint_engine =
  {
    ename = "maint";
    eval =
      (fun doc pat u ->
        let store = Store.of_document doc in
        let mv = Mview.materialize ~policy:Mview.Snowcaps store pat in
        ignore (Maint.propagate mv u);
        mv);
  }

let ivma_engine =
  {
    ename = "ivma";
    eval =
      (fun doc pat u ->
        let store = Store.of_document doc in
        let mv = Mview.materialize ~policy:Mview.Leaves store pat in
        ignore (Ivma.propagate mv u);
        mv);
  }

let default_engines = [ recompute_engine; maint_engine; ivma_engine ]

(* {1 Draw helpers} *)

let gen_word rnd =
  if Random.State.int rnd 10 < 7 then Qgen.pick rnd profile.Qgen.text_pieces
  else
    Qgen.pick rnd profile.Qgen.text_pieces
    ^ " "
    ^ Qgen.pick rnd profile.Qgen.text_pieces

let doc_labels doc =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  Xml_tree.iter
    (fun n ->
      if n.Xml_tree.kind = Xml_tree.Element && not (Hashtbl.mem seen n.Xml_tree.name)
      then begin
        Hashtbl.add seen n.Xml_tree.name ();
        out := n.Xml_tree.name :: !out
      end)
    doc;
  Array.of_list (List.rev !out)

(* A label guaranteed absent from every generated document: the plain
   profile never emits it, so paths over it have empty target sets. *)
let absent_label = "zz"

(* {2 Views} *)

let rec gen_vnode rnd ~labels depth =
  let tag =
    let r = Random.State.int rnd 20 in
    if r < 14 then Qgen.pick rnd labels
    else if r < 16 then "*"
    else if r < 18 then Qgen.pick rnd profile.Qgen.labels
    else "@" ^ Qgen.pick rnd profile.Qgen.attr_names
  in
  let attr = tag.[0] = '@' in
  let axis = if Random.State.int rnd 3 = 0 then Pattern.Child else Pattern.Descendant in
  let id, value, content =
    match Random.State.int rnd 6 with
    | 0 | 1 | 2 -> (true, false, false)
    | 3 -> (true, true, false)
    | 4 -> (true, false, true)
    | _ -> (false, false, false)
  in
  let vpred =
    if (not attr) && Random.State.int rnd 6 = 0 then Some (gen_word rnd) else None
  in
  let kids =
    if attr || depth <= 0 then []
    else
      List.init (Random.State.int rnd 3) (fun _ -> gen_vnode rnd ~labels (depth - 1))
  in
  Pattern.n ~axis ~id ~value ~content ?vpred tag kids

let gen_views rnd ~labels k =
  List.init k (fun i -> Pattern.compile ~name:(view_name i) (gen_vnode rnd ~labels 2))

(* {2 Statements} *)

let gen_pred rnd ~pick_label =
  match Random.State.int rnd 5 with
  | 0 -> Printf.sprintf "[%s]" (pick_label ())
  | 1 -> Printf.sprintf "[%s or %s]" (pick_label ()) (pick_label ())
  | 2 -> Printf.sprintf "[%s and %s]" (pick_label ()) (pick_label ())
  | 3 -> Printf.sprintf "[%s='%s']" (pick_label ()) (Qgen.pick rnd profile.Qgen.text_pieces)
  | _ -> Printf.sprintf "[@%s]" (Qgen.pick rnd profile.Qgen.attr_names)

let gen_path rnd ~labels ~root_label ~allow_attr =
  let pick_label () =
    let r = Random.State.int rnd 10 in
    if r < 7 then Qgen.pick rnd labels
    else if r < 8 then "*"
    else if r < 9 then Qgen.pick rnd profile.Qgen.labels
    else absent_label
  in
  match Random.State.int rnd 10 with
  | 0 -> "/" ^ root_label (* the document root itself *)
  | 1 -> "/" ^ root_label ^ "/" ^ pick_label () (* root children *)
  | 2 ->
    (* Nested/overlapping target subtrees: a label below itself. *)
    let l = Qgen.pick rnd labels in
    Printf.sprintf "//%s//%s" l l
  | 3 -> "//" ^ absent_label (* provably empty target set *)
  | _ ->
    let steps = 1 + Random.State.int rnd 3 in
    let b = Buffer.create 24 in
    for i = 1 to steps do
      Buffer.add_string b (if Random.State.bool rnd then "//" else "/");
      if i = steps && allow_attr && Random.State.int rnd 8 = 0 then
        Buffer.add_string b ("@" ^ Qgen.pick rnd profile.Qgen.attr_names)
      else begin
        Buffer.add_string b (pick_label ());
        if Random.State.int rnd 4 = 0 then
          Buffer.add_string b (gen_pred rnd ~pick_label)
      end
    done;
    Buffer.contents b

let gen_fragment rnd =
  let n = 1 + Random.State.int rnd 2 in
  String.concat ""
    (List.init n (fun _ ->
         Xml_tree.serialize (Qgen.gen_element profile rnd (Random.State.int rnd 2))))

let gen_update rnd ~labels ~root_label =
  let delete = Random.State.bool rnd in
  let path = gen_path rnd ~labels ~root_label ~allow_attr:delete in
  let stmt =
    if delete then "delete " ^ path
    else "insert into " ^ path ^ " " ^ gen_fragment rnd
  in
  (* The generator must only emit statements the replay path can parse. *)
  ignore (Update.parse stmt);
  stmt

(* The journal persists [Update.to_string] renderings, so the recovery
   and heavy-light properties draw from every journalable statement
   form — not just the delete/insert-into mix of [gen_update]. *)
let gen_journal_stmt rnd ~labels ~root_label =
  let stmt =
    match Random.State.int rnd 6 with
    | 0 ->
      Printf.sprintf "insert before %s %s"
        (gen_path rnd ~labels ~root_label ~allow_attr:false)
        (gen_fragment rnd)
    | 1 ->
      Printf.sprintf "insert after %s %s"
        (gen_path rnd ~labels ~root_label ~allow_attr:false)
        (gen_fragment rnd)
    | 2 ->
      Printf.sprintf "replace value of %s with %S"
        (gen_path rnd ~labels ~root_label ~allow_attr:true)
        (Qgen.pick rnd profile.Qgen.text_pieces)
    | _ -> gen_update rnd ~labels ~root_label
  in
  ignore (Update.parse stmt);
  stmt

(* {1 Compact view syntax}

   The inverse of [Pattern.to_string]: axis, tag, optional [val='…']
   selection, optional {id,val,cont} stored-attribute set, then every
   child bracketed. A child always starts with "[/", a value predicate
   with "[val='", so one token of lookahead disambiguates. *)

let view_of_compact ~name s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    invalid_arg
      (Printf.sprintf "Difftest.view_of_compact: %s at offset %d in %S" msg !pos s)
  in
  let peek p =
    !pos + String.length p <= n && String.sub s !pos (String.length p) = p
  in
  let eat p = if peek p then pos := !pos + String.length p else fail ("expected " ^ p) in
  let rec node () =
    let axis =
      if peek "//" then begin
        eat "//";
        Pattern.Descendant
      end
      else if peek "/" then begin
        eat "/";
        Pattern.Child
      end
      else fail "expected / or //"
    in
    let start = !pos in
    while
      !pos < n && (match s.[!pos] with '[' | '{' | ']' | '/' -> false | _ -> true)
    do
      incr pos
    done;
    let tag = String.sub s start (!pos - start) in
    if tag = "" then fail "empty tag";
    let vpred =
      if peek "[val='" then begin
        eat "[val='";
        let st = !pos in
        while !pos < n && s.[!pos] <> '\'' do
          incr pos
        done;
        let v = String.sub s st (!pos - st) in
        eat "']";
        Some v
      end
      else None
    in
    let id = ref false and value = ref false and content = ref false in
    if peek "{" then begin
      eat "{";
      let continue = ref true in
      while !continue do
        let st = !pos in
        while !pos < n && s.[!pos] <> ',' && s.[!pos] <> '}' do
          incr pos
        done;
        (match String.sub s st (!pos - st) with
        | "id" -> id := true
        | "val" -> value := true
        | "cont" -> content := true
        | x -> fail ("unknown stored attribute " ^ x));
        if peek "," then eat ","
        else begin
          eat "}";
          continue := false
        end
      done
    end;
    let kids = ref [] in
    while peek "[" do
      eat "[";
      kids := node () :: !kids;
      eat "]"
    done;
    Pattern.n ~axis ~id:!id ~value:!value ~content:!content ?vpred tag
      (List.rev !kids)
  in
  let spec = node () in
  if !pos <> n then fail "trailing input";
  Pattern.compile ~name spec

(* {1 Reductions}

   Candidate reductions of one document, view or statement, shared by
   the shrinker and by the answer property's weakened-view queries. *)

(* Candidate documents go through a serialize∘parse round trip: removing
   an element can leave adjacent text siblings, which only the parser's
   normalization merges back into canonical form. A canonical candidate
   is exactly what its replayed serialization parses to, so a shrunk
   counterexample reproduces verbatim. *)
let canonical_doc d = Xml_parse.document (Xml_tree.serialize d)

let copy_without doc ~skip =
  let rec go n =
    if n.Xml_tree.serial = skip then None
    else
      Some
        (match n.Xml_tree.kind with
        | Xml_tree.Element ->
          Xml_tree.element
            ~children:(List.filter_map go n.Xml_tree.children)
            n.Xml_tree.name
        | Xml_tree.Attribute -> Xml_tree.attribute n.Xml_tree.name n.Xml_tree.text
        | Xml_tree.Text -> Xml_tree.text n.Xml_tree.text)
  in
  go doc

(* Replace the [target] element by its non-attribute children. *)
let copy_hoisting doc ~target =
  let rec go n =
    match n.Xml_tree.kind with
    | Xml_tree.Element when n.Xml_tree.serial = target ->
      List.concat_map go
        (List.filter
           (fun c -> c.Xml_tree.kind <> Xml_tree.Attribute)
           n.Xml_tree.children)
    | Xml_tree.Element ->
      [ Xml_tree.element ~children:(List.concat_map go n.Xml_tree.children) n.Xml_tree.name ]
    | Xml_tree.Attribute -> [ Xml_tree.attribute n.Xml_tree.name n.Xml_tree.text ]
    | Xml_tree.Text -> [ Xml_tree.text n.Xml_tree.text ]
  in
  match go doc with [ d ] -> Some d | _ -> None

(* Canonicalized reduced documents, largest cuts first. *)
let doc_variants doc =
  let nodes = ref [] in
  Xml_tree.iter
    (fun nd -> if nd.Xml_tree.serial <> doc.Xml_tree.serial then nodes := nd :: !nodes)
    doc;
  (* Largest subtrees first: successful big cuts converge fastest. *)
  let nodes =
    List.sort (fun a b -> compare (Xml_tree.size b) (Xml_tree.size a)) !nodes
  in
  let drops =
    List.filter_map (fun nd -> copy_without doc ~skip:nd.Xml_tree.serial) nodes
  in
  let hoists =
    List.filter_map
      (fun nd ->
        if nd.Xml_tree.kind = Xml_tree.Element && Xml_tree.element_children nd <> []
        then copy_hoisting doc ~target:nd.Xml_tree.serial
        else None)
      nodes
  in
  List.filter_map
    (fun d -> match canonical_doc d with d -> Some d | exception _ -> None)
    (drops @ hoists)

(* Rebuild a pattern spec from the compiled arrays, optionally dropping
   the subtree at [drop], clearing the predicate at [clear_vpred], or
   erasing the stored attributes at [weaken]. *)
let respec pat ?(drop = -1) ?(clear_vpred = -1) ?(weaken = -1) () =
  let rec build i =
    let kids = List.filter (fun j -> j <> drop) (Pattern.children pat i) in
    let a = if i = weaken then Pattern.no_annot else pat.Pattern.annots.(i) in
    let vp = if i = clear_vpred then None else pat.Pattern.vpreds.(i) in
    Pattern.n ~axis:pat.Pattern.axes.(i) ~id:a.Pattern.store_id
      ~value:a.Pattern.store_val ~content:a.Pattern.store_cont ?vpred:vp
      pat.Pattern.tags.(i) (List.map build kids)
  in
  Pattern.compile ~name:pat.Pattern.name (build 0)

let view_variants pat =
  let k = Pattern.node_count pat in
  let out = ref [] in
  for i = k - 1 downto 1 do
    out := respec pat ~drop:i () :: !out
  done;
  for i = k - 1 downto 0 do
    if pat.Pattern.vpreds.(i) <> None then
      out := respec pat ~clear_vpred:i () :: !out;
    if pat.Pattern.annots.(i) <> Pattern.no_annot then
      out := respec pat ~weaken:i () :: !out
  done;
  !out

type ustmt = UDel of Xpath.path | UIns of Xpath.path * Xml_tree.node list

let ustmt_of_string s =
  let s = String.trim s in
  let strip p =
    if String.length s >= String.length p && String.sub s 0 (String.length p) = p
    then Some (String.sub s (String.length p) (String.length s - String.length p))
    else None
  in
  match strip "delete " with
  | Some rest -> UDel (Xpath.parse (String.trim rest))
  | None -> (
    match strip "insert into " with
    | Some rest -> (
      match String.index_opt rest '<' with
      | None -> invalid_arg "Difftest: insert without fragment"
      | Some i ->
        UIns
          ( Xpath.parse (String.trim (String.sub rest 0 i)),
            Xml_parse.fragment (String.sub rest i (String.length rest - i)) ))
    | None -> invalid_arg "Difftest: unrecognized update statement")

let ustmt_to_string = function
  | UDel p -> "delete " ^ Xpath.to_string p
  | UIns (p, frag) ->
    "insert into " ^ Xpath.to_string p ^ " "
    ^ String.concat "" (List.map Xml_tree.serialize frag)

let without_nth l n = List.filteri (fun i _ -> i <> n) l

let replace_nth l n x = List.mapi (fun i y -> if i = n then x else y) l

let path_candidates path =
  let out = ref [] in
  let steps = List.length path in
  if steps > 1 then
    for i = steps - 1 downto 0 do
      out := without_nth path i :: !out
    done;
  List.iteri
    (fun i (step : Xpath.step) ->
      List.iteri
        (fun j pred ->
          let with_preds preds =
            List.mapi (fun k st -> if k = i then { step with Xpath.preds } else st) path
          in
          out := with_preds (without_nth step.Xpath.preds j) :: !out;
          match pred with
          | Xpath.And (a, b) | Xpath.Or (a, b) ->
            let swap p = replace_nth step.Xpath.preds j p in
            out := with_preds (swap a) :: with_preds (swap b) :: !out
          | Xpath.Exists _ | Xpath.Eq _ -> ())
        step.Xpath.preds)
    path;
  !out

let fragment_candidates frag =
  let out = ref [] in
  if List.length frag > 1 then
    List.iteri (fun i _ -> out := without_nth frag i :: !out) frag;
  List.iteri
    (fun i root ->
      Xml_tree.iter
        (fun nd ->
          if nd.Xml_tree.serial <> root.Xml_tree.serial then
            match copy_without root ~skip:nd.Xml_tree.serial with
            | Some r ->
              out := List.mapi (fun k x -> if k = i then r else Xml_tree.copy x) frag :: !out
            | None -> ())
        root)
    frag;
  !out

(* Only "delete" and "insert into" statements are reduced; the other
   journalable forms are kept whole (or dropped by the shrinker). *)
let update_variants update =
  match ustmt_of_string update with
  | exception _ -> []
  | stmt ->
    let rebuilt =
      match stmt with
      | UDel p -> List.map (fun p' -> UDel p') (path_candidates p)
      | UIns (p, frag) ->
        List.map (fun p' -> UIns (p', frag)) (path_candidates p)
        @ List.map (fun f' -> UIns (p, f')) (fragment_candidates frag)
    in
    List.filter_map
      (fun st ->
        match ustmt_to_string st with
        | s -> (
          (* Keep only candidates the replay parser accepts verbatim. *)
          match Update.parse s with
          | _ -> Some s
          | exception _ -> None)
        | exception _ -> None)
      rebuilt

(* {1 The generator}

   One draw per property, each consuming the random state exactly as its
   property always has, so a seed keeps naming the same scenarios. *)

let scenario prop doc views stmts =
  { prop; doc; views; stmts; query = None; heavy = None; crash = None }

(* The common draw of the view-set properties: a document, 2–4 views
   over its labels and one bulk statement. *)
let gen_set rnd prop =
  let doc = Qgen.random_document ~profile rnd in
  let labels = doc_labels doc in
  let views = gen_views rnd ~labels (2 + Random.State.int rnd 3) in
  let stmt = gen_update rnd ~labels ~root_label:doc.Xml_tree.name in
  (labels, scenario prop doc views [ stmt ])

(* A query over the drawn view set: verbatim view, weakened derivative,
   split legs planted as extra views, or unrelated. *)
let gen_answer rnd ~labels s =
  let views = Array.of_list s.views in
  let pick_view () = views.(Random.State.int rnd (Array.length views)) in
  let fresh_query () = Pattern.compile ~name:"q" (gen_vnode rnd ~labels 2) in
  let s, q =
    match Random.State.int rnd 4 with
    | 0 ->
      (* Verbatim view: an exact single-view rewriting must exist. *)
      (s, Pattern.rename (pick_view ()) "q")
    | 1 ->
      (* Derivative of a view: weakened annotations still rewrite (with
         payload stripping); dropped subtrees force the fallback. *)
      let v = pick_view () in
      let q =
        match view_variants v with
        | [] -> v
        | vs -> Qgen.pick rnd (Array.of_list vs)
      in
      (s, Pattern.rename q "q")
    | 2 ->
      (* Plant the two legs of a split as extra views so an intersection
         rewriting exists for a query matching no single view. *)
      let q = fresh_query () in
      if Pattern.node_count q < 2 then (s, q)
      else begin
        let split = 1 + Random.State.int rnd (Pattern.node_count q - 1) in
        let k = List.length s.views in
        let top = Pattern.prune q split ~name:(view_name k) in
        let bottom = Pattern.subpattern q split ~name:(view_name (k + 1)) in
        ({ s with views = s.views @ [ top; bottom ] }, q)
      end
    | _ ->
      (* Unrelated query: usually the fallback, sometimes an accidental
         rewriting. *)
      (s, fresh_query ())
  in
  { s with query = Some q }

let gen prop rnd =
  match prop with
  | Engines ->
    let doc = Qgen.random_document ~profile rnd in
    let labels = doc_labels doc in
    let views = gen_views rnd ~labels 1 in
    scenario Engines doc views [ gen_update rnd ~labels ~root_label:doc.Xml_tree.name ]
  | Batch -> snd (gen_set rnd Batch)
  | Serve ->
    let labels, s = gen_set rnd Serve in
    let extra =
      List.init
        (1 + Random.State.int rnd 4)
        (fun _ -> gen_update rnd ~labels ~root_label:s.doc.Xml_tree.name)
    in
    { s with stmts = s.stmts @ extra }
  | Recover ->
    let labels, s = gen_set rnd Recover in
    let extra =
      List.init
        (2 + Random.State.int rnd 5)
        (fun _ -> gen_journal_stmt rnd ~labels ~root_label:s.doc.Xml_tree.name)
    in
    let stmts = s.stmts @ extra in
    let n = List.length stmts in
    let crash_after = Random.State.int rnd (n + 1) in
    let checkpoint_at =
      if Random.State.bool rnd then Some (Random.State.int rnd (crash_after + 1))
      else None
    in
    let unsynced_tail = crash_after < n && Random.State.int rnd 3 = 0 in
    { s with stmts; crash = Some { crash_after; checkpoint_at; unsynced_tail } }
  | Answer ->
    let labels, s = gen_set rnd Answer in
    gen_answer rnd ~labels s
  | Heavy ->
    let doc =
      if Random.State.bool rnd then Qgen.skewed_document ~profile rnd
      else Qgen.random_document ~profile rnd
    in
    let labels = doc_labels doc in
    let k = 2 + Random.State.int rnd 3 in
    let views = gen_views rnd ~labels k in
    let nstmts = 2 + Random.State.int rnd 6 in
    let stmts =
      List.init nstmts (fun _ ->
          gen_journal_stmt rnd ~labels ~root_label:doc.Xml_tree.name)
    in
    let reads =
      List.concat
        (List.mapi
           (fun i _ ->
             if Random.State.int rnd 3 = 0 then
               [ (i, if Random.State.bool rnd then -1 else Random.State.int rnd k) ]
             else [])
           stmts)
    in
    (* Deliberately tiny thresholds, so rebalance storms and drains fire
       constantly. Drawn tail budget first: the order in which the
       earlier record literal evaluated them, so seeds keep naming the
       same scenarios. *)
    let tail_budget = 1 + Random.State.int rnd 8 in
    let drain_budget = 1 + Random.State.int rnd 16 in
    let heavy_fanout = 1 + Random.State.int rnd 6 in
    let heavy_count = 1 + Random.State.int rnd 16 in
    {
      (scenario Heavy doc views stmts) with
      heavy = Some { reads; heavy_count; heavy_fanout; drain_budget; tail_budget };
    }

(* {1 The properties} *)

let build_set s =
  let store = Store.of_document (Xml_tree.copy s.doc) in
  let set = View_set.create store in
  List.iter (fun pat -> ignore (View_set.add set pat)) s.views;
  set

(* {2 Engines}

   The paper's claim: Maint (the paper's algorithms) and Ivma (the
   node-at-a-time competitor) leave the view equal, tuple for tuple, to
   Recompute — projected IDs, derivation counts and val/cont payloads.
   An exception escaping an engine is a failure too. *)

let check_engines ?(engines = default_engines) s =
  match engines with
  | [] | [ _ ] -> invalid_arg "Difftest.check: need at least two engines"
  | reference :: others -> (
    let view = List.hd s.views and stmt = List.hd s.stmts in
    let run_engine e =
      (* Fresh parse and fresh document copy per engine: no shared
         mutable state between the runs being compared. *)
      match e.eval (Xml_tree.copy s.doc) view (Update.parse stmt) with
      | mv -> Ok mv
      | exception exn -> Error ("escaped exception: " ^ Printexc.to_string exn)
    in
    let versus e msg = Some (Printf.sprintf "%s vs %s: %s" e.ename reference.ename msg) in
    match run_engine reference with
    | Error msg -> versus reference msg
    | Ok ref_mv ->
      List.find_map
        (fun e ->
          match run_engine e with
          | Error msg -> versus e msg
          | Ok mv -> (
            match Recompute.diff mv ref_mv with None -> None | Some d -> versus e d))
        others)

(* {2 Batch}

   A 2–4-view set over one store, maintained in one [View_set.update]
   call — shared update-region index, relevance skipping, hoisted
   commit — must be tuple-for-tuple identical to one-by-one [Maint]
   propagation of the same statement on a fresh store per view. *)

let check_batch s =
  let stmt = List.hd s.stmts in
  try
    let batched = View_set.update (build_set s) (Update.parse stmt) in
    let mismatch = ref None in
    (* One-by-one propagation on a fresh store per view: the oracle. *)
    List.iteri
      (fun i ((mv, _), pat) ->
        if !mismatch = None then
          let omv = maint_engine.eval (Xml_tree.copy s.doc) pat (Update.parse stmt) in
          match Recompute.diff mv omv with
          | None -> ()
          | Some d ->
            mismatch :=
              Some
                (Printf.sprintf "view %d (%s): batched vs one-by-one: %s" i
                   (Pattern.to_string pat) d))
      (List.combine batched s.views);
    !mismatch
  with exn -> Some ("escaped exception: " ^ Printexc.to_string exn)

(* {2 Serve}

   The serving loop's correctness claim is stronger than batch
   equivalence: a reader loading published snapshots *while* the writer
   is applying statements must only ever observe committed epochs, and
   every observed epoch must be bit-identical to a sequential replay of
   exactly the statements it claims to contain. A torn epoch — a
   snapshot taken mid-commit, a stale view shared when it actually
   changed, a lost statement — shows up as a tuple-level diff against
   the replay oracle. The server runs on the calling domain with
   [max_batch = 2], forcing multi-epoch runs, while a submitter domain
   feeds it and a reader domain polls. *)

let check_serve s =
  let n = List.length s.stmts in
  let at ~epoch ~applied detail =
    Some
      (Printf.sprintf "epoch %d (applied %d of %d statements): %s" epoch applied n
         detail)
  in
  try
    let stmts = List.map Update.parse s.stmts in
    let server = Server.create ~max_batch:2 (build_set s) in
    let stop_reader = Atomic.make false in
    (* The concurrent reader: poll the published snapshot, keep the
       first observation of every epoch, in observation order. *)
    let reader =
      Domain.spawn (fun () ->
          let seen = Hashtbl.create 16 in
          let acc = ref [] in
          while not (Atomic.get stop_reader) do
            let snap = Server.snapshot server in
            if not (Hashtbl.mem seen snap.Snapshot.epoch) then begin
              Hashtbl.add seen snap.Snapshot.epoch ();
              acc := snap :: !acc
            end;
            Domain.cpu_relax ()
          done;
          List.rev !acc)
    in
    let submitter =
      Domain.spawn (fun () ->
          List.iter (fun u -> ignore (Server.submit server u)) stmts;
          Server.stop server)
    in
    Server.run server;
    Domain.join submitter;
    Atomic.set stop_reader true;
    let observed = Domain.join reader in
    let final = Server.snapshot server in
    let observed =
      if
        List.exists (fun o -> o.Snapshot.epoch = final.Snapshot.epoch) observed
      then observed
      else observed @ [ final ]
    in
    (* Observation order must respect publication order. *)
    let monotone =
      let rec go = function
        | a :: (b :: _ as rest) ->
          if a.Snapshot.epoch < b.Snapshot.epoch
             && a.Snapshot.applied <= b.Snapshot.applied
          then go rest
          else
            at ~epoch:b.Snapshot.epoch ~applied:b.Snapshot.applied
              (Printf.sprintf "non-monotone observation after epoch %d (applied %d)"
                 a.Snapshot.epoch a.Snapshot.applied)
        | _ -> None
      in
      go observed
    in
    if monotone <> None then monotone
    else if final.Snapshot.applied <> n then
      at ~epoch:final.Snapshot.epoch ~applied:final.Snapshot.applied
        "statements lost: final epoch misses admitted statements"
    else
      (* Every observed epoch must equal a sequential replay of exactly
         the statements it claims to contain. *)
      List.find_map
        (fun o ->
          let oset = build_set s in
          List.iteri
            (fun i stmt ->
              if i < o.Snapshot.applied then
                ignore (View_set.update oset (Update.parse stmt)))
            s.stmts;
          let oracle = Snapshot.initial oset in
          let pairs = Array.combine o.Snapshot.views oracle.Snapshot.views in
          Array.fold_left
            (fun acc (got, want) ->
              match acc with
              | Some _ -> acc
              | None -> (
                match Snapshot.view_diff got want with
                | None -> None
                | Some d ->
                  at ~epoch:o.Snapshot.epoch ~applied:o.Snapshot.applied
                    (Printf.sprintf "view %s: %s" got.Snapshot.v_name d)))
            None pairs)
        observed
  with exn ->
    at ~epoch:(-1) ~applied:(-1) ("escaped exception: " ^ Printexc.to_string exn)

(* {2 Recover}

   The durability claim: killing the process at any synced statement
   boundary and recovering from the last checkpoint plus the log yields
   a state tuple-for-tuple identical to a run that was never
   interrupted. The durable engine is killed after [crash_after]
   statements (optionally with one more statement journaled but never
   synced — which a real crash loses, and so must recovery), recovered
   into the same directory, and compared — every view, then the
   document — against an uninterrupted sequential oracle. The surviving
   engine then finishes the statement sequence and is killed and
   recovered a second time, proving that appends resume contiguously
   into a recovered log. *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let with_tmp_dir f =
  let path = Filename.temp_file "xvm-recover" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  Fun.protect ~finally:(fun () -> rm_rf path) (fun () -> f path)

(* Tuple-for-tuple: every view payload included, then the document. *)
let diff_view_sets got want =
  let gs = Snapshot.initial got and ws = Snapshot.initial want in
  if Array.length gs.Snapshot.views <> Array.length ws.Snapshot.views then
    Some "view count differs"
  else begin
    let r = ref None in
    Array.iter2
      (fun g w ->
        if !r = None then
          match Snapshot.view_diff g w with
          | Some d -> r := Some (Printf.sprintf "view %s: %s" g.Snapshot.v_name d)
          | None -> ())
      gs.Snapshot.views ws.Snapshot.views;
    if
      !r = None
      && not
           (Xml_tree.equal
              (Store.root (View_set.store got))
              (Store.root (View_set.store want)))
    then r := Some "recovered document differs from the oracle document";
    !r
  end

let check_recover s c =
  let fail detail = Some detail in
  try
    with_tmp_dir @@ fun dir ->
    let stmts = Array.of_list s.stmts in
    let n = Array.length stmts in
    let crash_at = c.crash_after in
    (* The durable run: journal (via the installed hook), apply, sync at
       each statement boundary, checkpoint where the scenario says, kill. *)
    let set = build_set s in
    let d = Durable.init ~dir set in
    for i = 0 to crash_at - 1 do
      ignore (View_set.update set (Update.parse stmts.(i)));
      Durable.sync d;
      if c.checkpoint_at = Some (i + 1) then Durable.checkpoint d set
    done;
    if c.unsynced_tail then
      (* Journaled and applied in memory, but never synced: a real kill
         loses this statement, and recovery must agree that it did. *)
      ignore (View_set.update set (Update.parse stmts.(crash_at)));
    Durable.crash d;
    let parse_pattern ~name s = view_of_compact ~name s in
    (* Checkpoint at 0 (or at a boundary where nothing was journaled
       since) is a no-op: generation 0 from [init] already covers it. *)
    let expect_ck =
      match c.checkpoint_at with Some k when k >= 1 -> k | _ -> 0
    in
    match Durable.recover ~dir ~parse_pattern () with
    | None -> fail "no manifest found after the crash"
    | Some o ->
      if o.Durable.ck_seq <> expect_ck then
        fail
          (Printf.sprintf "recovered from checkpoint %d, expected %d"
             o.Durable.ck_seq expect_ck)
      else if o.Durable.replayed <> crash_at - expect_ck then
        fail
          (Printf.sprintf "replayed %d statements, expected %d"
             o.Durable.replayed (crash_at - expect_ck))
      else if o.Durable.skipped <> 0 then
        fail
          (Printf.sprintf "%d already-covered records survived segment GC"
             o.Durable.skipped)
      else if o.Durable.truncated <> [] then
        fail
          (Printf.sprintf "clean log reported damage: %s"
             (String.concat "; "
                (List.map
                   (fun (f, dmg) -> f ^ ": " ^ Wal.damage_to_string dmg)
                   o.Durable.truncated)))
      else if o.Durable.rebuilt_views <> [] then
        fail
          (Printf.sprintf "intact images reported corrupt: %s"
             (String.concat ", " o.Durable.rebuilt_views))
      else begin
        (* The oracle: the same prefix applied sequentially, never
           interrupted. *)
        let oset = build_set s in
        for i = 0 to crash_at - 1 do
          ignore (View_set.update oset (Update.parse stmts.(i)))
        done;
        match diff_view_sets o.Durable.set oset with
        | Some m -> fail ("after first recovery: " ^ m)
        | None -> (
          (* Finish the sequence on the recovered engine — appends must
             resume contiguously in the recovered segment — then kill
             and recover once more. *)
          let d2 = o.Durable.engine in
          for i = crash_at to n - 1 do
            ignore (View_set.update o.Durable.set (Update.parse stmts.(i)));
            Durable.sync d2
          done;
          Durable.crash d2;
          match Durable.recover ~dir ~parse_pattern () with
          | None -> fail "no manifest found on second recovery"
          | Some o2 ->
            if o2.Durable.replayed <> n - expect_ck then
              fail
                (Printf.sprintf
                   "second recovery replayed %d statements, expected %d"
                   o2.Durable.replayed (n - expect_ck))
            else if o2.Durable.truncated <> [] then
              fail "second recovery reported damage in a clean log"
            else begin
              for i = crash_at to n - 1 do
                ignore (View_set.update oset (Update.parse stmts.(i)))
              done;
              let r =
                match diff_view_sets o2.Durable.set oset with
                | Some m -> fail ("after second recovery: " ^ m)
                | None -> None
              in
              Durable.close o2.Durable.engine;
              r
            end)
      end
  with exn -> fail ("escaped exception: " ^ Printexc.to_string exn)

(* {2 Answer}

   The rewriting planner's claim: a query answered from the materialized
   view set — single-view with compensations, two-view intersection, or
   base fallback — is tuple-for-tuple equal (cells, payloads, derivation
   counts) to independent brute-force evaluation over the document, both
   before and after a maintenance round. The brute side goes through
   [Embed], not the algebraic evaluator, so the comparison also
   re-validates the view contents the rewriting consumed. *)

(* Brute-force query evaluation: enumerate embeddings, project stored
   nodes, compute payloads straight off the document. *)
let brute_rows store (pat : Pattern.t) =
  let stored = Pattern.stored_nodes pat in
  (* After a root deletion the store's tree handle dangles (cf.
     [Update.targets]); the document is empty, so no embeddings. *)
  if not (Store.mem store (Store.root store)) then []
  else
    Embed.embeddings store pat
  |> List.map (fun (binding : Dewey.t array) ->
         {
           Answer.count = 1;
           cells =
             stored
             |> List.map (fun s ->
                    let id = binding.(s) in
                    let a = pat.Pattern.annots.(s) in
                    let node =
                      match Store.node_of store id with
                      | Some nd -> nd
                      | None -> failwith "brute_rows: dangling identifier"
                    in
                    ( id,
                      (if a.Pattern.store_val then
                         Some (Xml_tree.string_value node)
                       else None),
                      if a.Pattern.store_cont then Some (Xml_tree.serialize node)
                      else None ))
             |> Array.of_list;
         })
  |> Answer.canonical

let check_answer s query =
  let detail = ref None in
  let note phase msg =
    if !detail = None then detail := Some (phase ^ ": " ^ msg)
  in
  (try
     let set = build_set s in
     let store = View_set.store set in
     let sources = List.map Answer.source_of_mview (View_set.views set) in
     let compare_now phase =
       let want = brute_rows store query in
       match Answer.answer ~store ~sources query with
       | None -> note phase "no plan and no fallback (unreachable with a store)"
       | Some (plan, got) -> (
         match Answer.diff ~expect:want ~got with
         | None -> ()
         | Some d -> note phase (Printf.sprintf "[%s] %s" (Answer.describe plan) d))
     in
     compare_now "before update";
     if !detail = None then begin
       ignore (View_set.update set (Update.parse (List.hd s.stmts)));
       compare_now "after update"
     end
   with exn -> note "check" ("escaped exception: " ^ Printexc.to_string exn));
  !detail

(* {2 Heavy}

   Adaptive (heavy-light partitioned) maintenance claims observational
   equivalence with eager maintenance: at every read point — after
   draining deferred work — each view is tuple-for-tuple identical to
   its eagerly-maintained twin, whatever mix of partition migrations
   (rebalance storms under deliberately tiny thresholds), budget-forced
   drains, store tail merges and drain-on-read interleavings happened in
   between. One statement sequence runs through two view sets over
   copies of the same document — one with a classifier installed, one
   eager — draining and comparing at the read points (a single view,
   or [-1] for the whole set) and once more at the end, where the
   documents must also serialize identically. *)

let check_heavy s h =
  try
    let aset = build_set s and eset = build_set s in
    let cfg =
      {
        Hl.default_config with
        Hl.heavy_count = h.heavy_count;
        Hl.heavy_fanout = h.heavy_fanout;
        Hl.drain_budget = h.drain_budget;
        Hl.tail_budget = h.tail_budget;
      }
    in
    View_set.set_adaptive aset
      (Some (Hl.create ~config:cfg (View_set.store aset)));
    let mismatch = ref None in
    let note msg = if !mismatch = None then mismatch := Some msg in
    let compare_view ~at i =
      if !mismatch = None then
        let amv = List.nth (View_set.views aset) i in
        let emv = List.nth (View_set.views eset) i in
        match Recompute.diff amv emv with
        | None -> ()
        | Some d ->
          note
            (Printf.sprintf "after statement %d, view %d (%s): %s" at i
               (Pattern.to_string (List.nth s.views i))
               d)
    in
    let nviews = List.length s.views in
    let read ~at which =
      if which < 0 then begin
        ignore (View_set.drain_all aset);
        for i = 0 to nviews - 1 do
          compare_view ~at i
        done
      end
      else begin
        (* Drain exactly one view: the others may legitimately stay
           stale, so only the drained one is compared. *)
        ignore (View_set.drain_view aset (List.nth s.views which).Pattern.name);
        compare_view ~at which
      end
    in
    List.iteri
      (fun i stmt ->
        if !mismatch = None then begin
          let u = Update.parse stmt in
          ignore (View_set.update aset u);
          ignore (View_set.update eset u);
          List.iter
            (fun (ri, which) ->
              if ri = i && !mismatch = None then read ~at:i which)
            h.reads
        end)
      s.stmts;
    if !mismatch = None then begin
      read ~at:(List.length s.stmts - 1) (-1);
      if !mismatch = None then begin
        (match View_set.stale aset with
        | [] -> ()
        | l ->
          note
            (Printf.sprintf "stale views survived drain_all: %s"
               (String.concat ", " l)));
        let adoc = Xml_tree.serialize (Store.root (View_set.store aset)) in
        let edoc = Xml_tree.serialize (Store.root (View_set.store eset)) in
        if adoc <> edoc then note "documents diverged between the two engines"
      end
    end;
    !mismatch
  with exn -> Some ("escaped exception: " ^ Printexc.to_string exn)

(* {1 The checker} *)

let check_property ?engines s =
  match (s.prop, s.query, s.heavy, s.crash) with
  | Engines, _, _, _ -> check_engines ?engines s
  | Batch, _, _, _ -> check_batch s
  | Serve, _, _, _ -> check_serve s
  | Recover, _, _, Some c -> check_recover s c
  | Answer, Some q, _, _ -> check_answer s q
  | Heavy, _, Some h, _ -> check_heavy s h
  | (Recover | Answer | Heavy), _, _, _ ->
    invalid_arg
      ("Difftest.check: " ^ property_name s.prop ^ " scenario without its fields")

(* Engines scenarios run under an [Obs] snapshot: a failure carries the
   work profile of its counterexample (so a shrunk reproducer also
   reproduces the work), and agreeing runs still yield a deterministic
   per-scenario profile for replay-equality tests. *)
let check ?engines s =
  let failure work detail = { cx = s; detail; work } in
  if s.prop = Engines then
    let d, snap = Obs.with_scope (fun () -> check_property ?engines s) in
    Option.map (fun detail -> failure (Obs.nonzero_counters snap) detail) d
  else Option.map (failure []) (check_property ?engines s)

let work_profile ?engines s =
  let _, snap = Obs.with_scope (fun () -> ignore (check_property ?engines s)) in
  Obs.nonzero_counters snap

(* {1 Reproducers}

   [xvmdt2|PROP|K|LEN:VIEW…|N|LEN:STMT…|LEN:QUERY|LEN:HEAVY|LEN:CRASH|LEN:DOC]:
   the property tag, K views in the compact pattern syntax, N
   statements, the three optional field groups (empty when absent) and
   the document. HEAVY is [count,fanout,budget,tail;stmt/view,…], CRASH
   is [after,checkpoint or -,unsynced 0 or 1]. *)

let repro_version = "xvmdt2"

let heavy_to_string h =
  Printf.sprintf "%d,%d,%d,%d;%s" h.heavy_count h.heavy_fanout h.drain_budget
    h.tail_budget
    (String.concat "," (List.map (fun (i, w) -> Printf.sprintf "%d/%d" i w) h.reads))

let crash_to_string c =
  Printf.sprintf "%d,%s,%d" c.crash_after
    (match c.checkpoint_at with None -> "-" | Some k -> string_of_int k)
    (if c.unsynced_tail then 1 else 0)

let to_repro s =
  let part x = Printf.sprintf "%d:%s" (String.length x) x in
  let group f = function None -> part "" | Some g -> part (f g) in
  String.concat "|"
    ([ repro_version; property_name s.prop; string_of_int (List.length s.views) ]
    @ List.map (fun v -> part (Pattern.to_string v)) s.views
    @ (string_of_int (List.length s.stmts) :: List.map part s.stmts)
    @ [
        group Pattern.to_string s.query;
        group heavy_to_string s.heavy;
        group crash_to_string s.crash;
        part (Xml_tree.serialize s.doc);
      ])

let of_repro s =
  let fail msg = invalid_arg ("Difftest.of_repro: " ^ msg) in
  let n = String.length s in
  let has_prefix p = n >= String.length p && String.sub s 0 (String.length p) = p in
  if not (has_prefix (repro_version ^ "|")) then
    fail
      (if has_prefix "xvmdt" then
         "reproducer of an older format; only " ^ repro_version
         ^ " is read (re-run the property to print one)"
       else "expected the " ^ repro_version ^ "| prefix");
  let pos = ref (String.length repro_version + 1) in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %C at offset %d" c !pos)
  in
  let token () =
    let st = !pos in
    while !pos < n && s.[!pos] <> '|' && s.[!pos] <> ':' do
      incr pos
    done;
    String.sub s st (!pos - st)
  in
  let int_of str =
    (* Plain decimal only: [int_of_string] would also take "0x1" or "1_0". *)
    let plain ch = ch = '-' || (ch >= '0' && ch <= '9') in
    match int_of_string_opt str with
    | Some v when String.for_all plain str -> v
    | _ -> fail (Printf.sprintf "bad number %S" str)
  in
  let part () =
    let len = int_of (token ()) in
    expect ':';
    if len < 0 || len > n - !pos then fail "length past the end of the reproducer";
    let r = String.sub s !pos len in
    pos := !pos + len;
    r
  in
  let next_part () =
    expect '|';
    part ()
  in
  let in_range what lo hi v =
    if v < lo || v > hi then fail (Printf.sprintf "%s %d outside [%d, %d]" what v lo hi)
  in
  let pname = token () in
  let prop =
    match List.assoc_opt pname properties with
    | Some p -> p
    | None -> fail (Printf.sprintf "unknown property %S" pname)
  in
  expect '|';
  let k = int_of (token ()) in
  in_range "view count" 1 (if prop = Engines then 1 else 64) k;
  let view_strs = List.init k (fun _ -> next_part ()) in
  expect '|';
  let m = int_of (token ()) in
  in_range "statement count" 1 (match prop with Engines | Batch | Answer -> 1 | _ -> 256) m;
  let stmts = List.init m (fun _ -> next_part ()) in
  let query_s = next_part () in
  let heavy_s = next_part () in
  let crash_s = next_part () in
  let doc_s = next_part () in
  if !pos <> n then fail "trailing input";
  let group name wanted raw parse =
    match (wanted, raw) with
    | false, "" -> None
    | true, "" -> fail (Printf.sprintf "%s scenario without its %s" pname name)
    | false, _ -> fail (Printf.sprintf "%s given for a %s scenario" name pname)
    | true, r -> Some (parse r)
  in
  let ints sep str = List.map int_of (String.split_on_char sep str) in
  let heavy =
    group "heavy fields" (prop = Heavy) heavy_s (fun r ->
        match String.split_on_char ';' r with
        | [ cfg; reads ] ->
          let heavy_count, heavy_fanout, drain_budget, tail_budget =
            match ints ',' cfg with
            | [ a; b; c; d ] -> (a, b, c, d)
            | _ -> fail "heavy fields need four thresholds"
          in
          List.iter (in_range "threshold" 1 max_int)
            [ heavy_count; heavy_fanout; drain_budget; tail_budget ];
          let reads =
            if reads = "" then []
            else
              List.map
                (fun p ->
                  match ints '/' p with
                  | [ i; w ] ->
                    in_range "read statement" 0 (m - 1) i;
                    in_range "read view" (-1) (k - 1) w;
                    (i, w)
                  | _ -> fail (Printf.sprintf "bad read point %S" p))
                (String.split_on_char ',' reads)
          in
          { reads; heavy_count; heavy_fanout; drain_budget; tail_budget }
        | _ -> fail "heavy fields need thresholds;reads")
  in
  let crash =
    group "crash fields" (prop = Recover) crash_s (fun r ->
        match String.split_on_char ',' r with
        | [ after; ck; tail ] ->
          let crash_after = int_of after in
          in_range "crash point" 0 m crash_after;
          let checkpoint_at =
            if ck = "-" then None
            else begin
              let v = int_of ck in
              in_range "checkpoint" 0 crash_after v;
              Some v
            end
          in
          let unsynced_tail =
            match tail with
            | "0" -> false
            | "1" -> true
            | _ -> fail (Printf.sprintf "bad unsynced flag %S" tail)
          in
          if unsynced_tail && crash_after = m then
            fail "an unsynced tail needs a statement after the crash point";
          { crash_after; checkpoint_at; unsynced_tail }
        | _ -> fail "crash fields need after,checkpoint,unsynced")
  in
  let query =
    group "query" (prop = Answer) query_s (view_of_compact ~name:"q")
  in
  let doc =
    try
      List.iter (fun st -> ignore (Update.parse st)) stmts;
      Xml_parse.document doc_s
    with
    | Invalid_argument _ as e -> raise e
    | e -> fail (Printexc.to_string e)
  in
  {
    prop;
    doc;
    views = List.mapi (fun i v -> view_of_compact ~name:(view_name i) v) view_strs;
    stmts;
    query;
    heavy;
    crash;
  }

let shell_quote s =
  "'" ^ String.concat "'\\''" (String.split_on_char '\'' s) ^ "'"

(* {1 Reports} *)

let headline = function
  | Engines -> "maintenance engines disagree"
  | Batch -> "multi-view batch disagreement"
  | Serve -> "serve isolation violation"
  | Recover -> "kill-and-recover disagreement"
  | Answer -> "answer-from-views disagreement"
  | Heavy -> "heavy-light adaptive maintenance disagreement"

let describe f =
  let s = f.cx in
  let b = Buffer.create 512 in
  Buffer.add_string b (headline s.prop);
  let line label v = Printf.bprintf b "\n  %-7s %s" (label ^ ":") v in
  line "views" (String.concat "  ;  " (List.map Pattern.to_string s.views));
  line "statements" (String.concat "  ;  " s.stmts);
  Option.iter (fun q -> line "query" (Pattern.to_string q)) s.query;
  Option.iter
    (fun h ->
      line "thresholds"
        (Printf.sprintf "count %d, fanout %d, drain budget %d, tail budget %d"
           h.heavy_count h.heavy_fanout h.drain_budget h.tail_budget);
      line "reads"
        (if h.reads = [] then "none"
         else
           String.concat ", "
             (List.map
                (fun (i, w) ->
                  if w < 0 then Printf.sprintf "after %d: all" i
                  else Printf.sprintf "after %d: v%d" i w)
                h.reads)))
    s.heavy;
  Option.iter
    (fun c ->
      line "crash"
        (Printf.sprintf "after %d of %d statements, checkpoint at %s%s" c.crash_after
           (List.length s.stmts)
           (match c.checkpoint_at with None -> "-" | Some k -> string_of_int k)
           (if c.unsynced_tail then ", one unsynced statement in flight" else "")))
    s.crash;
  line "doc"
    (Printf.sprintf "%s (%d nodes)"
       (Qgen.abbrev (Xml_tree.serialize s.doc))
       (Xml_tree.size s.doc));
  line "detail" f.detail;
  if f.work <> [] then
    line "work"
      (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) f.work));
  line "replay" ("xvmcli difftest --replay " ^ shell_quote (to_repro s));
  Buffer.contents b

(* {1 The shrinker}

   Candidate families in order: drop a read point, drop a statement
   (remapping read points, crash point and checkpoint), drop a view
   (remapping read points; views are renumbered so the candidate is
   exactly what its reproducer decodes to), then reduce the document,
   one statement, the query, one view. The first candidate that still
   fails is taken and the families are rebuilt from it. *)

let drop_stmt s j =
  (* A statement index or count past [j] moves down by one. *)
  let shift i = if i > j then i - 1 else i in
  let stmts = without_nth s.stmts j in
  {
    s with
    stmts;
    heavy =
      Option.map
        (fun h ->
          {
            h with
            reads =
              List.filter_map
                (fun (i, w) -> if i = j then None else Some (shift i, w))
                h.reads;
          })
        s.heavy;
    crash =
      Option.map
        (fun c ->
          let crash_after = shift c.crash_after in
          {
            crash_after;
            checkpoint_at = Option.map shift c.checkpoint_at;
            unsynced_tail = c.unsynced_tail && crash_after < List.length stmts;
          })
        s.crash;
  }

let drop_view s j =
  {
    s with
    views = renumber (without_nth s.views j);
    heavy =
      Option.map
        (fun h ->
          {
            h with
            reads =
              List.map
                (fun (i, w) -> (i, if w = j then -1 else if w > j then w - 1 else w))
                h.reads;
          })
        s.heavy;
  }

let candidates s =
  let drop_reads =
    match s.heavy with
    | None -> []
    | Some h ->
      List.mapi
        (fun j _ -> { s with heavy = Some { h with reads = without_nth h.reads j } })
        h.reads
  in
  let drops f l = if List.length l > 1 then List.mapi (fun j _ -> f s j) l else [] in
  let each l variants rebuild =
    List.concat (List.mapi (fun j x -> List.map (rebuild j) (variants x)) l)
  in
  List.concat
    [
      drop_reads;
      drops drop_stmt s.stmts;
      drops drop_view s.views;
      List.map (fun d -> { s with doc = d }) (doc_variants s.doc);
      each s.stmts update_variants (fun j u -> { s with stmts = replace_nth s.stmts j u });
      (match s.query with
      | None -> []
      | Some q -> List.map (fun q -> { s with query = Some q }) (view_variants q));
      each s.views view_variants (fun j v -> { s with views = replace_nth s.views j v });
    ]

let shrink ?engines ?(oracle = check ?engines) f =
  let current = ref f in
  let budget = ref 3000 in
  let improved = ref true in
  while !improved && !budget > 0 do
    improved := false;
    (try
       List.iter
         (fun c ->
           if !budget > 0 then begin
             decr budget;
             match oracle c with
             | Some f' ->
               current := f';
               improved := true;
               raise Exit
             | None -> ()
           end)
         (candidates !current.cx)
     with Exit -> ())
  done;
  !current

(* {1 Seeded runs} *)

(* Each property keeps its own seed salt, so [--seed N] draws the same
   scenarios it always has. *)
let salt = function
  | Engines -> 0xd1ff
  | Batch -> 0xd1f5
  | Serve -> 0x5e7e
  | Recover -> 0xc4a5
  | Answer -> 0xa457
  | Heavy -> 0x4ea7

let run ?engines prop ~seed ~iters () =
  let rnd = Random.State.make [| seed; salt prop |] in
  let rc = Qgen.fresh_recorder () in
  for _ = 1 to iters do
    match check ?engines (gen prop rnd) with
    | None -> ()
    | Some f -> Qgen.record rc (describe (shrink ?engines f))
  done;
  Qgen.report_of rc ~iterations:iters
