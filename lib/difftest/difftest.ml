(* Differential maintenance oracle: randomized (document, view, update)
   triples cross-checked through three maintenance engines.

   The generators draw from the [Qgen.plain] vocabulary so that random
   views actually match random documents; the update generator forces
   the degenerate shapes where IVM bugs hide — empty target sets,
   root-adjacent targets, nested/overlapping target subtrees. A failing
   triple is greedily shrunk before being reported: every candidate
   reduction (document subtree dropped or hoisted, view node dropped,
   update step or predicate dropped) strictly shrinks the triple, so
   the loop terminates without an iteration bound, though a budget caps
   pathological cases anyway. *)

let profile = Qgen.plain

type triple = {
  doc : Xml_tree.node;
  view : Pattern.t;
  update : string;
}

let doc_nodes t = Xml_tree.size t.doc

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

(* {1 The oracle} *)

type mismatch = {
  cx : triple;
  left : string;
  right : string;
  detail : string;
  work : (string * int) list;
}

let check0 ?(engines = default_engines) t =
  match engines with
  | [] | [ _ ] -> invalid_arg "Difftest.check: need at least two engines"
  | reference :: others ->
    let run_engine e =
      (* Fresh parse and fresh document copy per engine: no shared
         mutable state between the runs being compared. *)
      match e.eval (Xml_tree.copy t.doc) t.view (Update.parse t.update) with
      | mv -> Ok mv
      | exception exn -> Error (Printexc.to_string exn)
    in
    (match run_engine reference with
    | Error msg ->
      Some
        {
          cx = t;
          left = reference.ename;
          right = reference.ename;
          detail = "escaped exception: " ^ msg;
          work = [];
        }
    | Ok ref_mv ->
      List.fold_left
        (fun acc e ->
          match acc with
          | Some _ -> acc
          | None -> (
            match run_engine e with
            | Error msg ->
              Some
                {
                  cx = t;
                  left = e.ename;
                  right = reference.ename;
                  detail = "escaped exception: " ^ msg;
                  work = [];
                }
            | Ok mv -> (
              match Recompute.diff mv ref_mv with
              | None -> None
              | Some d ->
                Some
                  {
                    cx = t;
                    left = e.ename;
                    right = reference.ename;
                    detail = d;
                    work = [];
                  })))
        None others)

(* Running the comparison under a snapshot serves two purposes: a
   mismatch carries the work profile of its counterexample (so a shrunk
   reproducer also reproduces the work), and agreeing runs still yield a
   deterministic per-triple profile for replay-equality tests. *)
let check ?engines t =
  let res, snap = Obs.with_scope (fun () -> check0 ?engines t) in
  match res with
  | None -> None
  | Some m -> Some { m with work = Obs.nonzero_counters snap }

let work_profile ?engines t =
  let _, snap = Obs.with_scope (fun () -> ignore (check0 ?engines t)) in
  Obs.nonzero_counters snap

(* {1 Generators} *)

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

let gen_view rnd ~labels =
  Pattern.compile ~name:"difftest" (gen_vnode rnd ~labels 2)

(* {2 Updates} *)

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

let gen_triple rnd =
  let doc = Qgen.random_document ~profile rnd in
  let labels = doc_labels doc in
  let view = gen_view rnd ~labels in
  let update = gen_update rnd ~labels ~root_label:doc.Xml_tree.name in
  { doc; view; update }

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

(* {1 Replay} *)

let repro_of_triple t =
  let part s = Printf.sprintf "%d:%s" (String.length s) s in
  String.concat "|"
    [
      "xvmdt1";
      part (Pattern.to_string t.view);
      part t.update;
      part (Xml_tree.serialize t.doc);
    ]

let triple_of_repro s =
  let fail () = invalid_arg "Difftest.triple_of_repro: malformed reproducer" in
  let n = String.length s in
  if not (n > 7 && String.sub s 0 7 = "xvmdt1|") then fail ();
  let pos = ref 7 in
  let expect c = if !pos < n && s.[!pos] = c then incr pos else fail () in
  let part () =
    let st = !pos in
    while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
      incr pos
    done;
    if !pos = st then fail ();
    let len = int_of_string (String.sub s st (!pos - st)) in
    expect ':';
    if !pos + len > n then fail ();
    let r = String.sub s !pos len in
    pos := !pos + len;
    r
  in
  let view_s = part () in
  expect '|';
  let update = part () in
  expect '|';
  let doc_s = part () in
  if !pos <> n then fail ();
  ignore (Update.parse update);
  {
    doc = Xml_parse.document doc_s;
    view = view_of_compact ~name:"replay" view_s;
    update;
  }

let shell_quote s =
  "'" ^ String.concat "'\\''" (String.split_on_char '\'' s) ^ "'"

let replay_command t =
  "xvmcli difftest --replay " ^ shell_quote (repro_of_triple t)

let describe m =
  let t = m.cx in
  let work =
    match m.work with
    | [] -> "(none)"
    | w -> String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) w)
  in
  Printf.sprintf
    "%s vs %s disagree\n\
    \  view:   %s\n\
    \  update: %s\n\
    \  doc:    %s (%d nodes)\n\
    \  first differing tuple: %s\n\
    \  work:   %s\n\
    \  replay: %s"
    m.left m.right (Pattern.to_string t.view) t.update
    (Qgen.abbrev (Xml_tree.serialize t.doc))
    (doc_nodes t) m.detail work (replay_command t)

(* {1 The shrinker} *)

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

(* Canonicalized reduced documents, largest cuts first — shared between
   the single-triple and the view-set shrinkers. *)
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

let doc_candidates t =
  List.map (fun d -> { t with doc = d }) (doc_variants t.doc)

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

let view_candidates t =
  List.map (fun v -> { t with view = v }) (view_variants t.view)

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
            let swap p =
              List.mapi (fun k q -> if k = j then p else q) step.Xpath.preds
            in
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

let update_candidates t =
  List.map (fun u -> { t with update = u }) (update_variants t.update)

let shrink ?(engines = default_engines) m =
  let current = ref m in
  let budget = ref 3000 in
  let improved = ref true in
  while !improved && !budget > 0 do
    improved := false;
    let t = !current.cx in
    let candidates = doc_candidates t @ update_candidates t @ view_candidates t in
    (try
       List.iter
         (fun c ->
           if !budget > 0 then begin
             decr budget;
             match check ~engines c with
             | Some m' ->
               current := m';
               improved := true;
               raise Exit
             | None -> ()
           end)
         candidates
     with Exit -> ())
  done;
  !current

(* {1 Batch runs} *)

let run ?(engines = default_engines) ~seed ~iters () =
  let rnd = Random.State.make [| seed; 0xd1ff |] in
  let rc = Qgen.fresh_recorder () in
  for _ = 1 to iters do
    let t = gen_triple rnd in
    match check ~engines t with
    | None -> ()
    | Some m -> Qgen.record rc (describe (shrink ~engines m))
  done;
  Qgen.report_of rc ~iterations:iters

(* {1 Multi-view sets}

   The batch-maintenance oracle: a random 2–4-view set over one store,
   maintained in one [View_set.update] call — shared update-region index,
   relevance skipping, hoisted commit, optional domain fan-out — must be
   tuple-for-tuple identical to one-by-one [Maint] propagation of the
   same update on a fresh store per view, and [jobs > 1] must be
   bit-identical (tables and non-timing report counters) to [jobs = 1]. *)

type set_triple = {
  sdoc : Xml_tree.node;
  sviews : Pattern.t list;
  supdate : string;
}

type set_mismatch = { scx : set_triple; sdetail : string }

let gen_set_triple rnd =
  let doc = Qgen.random_document ~profile rnd in
  let labels = doc_labels doc in
  let k = 2 + Random.State.int rnd 3 in
  let views =
    List.init k (fun i ->
        Pattern.compile ~name:(Printf.sprintf "v%d" i) (gen_vnode rnd ~labels 2))
  in
  let update = gen_update rnd ~labels ~root_label:doc.Xml_tree.name in
  { sdoc = doc; sviews = views; supdate = update }

(* Everything except the timing floats. *)
let report_sig (r : Maint.report) =
  ( r.Maint.terms_developed,
    r.Maint.terms_surviving,
    r.Maint.embeddings_added,
    r.Maint.embeddings_removed,
    r.Maint.tuples_modified,
    r.Maint.fallback_recompute,
    r.Maint.skipped_irrelevant )

let check_set0 ~jobs t =
  let batched jobs =
    let store = Store.of_document (Xml_tree.copy t.sdoc) in
    let set = View_set.create store in
    List.iter (fun pat -> ignore (View_set.add set pat)) t.sviews;
    View_set.update ~jobs set (Update.parse t.supdate)
  in
  try
    let seq = batched 1 in
    let mismatch = ref None in
    let note i msg =
      if !mismatch = None then
        mismatch := Some (Printf.sprintf "view %d (%s): %s" i
                            (Pattern.to_string (List.nth t.sviews i)) msg)
    in
    (* One-by-one propagation on a fresh store per view: the oracle. *)
    List.iteri
      (fun i ((mv, _), pat) ->
        if !mismatch = None then
          let omv = maint_engine.eval (Xml_tree.copy t.sdoc) pat (Update.parse t.supdate) in
          match Recompute.diff mv omv with
          | None -> ()
          | Some d -> note i ("batched vs one-by-one: " ^ d))
      (List.combine seq t.sviews);
    (* jobs > 1 must be bit-identical to jobs = 1. *)
    if !mismatch = None && jobs > 1 then begin
      let par = batched jobs in
      List.iteri
        (fun i ((mv1, r1), (mv2, r2)) ->
          if !mismatch = None then
            if report_sig r1 <> report_sig r2 then
              note i (Printf.sprintf "jobs=%d report differs from jobs=1" jobs)
            else
              match Recompute.diff mv2 mv1 with
              | None -> ()
              | Some d -> note i (Printf.sprintf "jobs=%d vs jobs=1: %s" jobs d))
        (List.combine seq par)
    end;
    !mismatch
  with exn -> Some ("escaped exception: " ^ Printexc.to_string exn)

let check_set ?(jobs = 2) t =
  Option.map (fun d -> { scx = t; sdetail = d }) (check_set0 ~jobs t)

(* {2 Set replay} *)

let repro_of_set t =
  let part s = Printf.sprintf "%d:%s" (String.length s) s in
  String.concat "|"
    (("xvmdtm1" :: string_of_int (List.length t.sviews)
      :: List.map (fun v -> part (Pattern.to_string v)) t.sviews)
    @ [ part t.supdate; part (Xml_tree.serialize t.sdoc) ])

let set_of_repro s =
  let fail () = invalid_arg "Difftest.set_of_repro: malformed reproducer" in
  let n = String.length s in
  if not (n > 8 && String.sub s 0 8 = "xvmdtm1|") then fail ();
  let pos = ref 8 in
  let expect c = if !pos < n && s.[!pos] = c then incr pos else fail () in
  let number () =
    let st = !pos in
    while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
      incr pos
    done;
    if !pos = st then fail ();
    int_of_string (String.sub s st (!pos - st))
  in
  let part () =
    let len = number () in
    expect ':';
    if !pos + len > n then fail ();
    let r = String.sub s !pos len in
    pos := !pos + len;
    r
  in
  let k = number () in
  if k < 1 || k > 64 then fail ();
  let views =
    List.init k (fun i ->
        expect '|';
        view_of_compact ~name:(Printf.sprintf "v%d" i) (part ()))
  in
  expect '|';
  let update = part () in
  expect '|';
  let doc_s = part () in
  if !pos <> n then fail ();
  ignore (Update.parse update);
  { sdoc = Xml_parse.document doc_s; sviews = views; supdate = update }

let describe_set m =
  let t = m.scx in
  Printf.sprintf
    "multi-view batch disagreement\n\
    \  views:  %s\n\
    \  update: %s\n\
    \  doc:    %s (%d nodes)\n\
    \  detail: %s\n\
    \  replay: xvmcli difftest --replay %s"
    (String.concat "  ;  " (List.map Pattern.to_string t.sviews))
    t.supdate
    (Qgen.abbrev (Xml_tree.serialize t.sdoc))
    (Xml_tree.size t.sdoc) m.sdetail
    (shell_quote (repro_of_set t))

(* {2 Set shrinking: drop whole views first, then the document, the
   update, and finally nodes inside the surviving views.} *)

let shrink_set ?(jobs = 2) m =
  let current = ref m in
  let budget = ref 2000 in
  let improved = ref true in
  while !improved && !budget > 0 do
    improved := false;
    let t = !current.scx in
    let replace_view i v =
      { t with sviews = List.mapi (fun k q -> if k = i then v else q) t.sviews }
    in
    let drop_views =
      if List.length t.sviews > 1 then
        List.mapi (fun i _ -> { t with sviews = without_nth t.sviews i }) t.sviews
      else []
    in
    let docs =
      List.map (fun d -> { t with sdoc = d }) (doc_variants t.sdoc)
    in
    let updates =
      List.map (fun u -> { t with supdate = u }) (update_variants t.supdate)
    in
    let view_shrinks =
      List.concat
        (List.mapi
           (fun i pat -> List.map (replace_view i) (view_variants pat))
           t.sviews)
    in
    let candidates = drop_views @ docs @ updates @ view_shrinks in
    (try
       List.iter
         (fun c ->
           if !budget > 0 then begin
             decr budget;
             match check_set ~jobs c with
             | Some m' ->
               current := m';
               improved := true;
               raise Exit
             | None -> ()
           end)
         candidates
     with Exit -> ())
  done;
  !current

let run_sets ?(jobs = 2) ~seed ~iters () =
  let rnd = Random.State.make [| seed; 0xd1f5 |] in
  let rc = Qgen.fresh_recorder () in
  for _ = 1 to iters do
    let t = gen_set_triple rnd in
    match check_set ~jobs t with
    | None -> ()
    | Some m -> Qgen.record rc (describe_set (shrink_set ~jobs m))
  done;
  Qgen.report_of rc ~iterations:iters

(* {1 Serve snapshot-isolation oracle}

   The serving loop's correctness claim is stronger than batch
   equivalence: a reader loading published snapshots *while* the writer
   is applying statements must only ever observe committed epochs, and
   every observed epoch must be bit-identical to a sequential replay of
   exactly the statements it claims to contain. A torn epoch — a
   snapshot taken mid-commit, a stale view shared when it actually
   changed, a lost statement — shows up as a tuple-level diff against
   the replay oracle. *)

type serve_case = { sc_set : set_triple; sc_stmts : string list }

let gen_serve_case rnd =
  let t = gen_set_triple rnd in
  let labels = doc_labels t.sdoc in
  let extra =
    List.init
      (1 + Random.State.int rnd 4)
      (fun _ -> gen_update rnd ~labels ~root_label:t.sdoc.Xml_tree.name)
  in
  { sc_set = t; sc_stmts = t.supdate :: extra }

let build_serve_set t =
  let store = Store.of_document (Xml_tree.copy t.sdoc) in
  let set = View_set.create store in
  List.iter (fun pat -> ignore (View_set.add set pat)) t.sviews;
  set

let describe_serve c ~epoch ~applied ~detail =
  Printf.sprintf
    "serve isolation violation\n\
    \  epoch %d (applied %d of %d statements): %s\n\
    \  views:  %s\n\
    \  statements: %s\n\
    \  doc:    %s (%d nodes)\n\
    \  set replay (first statement): xvmcli difftest --replay %s"
    epoch applied (List.length c.sc_stmts) detail
    (String.concat "  ;  " (List.map Pattern.to_string c.sc_set.sviews))
    (String.concat "  ;  " c.sc_stmts)
    (Qgen.abbrev (Xml_tree.serialize c.sc_set.sdoc))
    (Xml_tree.size c.sc_set.sdoc)
    (shell_quote (repro_of_set c.sc_set))

let check_serve ?(jobs = 1) c =
  try
    let stmts = List.map Update.parse c.sc_stmts in
    let server = Server.create ~jobs ~max_batch:2 (build_serve_set c.sc_set) in
    let stop_reader = Atomic.make false in
    (* The concurrent reader: poll the published snapshot, keep the
       first observation of every epoch, in observation order. *)
    let reader =
      Domain.spawn (fun () ->
          let seen = Hashtbl.create 16 in
          let acc = ref [] in
          while not (Atomic.get stop_reader) do
            let s = Server.snapshot server in
            if not (Hashtbl.mem seen s.Snapshot.epoch) then begin
              Hashtbl.add seen s.Snapshot.epoch ();
              acc := s :: !acc
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
        List.exists (fun s -> s.Snapshot.epoch = final.Snapshot.epoch) observed
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
            Some
              (describe_serve c ~epoch:b.Snapshot.epoch
                 ~applied:b.Snapshot.applied
                 ~detail:
                   (Printf.sprintf
                      "non-monotone observation after epoch %d (applied %d)"
                      a.Snapshot.epoch a.Snapshot.applied))
        | _ -> None
      in
      go observed
    in
    if monotone <> None then monotone
    else if final.Snapshot.applied <> List.length stmts then
      Some
        (describe_serve c ~epoch:final.Snapshot.epoch
           ~applied:final.Snapshot.applied
           ~detail:"statements lost: final epoch misses admitted statements")
    else
      (* Every observed epoch must equal a sequential replay of exactly
         the statements it claims to contain. *)
      List.find_map
        (fun s ->
          let oset = build_serve_set c.sc_set in
          List.iteri
            (fun i stmt ->
              if i < s.Snapshot.applied then
                ignore (View_set.update oset (Update.parse stmt)))
            c.sc_stmts;
          let oracle = Snapshot.initial oset in
          let pairs =
            Array.combine s.Snapshot.views oracle.Snapshot.views
          in
          Array.fold_left
            (fun acc (got, want) ->
              match acc with
              | Some _ -> acc
              | None -> (
                match Snapshot.view_diff got want with
                | None -> None
                | Some d ->
                  Some
                    (describe_serve c ~epoch:s.Snapshot.epoch
                       ~applied:s.Snapshot.applied
                       ~detail:
                         (Printf.sprintf "view %s: %s" got.Snapshot.v_name d))))
            None pairs)
        observed
  with exn ->
    Some
      (describe_serve c ~epoch:(-1) ~applied:(-1)
         ~detail:("escaped exception: " ^ Printexc.to_string exn))

let run_serve ?(jobs = 1) ~seed ~iters () =
  let rnd = Random.State.make [| seed; 0x5e7e |] in
  let rc = Qgen.fresh_recorder () in
  for _ = 1 to iters do
    let c = gen_serve_case rnd in
    match check_serve ~jobs c with
    | None -> ()
    | Some msg -> Qgen.record rc msg
  done;
  Qgen.report_of rc ~iterations:iters

(* {1 Kill-and-recover durability oracle}

   The durability claim: killing the process at any synced statement
   boundary and recovering from the last checkpoint plus the log yields
   a state tuple-for-tuple identical to a run that was never
   interrupted. Each case runs a random view set through the durable
   engine, kills it after a seeded number of statements (optionally with
   an extra statement journaled but never synced — which a real crash
   loses, and so must recovery), recovers into the same directory, and
   compares every view and the document against an uninterrupted
   sequential oracle. The surviving engine then finishes the statement
   sequence and is killed and recovered a second time, proving that
   appends resume contiguously into a recovered log. *)

type recover_case = {
  rc_set : set_triple;
  rc_stmts : string list;
  rc_crash_after : int;
  rc_checkpoint_at : int option;
  rc_unsynced_tail : bool;
}

(* The journal persists [Update.to_string] renderings, so the recovery
   oracle must draw from every journalable statement form — not just the
   delete/insert-into mix of [gen_update]. *)
let gen_recover_stmt rnd ~labels ~root_label =
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

let gen_recover_case rnd =
  let t = gen_set_triple rnd in
  let labels = doc_labels t.sdoc in
  let extra =
    List.init
      (2 + Random.State.int rnd 5)
      (fun _ -> gen_recover_stmt rnd ~labels ~root_label:t.sdoc.Xml_tree.name)
  in
  let stmts = t.supdate :: extra in
  let n = List.length stmts in
  let crash_after = Random.State.int rnd (n + 1) in
  let checkpoint_at =
    if Random.State.bool rnd then Some (Random.State.int rnd (crash_after + 1))
    else None
  in
  {
    rc_set = t;
    rc_stmts = stmts;
    rc_crash_after = crash_after;
    rc_checkpoint_at = checkpoint_at;
    rc_unsynced_tail = crash_after < n && Random.State.int rnd 3 = 0;
  }

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

let describe_recover c ~detail =
  Printf.sprintf
    "kill-and-recover disagreement\n\
    \  crash after %d of %d statements, checkpoint at %s%s\n\
    \  detail: %s\n\
    \  views:  %s\n\
    \  statements: %s\n\
    \  doc:    %s (%d nodes)\n\
    \  set replay (first statement): xvmcli difftest --replay %s"
    c.rc_crash_after
    (List.length c.rc_stmts)
    (match c.rc_checkpoint_at with None -> "-" | Some k -> string_of_int k)
    (if c.rc_unsynced_tail then ", one unsynced statement in flight" else "")
    detail
    (String.concat "  ;  " (List.map Pattern.to_string c.rc_set.sviews))
    (String.concat "  ;  " c.rc_stmts)
    (Qgen.abbrev (Xml_tree.serialize c.rc_set.sdoc))
    (Xml_tree.size c.rc_set.sdoc)
    (shell_quote (repro_of_set c.rc_set))

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

let check_recover ?(jobs = 1) c =
  let fail detail = Some (describe_recover c ~detail) in
  try
    with_tmp_dir @@ fun dir ->
    let stmts = Array.of_list c.rc_stmts in
    let n = Array.length stmts in
    let crash_at = c.rc_crash_after in
    (* The durable run: journal (via the installed hook), apply, sync at
       each statement boundary, checkpoint where the case says, kill. *)
    let set = build_serve_set c.rc_set in
    let d = Durable.init ~dir set in
    for i = 0 to crash_at - 1 do
      ignore (View_set.update ~jobs set (Update.parse stmts.(i)));
      Durable.sync d;
      if c.rc_checkpoint_at = Some (i + 1) then Durable.checkpoint d set
    done;
    if c.rc_unsynced_tail then
      (* Journaled and applied in memory, but never synced: a real kill
         loses this statement, and recovery must agree that it did. *)
      ignore (View_set.update ~jobs set (Update.parse stmts.(crash_at)));
    Durable.crash d;
    let parse_pattern ~name s = view_of_compact ~name s in
    (* Checkpoint at 0 (or at a boundary where nothing was journaled
       since) is a no-op: generation 0 from [init] already covers it. *)
    let expect_ck =
      match c.rc_checkpoint_at with Some k when k >= 1 -> k | _ -> 0
    in
    match Durable.recover ~dir ~parse_pattern ~jobs () with
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
        let oset = build_serve_set c.rc_set in
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
            ignore (View_set.update ~jobs o.Durable.set (Update.parse stmts.(i)));
            Durable.sync d2
          done;
          Durable.crash d2;
          match Durable.recover ~dir ~parse_pattern ~jobs () with
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

(* {1 Answer-from-views oracle}

   The rewriting planner's claim: a query answered from the materialized
   view set — single-view with compensations, two-view intersection, or
   base fallback — is tuple-for-tuple equal (cells, payloads, derivation
   counts) to independent brute-force evaluation over the document, both
   before and after a maintenance round. The brute side goes through
   [Embed], not the algebraic evaluator, so the comparison also
   re-validates the view contents the rewriting consumed. *)

type answer_case = { aset : set_triple; aquery : Pattern.t }

type answer_mismatch = { acx : answer_case; adetail : string }

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

let gen_answer_case rnd =
  let t = gen_set_triple rnd in
  let views = Array.of_list t.sviews in
  let pick_view () = views.(Random.State.int rnd (Array.length views)) in
  let fresh_query () =
    Pattern.compile ~name:"q" (gen_vnode rnd ~labels:(doc_labels t.sdoc) 2)
  in
  let t, q =
    match Random.State.int rnd 4 with
    | 0 ->
      (* Verbatim view: an exact single-view rewriting must exist. *)
      (t, Pattern.rename (pick_view ()) "q")
    | 1 ->
      (* Derivative of a view: weakened annotations still rewrite (with
         payload stripping); dropped subtrees force the fallback. *)
      let v = pick_view () in
      let q =
        match view_variants v with
        | [] -> v
        | vs -> Qgen.pick rnd (Array.of_list vs)
      in
      (t, Pattern.rename q "q")
    | 2 ->
      (* Plant the two legs of a split as extra views so an intersection
         rewriting exists for a query matching no single view. *)
      let q = fresh_query () in
      if Pattern.node_count q < 2 then (t, q)
      else begin
        let split = 1 + Random.State.int rnd (Pattern.node_count q - 1) in
        let k = List.length t.sviews in
        let top = Pattern.prune q split ~name:(Printf.sprintf "v%d" k) in
        let bottom =
          Pattern.subpattern q split ~name:(Printf.sprintf "v%d" (k + 1))
        in
        ({ t with sviews = t.sviews @ [ top; bottom ] }, q)
      end
    | _ ->
      (* Unrelated query: usually the fallback, sometimes an accidental
         rewriting. *)
      (t, fresh_query ())
  in
  { aset = t; aquery = q }

let check_answer c =
  let detail = ref None in
  let note phase msg =
    if !detail = None then detail := Some (phase ^ ": " ^ msg)
  in
  (try
     let store = Store.of_document (Xml_tree.copy c.aset.sdoc) in
     let set = View_set.create store in
     List.iter (fun pat -> ignore (View_set.add set pat)) c.aset.sviews;
     let sources = List.map Answer.source_of_mview (View_set.views set) in
     let compare_now phase =
       let want = brute_rows store c.aquery in
       match Answer.answer ~store ~sources c.aquery with
       | None -> note phase "no plan and no fallback (unreachable with a store)"
       | Some (plan, got) -> (
         match Answer.diff ~expect:want ~got with
         | None -> ()
         | Some d -> note phase (Printf.sprintf "[%s] %s" (Answer.describe plan) d))
     in
     compare_now "before update";
     if !detail = None then begin
       ignore (View_set.update set (Update.parse c.aset.supdate));
       compare_now "after update"
     end
   with exn -> note "check" ("escaped exception: " ^ Printexc.to_string exn));
  Option.map (fun d -> { acx = c; adetail = d }) !detail

(* {2 Answer replay} *)

let repro_of_answer c =
  let part s = Printf.sprintf "%d:%s" (String.length s) s in
  String.concat "|"
    (("xvmdta1"
      :: string_of_int (List.length c.aset.sviews)
      :: List.map (fun v -> part (Pattern.to_string v)) c.aset.sviews)
    @ [
        part (Pattern.to_string c.aquery);
        part c.aset.supdate;
        part (Xml_tree.serialize c.aset.sdoc);
      ])

let answer_of_repro s =
  let fail () = invalid_arg "Difftest.answer_of_repro: malformed reproducer" in
  let n = String.length s in
  if not (n > 8 && String.sub s 0 8 = "xvmdta1|") then fail ();
  let pos = ref 8 in
  let expect c = if !pos < n && s.[!pos] = c then incr pos else fail () in
  let number () =
    let st = !pos in
    while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
      incr pos
    done;
    if !pos = st then fail ();
    int_of_string (String.sub s st (!pos - st))
  in
  let part () =
    let len = number () in
    expect ':';
    if !pos + len > n then fail ();
    let r = String.sub s !pos len in
    pos := !pos + len;
    r
  in
  let k = number () in
  if k < 1 || k > 64 then fail ();
  let views =
    List.init k (fun i ->
        expect '|';
        view_of_compact ~name:(Printf.sprintf "v%d" i) (part ()))
  in
  expect '|';
  let query = view_of_compact ~name:"q" (part ()) in
  expect '|';
  let update = part () in
  expect '|';
  let doc_s = part () in
  if !pos <> n then fail ();
  ignore (Update.parse update);
  {
    aset = { sdoc = Xml_parse.document doc_s; sviews = views; supdate = update };
    aquery = query;
  }

let describe_answer m =
  let c = m.acx in
  Printf.sprintf
    "answer-from-views disagreement\n\
    \  views:  %s\n\
    \  query:  %s\n\
    \  update: %s\n\
    \  doc:    %s (%d nodes)\n\
    \  detail: %s\n\
    \  replay: xvmcli difftest --replay %s"
    (String.concat "  ;  " (List.map Pattern.to_string c.aset.sviews))
    (Pattern.to_string c.aquery) c.aset.supdate
    (Qgen.abbrev (Xml_tree.serialize c.aset.sdoc))
    (Xml_tree.size c.aset.sdoc) m.adetail
    (shell_quote (repro_of_answer c))

let shrink_answer m =
  let current = ref m in
  let budget = ref 2000 in
  let improved = ref true in
  while !improved && !budget > 0 do
    improved := false;
    let c = !current.acx in
    let t = c.aset in
    let replace_view i v =
      { c with
        aset =
          { t with sviews = List.mapi (fun k q -> if k = i then v else q) t.sviews }
      }
    in
    let drop_views =
      (* Dropping a view can only steer the plan toward the fallback; the
         case stays well-formed. *)
      if List.length t.sviews > 1 then
        List.mapi
          (fun i _ -> { c with aset = { t with sviews = without_nth t.sviews i } })
          t.sviews
      else []
    in
    let docs =
      List.map (fun d -> { c with aset = { t with sdoc = d } }) (doc_variants t.sdoc)
    in
    let updates =
      List.map
        (fun u -> { c with aset = { t with supdate = u } })
        (update_variants t.supdate)
    in
    let queries =
      List.map (fun q -> { c with aquery = q }) (view_variants c.aquery)
    in
    let view_shrinks =
      List.concat
        (List.mapi
           (fun i pat -> List.map (replace_view i) (view_variants pat))
           t.sviews)
    in
    let candidates = drop_views @ docs @ updates @ queries @ view_shrinks in
    (try
       List.iter
         (fun cand ->
           if !budget > 0 then begin
             decr budget;
             match check_answer cand with
             | Some m' ->
               current := m';
               improved := true;
               raise Exit
             | None -> ()
           end)
         candidates
     with Exit -> ())
  done;
  !current

let run_answer ~seed ~iters () =
  let rnd = Random.State.make [| seed; 0xa457 |] in
  let rc = Qgen.fresh_recorder () in
  for _ = 1 to iters do
    let c = gen_answer_case rnd in
    match check_answer c with
    | None -> ()
    | Some m -> Qgen.record rc (describe_answer (shrink_answer m))
  done;
  Qgen.report_of rc ~iterations:iters

let run_recover ?(jobs = 1) ~seed ~iters () =
  let rnd = Random.State.make [| seed; 0xc4a5 |] in
  let rc = Qgen.fresh_recorder () in
  for _ = 1 to iters do
    let c = gen_recover_case rnd in
    match check_recover ~jobs c with
    | None -> ()
    | Some msg -> Qgen.record rc msg
  done;
  Qgen.report_of rc ~iterations:iters

(* {1 Heavy-light adaptive maintenance oracle}

   Adaptive (heavy-light partitioned) maintenance claims observational
   equivalence with eager maintenance: at every read point — after
   draining deferred work — each view is tuple-for-tuple identical to
   its eagerly-maintained twin, whatever mix of partition migrations
   (rebalance storms under deliberately tiny thresholds), budget-forced
   drains, store tail merges and drain-on-read interleavings happened in
   between. Each case runs one statement sequence through two view sets
   over copies of the same document — one with a classifier installed,
   one eager — draining and comparing at seeded read points (a random
   single view or the whole set) and once more at the end, where the
   documents must also serialize identically. *)

type heavy_case = {
  hc_set : set_triple; (* document, views, first statement *)
  hc_stmts : string list; (* full statement sequence, head = supdate *)
  hc_reads : (int * int) list;
      (* (statement index, view index or -1 for all): drain + compare *)
  hc_count : int; (* Hl.heavy_count — deliberately tiny *)
  hc_fanout : int; (* Hl.heavy_fanout *)
  hc_budget : int; (* Hl.drain_budget *)
  hc_tailb : int; (* store tail budget *)
}

type heavy_mismatch = { hcx : heavy_case; hdetail : string }

let gen_heavy_case rnd =
  let doc =
    if Random.State.bool rnd then Qgen.skewed_document ~profile rnd
    else Qgen.random_document ~profile rnd
  in
  let labels = doc_labels doc in
  let k = 2 + Random.State.int rnd 3 in
  let views =
    List.init k (fun i ->
        Pattern.compile ~name:(Printf.sprintf "v%d" i) (gen_vnode rnd ~labels 2))
  in
  let nstmts = 2 + Random.State.int rnd 6 in
  let stmts =
    List.init nstmts (fun _ ->
        gen_recover_stmt rnd ~labels ~root_label:doc.Xml_tree.name)
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
  {
    hc_set = { sdoc = doc; sviews = views; supdate = List.hd stmts };
    hc_stmts = stmts;
    hc_reads = reads;
    hc_count = 1 + Random.State.int rnd 16;
    hc_fanout = 1 + Random.State.int rnd 6;
    hc_budget = 1 + Random.State.int rnd 16;
    hc_tailb = 1 + Random.State.int rnd 8;
  }

let check_heavy0 c =
  try
    let build () =
      let store = Store.of_document (Xml_tree.copy c.hc_set.sdoc) in
      let set = View_set.create store in
      List.iter (fun pat -> ignore (View_set.add set pat)) c.hc_set.sviews;
      set
    in
    let aset = build () and eset = build () in
    let cfg =
      {
        Hl.default_config with
        Hl.heavy_count = c.hc_count;
        Hl.heavy_fanout = c.hc_fanout;
        Hl.drain_budget = c.hc_budget;
        Hl.tail_budget = c.hc_tailb;
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
               (Pattern.to_string (List.nth c.hc_set.sviews i))
               d)
    in
    let nviews = List.length c.hc_set.sviews in
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
        ignore
          (View_set.drain_view aset
             (List.nth c.hc_set.sviews which).Pattern.name);
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
            c.hc_reads
        end)
      c.hc_stmts;
    if !mismatch = None then begin
      read ~at:(List.length c.hc_stmts - 1) (-1);
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

let check_heavy c =
  Option.map (fun d -> { hcx = c; hdetail = d }) (check_heavy0 c)

(* {2 Heavy replay} *)

let repro_of_heavy c =
  let part s = Printf.sprintf "%d:%s" (String.length s) s in
  let cfg =
    Printf.sprintf "%d,%d,%d,%d" c.hc_count c.hc_fanout c.hc_budget c.hc_tailb
  in
  let reads =
    String.concat ","
      (List.map (fun (i, w) -> Printf.sprintf "%d/%d" i w) c.hc_reads)
  in
  String.concat "|"
    (("xvmdth1" :: part cfg :: part reads
      :: string_of_int (List.length c.hc_set.sviews)
      :: List.map (fun v -> part (Pattern.to_string v)) c.hc_set.sviews)
    @ (string_of_int (List.length c.hc_stmts) :: List.map part c.hc_stmts)
    @ [ part (Xml_tree.serialize c.hc_set.sdoc) ])

let heavy_of_repro s =
  let fail () = invalid_arg "Difftest.heavy_of_repro: malformed reproducer" in
  let n = String.length s in
  if not (n > 8 && String.sub s 0 8 = "xvmdth1|") then fail ();
  let pos = ref 8 in
  let expect c = if !pos < n && s.[!pos] = c then incr pos else fail () in
  let number () =
    let st = !pos in
    while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
      incr pos
    done;
    if !pos = st then fail ();
    int_of_string (String.sub s st (!pos - st))
  in
  let part () =
    let len = number () in
    expect ':';
    if !pos + len > n then fail ();
    let r = String.sub s !pos len in
    pos := !pos + len;
    r
  in
  let int_of str =
    match int_of_string_opt str with Some v -> v | None -> fail ()
  in
  let ints_of sep str =
    if str = "" then []
    else List.map int_of (String.split_on_char sep str)
  in
  let cfg = ints_of ',' (part ()) in
  let count, fanout, budget, tailb =
    match cfg with
    | [ a; b; c; d ] when a > 0 && b > 0 && c > 0 && d > 0 -> (a, b, c, d)
    | _ -> fail ()
  in
  expect '|';
  let reads_s = part () in
  let reads =
    if reads_s = "" then []
    else
      List.map
        (fun p ->
          match String.split_on_char '/' p with
          | [ i; w ] -> (int_of i, int_of w)
          | _ -> fail ())
        (String.split_on_char ',' reads_s)
  in
  expect '|';
  let k = number () in
  if k < 1 || k > 64 then fail ();
  let views =
    List.init k (fun i ->
        expect '|';
        view_of_compact ~name:(Printf.sprintf "v%d" i) (part ()))
  in
  expect '|';
  let m = number () in
  if m < 1 || m > 256 then fail ();
  let stmts =
    List.init m (fun _ ->
        expect '|';
        part ())
  in
  expect '|';
  let doc_s = part () in
  if !pos <> n then fail ();
  List.iter (fun st -> ignore (Update.parse st)) stmts;
  List.iter
    (fun (i, w) -> if i < 0 || i >= m || w < -1 || w >= k then fail ())
    reads;
  {
    hc_set =
      { sdoc = Xml_parse.document doc_s; sviews = views; supdate = List.hd stmts };
    hc_stmts = stmts;
    hc_reads = reads;
    hc_count = count;
    hc_fanout = fanout;
    hc_budget = budget;
    hc_tailb = tailb;
  }

let describe_heavy m =
  let c = m.hcx in
  Printf.sprintf
    "heavy-light adaptive maintenance disagreement\n\
    \  thresholds: count %d, fanout %d, drain budget %d, tail budget %d\n\
    \  views:  %s\n\
    \  statements: %s\n\
    \  reads:  %s\n\
    \  doc:    %s (%d nodes)\n\
    \  detail: %s\n\
    \  replay: xvmcli difftest --replay %s"
    c.hc_count c.hc_fanout c.hc_budget c.hc_tailb
    (String.concat "  ;  " (List.map Pattern.to_string c.hc_set.sviews))
    (String.concat "  ;  " c.hc_stmts)
    (String.concat ", "
       (List.map
          (fun (i, w) ->
            if w < 0 then Printf.sprintf "after %d: all" i
            else Printf.sprintf "after %d: v%d" i w)
          c.hc_reads))
    (Qgen.abbrev (Xml_tree.serialize c.hc_set.sdoc))
    (Xml_tree.size c.hc_set.sdoc) m.hdetail
    (shell_quote (repro_of_heavy c))

(* {2 Heavy shrinking: drop reads, then whole statements (remapping the
   read points), then whole views (remapping single-view reads), then
   the document, the statements' paths/fragments, and finally nodes
   inside the surviving views.} *)

let shrink_heavy m =
  let current = ref m in
  let budget = ref 2000 in
  let improved = ref true in
  while !improved && !budget > 0 do
    improved := false;
    let c = !current.hcx in
    let with_stmts c stmts =
      {
        c with
        hc_stmts = stmts;
        hc_set = { c.hc_set with supdate = List.hd stmts };
        hc_reads =
          List.filter (fun (i, _) -> i < List.length stmts) c.hc_reads;
      }
    in
    let drop_reads =
      List.mapi
        (fun j _ -> { c with hc_reads = without_nth c.hc_reads j })
        c.hc_reads
    in
    let drop_stmts =
      if List.length c.hc_stmts > 1 then
        List.mapi
          (fun j _ ->
            let stmts = without_nth c.hc_stmts j in
            let reads =
              List.filter_map
                (fun (i, w) ->
                  if i = j then None
                  else if i > j then Some (i - 1, w)
                  else Some (i, w))
                c.hc_reads
            in
            { (with_stmts c stmts) with hc_reads = reads })
          c.hc_stmts
      else []
    in
    let drop_views =
      if List.length c.hc_set.sviews > 1 then
        List.mapi
          (fun j _ ->
            let reads =
              List.filter_map
                (fun (i, w) ->
                  if w = j then Some (i, -1)
                  else if w > j then Some (i, w - 1)
                  else Some (i, w))
                c.hc_reads
            in
            {
              c with
              hc_set =
                { c.hc_set with sviews = without_nth c.hc_set.sviews j };
              hc_reads = reads;
            })
          c.hc_set.sviews
      else []
    in
    let docs =
      List.map
        (fun d -> { c with hc_set = { c.hc_set with sdoc = d } })
        (doc_variants c.hc_set.sdoc)
    in
    let stmt_shrinks =
      List.concat
        (List.mapi
           (fun j stmt ->
             List.map
               (fun u ->
                 with_stmts c
                   (List.mapi
                      (fun i q -> if i = j then u else q)
                      c.hc_stmts))
               (update_variants stmt))
           c.hc_stmts)
    in
    let view_shrinks =
      List.concat
        (List.mapi
           (fun j pat ->
             List.map
               (fun v ->
                 {
                   c with
                   hc_set =
                     {
                       c.hc_set with
                       sviews =
                         List.mapi
                           (fun i q -> if i = j then v else q)
                           c.hc_set.sviews;
                     };
                 })
               (view_variants pat))
           c.hc_set.sviews)
    in
    let candidates =
      drop_reads @ drop_stmts @ drop_views @ docs @ stmt_shrinks @ view_shrinks
    in
    (try
       List.iter
         (fun cand ->
           if !budget > 0 then begin
             decr budget;
             match check_heavy cand with
             | Some m' ->
               current := m';
               improved := true;
               raise Exit
             | None -> ()
           end)
         candidates
     with Exit -> ())
  done;
  !current

let run_heavy ~seed ~iters () =
  let rnd = Random.State.make [| seed; 0x4ea7 |] in
  let rc = Qgen.fresh_recorder () in
  for _ = 1 to iters do
    let c = gen_heavy_case rnd in
    match check_heavy c with
    | None -> ()
    | Some m -> Qgen.record rc (describe_heavy (shrink_heavy m))
  done;
  Qgen.report_of rc ~iterations:iters
