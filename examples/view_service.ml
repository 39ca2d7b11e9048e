(* A "view service": materialized views persisted to disk, reloaded, kept
   fresh incrementally, and used to answer queries — including by joining
   two views on a structural ID — without re-touching the base document.
   Every answer is checked against recomputation over the document.

   Run with: dune exec examples/view_service.exe *)

let n = Pattern.n

(* /site/people/person{id}/name{id,val}: person names. *)
let names_view =
  Pattern.compile ~name:"names"
    (n ~axis:Pattern.Child "site"
       [
         n ~axis:Pattern.Child "people"
           [
             n ~axis:Pattern.Child ~id:true "person"
               [ n ~axis:Pattern.Child ~id:true ~value:true "name" [] ];
           ];
       ])

(* /site/people/person{id}: the people of the site. *)
let persons_view =
  Pattern.compile ~name:"persons"
    (n ~axis:Pattern.Child "site"
       [ n ~axis:Pattern.Child "people" [ n ~axis:Pattern.Child ~id:true "person" [] ] ])

(* //person{id}/homepage{id,val}: homepages, wherever persons occur. *)
let homepages_view =
  Pattern.compile ~name:"homepages"
    (n ~id:true "person" [ n ~axis:Pattern.Child ~id:true ~value:true "homepage" [] ])

let person_query name children =
  Pattern.compile ~name
    (n ~axis:Pattern.Child "site"
       [ n ~axis:Pattern.Child "people" [ n ~axis:Pattern.Child ~id:true "person" children ] ])

let stored ?vpred tag = n ~axis:Pattern.Child ~id:true ~value:true ?vpred tag []

(* Plan and answer [q] from the set's views; exit 1 unless the rows
   equal recomputation over the base document. *)
let answer set q =
  let store = View_set.store set in
  let sources = List.map Answer.source_of_mview (View_set.views set) in
  match Answer.answer ~store ~sources q with
  | None -> assert false
  | Some (plan, rows) ->
    Printf.printf "query %s: plan %s, %d rows\n" q.Pattern.name (Answer.describe plan)
      (List.length rows);
    (match Answer.diff ~expect:(Answer.base_rows store q) ~got:rows with
    | None -> ()
    | Some msg ->
      Printf.printf "  differs from recomputation: %s\n" msg;
      exit 1);
    rows

let () =
  let store = Store.of_document (Xmark_gen.document ~seed:7 ~target_kb:200) in
  let dict = Store.dict store in
  let views = [ names_view; persons_view; homepages_view ] in

  (* Materialize and persist. *)
  let dir = Filename.temp_file "xvm" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let file (pat : Pattern.t) = Filename.concat dir (pat.Pattern.name ^ ".view") in
  List.iter
    (fun pat ->
      let mv = Mview.materialize store pat in
      Mview_codec.save_to_file mv (file pat);
      Printf.printf "persisted %s: %d tuples\n" pat.Pattern.name (Mview.cardinality mv))
    views;

  (* A new session: reload instead of re-evaluating. *)
  let set = View_set.create store in
  let (), t_load =
    Timing.duration (fun () ->
        List.iter
          (fun pat -> View_set.add_view set (Mview_codec.load_from_file store pat (file pat)))
          views)
  in
  Printf.printf "reloaded %d views in %.1f ms\n" (List.length views) (t_load *. 1000.);

  (* Keep them fresh under updates. *)
  let upd = Update.insert ~into:"/site/people/person[@id='person1']" "<name>alias</name>" in
  List.iter
    (fun (mv, r) ->
      Printf.printf "update propagated to %s: +%d tuples%s\n" mv.Mview.pat.Pattern.name
        r.Maint.embeddings_added
        (if r.Maint.skipped_irrelevant then " (skipped: irrelevant)" else ""))
    (View_set.update set upd);
  print_newline ();

  (* A filtered query: the names view plus a value compensation. *)
  let some_name =
    match View_set.find set "names" with
    | Some mv -> (
      match Mview.dump mv with
      | (_, _, cells) :: _ -> Option.get cells.(1).Mview.cell_value
      | [] -> assert false)
    | None -> assert false
  in
  ignore (answer set (person_query "by-name" [ stored ~vpred:some_name "name" ]));

  (* Who has a homepage? The persons view answers the query down to the
     person, the homepages view the rest; the two legs join on the
     person's ID. *)
  let joined = answer set (person_query "with-homepage" [ stored "homepage" ]) in
  List.iteri
    (fun i (row : Answer.row) ->
      if i < 3 then
        let person, _, _ = row.Answer.cells.(0) and _, homepage, _ = row.Answer.cells.(1) in
        Printf.printf "  %s -> %s\n" (Dewey.to_string ~dict person)
          (Option.value ~default:"?" homepage))
    joined;

  (* Names beside homepages under one person: no view, nor a split of
     the query at one node, covers both siblings, so the planner falls
     back to the base document. *)
  ignore (answer set (person_query "name-and-homepage" [ stored "name"; stored "homepage" ]));

  (* Clean up. *)
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir
