type report = {
  elapsed : float;
  invocations : int;
  embeddings_added : int;
  embeddings_removed : int;
  fallback_recompute : bool;
}

let obs = Obs.Scope.v "ivma"
let t_propagate = Obs.Scope.timer obs "propagate"
let c_invocations = Obs.Scope.counter obs "invocations"
let c_emb_added = Obs.Scope.counter obs "embeddings_added"
let c_emb_removed = Obs.Scope.counter obs "embeddings_removed"
let c_fallbacks = Obs.Scope.counter obs "fallback_recomputes"

(* Every [report] exit flows through here, mirroring [Maint.emit]. *)
let emit r =
  Obs.Timer.add_span t_propagate r.elapsed;
  Obs.Counter.add c_invocations r.invocations;
  Obs.Counter.add c_emb_added r.embeddings_added;
  Obs.Counter.add c_emb_removed r.embeddings_removed;
  if r.fallback_recompute then Obs.Counter.incr c_fallbacks;
  r

let node_matches pat i id node =
  Pattern.tag_matches pat.Pattern.tags.(i) node
  && Pattern.vpred_holds pat i node
  && Plan.root_anchor_ok pat i id

(* Evaluate the view with pattern position [fixed] bound to exactly the
   node of handle [h], and every other position bound to its canonical
   relation amended by [extra] (nodes already processed in this
   node-at-a-time run, as handle/identifier/node triples) minus the
   handles in [excluded]. An amended atom is out of document order, so
   the join sorts it. *)
let eval_with_fixed mv ~fixed ~h ~extra ~excluded =
  let pat = mv.Mview.pat in
  let store = mv.Mview.store in
  let arena = Store.arena store in
  let atom j =
    if j = fixed then Tuple_table.of_handles ~arena ~node:j [| h |]
    else begin
      let base = (Tuple_table.columns (Plan.atom_of_store store pat j)).(0) in
      let extra =
        List.filter_map
          (fun (xh, xid, xnode) -> if node_matches pat j xid xnode then Some xh else None)
          extra
      in
      Tuple_table.of_handles ~sorted:(extra = []) ~arena ~node:j
        (Array.of_seq
           (Seq.append
              (Seq.filter (fun h -> not (Hashtbl.mem excluded h)) (Array.to_seq base))
              (List.to_seq extra)))
    end
  in
  Plan.eval_subtree pat ~atom ~within:(fun _ -> true) ~root:0

(* Row [r] of [t] as its handles in pattern-node order: the binding's
   identity. *)
let binding pat t r =
  let cols = Tuple_table.columns t in
  Array.init (Pattern.node_count pat) (fun i -> cols.(Tuple_table.col_pos t i).(r))

let no_excluded : (int, unit) Hashtbl.t = Hashtbl.create 1

(* The exact fallback shared by both branches: a value predicate flipped
   on a node that stays in the document, which the node-at-a-time delta
   model cannot see. Same discipline as [Maint.propagate_applied]. *)
let rebuild_fallback mv ~invocations =
  let store = mv.Mview.store in
  let (), elapsed =
    Timing.duration (fun () ->
        Store.commit store;
        Mview.rebuild mv)
  in
  emit {
    elapsed;
    invocations;
    embeddings_added = 0;
    embeddings_removed = 0;
    fallback_recompute = true;
  }

let propagate mv u =
  let pat = mv.Mview.pat in
  let store = mv.Mview.store in
  let targets = Update.targets store u in
  let watches = Maint.vpred_watches mv targets in
  match u with
  | Update.Replace_value _ ->
    invalid_arg "Ivma.propagate: replace-value is not a node-level operation"
  | Update.Insert _ ->
    let app = Update.apply_insert store u ~targets in
    if Maint.watches_flipped mv watches then rebuild_fallback mv ~invocations:0
    else
    let new_nodes =
      List.concat_map
        (fun (_tid, forest) ->
          List.concat_map
            (fun tree ->
              List.map
                (fun n -> (Store.handle_of_node store n, Store.id_of store n, n))
                (Xml_tree.descendants_or_self tree))
            forest)
        app.Update.pairs
    in
    let new_nodes =
      List.sort (fun (_, a, _) (_, b, _) -> Dewey.compare a b) new_nodes
    in
    let added = ref 0 in
    let (), elapsed =
      Timing.duration (fun () ->
          Mview.sharing_payloads mv @@ fun () ->
          let seen = Hashtbl.create 64 in
          let processed = ref [] in
          List.iter
            (fun ((h, id, node) as x) ->
              for i = 0 to Pattern.node_count pat - 1 do
                if node_matches pat i id node then begin
                  (* The node being propagated must be visible at every
                     other pattern position too: one inserted node can be
                     bound at several positions of the same embedding
                     (e.g. [/d[//d][//d]] gaining a single [<d/>]). *)
                  let t =
                    eval_with_fixed mv ~fixed:i ~h ~extra:(x :: !processed)
                      ~excluded:no_excluded
                  in
                  let cols = Mview.stored_columns mv t in
                  for r = 0 to Tuple_table.length t - 1 do
                    let key = binding pat t r in
                    if not (Hashtbl.mem seen key) then begin
                      Hashtbl.add seen key ();
                      Mview.add_binding mv cols r;
                      incr added
                    end
                  done
                end
              done;
              processed := x :: !processed)
            new_nodes;
          ignore (Maint.refresh_payloads mv (Maint.Ins app));
          Store.commit store)
    in
    emit {
      elapsed;
      invocations = List.length new_nodes;
      embeddings_added = !added;
      embeddings_removed = 0;
      fallback_recompute = false;
    }
  | Update.Delete _ ->
    let app = Update.apply_delete store ~targets in
    if Maint.watches_flipped mv watches then rebuild_fallback mv ~invocations:0
    else
    (* Bottom-up: remove one node at a time, leaves first. *)
    let doomed =
      List.sort (fun (a, _) (b, _) -> Dewey.compare b a) (Lazy.force app.Update.deleted)
    in
    let removed_count = ref 0 in
    let (), elapsed =
      Timing.duration (fun () ->
          Mview.sharing_payloads mv @@ fun () ->
          let seen = Hashtbl.create 64 in
          let removed = Hashtbl.create 64 in
          List.iter
            (fun (id, node) ->
              let h = Store.handle_of_node store node in
              for i = 0 to Pattern.node_count pat - 1 do
                if node_matches pat i id node then begin
                  let t = eval_with_fixed mv ~fixed:i ~h ~extra:[] ~excluded:removed in
                  let cols = Mview.stored_columns mv t in
                  for r = 0 to Tuple_table.length t - 1 do
                    let key = binding pat t r in
                    if not (Hashtbl.mem seen key) then begin
                      Hashtbl.add seen key ();
                      Mview.remove_binding mv cols r;
                      incr removed_count
                    end
                  done
                end
              done;
              Hashtbl.replace removed h ())
            doomed;
          ignore (Maint.refresh_payloads mv (Maint.Del app));
          Store.commit store)
    in
    emit {
      elapsed;
      invocations = List.length doomed;
      embeddings_added = 0;
      embeddings_removed = !removed_count;
      fallback_recompute = false;
    }
