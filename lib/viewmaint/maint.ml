type report = {
  timing : Timing.breakdown;
  terms_developed : int;
  terms_surviving : int;
  embeddings_added : int;
  embeddings_removed : int;
  tuples_modified : int;
  fallback_recompute : bool;
  skipped_irrelevant : bool;
}

type applied =
  | Ins of Update.applied_insert
  | Del of Update.applied_delete
  | Repl of Update.applied_delete * Update.applied_insert

type kind = KInsert | KDelete

(* Global phase timers mirror the paper's Fig. 18/19 taxonomy; the
   per-report [Timing.breakdown] stays the primary record, these cells
   just make the same spans visible through the process-wide registry. *)
let obs_phase = Obs.Scope.v "maint.phase"
let t_find = Obs.Scope.timer obs_phase "find_target"
let t_apply = Obs.Scope.timer obs_phase "apply_doc"
let t_delta = Obs.Scope.timer obs_phase "compute_delta"
let t_expr = Obs.Scope.timer obs_phase "get_expression"
let t_exec = Obs.Scope.timer obs_phase "execute"
let t_aux = Obs.Scope.timer obs_phase "update_aux"

let obs_work = Obs.Scope.v "maint.work"
let c_terms_developed = Obs.Scope.counter obs_work "terms_developed"
let c_terms_surviving = Obs.Scope.counter obs_work "terms_surviving"
let c_emb_added = Obs.Scope.counter obs_work "embeddings_added"
let c_emb_removed = Obs.Scope.counter obs_work "embeddings_removed"
let c_tuples_modified = Obs.Scope.counter obs_work "tuples_modified"
let c_fallbacks = Obs.Scope.counter obs_work "fallback_recomputes"
let c_skipped = Obs.Scope.counter obs_work "skipped_irrelevant"
let c_payload_gated = Obs.Scope.counter obs_work "payload_refresh_gated"
let c_purge_rows = Obs.Scope.counter obs_work "purge_rows"

let set_find b t =
  b.Timing.find_target <- b.Timing.find_target +. t;
  Obs.Timer.add_span t_find t

let set_apply b t =
  b.Timing.apply_doc <- b.Timing.apply_doc +. t;
  Obs.Timer.add_span t_apply t

let set_delta b t =
  b.Timing.compute_delta <- b.Timing.compute_delta +. t;
  Obs.Timer.add_span t_delta t

let set_expr b t =
  b.Timing.get_expression <- b.Timing.get_expression +. t;
  Obs.Timer.add_span t_expr t

let set_exec b t =
  b.Timing.execute <- b.Timing.execute +. t;
  Obs.Timer.add_span t_exec t

let set_aux b t =
  b.Timing.update_aux <- b.Timing.update_aux +. t;
  Obs.Timer.add_span t_aux t

(* Every [report] exit flows through here so the registry sees the same
   work totals the caller gets back. *)
let emit r =
  Obs.Counter.add c_terms_developed r.terms_developed;
  Obs.Counter.add c_terms_surviving r.terms_surviving;
  Obs.Counter.add c_emb_added r.embeddings_added;
  Obs.Counter.add c_emb_removed r.embeddings_removed;
  Obs.Counter.add c_tuples_modified r.tuples_modified;
  if r.fallback_recompute then Obs.Counter.incr c_fallbacks;
  if r.skipped_irrelevant then Obs.Counter.incr c_skipped;
  r

let zero_report ~skipped =
  emit {
    timing = Timing.zero ();
    terms_developed = 0;
    terms_surviving = 0;
    embeddings_added = 0;
    embeddings_removed = 0;
    tuples_modified = 0;
    fallback_recompute = false;
    skipped_irrelevant = skipped;
  }

(* Report for a view the batch engine's relevance pre-filter proved
   untouched by the update: no propagation work was performed at all. *)
let skipped_report () = zero_report ~skipped:true

(* Report for a view whose propagation the adaptive path deferred: no
   work now, and not a skip — [maint.defer.deferrals] counts it. *)
let deferred_report () = zero_report ~skipped:false

module Phase = struct
  let find_target = set_find
  let apply_doc = set_apply
  let compute_delta = set_delta
  let update_aux = set_aux
end

let apply_only store u =
  let b = Timing.zero () in
  let targets = Timing.timed b set_find (fun () -> Update.targets store u) in
  let applied =
    Timing.timed b set_apply (fun () ->
        match u with
        | Update.Insert _ -> Ins (Update.apply_insert store u ~targets)
        | Update.Delete _ -> Del (Update.apply_delete store ~targets)
        | Update.Replace_value { text; _ } ->
          let d, i = Update.apply_replace store ~text ~targets in
          Repl (d, i))
  in
  (applied, b)

(* {1 Value-predicate guard}

   Inserting or deleting text below an existing node can change the
   node's string value and thereby flip a [[val = c]] selection the delta
   model assumes stable. The only nodes at risk are ancestors-or-self of
   the update targets whose tag matches a vpred-carrying view node; their
   pre-update status is recorded before the mutation and re-checked
   afterwards. Attribute and text values are immutable, so only element
   tags are watched. *)

type watches = (int * int * bool) list

(* A walk up from each target stops at the first node already seen: its
   ancestors were visited with it. Nodes are recorded by arena handle. *)
let vpred_watches mv targets =
  let pat = mv.Mview.pat in
  let store = mv.Mview.store in
  let vnodes = ref [] in
  Array.iteri
    (fun i vp ->
      match vp with
      | Some _ when String.length pat.Pattern.tags.(i) > 0 && pat.Pattern.tags.(i).[0] <> '@' ->
        vnodes := i :: !vnodes
      | Some _ | None -> ())
    pat.Pattern.vpreds;
  if !vnodes = [] then []
  else begin
    let seen = Dewey_arena.Tbl.create 16 (* node serials *) in
    let out = ref [] in
    let rec up node =
      if not (Dewey_arena.Tbl.mem seen node.Xml_tree.serial) then begin
        Dewey_arena.Tbl.add seen node.Xml_tree.serial ();
        List.iter
          (fun i ->
            if Pattern.tag_matches pat.Pattern.tags.(i) node then
              out :=
                (i, Store.handle_of_node store node, Pattern.vpred_holds pat i node) :: !out)
          !vnodes;
        match node.Xml_tree.parent with None -> () | Some p -> up p
      end
    in
    List.iter up targets;
    !out
  end

let watches_flipped mv watches =
  List.exists
    (fun (i, h, pre) ->
      match Store.node_of_handle mv.Mview.store h with
      | None -> false (* deleted: the structural deltas cover it *)
      | Some node -> Pattern.vpred_holds mv.Mview.pat i node <> pre)
    watches

(* {1 Union terms: candidates, pruning, evaluation} *)

(* Candidate terms for maintaining the sub-pattern [scope]: by Prop 3.12
   one per snowcap strictly inside [scope], plus the all-Δ term (the empty
   R-part). *)
let candidate_terms mv ~scope =
  Lattice.empty mv.Mview.pat
  :: List.filter
       (fun s -> Lattice.subset s scope && not (Lattice.equal s scope))
       mv.Mview.all_snowcaps

(* Data-driven pruning: Props 3.6 / 3.8 for insertions, the Δ⁻ pruning of
   Section 4.3 (Prop 4.7) for deletions. The update-independent pruning of
   Props 3.3 / 4.2 is already encoded in the snowcap enumeration. *)
let term_survives mv (delta : Delta.t) ~scope ~kind s =
  let pat = mv.Mview.pat in
  let dict = Store.dict mv.Mview.store in
  let ok = ref true in
  Array.iteri
    (fun j in_scope ->
      if !ok && in_scope && not s.(j) then
        if not (Delta.nonempty delta j) then ok := false
        else begin
          (* Crossing edge: R-parent above a Δ-child. *)
          let p = pat.Pattern.parents.(j) in
          if p >= 0 && s.(p) && pat.Pattern.tags.(p) <> "*" then begin
            let ptag = pat.Pattern.tags.(p) in
            let survives =
              match kind with
              | KInsert -> (
                (* Prop 3.8: some insertion point must carry [ptag] on its
                   root path ([//] edge) or be labeled [ptag] ([/] edge: a
                   new child of an old node is an inserted root, whose
                   parent is the insertion point itself). *)
                match pat.Pattern.axes.(j) with
                | Pattern.Descendant ->
                  List.exists
                    (fun tid ->
                      Path_ops.has_label_ancestor ~self:true dict ~label:ptag tid)
                    delta.Delta.target_ids
                | Pattern.Child -> (
                  match Label_dict.find dict ptag with
                  | None -> false
                  | Some code ->
                    List.exists (fun tid -> Dewey.label tid = code) delta.Delta.target_ids))
              | KDelete -> (
                (* Prop 4.7, strengthened: some deleted [j]-node must have
                   an ancestor (resp. parent) labeled [ptag] that {e
                   survives} the deletion — a witness inside the deleted
                   region is itself gone (the argument of Prop 4.2), so
                   such terms are empty too. An ancestor of a deleted node
                   survives iff it is a strict ancestor of the node's
                   deletion root. *)
                let region = delta.Delta.region in
                let dj = delta.Delta.tables.(j) in
                let arena = Tuple_table.arena dj in
                let deleted = (Tuple_table.columns dj).(0) in
                match pat.Pattern.axes.(j) with
                | Pattern.Descendant ->
                  Array.exists
                    (fun h ->
                      let id = Dewey_arena.to_dewey arena h in
                      let anchor =
                        match Id_region.root_of region id with
                        | Some r -> r
                        | None -> id
                      in
                      Path_ops.has_label_ancestor ~self:false dict ~label:ptag anchor)
                    deleted
                | Pattern.Child -> (
                  match Label_dict.find dict ptag with
                  | None -> false
                  | Some code ->
                    (* The arena is parent-closed: a deleted node's parent
                       has a handle too. *)
                    Array.exists
                      (fun h ->
                        let ph = Dewey_arena.parent arena h in
                        ph >= 0
                        && Dewey_arena.label arena ph = code
                        && not (Id_region.mem region (Dewey_arena.to_dewey arena ph)))
                      deleted))
            in
            if not survives then ok := false
          end
        end)
    scope;
  !ok

(* R \ Δ⁻ on a table over some pattern nodes. Every identifier in column
   [j] satisfies node [j]'s tag, value predicate and root anchor, so it
   lies in the deleted region iff it is in Δ⁻_j: the purge is an
   anti-semijoin with the non-empty Δ⁻ tables of the table's columns, on
   arena handles. [deleted_keys] is empty when no row can die, and then
   the table is not scanned at all. *)
let deleted_keys (delta : Delta.t) table =
  Array.fold_left
    (fun acc j ->
      if Delta.nonempty delta j then (j, delta.Delta.tables.(j)) :: acc else acc)
    [] (Tuple_table.cols table)

let purge table keys =
  Obs.Counter.add c_purge_rows (Tuple_table.length table);
  Tuple_table.remove_ids table keys

(* Evaluate one union term over [scope]: the R-part is the snowcap [s_set]
   (materialized table when available, otherwise recomputed from the
   lattice leaves), the Δ-part is the rest of [scope], joined along the
   crossing edges. For deletions ([survivors_only]) the R-part is
   restricted to nodes outside the deleted region: R \ Δ⁻. *)
let eval_term mv (delta : Delta.t) ~scope ~s_set ~survivors_only =
  let pat = mv.Mview.pat in
  let store = mv.Mview.store in
  let datom i = delta.Delta.tables.(i) in
  let d_set = Array.mapi (fun i in_scope -> in_scope && not s_set.(i)) scope in
  if Lattice.size s_set = 0 then
    Plan.eval_subtree pat ~atom:datom ~within:(Lattice.mem d_set) ~root:0
  else begin
    let s_table =
      match Mview.mat_for mv s_set with
      | Some table ->
        if survivors_only then
          match deleted_keys delta table with
          | [] -> table
          | keys ->
            let t = Tuple_table.copy table in
            purge t keys;
            t
        else table
      | None ->
        let atom i =
          let a = Plan.atom_of_store store pat i in
          (if survivors_only then
             match deleted_keys delta a with [] -> () | keys -> purge a keys);
          a
        in
        Plan.eval_subtree pat ~atom ~within:(Lattice.mem s_set) ~root:0
    in
    let result = ref s_table in
    List.iter
      (fun j ->
        if not (Tuple_table.is_empty !result) then begin
          let d = Plan.eval_subtree pat ~atom:datom ~within:(Lattice.mem d_set) ~root:j in
          (* The join sorts both sides on the join columns in place. The
             running result is a join output, or the snowcap table itself:
             a bag private to this view's propagation, which may be
             reordered in place. *)
          result :=
            Struct_join.join !result d ~parent:pat.Pattern.parents.(j) ~child:j
              ~axis:pat.Pattern.axes.(j)
        end)
      (Lattice.tops pat ~inside:d_set);
    !result
  end

(* {1 Tuple modification: PIMT (Alg. 4) and PDMT}

   The val/cont payload of a node changes iff its subtree changed: the
   node is an insertion point or one of its ancestors (PIMT), or a strict
   ancestor of a deleted root (PDMT). That set is computed once per
   statement, keyed by arena handle, together with the label codes it
   holds. The arena is parent-closed, so both come from the handles of
   the applied update's content-changed nodes and their [parent] chains
   — also for deleted roots, whose detached nodes no longer have a
   parent in the tree.

   Each affected handle carries how its [cont] is refreshed
   ([Mview.edit]). A change point — a target of [insert into], or the
   parent of a deleted root — edits its old payload in place when it is
   the only change point at or below it; every other affected node is
   serialized again. *)

module Handle_set = Dewey_arena.Tbl

(* The copies of one root of a text-built insertion's fragment: their
   label, their one serialization, their handles. *)
type fresh = { f_label : string; f_text : string Lazy.t; f_handles : int list Lazy.t }

type affected = {
  a_ids : Mview.edit Handle_set.t;
  a_labels : (int, unit) Hashtbl.t;
  a_fresh : fresh list;
}

let fresh_roots store (app : Update.applied_insert) frag texts =
  List.mapi
    (fun i (root, f_text) ->
      let copy (_, forest) = Store.handle_of_node store (List.nth forest i) in
      { f_label = Xml_tree.label root; f_text; f_handles = lazy (List.map copy app.Update.pairs) })
    (List.combine frag texts)

let affected_of store applied =
  let arena = Store.arena store in
  let ids = Handle_set.create 64 and labels = Hashtbl.create 16 in
  let note h edit =
    Handle_set.add ids h edit;
    Hashtbl.replace labels (Dewey_arena.label arena h) ()
  in
  (* Walking up stops at the first handle already present: its
     ancestors were added with it. A node above a change point is
     serialized again. *)
  let rec up h =
    if h >= 0 then
      if Handle_set.mem ids h then Handle_set.replace ids h Mview.Reserialize
      else begin
        note h Mview.Reserialize;
        up (Dewey_arena.parent arena h)
      end
  in
  let change h edit =
    if h >= 0 then begin
      if Handle_set.mem ids h then Handle_set.replace ids h Mview.Reserialize
      else note h edit;
      up (Dewey_arena.parent arena h)
    end
  in
  let fresh =
    match applied with
    | Ins app | Repl (_, app) -> (
      match app.Update.fragment with
      | None ->
        List.iter (fun h -> change h Mview.Reserialize) app.Update.changed;
        []
      | Some frag ->
        let texts = List.map (fun root -> lazy (Xml_tree.serialize root)) frag in
        (* Attributes go into the start tag, not before the closing one. *)
        let edit =
          if List.exists (fun r -> r.Xml_tree.kind = Xml_tree.Attribute) frag then
            Mview.Reserialize
          else Mview.Append (lazy (String.concat "" (List.map Lazy.force texts)))
        in
        List.iter (fun h -> change h edit) app.Update.changed;
        fresh_roots store app frag texts)
    | Del app ->
      let rec go hs nodes lasts =
        match (hs, nodes, lasts) with
        | h :: hs, node :: nodes, last :: lasts ->
          change (Dewey_arena.parent arena h)
            (if last then Mview.Cut (lazy (Xml_tree.serialized_size node))
             else Mview.Reserialize);
          go hs nodes lasts
        | _ -> ()
      in
      go app.Update.root_handles app.Update.root_nodes app.Update.last_content;
      []
  in
  { a_ids = ids; a_labels = labels; a_fresh = fresh }

(* Positions (into [mv.stored]) of the val/cont nodes whose tag occurs
   among the affected labels — the only cells whose payload the update
   can have changed. *)
let at_risk_positions mv aff =
  let pat = mv.Mview.pat in
  let dict = Store.dict mv.Mview.store in
  let out = ref [] in
  Array.iteri
    (fun p i ->
      let a = pat.Pattern.annots.(i) in
      if a.Pattern.store_val || a.Pattern.store_cont then begin
        let tag = pat.Pattern.tags.(i) in
        let hit =
          if tag = "*" then Hashtbl.length aff.a_labels > 0
          else
            match Label_dict.find dict tag with
            | Some code -> Hashtbl.mem aff.a_labels code
            | None -> false
        in
        if hit then out := p :: !out
      end)
    mv.Mview.stored;
  Array.of_list (List.rev !out)

let payload_safe mv aff = at_risk_positions mv aff = [||]

let refresh_affected mv aff =
  match at_risk_positions mv aff with
  | [||] ->
    if Array.length mv.Mview.cvn > 0 then Obs.Counter.incr c_payload_gated;
    0
  | positions ->
    let modified = ref 0 in
    Mview.iter_entries mv (fun e ->
        Array.iter
          (fun p ->
            let cell = e.Mview.cells.(p) in
            match Handle_set.find_opt aff.a_ids cell.Mview.cell_h with
            | Some edit ->
              if Mview.refresh_cell mv ~stored_node:mv.Mview.stored.(p) ~edit cell then
                incr modified
            | None -> ())
          positions);
    !modified

(* Inside a pass, every copy of a fragment root that a [cont] node of
   [mv] may bind gets the root's one serialization. *)
let share_fresh mv aff =
  let pat = mv.Mview.pat in
  let binds label =
    Array.exists
      (fun i ->
        pat.Pattern.annots.(i).Pattern.store_cont
        && (pat.Pattern.tags.(i) = "*" || pat.Pattern.tags.(i) = label))
      mv.Mview.cvn
  in
  List.iter
    (fun f ->
      if binds f.f_label then begin
        let s = Lazy.force f.f_text in
        List.iter (fun h -> Mview.share_content mv h s) (Lazy.force f.f_handles)
      end)
    aff.a_fresh

let refresh_payloads mv applied =
  refresh_affected mv (affected_of mv.Mview.store applied)

(* {1 Snowcap (auxiliary structure) maintenance} *)

(* Prop 3.13: each materialized snowcap is maintained from smaller
   snowcaps, lattice leaves and Δ⁺ tables. All additions are computed
   against the pre-update state before any table is touched. A term
   output is a fresh table, a Δ table, or — when no join ran — a snowcap
   table, which is then empty; dropping empty outputs keeps a later
   append to that snowcap out of this one. Each output is appended
   column by column, lined up by pattern node. *)
let maintain_mats_insert mv delta =
  let additions =
    List.map
      (fun (scope, table) ->
        let terms =
          List.filter
            (term_survives mv delta ~scope ~kind:KInsert)
            (candidate_terms mv ~scope)
        in
        let outputs =
          List.filter_map
            (fun s ->
              let t = eval_term mv delta ~scope ~s_set:s ~survivors_only:false in
              if Tuple_table.is_empty t then None else Some t)
            terms
        in
        (table, outputs))
      mv.Mview.mats
  in
  List.iter
    (fun (table, outputs) -> List.iter (Tuple_table.append_table table) outputs)
    additions

let maintain_mats_delete mv delta =
  List.iter
    (fun (_scope, table) ->
      match deleted_keys delta table with [] -> () | keys -> purge table keys)
    mv.Mview.mats

(* {1 Drivers} *)

let full_scope mv = Lattice.full mv.Mview.pat

let propagate_applied ?(commit = true) ?(flipped = false) ?(prune = true) ?shared
    ?affected mv applied =
  let b = Timing.zero () in
  let store = mv.Mview.store in
  let affected =
    match affected with Some a -> a | None -> affected_of store applied
  in
  let refresh () = refresh_affected mv affected in
  if flipped then begin
    (* Exact fallback: a predicate flipped on an existing node, outside
       the delta model; rebuild from the (committed) relations. *)
    Timing.timed b set_exec (fun () ->
        Store.commit store;
        Mview.rebuild mv);
    emit {
      timing = b;
      terms_developed = 0;
      terms_surviving = 0;
      embeddings_added = 0;
      embeddings_removed = 0;
      tuples_modified = 0;
      fallback_recompute = true;
      skipped_irrelevant = false;
    }
  end
  else
  match applied with
  | Repl _ ->
    if Array.exists (( = ) "#text") mv.Mview.pat.Pattern.tags then begin
      (* Text nodes participate structurally in this view: take the exact
         rebuild path (replace-value swaps text nodes wholesale). *)
      Timing.timed b set_exec (fun () ->
          Store.commit store;
          Mview.rebuild mv);
      emit {
        timing = b;
        terms_developed = 0;
        terms_surviving = 0;
        embeddings_added = 0;
        embeddings_removed = 0;
        tuples_modified = 0;
        fallback_recompute = true;
      skipped_irrelevant = false;
      }
    end
    else begin
      (* A pure value change: no element or attribute binding appears or
         disappears (predicate flips were guarded above), so no embedding
         is created or destroyed — only val/cont payloads of the targets
         and their ancestors need refreshing. *)
      let modified = ref 0 in
      Timing.timed b set_exec (fun () ->
          Mview.sharing_payloads mv (fun () -> modified := refresh ()));
      Timing.timed b set_aux (fun () -> if commit then Store.commit store);
      emit {
        timing = b;
        terms_developed = 0;
        terms_surviving = 0;
        embeddings_added = 0;
        embeddings_removed = 0;
        tuples_modified = !modified;
        fallback_recompute = false;
      skipped_irrelevant = false;
      }
    end
  | Ins app ->
    let delta =
      Timing.timed b set_delta (fun () ->
          match shared with
          | Some sh -> Delta.of_shared sh mv.Mview.pat
          | None -> Delta.of_insert store mv.Mview.pat app)
    in
    let scope = full_scope mv in
    let candidates = candidate_terms mv ~scope in
    let terms =
      Timing.timed b set_expr (fun () ->
          if prune then
            List.filter (term_survives mv delta ~scope ~kind:KInsert) candidates
          else candidates)
    in
    let added = ref 0 and modified = ref 0 in
    Timing.timed b set_exec (fun () ->
        Mview.sharing_payloads mv @@ fun () ->
        share_fresh mv affected;
        List.iter
          (fun s ->
            let t = eval_term mv delta ~scope ~s_set:s ~survivors_only:false in
            let cols = Mview.stored_columns mv t in
            for r = 0 to Tuple_table.length t - 1 do
              Mview.add_binding mv cols r
            done;
            added := !added + Tuple_table.length t)
          terms;
        modified := refresh ());
    Timing.timed b set_aux (fun () ->
        maintain_mats_insert mv delta;
        if commit then Store.commit store);
    emit {
      timing = b;
      terms_developed = List.length candidates;
      terms_surviving = List.length terms;
      embeddings_added = !added;
      embeddings_removed = 0;
      tuples_modified = !modified;
      fallback_recompute = false;
      skipped_irrelevant = false;
    }
  | Del app ->
    let delta =
      Timing.timed b set_delta (fun () ->
          match shared with
          | Some sh -> Delta.of_shared sh mv.Mview.pat
          | None -> Delta.of_delete store mv.Mview.pat app)
    in
    let scope = full_scope mv in
    let candidates = candidate_terms mv ~scope in
    let terms =
      Timing.timed b set_expr (fun () ->
          if prune then
            List.filter (term_survives mv delta ~scope ~kind:KDelete) candidates
          else candidates)
    in
    let removed = ref 0 and modified = ref 0 in
    Timing.timed b set_exec (fun () ->
        Mview.sharing_payloads mv @@ fun () ->
        List.iter
          (fun s ->
            let t = eval_term mv delta ~scope ~s_set:s ~survivors_only:true in
            let cols = Mview.stored_columns mv t in
            for r = 0 to Tuple_table.length t - 1 do
              Mview.remove_binding mv cols r
            done;
            removed := !removed + Tuple_table.length t)
          terms;
        modified := refresh ());
    Timing.timed b set_aux (fun () ->
        maintain_mats_delete mv delta;
        if commit then Store.commit store);
    emit {
      timing = b;
      terms_developed = List.length candidates;
      terms_surviving = List.length terms;
      embeddings_added = 0;
      embeddings_removed = !removed;
      tuples_modified = !modified;
      fallback_recompute = false;
      skipped_irrelevant = false;
    }

let propagate ?prune mv u =
  let b = Timing.zero () in
  let store = mv.Mview.store in
  let targets = Timing.timed b set_find (fun () -> Update.targets store u) in
  let watches = vpred_watches mv targets in
  let applied =
    Timing.timed b set_apply (fun () ->
        match u with
        | Update.Insert _ -> Ins (Update.apply_insert store u ~targets)
        | Update.Delete _ -> Del (Update.apply_delete store ~targets)
        | Update.Replace_value { text; _ } ->
          let d, i = Update.apply_replace store ~text ~targets in
          Repl (d, i))
  in
  let flipped = watches_flipped mv watches in
  let r = propagate_applied ~commit:true ~flipped ?prune mv applied in
  r.timing.Timing.find_target <- b.Timing.find_target;
  r.timing.Timing.apply_doc <- b.Timing.apply_doc;
  r

let propagate_insert ?prune mv u =
  match u with
  | Update.Insert _ -> propagate ?prune mv u
  | Update.Delete _ | Update.Replace_value _ ->
    invalid_arg "Maint.propagate_insert: not an insertion"

let propagate_delete ?prune mv u =
  match u with
  | Update.Delete _ -> propagate ?prune mv u
  | Update.Insert _ | Update.Replace_value _ ->
    invalid_arg "Maint.propagate_delete: not a deletion"

module Terms = struct
  let candidates mv ~scope = candidate_terms mv ~scope

  let survives mv delta ~scope ~kind s =
    let kind = match kind with `Insert -> KInsert | `Delete -> KDelete in
    term_survives mv delta ~scope ~kind s

  let eval mv delta ~scope ~s_set ~survivors_only =
    eval_term mv delta ~scope ~s_set ~survivors_only
end
