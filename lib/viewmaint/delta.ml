type t = {
  tables : Tuple_table.t array;
  region : Id_region.t;
  target_ids : Dewey.t list;
}

(* [nodes] counts update-region nodes scanned during extraction (inserted
   nodes for Δ⁺, indexed detached nodes for Δ⁻); [rows] counts the delta-table
   rows produced. Both are bounded by the update's subtree size times the
   pattern width — never by the document. With a shared index, [nodes] and
   [extractions] are charged once per update (at index build time) while
   [rows] is still charged per consuming view, so the scan-work counters
   are independent of the number of registered views. *)
let obs = Obs.Scope.v "maint.delta"
let c_nodes = Obs.Scope.counter obs "nodes"
let c_rows = Obs.Scope.counter obs "rows"
let c_extractions = Obs.Scope.counter obs "extractions"

let flush_rows tables =
  if Obs.enabled () then
    Obs.Counter.add c_rows
      (Array.fold_left (fun acc tb -> acc + Tuple_table.length tb) 0 tables)

(* Shared update-region index: the label → sorted-entries map over the
   update region, built once per applied update. Per-view Δ extraction
   ({!of_shared}) then reduces to a hash lookup per pattern node plus the
   view-specific vpred/anchor filter — no re-walk of the update region
   per view. *)
module Shared = struct
  (* Entries are stored alongside the parallel array of arena handles,
     so Δ extraction never re-interns: the entries feed the value and
     anchor filters, the handles become the Δ tables. *)
  type nonrec t = {
    sh_region : Id_region.t;
    sh_targets : Dewey.t list;
    sh_arena : Dewey_arena.t;
    sh_by_label : (string, Store.entry array * int array) Hashtbl.t;
        (* each array pair in document order *)
    sh_star : Store.entry array * int array;
        (* element entries only, document order *)
  }

  let region t = t.sh_region
  let target_ids t = t.sh_targets
  let arena t = t.sh_arena
  let mem_label t l = Hashtbl.mem t.sh_by_label l
  let has_elements t = Array.length (fst t.sh_star) > 0

  let exists_label t pred =
    Hashtbl.fold (fun l _ acc -> acc || pred l) t.sh_by_label false

  let label_counts t =
    Hashtbl.fold
      (fun l (es, _) acc -> (l, Array.length es) :: acc)
      t.sh_by_label []

  let lookup t tag =
    if tag = "*" then t.sh_star
    else
      match Hashtbl.find_opt t.sh_by_label tag with
      | Some a -> a
      | None -> ([||], [||])

  (* The store staged the inserted nodes per label in document order as
     it assigned their identifiers: the index is those runs, shared with
     [Store.commit], not a re-walk of the forests. *)
  let of_insert store (applied : Update.applied_insert) =
    if Store.staged_count store <> applied.Update.fresh then
      invalid_arg
        "Delta.Shared.of_insert: the store holds staged nodes of another update";
    let by_label = Hashtbl.create 16 in
    List.iter
      (fun (l, es, hs) -> Hashtbl.replace by_label l (es, hs))
      (Store.staged_runs store);
    Obs.Counter.add c_nodes applied.Update.fresh;
    Obs.Counter.incr c_extractions;
    let roots =
      List.concat_map
        (fun (_, forest) -> List.map (Store.id_of store) forest)
        applied.Update.pairs
    in
    {
      sh_region = Id_region.of_roots roots;
      sh_targets = List.map fst applied.Update.pairs;
      sh_arena = Store.arena store;
      sh_by_label = by_label;
      sh_star = Store.staged_elements store;
    }

  (* The deleted nodes are the detached subtrees, which stay resolvable
     until the commit: walk them in preorder, roots in order, keeping the
     labels in [wanted] — O(region), never a relation probe.

     [wanted] narrows the indexed labels to the callers' interests (the
     union of the consuming views' pattern tags, ["*"] standing for every
     element label); labels outside [wanted] are absent from the index,
     so callers must not look them up. *)
  let of_delete ?wanted store (applied : Update.applied_delete) =
    let arena = Store.arena store and dict = Store.dict store in
    let star, tags =
      match wanted with
      | None -> (true, None)
      | Some tags ->
        let codes = Hashtbl.create 16 in
        List.iter
          (fun tag ->
            match Label_dict.find dict tag with
            | Some c -> Hashtbl.replace codes c ()
            | None -> ())
          tags;
        (List.mem "*" tags, Some codes)
    in
    let runs = Hashtbl.create 16 and star_run = Store.Run.create () in
    let total = ref 0 in
    List.iteri
      (fun seg root ->
        Xml_tree.iter
          (fun n ->
            let h = Store.handle_of_node store n in
            let lab = Dewey_arena.label arena h in
            let elem = n.Xml_tree.kind = Xml_tree.Element in
            let indexed =
              match tags with
              | None -> true
              | Some codes -> (star && elem) || Hashtbl.mem codes lab
            in
            if indexed then begin
              let e = { Store.id = Dewey_arena.to_dewey arena h; node = n } in
              let run =
                match Hashtbl.find_opt runs lab with
                | Some r -> r
                | None ->
                  let r = Store.Run.create () in
                  Hashtbl.add runs lab r;
                  r
              in
              Store.Run.push arena run ~seg e h;
              if elem then Store.Run.push arena star_run ~seg e h;
              incr total
            end)
          root)
      applied.Update.root_nodes;
    Obs.Counter.add c_nodes !total;
    Obs.Counter.incr c_extractions;
    let by_label = Hashtbl.create 16 in
    Hashtbl.iter
      (fun lab run ->
        Hashtbl.replace by_label (Label_dict.label dict lab)
          (Store.Run.seal arena run))
      runs;
    {
      sh_region = Id_region.of_roots applied.Update.roots;
      sh_targets = applied.Update.roots;
      sh_arena = arena;
      sh_by_label = by_label;
      sh_star = Store.Run.seal arena star_run;
    }
end

(* extr-pattern against the shared index: per pattern node, a label lookup
   plus the view's value-predicate and root-anchor filter. Entries arrive
   already in document order, so no per-table sort is needed. *)
let of_shared (sh : Shared.t) pat =
  let k = Pattern.node_count pat in
  let tables =
    Array.init k (fun i ->
        (* Handles come pre-interned from the shared index, so this
           per-view extraction is allocation-lean: a filter over an int
           column. *)
        Tuple_table.of_handles ~sorted:true ~arena:(Shared.arena sh) ~node:i
          (Plan.selected_handles pat i (Shared.lookup sh pat.Pattern.tags.(i))))
  in
  flush_rows tables;
  {
    tables;
    region = Shared.region sh;
    target_ids = Shared.target_ids sh;
  }

let of_insert store pat (applied : Update.applied_insert) =
  of_shared (Shared.of_insert store applied) pat

(* Δ⁻ for one view: the shared index narrowed to the view's tags. *)
let of_delete store pat (applied : Update.applied_delete) =
  of_shared
    (Shared.of_delete ~wanted:(Array.to_list pat.Pattern.tags) store applied)
    pat

let nonempty t i = not (Tuple_table.is_empty t.tables.(i))
