let obs_defer = Obs.Scope.v "maint.defer"
let c_deferrals = Obs.Scope.counter obs_defer "deferrals"
let c_defer_work = Obs.Scope.counter obs_defer "deferred_work"
let c_drains = Obs.Scope.counter obs_defer "drains"
let c_budget_drains = Obs.Scope.counter obs_defer "budget_drains"

(* Per-view deferral state of the adaptive (heavy-light) path: [stale]
   means the materialized image no longer reflects the committed
   document; [work] is the accumulated deferred delta work (shared-index
   entry counts), compared against the drain budget. No update payload
   is buffered — a drain is an exact [Mview.rebuild] from the committed
   store, which covers any mix of deferred inserts, deletes, replaces
   and value-predicate flips. *)
type buf = { mutable stale : bool; mutable work : int }

type adaptive = { hl : Hl.t; bufs : (string, buf) Hashtbl.t }

(* Views live in [views] (reverse insertion order, as before) for ordered
   traversal, and in [index] for O(1) name lookup. *)
type t = {
  store : Store.t;
  mutable views : Mview.t list; (* reverse order *)
  index : (string, Mview.t) Hashtbl.t;
  mutable journal : (Update.t -> unit) option;
  mutable adaptive : adaptive option;
}

let create store =
  {
    store;
    views = [];
    index = Hashtbl.create 16;
    journal = None;
    adaptive = None;
  }

let store t = t.store

let set_journal t j = t.journal <- j

let name_of mv = mv.Mview.pat.Pattern.name

let find t name = Hashtbl.find_opt t.index name

let register t mv =
  let name = name_of mv in
  if Hashtbl.mem t.index name then
    invalid_arg
      (Printf.sprintf "View_set.add: a view named %S already exists" name);
  t.views <- mv :: t.views;
  Hashtbl.replace t.index name mv

let add t ?policy pat =
  let mv = Mview.materialize ?policy t.store pat in
  register t mv;
  mv

let add_view t mv =
  if mv.Mview.store != t.store then
    invalid_arg "View_set.add_view: view materialized over a different store";
  register t mv

let remove t name =
  Hashtbl.remove t.index name;
  t.views <- List.filter (fun mv -> name_of mv <> name) t.views;
  match t.adaptive with
  | None -> ()
  | Some a -> Hashtbl.remove a.bufs name

let views t = List.rev t.views

(* {2 Adaptive (heavy-light) maintenance} *)

let buf_of a name =
  match Hashtbl.find_opt a.bufs name with
  | Some b -> b
  | None ->
    let b = { stale = false; work = 0 } in
    Hashtbl.add a.bufs name b;
    b

let stale t =
  match t.adaptive with
  | None -> []
  | Some a ->
    List.filter_map
      (fun mv ->
        match Hashtbl.find_opt a.bufs (name_of mv) with
        | Some b when b.stale -> Some (name_of mv)
        | Some _ | None -> None)
      (views t)

let drain_view t name =
  match t.adaptive with
  | None -> false
  | Some a -> (
    match (find t name, Hashtbl.find_opt a.bufs name) with
    | Some mv, Some b when b.stale ->
      (* Fold the store's pending tails in first so the rebuild scans
         plain main runs instead of paying a merged copy per lookup. *)
      Store.drain_all t.store;
      Mview.rebuild mv;
      b.stale <- false;
      b.work <- 0;
      Obs.Counter.incr c_drains;
      true
    | _ -> false)

let drain_all t =
  List.filter (fun name -> drain_view t name) (List.map name_of (views t))

let set_adaptive t hl =
  (* Leaving adaptive mode (or swapping classifiers) must not leave
     stale images behind. *)
  ignore (drain_all t);
  (match t.adaptive with
  | Some a -> Hl.detach a.hl
  | None -> ());
  t.adaptive <-
    (match hl with
    | None -> None
    | Some hl -> Some { hl; bufs = Hashtbl.create 16 })

let adaptive t = Option.map (fun a -> a.hl) t.adaptive

(* One update, N views. The work that does not depend on the view — find
   targets, mutate the document, extract the update region — runs once;
   per-view propagation consumes the shared index by lookup. Views are
   then split three ways:

   - [skipped]: the relevance pre-filter proves propagation a no-op
     (disjoint label footprint, no val/cont node labeled like a node on
     the update's root paths, watches clean);
   - [clean]: incremental propagation against the pre-update relations,
     read-only on the store;
   - [committing]: a flipped value-predicate watch, or a replace-value
     against a view with structural "#text" nodes; both take the exact
     rebuild path, which commits the store, so they run after the shared
     commit.

   The store commit is hoisted out of per-view propagation ([~commit:
   false] for every clean view) and performed exactly once, between the
   clean views and the committing views. *)
let update t u =
  (* Write-ahead: the statement reaches the journal before any document
     mutation, so a crash mid-update replays it in full. *)
  (match t.journal with None -> () | Some j -> j u);
  let views = views t in
  match views with
  | [] ->
    (* No views: still apply the document side. *)
    let _, _ = Maint.apply_only t.store u in
    Store.commit t.store;
    (match t.adaptive with None -> () | Some a -> Hl.rebalance a.hl);
    []
  | _ ->
    let b = Timing.zero () in
    let targets =
      Timing.timed b Maint.Phase.find_target (fun () -> Update.targets t.store u)
    in
    (* Predicate watches must be recorded per view before the mutation. *)
    let watched =
      List.map (fun mv -> (mv, Maint.vpred_watches mv targets)) views
    in
    let applied =
      Timing.timed b Maint.Phase.apply_doc (fun () ->
          match u with
          | Update.Insert _ -> Maint.Ins (Update.apply_insert t.store u ~targets)
          | Update.Delete _ -> Maint.Del (Update.apply_delete t.store ~targets)
          | Update.Replace_value { text; _ } ->
            let d, i = Update.apply_replace t.store ~text ~targets in
            Maint.Repl (d, i))
    in
    (* Shared update-region index: built once, consumed per view. The
       delete build is narrowed to the union of the views' label
       footprints. *)
    let wanted =
      let star = ref false in
      let tags = Hashtbl.create 16 in
      List.iter
        (fun mv ->
          let fp = mv.Mview.footprint in
          if fp.Mview.fp_star then star := true;
          Array.iter (fun tag -> Hashtbl.replace tags tag ()) fp.Mview.fp_tags)
        views;
      let l = Hashtbl.fold (fun k () acc -> k :: acc) tags [] in
      if !star then "*" :: l else l
    in
    (* The payload-affected identifiers are collected here too, once,
       for the skip test and every view's PIMT/PDMT. *)
    let (shared, labels), affected =
      Timing.timed b Maint.Phase.compute_delta (fun () ->
          ( (match applied with
            | Maint.Ins app ->
              let sh = Delta.Shared.of_insert t.store app in
              (Some sh, Batch.Labels sh)
            | Maint.Del app ->
              let sh = Delta.Shared.of_delete ~wanted t.store app in
              (Some sh, Batch.Labels sh)
            | Maint.Repl _ -> (None, Batch.Text_only)),
            Maint.affected_of t.store applied ))
    in
    let text_structural mv =
      match applied with
      | Maint.Repl _ ->
        Array.exists (( = ) "#text") mv.Mview.pat.Pattern.tags
      | Maint.Ins _ | Maint.Del _ -> false
    in
    (* [`Skip] / [`Clean] / [`Commit] / [`Defer] per view, in insertion
       order. [`Defer] exists only in adaptive mode: the update's
       delta reaches the view through a heavy-partitioned label, or the
       view is already stale — either way propagation is deferred (the
       view is marked stale and the work accounted against its drain
       budget) instead of paying the eager path. A stale view must
       never run incremental propagation or the exact-rebuild-now path:
       both assume the image matches the pre-update document. *)
    let heavy_route =
      match t.adaptive with
      | None -> fun _ -> false
      | Some a -> fun mv -> Batch.routes_heavy ~heavy:(Hl.is_heavy a.hl) mv labels
    in
    let classified =
      List.map
        (fun (mv, watches) ->
          let is_stale =
            match t.adaptive with
            | Some a -> (buf_of a (name_of mv)).stale
            | None -> false
          in
          let flipped = Maint.watches_flipped mv watches in
          let forced = flipped || text_structural mv in
          let cls =
            if is_stale then
              if (not forced) && Batch.can_skip mv labels affected then `Skip
              else `Defer
            else
              let defer = heavy_route mv in
              if forced then if defer then `Defer else `Commit
              else if Batch.can_skip mv labels affected then `Skip
              else if defer then `Defer
              else `Clean
          in
          (mv, flipped, cls))
        watched
    in
    let clean_reports =
      List.filter_map
        (fun (mv, _, cls) ->
          match cls with
          | `Clean ->
            Some
              ( mv,
                Maint.propagate_applied ~commit:false ?shared ~affected mv applied
              )
          | `Skip | `Commit | `Defer -> None)
        classified
    in
    Timing.timed b Maint.Phase.update_aux (fun () -> Store.commit t.store);
    (* Deferred work units: the shared index's total entry count — the
       delta rows a drain will have to reconcile — plus one for the
       statement itself (replace-value deltas are single-row). *)
    let stmt_work =
      match labels with
      | Batch.Text_only -> 1
      | Batch.Labels sh ->
        List.fold_left
          (fun acc (_, n) -> acc + n)
          1
          (Delta.Shared.label_counts sh)
    in
    let reports =
      List.map
        (fun (mv, flipped, cls) ->
          match cls with
          | `Skip -> (mv, Maint.skipped_report ())
          | `Defer ->
            (match t.adaptive with
            | Some a ->
              let b = buf_of a (name_of mv) in
              b.stale <- true;
              b.work <- b.work + stmt_work;
              Obs.Counter.incr c_deferrals;
              Obs.Counter.add c_defer_work stmt_work
            | None -> assert false);
            (mv, Maint.deferred_report ())
          | `Commit -> (mv, Maint.propagate_applied ~flipped ~affected mv applied)
          | `Clean -> (mv, List.assq mv clean_reports))
        classified
    in
    (* Attribute the shared phases — target location, document mutation,
       shared-index build, store commit — to the first report (they were
       timed into the [maint.phase] timers as they ran). *)
    (match reports with
    | (_, first) :: _ ->
      first.Maint.timing.Timing.find_target <-
        first.Maint.timing.Timing.find_target +. b.Timing.find_target;
      first.Maint.timing.Timing.apply_doc <-
        first.Maint.timing.Timing.apply_doc +. b.Timing.apply_doc;
      first.Maint.timing.Timing.compute_delta <-
        first.Maint.timing.Timing.compute_delta +. b.Timing.compute_delta;
      first.Maint.timing.Timing.update_aux <-
        first.Maint.timing.Timing.update_aux +. b.Timing.update_aux
    | [] -> ());
    (* Adaptive post-step, on the committed store: drain any view whose
       accumulated deferred work crossed its amortization budget, then
       let the classifier migrate threshold-crossing labels. *)
    (match t.adaptive with
    | None -> ()
    | Some a ->
      let budget = (Hl.config a.hl).Hl.drain_budget in
      List.iter
        (fun mv ->
          let name = name_of mv in
          match Hashtbl.find_opt a.bufs name with
          | Some bf when bf.stale && bf.work >= budget ->
            Obs.Counter.incr c_budget_drains;
            ignore (drain_view t name)
          | Some _ | None -> ())
        views;
      Hl.rebalance a.hl);
    reports
