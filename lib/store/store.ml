type entry = { id : Dewey.t; node : Xml_tree.node }

let obs_span = Obs.Scope.v "store.span"
let c_span_calls = Obs.Scope.counter obs_span "calls"
let c_span_probes = Obs.Scope.counter obs_span "probes"
let c_span_rows = Obs.Scope.counter obs_span "rows"
let obs_scan = Obs.Scope.v "store.scan"
let c_scan_calls = Obs.Scope.counter obs_scan "calls"
let c_scan_rows = Obs.Scope.counter obs_scan "rows"
let obs_hl = Obs.Scope.v "store.hl"
let c_hl_routed = Obs.Scope.counter obs_hl "routed_tail"
let c_hl_drains = Obs.Scope.counter obs_hl "drains"
let c_hl_drain_rows = Obs.Scope.counter obs_hl "drain_rows"
let c_hl_merge_copies = Obs.Scope.counter obs_hl "merge_copies"

module Dewey_tbl = Hashtbl.Make (struct
  type t = Dewey.t

  let equal = Dewey.equal
  let hash = Dewey.hash
end)

(* [handles] is parallel to [sorted]: the arena handle of each entry's
   identifier, maintained through the same merge/purge passes so that
   columnar scans ({!relation_handles}) never re-intern. A relation is
   physically two sorted runs: the [sorted]/[handles] main part plus a
   (normally empty) [tail]/[tail_h] pending part holding committed rows
   of heavy-partitioned labels that have not yet been merged into the
   main arrays — readers see their union, in document order. *)
type rel = {
  mutable sorted : entry array;
  mutable handles : int array;
  mutable tail : entry array;
  mutable tail_h : int array;
}

type t = {
  root : Xml_tree.node;
  dict : Label_dict.t;
  arena : Dewey_arena.t; (* intern arena: one per store, append-only *)
  ids : (int, Dewey.t) Hashtbl.t; (* node serial -> id *)
  hids : (int, int) Hashtbl.t; (* node serial -> arena handle *)
  nodes : Xml_tree.node Dewey_tbl.t; (* id -> node *)
  rels : (int, rel) Hashtbl.t; (* label code -> canonical relation *)
  mutable staged_adds : entry list; (* newest first *)
  detached : Xml_tree.node Dewey_tbl.t;
      (* detached subtree roots, unregistered at commit *)
  mutable live : int;
  mutable partition : (string -> bool) option;
      (* heavy-label predicate: commit routes staged rows of heavy
         labels into the pending tail instead of the main merge *)
  mutable tail_budget : int; (* force a tail merge past this many rows *)
}

let root t = t.root
let dict t = t.dict
let arena t = t.arena

(* A node inside a detached-but-uncommitted subtree is already dead for
   the outside world; its identifier still resolves internally so that
   Δ⁻ tables can be extracted from the subtree. The ancestors-or-self of
   an identifier are its step-prefixes, so the probe is O(depth). *)
let in_detached t id =
  Dewey_tbl.length t.detached > 0
  && (Dewey_tbl.mem t.detached id
     || List.exists (fun a -> Dewey_tbl.mem t.detached a) (Dewey.ancestors id))

let raw_id t node = Hashtbl.find t.ids node.Xml_tree.serial

let id_of = raw_id

let mem t node =
  match Hashtbl.find_opt t.ids node.Xml_tree.serial with
  | None -> false
  | Some id -> not (in_detached t id)

let node_of t id =
  if in_detached t id then None else Dewey_tbl.find_opt t.nodes id

let node_count t = t.live

let rel_of t lab_code =
  match Hashtbl.find_opt t.rels lab_code with
  | Some r -> r
  | None ->
    let r = { sorted = [||]; handles = [||]; tail = [||]; tail_h = [||] } in
    Hashtbl.add t.rels lab_code r;
    r

(* Merge two aligned sorted (entry, handle) runs into fresh arrays. *)
let merge_runs (a, ah) (b, bh) =
  let na = Array.length a and nb = Array.length b in
  if na = 0 then (b, bh)
  else if nb = 0 then (a, ah)
  else begin
    let merged = Array.make (na + nb) a.(0) in
    let mergedh = Array.make (na + nb) 0 in
    let i = ref 0 and j = ref 0 in
    for k = 0 to na + nb - 1 do
      if !j >= nb || (!i < na && Dewey.compare a.(!i).id b.(!j).id <= 0) then begin
        merged.(k) <- a.(!i);
        mergedh.(k) <- ah.(!i);
        incr i
      end
      else begin
        merged.(k) <- b.(!j);
        mergedh.(k) <- bh.(!j);
        incr j
      end
    done;
    (merged, mergedh)
  end

(* Readers never mutate the relation: stripe 0 of domain-parallel
   propagation runs on the main domain, so an in-place drain on read
   would race with child-domain scans of the same arrays. A non-empty
   tail costs a fresh merged copy until an explicit {!drain_label} /
   {!drain_all} (or a budget-crossing commit) folds it in. *)
let rel_view r =
  if Array.length r.tail = 0 then (r.sorted, r.handles)
  else begin
    Obs.Counter.incr c_hl_merge_copies;
    merge_runs (r.sorted, r.handles) (r.tail, r.tail_h)
  end

let drain_rel r =
  let n = Array.length r.tail in
  if n > 0 then begin
    let merged, mergedh = merge_runs (r.sorted, r.handles) (r.tail, r.tail_h) in
    r.sorted <- merged;
    r.handles <- mergedh;
    r.tail <- [||];
    r.tail_h <- [||];
    Obs.Counter.incr c_hl_drains;
    Obs.Counter.add c_hl_drain_rows n
  end

(* Interning at registration time keeps every live identifier (and all
   its ancestors) in the arena, so scans hand pre-interned handles to
   the joins and every intern during parallel propagation is a pure
   lookup. *)
let register t node id =
  Hashtbl.replace t.ids node.Xml_tree.serial id;
  Hashtbl.replace t.hids node.Xml_tree.serial (Dewey_arena.intern t.arena id);
  Dewey_tbl.replace t.nodes id node;
  t.live <- t.live + 1

let unregister t node =
  let serial = node.Xml_tree.serial in
  match Hashtbl.find_opt t.ids serial with
  | None -> ()
  | Some id ->
    Hashtbl.remove t.ids serial;
    Hashtbl.remove t.hids serial;
    Dewey_tbl.remove t.nodes id

let handle_of_node t node = Hashtbl.find t.hids node.Xml_tree.serial

(* Assign IDs to [node] (child of the node identified by [parent_id], with
   ordinal [ord]) and all its descendants; stage every new entry. [ord_of],
   when given, overrides the canonical 1..n child numbering — checkpoint
   recovery uses it to re-intern the exact dynamic ordinals the crashed
   store had minted, so persisted view images keep resolving. *)
let rec assign t ?ord_of node ~parent_id ~ord =
  let lab = Label_dict.code t.dict (Xml_tree.label node) in
  let id =
    match parent_id with
    | None -> Dewey.root ~lab
    | Some pid -> Dewey.child pid ~lab ~ord
  in
  register t node id;
  t.staged_adds <- { id; node } :: t.staged_adds;
  List.iteri
    (fun i child ->
      let ord = match ord_of with None -> [| i + 1 |] | Some f -> f child in
      assign t ?ord_of child ~parent_id:(Some id) ~ord)
    node.Xml_tree.children

let of_document ?dict ?ord_of root =
  let dict = match dict with Some d -> d | None -> Label_dict.create () in
  let t =
    {
      root;
      dict;
      arena = Dewey_arena.create ();
      ids = Hashtbl.create 4096;
      hids = Hashtbl.create 4096;
      nodes = Dewey_tbl.create 4096;
      rels = Hashtbl.create 64;
      staged_adds = [];
      detached = Dewey_tbl.create 16;
      live = 0;
      partition = None;
      tail_budget = max_int;
    }
  in
  assign t ?ord_of root ~parent_id:None ~ord:Dewey.Ord.first;
  (* Inline commit of the initial load. *)
  let by_label = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let lab = Dewey.label e.id in
      let prev = try Hashtbl.find by_label lab with Not_found -> [] in
      Hashtbl.replace by_label lab (e :: prev))
    t.staged_adds;
  Hashtbl.iter
    (fun lab entries ->
      let arr = Array.of_list entries in
      Array.sort (fun a b -> Dewey.compare a.id b.id) arr;
      let r = rel_of t lab in
      r.sorted <- arr;
      r.handles <- Array.map (fun e -> Hashtbl.find t.hids e.node.Xml_tree.serial) arr)
    by_label;
  t.staged_adds <- [];
  t

let find_rel t label =
  match Label_dict.find t.dict label with
  | None -> None
  | Some code -> Hashtbl.find_opt t.rels code

let relation t label =
  match find_rel t label with
  | None -> [||]
  | Some r ->
    let sorted, _ = rel_view r in
    Obs.Counter.incr c_scan_calls;
    Obs.Counter.add c_scan_rows (Array.length sorted);
    sorted

let relation_handles t label =
  match find_rel t label with
  | None -> ([||], [||])
  | Some r ->
    let (sorted, _) as v = rel_view r in
    Obs.Counter.incr c_scan_calls;
    Obs.Counter.add c_scan_rows (Array.length sorted);
    v

(* Subtrees are contiguous document-order intervals, so the entries of a
   sorted relation lying under [root] form one block: binary-search its
   two endpoints instead of scanning the relation. *)
(* Subtree bounds of [root] in the sorted array: [start, stop). *)
let span_bounds arr ~root =
  let track = Obs.enabled () in
  let probes = ref 0 in
  let n = Array.length arr in
  (* First index with id >= root. *)
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    if track then incr probes;
    let mid = (!lo + !hi) / 2 in
    if Dewey.compare arr.(mid).id root < 0 then lo := mid + 1 else hi := mid
  done;
  let start = !lo in
  (* First index past the subtree: id > root and not below it. *)
  let lo = ref start and hi = ref n in
  while !lo < !hi do
    if track then incr probes;
    let mid = (!lo + !hi) / 2 in
    if Dewey.is_ancestor_or_self root arr.(mid).id then lo := mid + 1
    else hi := mid
  done;
  let stop = !lo in
  if track then begin
    Obs.Counter.incr c_span_calls;
    Obs.Counter.add c_span_probes !probes;
    Obs.Counter.add c_span_rows (max 0 (stop - start))
  end;
  (start, stop)

let relation_span t label ~root =
  match find_rel t label with
  | None -> [||]
  | Some r ->
    let sorted, _ = rel_view r in
    let start, stop = span_bounds sorted ~root in
    if stop <= start then [||] else Array.sub sorted start (stop - start)

let relation_span_handles t label ~root =
  match find_rel t label with
  | None -> ([||], [||])
  | Some r ->
    let sorted, handles = rel_view r in
    let start, stop = span_bounds sorted ~root in
    if stop <= start then ([||], [||])
    else
      ( Array.sub sorted start (stop - start),
        Array.sub handles start (stop - start) )

let relation_labels t =
  Hashtbl.fold
    (fun code r acc ->
      if Array.length r.sorted > 0 || Array.length r.tail > 0 then
        Label_dict.label t.dict code :: acc
      else acc)
    t.rels []

let relation_size t label =
  match find_rel t label with
  | None -> 0
  | Some r -> Array.length r.sorted + Array.length r.tail

let pending_rows t =
  Hashtbl.fold (fun _ r acc -> acc + Array.length r.tail) t.rels 0

let drain_label t label =
  match find_rel t label with None -> () | Some r -> drain_rel r

let drain_all t = Hashtbl.iter (fun _ r -> drain_rel r) t.rels

let set_partition t ?tail_budget pred =
  (* Changing the predicate invalidates the routing of already-buffered
     rows; fold everything in first so invariants restart clean. *)
  drain_all t;
  t.partition <- pred;
  t.tail_budget <-
    (match tail_budget with
    | Some b when b > 0 -> b
    | Some _ | None -> max_int)

(* {2 Per-label statistics}

   Frequency and sibling fan-out of each label over the live identifier
   set, computed by one pass over the (merged) relation: every entry's
   parent prefix is counted in a scratch table. O(|R_label|) per call —
   callers (the heavy-light rebalancer) are expected to amortize. *)
type label_stat = { ls_count : int; ls_parents : int; ls_max_fanout : int }

let stat_of_arrays sorted tail =
  let fanout = Dewey_tbl.create 64 in
  let bump e =
    match Dewey.parent e.id with
    | None -> ()
    | Some p ->
      let prev = try Dewey_tbl.find fanout p with Not_found -> 0 in
      Dewey_tbl.replace fanout p (prev + 1)
  in
  Array.iter bump sorted;
  Array.iter bump tail;
  let parents = Dewey_tbl.length fanout in
  let max_fanout = Dewey_tbl.fold (fun _ n acc -> max n acc) fanout 0 in
  {
    ls_count = Array.length sorted + Array.length tail;
    ls_parents = parents;
    ls_max_fanout = max_fanout;
  }

let label_stat t label =
  match find_rel t label with
  | None -> { ls_count = 0; ls_parents = 0; ls_max_fanout = 0 }
  | Some r -> stat_of_arrays r.sorted r.tail

let label_stats t =
  List.map (fun lab -> (lab, label_stat t lab)) (relation_labels t)

let attach t ~parent forest =
  let parent_id = id_of t parent in
  (* Ordinal of the first new child: strictly after the last existing one. *)
  let last_ord =
    match List.rev parent.Xml_tree.children with
    | [] -> None
    | last :: _ -> Some (Dewey.last_ord (id_of t last))
  in
  let ord = ref (match last_ord with None -> Dewey.Ord.first | Some o -> Dewey.Ord.after o) in
  List.iter
    (fun tree ->
      assign t tree ~parent_id:(Some parent_id) ~ord:!ord;
      ord := Dewey.Ord.after !ord)
    forest;
  Xml_tree.append_children parent forest

let attach_beside t ~sibling ~where forest =
  let parent =
    match sibling.Xml_tree.parent with
    | Some p -> p
    | None -> invalid_arg "Store.attach_beside: sibling has no parent"
  in
  let parent_id = id_of t parent in
  let sib_ord = Dewey.last_ord (id_of t sibling) in
  (* Bounds: the neighbours' ordinals on the chosen side. *)
  let neighbour =
    let rec scan prev = function
      | [] -> None
      | c :: rest ->
        if c == sibling then
          match where with
          | `Before -> prev
          | `After -> ( match rest with [] -> None | n :: _ -> Some n)
        else scan (Some c) rest
    in
    scan None parent.Xml_tree.children
  in
  let lo, hi =
    match where with
    | `Before -> (Option.map (fun n -> Dewey.last_ord (id_of t n)) neighbour, Some sib_ord)
    | `After -> (Some sib_ord, Option.map (fun n -> Dewey.last_ord (id_of t n)) neighbour)
  in
  let fresh_ord lo hi =
    match (lo, hi) with
    | Some lo, Some hi -> Dewey.Ord.between lo hi
    | None, Some hi -> Dewey.Ord.before hi
    | Some lo, None -> Dewey.Ord.after lo
    | None, None -> Dewey.Ord.first
  in
  let lo = ref lo in
  List.iter
    (fun tree ->
      let ord = fresh_ord !lo hi in
      assign t tree ~parent_id:(Some parent_id) ~ord;
      lo := Some ord)
    forest;
  Xml_tree.insert_children parent ~anchor:sibling ~where forest

(* Detaching is O(1) apart from the tree unlink: the subtree stays
   internally resolvable (for Δ⁻ extraction) until [commit] sweeps it. *)
let detach t node =
  (match node.Xml_tree.parent with
  | Some parent -> Xml_tree.remove_child parent node
  | None -> ());
  match Hashtbl.find_opt t.ids node.Xml_tree.serial with
  | None -> ()
  | Some id -> Dewey_tbl.replace t.detached id node

let commit t =
  (* Read-only parallel contract: domain-parallel view propagation (see
     Batch / View_set) relies on the store being immutable while child
     domains read it, so folding staged changes into the relations is a
     main-domain-only operation. *)
  if not (Domain.is_main_domain ()) then
    invalid_arg "Store.commit: must be called from the main domain";
  if t.staged_adds <> [] then begin
    let by_label = Hashtbl.create 16 in
    List.iter
      (fun e ->
        (* An entry staged and then detached before commit must not enter
           the relation. *)
        if Hashtbl.mem t.ids e.node.Xml_tree.serial && not (in_detached t e.id) then begin
          let lab = Dewey.label e.id in
          let prev = try Hashtbl.find by_label lab with Not_found -> [] in
          Hashtbl.replace by_label lab (e :: prev)
        end)
      t.staged_adds;
    Hashtbl.iter
      (fun lab entries ->
        let r = rel_of t lab in
        let fresh = Array.of_list entries in
        Array.sort (fun a b -> Dewey.compare a.id b.id) fresh;
        let freshh =
          Array.map (fun e -> Hashtbl.find t.hids e.node.Xml_tree.serial) fresh
        in
        let heavy =
          match t.partition with
          | None -> false
          | Some pred -> pred (Label_dict.label t.dict lab)
        in
        if heavy then begin
          (* Heavy label: buffer the batch in the pending tail — O(|tail|
             + |batch|) instead of O(|R|) — and only fold into the main
             run once the tail crosses its amortization budget. *)
          let tail, tail_h = merge_runs (r.tail, r.tail_h) (fresh, freshh) in
          r.tail <- tail;
          r.tail_h <- tail_h;
          Obs.Counter.add c_hl_routed (Array.length fresh);
          if Array.length tail >= t.tail_budget then drain_rel r
        end
        else begin
          (* Light label: the eager path. A label freshly demoted from
             heavy may still carry a tail — fold it in first so the
             single merge below sees one sorted main run. *)
          drain_rel r;
          let merged, mergedh = merge_runs (r.sorted, r.handles) (fresh, freshh) in
          r.sorted <- merged;
          r.handles <- mergedh
        end)
      by_label;
    t.staged_adds <- []
  end;
  if Dewey_tbl.length t.detached > 0 then begin
    (* Sweep the detached subtrees out of the identifier indexes, noting
       which labels lost nodes; only those relations need purging. *)
    let touched = Hashtbl.create 16 in
    Dewey_tbl.iter
      (fun _ subtree ->
        Xml_tree.iter
          (fun n ->
            match Hashtbl.find_opt t.ids n.Xml_tree.serial with
            | None -> ()
            | Some id ->
              Hashtbl.replace touched (Dewey.label id) ();
              unregister t n;
              t.live <- t.live - 1)
          subtree)
      t.detached;
    Dewey_tbl.reset t.detached;
    Hashtbl.iter
      (fun lab () ->
        match Hashtbl.find_opt t.rels lab with
        | None -> ()
        | Some r ->
          (* Single pass: compact live entries toward the front in place,
             then truncate — no pre-scan, no Seq allocation. The pending
             tail is purged the same way: a heavy-buffered row can be
             detached before its tail is ever drained. *)
          let purge arr h set =
            let n = Array.length arr in
            let k = ref 0 in
            for i = 0 to n - 1 do
              let e = arr.(i) in
              if Hashtbl.mem t.ids e.node.Xml_tree.serial then begin
                if !k < i then begin
                  arr.(!k) <- e;
                  h.(!k) <- h.(i)
                end;
                incr k
              end
            done;
            if !k < n then set (Array.sub arr 0 !k) (Array.sub h 0 !k)
          in
          purge r.sorted r.handles (fun a h ->
              r.sorted <- a;
              r.handles <- h);
          purge r.tail r.tail_h (fun a h ->
              r.tail <- a;
              r.tail_h <- h))
      touched
  end
