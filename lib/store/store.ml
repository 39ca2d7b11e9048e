type entry = { id : Dewey.t; node : Xml_tree.node }

let obs_scan = Obs.Scope.v "store.scan"
let c_scan_calls = Obs.Scope.counter obs_scan "calls"
let c_scan_rows = Obs.Scope.counter obs_scan "rows"
let obs_hl = Obs.Scope.v "store.hl"
let c_hl_routed = Obs.Scope.counter obs_hl "routed_tail"
let c_hl_drains = Obs.Scope.counter obs_hl "drains"
let c_hl_drain_rows = Obs.Scope.counter obs_hl "drain_rows"
let c_hl_merge_copies = Obs.Scope.counter obs_hl "merge_copies"

module Itbl = Dewey_arena.Tbl

(* The node slot of a handle no live node holds. *)
let vacant = Xml_tree.text ""
let vacant_entry = { id = Dewey.root ~lab:0; node = vacant }

(* Reorder aligned (entry, handle) arrays into document order. *)
let sort_pairs arena (es : entry array) (hs : int array) =
  let idx = Array.init (Array.length hs) Fun.id in
  Array.stable_sort (fun a b -> Dewey_arena.compare arena hs.(a) hs.(b)) idx;
  (Array.map (fun j -> es.(j)) idx, Array.map (fun j -> hs.(j)) idx)

module Run = struct
  (* A growable run of (entry, handle) pairs fed by preorder walks. Each
     walk is one [seg]ment: a preorder walk of one subtree is already in
     document order, so order can only break where a segment starts, and
     only those pushes pay a comparison. [seal] trims the run to exact
     length and sorts it only if such a boundary was out of order. A
     sealed run's arrays are never written again — a later push grows
     into fresh arrays — so they can be handed out. Handle-only runs
     leave [es] empty. *)
  type t = {
    mutable es : entry array;
    mutable hs : int array;
    mutable n : int;
    mutable seg : int;
    mutable ordered : bool;
  }

  let create () = { es = [||]; hs = [||]; n = 0; seg = -1; ordered = true }

  let check arena r ~seg h =
    if seg <> r.seg then begin
      if r.ordered && r.n > 0 && Dewey_arena.compare arena r.hs.(r.n - 1) h > 0 then
        r.ordered <- false;
      r.seg <- seg
    end

  let grow_hs r =
    let hs = Array.make (max 8 (2 * r.n)) 0 in
    Array.blit r.hs 0 hs 0 r.n;
    r.hs <- hs

  let push arena r ~seg e h =
    check arena r ~seg h;
    if r.n = Array.length r.hs then begin
      grow_hs r;
      let es = Array.make (Array.length r.hs) vacant_entry in
      Array.blit r.es 0 es 0 r.n;
      r.es <- es
    end;
    Array.unsafe_set r.es r.n e;
    Array.unsafe_set r.hs r.n h;
    r.n <- r.n + 1

  let push_handle arena r ~seg h =
    check arena r ~seg h;
    if r.n = Array.length r.hs then grow_hs r;
    Array.unsafe_set r.hs r.n h;
    r.n <- r.n + 1

  let seal arena r =
    if Array.length r.hs > r.n then begin
      r.hs <- Array.sub r.hs 0 r.n;
      r.es <- Array.sub r.es 0 r.n
    end;
    if not r.ordered then begin
      let es, hs = sort_pairs arena r.es r.hs in
      r.es <- es;
      r.hs <- hs;
      r.ordered <- true
    end;
    (r.es, r.hs)

  let seal_handles arena r =
    if Array.length r.hs > r.n then r.hs <- Array.sub r.hs 0 r.n;
    if not r.ordered then begin
      let hs = Array.copy r.hs in
      Array.stable_sort (Dewey_arena.compare arena) hs;
      r.hs <- hs;
      r.ordered <- true
    end;
    r.hs
end

(* [handles] is parallel to [sorted]: the arena handle of each entry's
   identifier, maintained through the same merge/purge passes so that
   scans ({!relation_handles}) hand tuple tables their handle column
   without re-interning. A relation is
   physically two sorted runs: the [sorted]/[handles] main part plus a
   (normally empty) [tail]/[tail_h] pending part holding committed rows
   of heavy-partitioned labels that have not yet been merged into the
   main arrays — readers see their union, in document order. Published
   arrays are never written again: every commit builds fresh ones. *)
type rel = {
  mutable sorted : entry array;
  mutable handles : int array;
  mutable tail : entry array;
  mutable tail_h : int array;
}

(* One node index: [hids] maps a node's serial to its arena handle and
   [nodes] maps a handle back to the node holding it ([vacant] when
   none does); the identifier is the arena's [to_dewey] of the handle.
   Nodes of detached-but-uncommitted subtrees stay in both until the
   commit sweeps them, so no identifier can be minted twice within one
   commit. *)
type t = {
  root : Xml_tree.node;
  dict : Label_dict.t;
  arena : Dewey_arena.t; (* intern arena: one per store, append-only *)
  hids : int Itbl.t;
  mutable nodes : Xml_tree.node array;
  rels : (int, rel) Hashtbl.t; (* label code -> canonical relation *)
  staged : Run.t Itbl.t;
      (* label code -> nodes attached since the last commit, document
         order once sealed: the statement's Δ⁺, read by the shared Δ
         index and folded into the relations by [commit] *)
  mutable staged_elems : Run.t; (* the element nodes among them *)
  mutable staged_n : int;
  mutable seg : int; (* preorder walks so far, see {!Run} *)
  detached : Xml_tree.node Itbl.t;
      (* handle -> detached subtree root, swept at commit *)
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
   Δ⁻ tables can be extracted from the subtree. The probe walks the
   arena's parent handles: O(depth), no allocation. *)
let rec detached_from t h =
  h >= 0 && (Itbl.mem t.detached h || detached_from t (Dewey_arena.parent t.arena h))

let in_detached t h = Itbl.length t.detached > 0 && detached_from t h

let handle_of_node t node = Itbl.find t.hids node.Xml_tree.serial
let id_of t node = Dewey_arena.to_dewey t.arena (handle_of_node t node)

let mem t node =
  match Itbl.find_opt t.hids node.Xml_tree.serial with
  | None -> false
  | Some h -> not (in_detached t h)

let node_of_handle t h =
  if h < 0 || h >= Array.length t.nodes then None
  else
    let n = t.nodes.(h) in
    if n == vacant || in_detached t h then None else Some n

let node_of t id =
  match Dewey_arena.find t.arena id with
  | Some h -> node_of_handle t h
  | None -> None

let node_count t = t.live

let rel_of t lab_code =
  match Hashtbl.find_opt t.rels lab_code with
  | Some r -> r
  | None ->
    let r = { sorted = [||]; handles = [||]; tail = [||]; tail_h = [||] } in
    Hashtbl.add t.rels lab_code r;
    r

(* Merge a sorted batch [b] into a sorted run [a], both aligned
   (entry, handle) pairs: each batch row is placed by a galloping search
   from the previous one, the runs of [a] between them are blitted. *)
let merge_runs arena (a, ah) (b, bh) =
  let na = Array.length a and nb = Array.length b in
  if na = 0 then (b, bh)
  else if nb = 0 then (a, ah)
  else begin
    let merged = Array.make (na + nb) vacant_entry in
    let mergedh = Array.make (na + nb) 0 in
    let i = ref 0 and k = ref 0 in
    for j = 0 to nb - 1 do
      let p = Dewey_arena.gallop arena ah !i na bh.(j) in
      let len = p - !i in
      Array.blit a !i merged !k len;
      Array.blit ah !i mergedh !k len;
      k := !k + len;
      i := p;
      merged.(!k) <- b.(j);
      mergedh.(!k) <- bh.(j);
      incr k
    done;
    Array.blit a !i merged !k (na - !i);
    Array.blit ah !i mergedh !k (na - !i);
    (merged, mergedh)
  end

(* Reads never mutate the relation: a non-empty tail costs a fresh
   merged copy until an explicit {!drain_label} / {!drain_all} (or a
   budget-crossing commit) folds it in. *)
let rel_view arena r =
  if Array.length r.tail = 0 then (r.sorted, r.handles)
  else begin
    Obs.Counter.incr c_hl_merge_copies;
    merge_runs arena (r.sorted, r.handles) (r.tail, r.tail_h)
  end

let drain_rel arena r =
  let n = Array.length r.tail in
  if n > 0 then begin
    let merged, mergedh = merge_runs arena (r.sorted, r.handles) (r.tail, r.tail_h) in
    r.sorted <- merged;
    r.handles <- mergedh;
    r.tail <- [||];
    r.tail_h <- [||];
    Obs.Counter.incr c_hl_drains;
    Obs.Counter.add c_hl_drain_rows n
  end

(* Interning at registration time keeps every live identifier (and all
   its ancestors) in the arena, so scans hand pre-interned handles to
   the joins and every intern during view propagation is a pure
   lookup. An identifier held by a live or pending-detach node is never
   handed to a second node. *)
let register t node h =
  let cap = Array.length t.nodes in
  if h >= cap then begin
    let nodes = Array.make (max (h + 1) (max 1024 (2 * cap))) vacant in
    Array.blit t.nodes 0 nodes 0 cap;
    t.nodes <- nodes
  end
  else if t.nodes.(h) != vacant then
    invalid_arg
      (Printf.sprintf "Store: identifier %s is already held by a node"
         (Dewey.to_string ~dict:t.dict (Dewey_arena.to_dewey t.arena h)));
  t.nodes.(h) <- node;
  Itbl.replace t.hids node.Xml_tree.serial h;
  t.live <- t.live + 1

let staged_run t lab =
  match Itbl.find_opt t.staged lab with
  | Some r -> r
  | None ->
    let r = Run.create () in
    Itbl.add t.staged lab r;
    r

type shape = Shape of int * shape list

let rec shape_of t node =
  Shape
    ( Label_dict.code t.dict (Xml_tree.label node),
      List.map (shape_of t) node.Xml_tree.children )

let shape t forest = List.map (shape_of t) forest

(* Canonical child ordinals are shared rather than allocated per node:
   every boxed identifier keeps its steps' ordinal arrays alive, and an
   ordinal array is never written once built. *)
let small_ords = Array.init 64 (fun i -> [| i |])
let canonical_ord i = if i < Array.length small_ords then small_ords.(i) else [| i |]

(* Assign IDs to [node] (label code [lab], child of the node of handle
   [parent] with ordinal [ord]) and all its descendants, in preorder;
   stage every new entry in its label's run. The identifier is one
   child probe from the parent's handle: a re-inserted identifier is
   found with its boxed id, a new one is interned. [kids] are the label
   codes of the children when the caller precomputed them ([[]]: look
   each up). [ord_of], when given, overrides the canonical 1..n child
   numbering — checkpoint recovery uses it to re-intern the exact
   dynamic ordinals the crashed store had minted, so persisted view
   images keep resolving. Supplied ordinals need not grow along the
   child list: where one does not, a new segment starts. *)
let rec assign t ord_of node ~lab ~kids ~parent ~ord =
  let h = Dewey_arena.intern_child t.arena ~parent ~lab ~ord in
  register t node h;
  let e = { id = Dewey_arena.to_dewey t.arena h; node } in
  Run.push t.arena (staged_run t lab) ~seg:t.seg e h;
  if node.Xml_tree.kind = Xml_tree.Element then
    Run.push t.arena t.staged_elems ~seg:t.seg e h;
  t.staged_n <- t.staged_n + 1;
  assign_children t ord_of h 1 [||] node.Xml_tree.children kids

and assign_children t ord_of parent i prev children kids =
  match children with
  | [] -> ()
  | child :: rest ->
    let ord =
      match ord_of with
      | None -> canonical_ord i
      | Some f ->
        let ord = f child in
        if Dewey.Ord.compare prev ord >= 0 then t.seg <- t.seg + 1;
        ord
    in
    let lab, grandkids, kids =
      match kids with
      | Shape (lab, g) :: kids -> (lab, g, kids)
      | [] -> (Label_dict.code t.dict (Xml_tree.label child), [], [])
    in
    assign t ord_of child ~lab ~kids:grandkids ~parent ~ord;
    assign_children t ord_of parent (i + 1) ord rest kids

(* One preorder walk of a fresh subtree under the node of handle
   [parent] ([-1] for the document root): one segment. *)
let assign_tree t ?ord_of ?shape tree ~parent ~ord =
  t.seg <- t.seg + 1;
  let lab, kids =
    match shape with
    | Some (Shape (lab, kids)) -> (lab, kids)
    | None -> (Label_dict.code t.dict (Xml_tree.label tree), [])
  in
  assign t ord_of tree ~lab ~kids ~parent ~ord

let staged_count t = t.staged_n

let staged_runs t =
  Itbl.fold
    (fun lab r acc ->
      let es, hs = Run.seal t.arena r in
      (Label_dict.label t.dict lab, es, hs) :: acc)
    t.staged []

let staged_elements t = Run.seal t.arena t.staged_elems

let create_store ?dict root =
  let dict = match dict with Some d -> d | None -> Label_dict.create () in
  {
    root;
    dict;
    arena = Dewey_arena.create ();
    hids = Itbl.create 4096;
    nodes = [||];
    rels = Hashtbl.create 64;
    staged = Itbl.create 64;
    staged_elems = Run.create ();
    staged_n = 0;
    seg = 0;
    detached = Itbl.create 16;
    live = 0;
    partition = None;
    tail_budget = max_int;
  }

let find_rel t label =
  match Label_dict.find t.dict label with
  | None -> None
  | Some code -> Hashtbl.find_opt t.rels code

let relation t label =
  match find_rel t label with
  | None -> [||]
  | Some r ->
    let sorted, _ = rel_view t.arena r in
    Obs.Counter.incr c_scan_calls;
    Obs.Counter.add c_scan_rows (Array.length sorted);
    sorted

let relation_handles t label =
  match find_rel t label with
  | None -> ([||], [||])
  | Some r ->
    let (sorted, _) as v = rel_view t.arena r in
    Obs.Counter.incr c_scan_calls;
    Obs.Counter.add c_scan_rows (Array.length sorted);
    v

let relation_runs t label =
  match find_rel t label with
  | None -> []
  | Some r ->
    if Array.length r.tail = 0 then [ (r.sorted, r.handles) ]
    else [ (r.sorted, r.handles); (r.tail, r.tail_h) ]

let settled t = t.staged_n = 0 && Itbl.length t.detached = 0

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
  match find_rel t label with None -> () | Some r -> drain_rel t.arena r

let drain_all t = Hashtbl.iter (fun _ r -> drain_rel t.arena r) t.rels

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
   parent handle is counted in a scratch table. O(|R_label|) per call —
   callers (the heavy-light rebalancer) are expected to amortize. *)
type label_stat = { ls_count : int; ls_parents : int; ls_max_fanout : int }

let label_stat t label =
  match find_rel t label with
  | None -> { ls_count = 0; ls_parents = 0; ls_max_fanout = 0 }
  | Some r ->
    let fanout = Itbl.create 64 in
    let bump h =
      let p = Dewey_arena.parent t.arena h in
      if p >= 0 then
        Itbl.replace fanout p (1 + Option.value ~default:0 (Itbl.find_opt fanout p))
    in
    Array.iter bump r.handles;
    Array.iter bump r.tail_h;
    {
      ls_count = Array.length r.handles + Array.length r.tail_h;
      ls_parents = Itbl.length fanout;
      ls_max_fanout = Itbl.fold (fun _ n acc -> max n acc) fanout 0;
    }

let rec last_child = function
  | [] -> None
  | [ c ] -> Some c
  | _ :: rest -> last_child rest

(* [f tree shape] for every forest tree, with its shape if one was given. *)
let iter_shaped shape f forest =
  let rec go shapes = function
    | [] -> ()
    | tree :: rest ->
      let s, shapes = match shapes with s :: ss -> (Some s, ss) | [] -> (None, []) in
      f tree s;
      go shapes rest
  in
  go (Option.value shape ~default:[]) forest

let attach t ?shape ~parent forest =
  let ph = handle_of_node t parent in
  (* Ordinal of the first new child: strictly after the last existing one. *)
  let ord =
    ref
      (match last_child parent.Xml_tree.children with
      | None -> Dewey.Ord.first
      | Some last -> Dewey.Ord.after (Dewey.last_ord (id_of t last)))
  in
  iter_shaped shape
    (fun tree shape ->
      assign_tree t ?shape tree ~parent:ph ~ord:!ord;
      ord := Dewey.Ord.after !ord)
    forest;
  Xml_tree.append_children parent forest

let attach_beside t ?shape ~sibling ~where forest =
  let parent =
    match sibling.Xml_tree.parent with
    | Some p -> p
    | None -> invalid_arg "Store.attach_beside: sibling has no parent"
  in
  let ph = handle_of_node t parent in
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
  iter_shaped shape
    (fun tree shape ->
      let ord = fresh_ord !lo hi in
      assign_tree t ?shape tree ~parent:ph ~ord;
      lo := Some ord)
    forest;
  Xml_tree.insert_children parent ~anchor:sibling ~where forest

(* Detaching is O(1) apart from the tree unlink: the subtree stays
   internally resolvable (for Δ⁻ extraction) until [commit] sweeps it. *)
let detach t node =
  (match node.Xml_tree.parent with
  | Some parent -> Xml_tree.remove_child parent node
  | None -> ());
  match Itbl.find_opt t.hids node.Xml_tree.serial with
  | None -> ()
  | Some h -> Itbl.replace t.detached h node

(* Remove the sorted dead handles [dead] from [r]. Each one is located in
   the main run by a galloping search from the previous hit and the kept
   stretches between hits are blitted into fresh arrays. Dead handles
   missing from the main run sit in the pending tail — bounded by the
   tail budget, so it is purged by membership — or were staged and
   detached within this commit, and so are in neither. *)
let purge t r dead =
  let hs = r.handles in
  let n = Array.length hs in
  let hits = Array.make (Array.length dead) 0 in
  let nh = ref 0 and pos = ref 0 in
  let missed = Itbl.create 0 in
  Array.iter
    (fun d ->
      let p = Dewey_arena.gallop t.arena hs !pos n d in
      if p < n && hs.(p) = d then begin
        hits.(!nh) <- p;
        incr nh;
        pos := p + 1
      end
      else begin
        if Array.length r.tail_h > 0 then Itbl.replace missed d ();
        pos := p
      end)
    dead;
  if !nh > 0 then begin
    let m = n - !nh in
    let sorted = Array.make m vacant_entry and handles = Array.make m 0 in
    let src = ref 0 and dst = ref 0 in
    for j = 0 to !nh - 1 do
      let len = hits.(j) - !src in
      Array.blit r.sorted !src sorted !dst len;
      Array.blit hs !src handles !dst len;
      dst := !dst + len;
      src := hits.(j) + 1
    done;
    Array.blit r.sorted !src sorted !dst (n - !src);
    Array.blit hs !src handles !dst (n - !src);
    r.sorted <- sorted;
    r.handles <- handles
  end;
  if Itbl.length missed > 0 then begin
    let keep = ref [] in
    for i = Array.length r.tail_h - 1 downto 0 do
      if not (Itbl.mem missed r.tail_h.(i)) then keep := i :: !keep
    done;
    let keep = Array.of_list !keep in
    if Array.length keep < Array.length r.tail_h then begin
      r.tail <- Array.map (fun i -> r.tail.(i)) keep;
      r.tail_h <- Array.map (fun i -> r.tail_h.(i)) keep
    end
  end

(* Sweep the detached subtrees out of the node index — roots in
   document order, each walked in preorder, so every label's dead
   handles come out as a document-ordered run — then purge those runs
   from the relations. *)
let sweep t =
  let roots = Itbl.fold (fun h node acc -> (h, node) :: acc) t.detached [] in
  let roots =
    List.sort (fun (a, _) (b, _) -> Dewey_arena.compare t.arena a b) roots
  in
  Itbl.reset t.detached;
  let dead = Itbl.create 16 in
  List.iteri
    (fun seg (_, subtree) ->
      Xml_tree.iter
        (fun n ->
          match Itbl.find_opt t.hids n.Xml_tree.serial with
          | None -> ()
          | Some h ->
            let lab = Dewey_arena.label t.arena h in
            let run =
              match Itbl.find_opt dead lab with
              | Some r -> r
              | None ->
                let r = Run.create () in
                Itbl.add dead lab r;
                r
            in
            Run.push_handle t.arena run ~seg h;
            Itbl.remove t.hids n.Xml_tree.serial;
            t.nodes.(h) <- vacant;
            t.live <- t.live - 1)
        subtree)
    roots;
  Itbl.iter
    (fun lab run ->
      match Hashtbl.find_opt t.rels lab with
      | None -> ()
      | Some r -> purge t r (Run.seal_handles t.arena run))
    dead

(* Fold one label's sealed staged run into its relation. *)
let insert t lab (fresh, freshh) =
  let r = rel_of t lab in
  let heavy =
    match t.partition with
    | None -> false
    | Some pred -> pred (Label_dict.label t.dict lab)
  in
  if heavy then begin
    (* Heavy label: buffer the batch in the pending tail — O(|tail| +
       |batch|) instead of O(|R|) — and only fold into the main run once
       the tail crosses its amortization budget. *)
    let tail, tail_h = merge_runs t.arena (r.tail, r.tail_h) (fresh, freshh) in
    r.tail <- tail;
    r.tail_h <- tail_h;
    Obs.Counter.add c_hl_routed (Array.length fresh);
    if Array.length tail >= t.tail_budget then drain_rel t.arena r
  end
  else begin
    (* Light label: the eager path. A label freshly demoted from heavy
       may still carry a tail — fold it in first so the single merge
       below sees one sorted main run. *)
    drain_rel t.arena r;
    let merged, mergedh = merge_runs t.arena (r.sorted, r.handles) (fresh, freshh) in
    r.sorted <- merged;
    r.handles <- mergedh
  end

(* Staged rows whose node was swept (staged, then detached before this
   commit) must not enter the relation. *)
let keep_live t ((es, hs) as run) =
  let n = Array.length es in
  let live i = t.nodes.(hs.(i)) == es.(i).node in
  let rec all i = i >= n || (live i && all (i + 1)) in
  if all 0 then run
  else begin
    let keep = List.filter live (List.init n Fun.id) |> Array.of_list in
    (Array.map (fun i -> es.(i)) keep, Array.map (fun i -> hs.(i)) keep)
  end

let fold_staged t ~swept =
  if t.staged_n > 0 then begin
    Itbl.iter
      (fun lab r ->
        let run = Run.seal t.arena r in
        let ((es, _) as run) = if swept then keep_live t run else run in
        if Array.length es > 0 then insert t lab run)
      t.staged;
    Itbl.reset t.staged;
    t.staged_elems <- Run.create ();
    t.staged_n <- 0
  end

let of_document ?dict ?ord_of root =
  let t = create_store ?dict root in
  assign_tree t ?ord_of root ~parent:(-1) ~ord:Dewey.Ord.first;
  fold_staged t ~swept:false;
  t

let commit t =
  (* The store has one writer, the main domain (the serve loop's writer
     among them); serve readers answer from published snapshots and
     never touch the store, so a commit from any other domain is a
     misuse. *)
  if not (Domain.is_main_domain ()) then
    invalid_arg "Store.commit: must be called from the main domain";
  let swept = Itbl.length t.detached > 0 in
  if swept then sweep t;
  fold_staged t ~swept
