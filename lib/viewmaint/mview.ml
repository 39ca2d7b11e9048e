type policy = Snowcaps | Leaves | Chosen of Lattice.nset list

type cell = {
  cell_id : Dewey.t;
  cell_h : int;
  mutable cell_value : string option;
  mutable cell_content : string option;
}

type entry = { mutable count : int; cells : cell array; key : string }

(* The label footprint is cached at materialization time so the batch
   engine's relevance pre-filter is a pure lookup per update. *)
type footprint = { fp_star : bool; fp_tags : string array }

module Itbl = Dewey_arena.Tbl

type edit = Reserialize | Append of string Lazy.t | Cut of int Lazy.t

(* Every [cont] payload a refresh recomputes is counted once: edited in
   place from the cell's old string, or serialized from the node. *)
let obs_payload = Obs.Scope.v "maint.payload"
let c_spliced = Obs.Scope.counter obs_payload "spliced"
let c_reserialized = Obs.Scope.counter obs_payload "reserialized"

(* Payloads resolved so far in one pass, per node handle: [None] when
   the node is gone from the store. *)
type payloads = {
  p_val : string option Itbl.t;
  p_cont : string option Itbl.t;
}

type t = {
  pat : Pattern.t;
  store : Store.t;
  policy : policy;
  stored : int array;
  cvn : int array;
  all_snowcaps : Lattice.nset list;
  footprint : footprint;
  mutable mats : (Lattice.nset * Tuple_table.t) list;
  entries : table;
  mutable shared : payloads option;
}

(* The entries, keyed by the arena handles of their stored cells: an
   open-addressing table (linear probing, power-of-two length, at most
   three quarters full, backward-shift deletion) whose slots hold the
   entries themselves, [vacant] for an empty slot. A slot's key is read
   back from its cells' [cell_h], so no key array is kept per entry.
   [probe] holds the handle tuple being looked up; a view reuses it, so
   a lookup allocates nothing. *)
and table = { mutable slots : entry array; mutable live : int; probe : int array }

let footprint_of pat =
  let star = ref false in
  let tags = Hashtbl.create 8 in
  Array.iter
    (fun tag -> if tag = "*" then star := true else Hashtbl.replace tags tag ())
    pat.Pattern.tags;
  { fp_star = !star; fp_tags = Array.of_seq (Hashtbl.to_seq_keys tags) }

let vacant = { count = 0; cells = [||]; key = "" }
let initial_slots = 16

let new_table arity =
  { slots = Array.make initial_slots vacant; live = 0; probe = Array.make arity 0 }

(* Both hashes fold the handles alike, then mix the high bits down: the
   slot is taken from the low bits. Top-level recursive functions, not
   local closures: without flambda the latter are allocated per call. *)
let mix h =
  let h = h lxor (h lsr 32) in
  let h = h * 0xd6e8feb86659fd9 in
  h lxor (h lsr 29)

let rec hash_handles (a : int array) i h =
  if i = Array.length a then mix h
  else hash_handles a (i + 1) ((h lxor Array.unsafe_get a i) * 0x100000001b3)

let rec hash_cells (c : cell array) i h =
  if i = Array.length c then mix h
  else hash_cells c (i + 1) ((h lxor (Array.unsafe_get c i).cell_h) * 0x100000001b3)

let rec same_handles (c : cell array) (a : int array) i =
  i = Array.length a
  || ((Array.unsafe_get c i).cell_h = Array.unsafe_get a i && same_handles c a (i + 1))

let rec seek slots mask (a : int array) i =
  let e = Array.unsafe_get slots i in
  if e == vacant || same_handles e.cells a 0 then i else seek slots mask a ((i + 1) land mask)

(* The index in [slots] of the entry whose handles are [a], or of the
   empty slot where it would go. *)
let slot slots (a : int array) =
  let mask = Array.length slots - 1 in
  seek slots mask a (hash_handles a 0 0 land mask)

let rec free_slot slots mask i =
  if Array.unsafe_get slots i == vacant then i else free_slot slots mask ((i + 1) land mask)

let grow tbl =
  let cap = 2 * Array.length tbl.slots in
  let slots = Array.make cap vacant in
  let mask = cap - 1 in
  Array.iter
    (fun e ->
      if e != vacant then slots.(free_slot slots mask (hash_cells e.cells 0 0 land mask)) <- e)
    tbl.slots;
  tbl.slots <- slots

(* Put [e] in the empty slot [i] (from {!slot}). *)
let insert tbl i e =
  tbl.slots.(i) <- e;
  tbl.live <- tbl.live + 1;
  if 4 * tbl.live > 3 * Array.length tbl.slots then grow tbl

(* Empty slot [i], then shift back each later entry of its cluster that
   may move: one whose home slot is not cyclically inside ([i], [j]], so
   that every entry stays reachable from its home without a tombstone. *)
let rec shift_back slots mask i j =
  let j = (j + 1) land mask in
  let e = Array.unsafe_get slots j in
  if e == vacant then slots.(i) <- vacant
  else
    let home = hash_cells e.cells 0 0 land mask in
    if (j - home) land mask >= (j - i) land mask then begin
      slots.(i) <- e;
      shift_back slots mask j j
    end
    else shift_back slots mask i j

let delete tbl i =
  shift_back tbl.slots (Array.length tbl.slots - 1) i i;
  tbl.live <- tbl.live - 1

(* The sort key: the cells' identifiers' encodings, concatenated. Dewey
   encodings are self-delimiting, so the key is injective on the tuple. *)
let rec keys_size (cells : cell array) p acc =
  if p = Array.length cells then acc
  else keys_size cells (p + 1) (acc + Dewey.encoded_size cells.(p).cell_id)

let rec blit_keys (cells : cell array) b p pos =
  if p < Array.length cells then
    blit_keys cells b (p + 1) (Dewey.blit_encoded cells.(p).cell_id b pos)

let key_of_cells cells =
  let b = Bytes.create (keys_size cells 0 0) in
  blit_keys cells b 0 0;
  Bytes.unsafe_to_string b

let sharing_payloads mv f =
  match mv.shared with
  | Some _ -> f ()
  | None ->
    mv.shared <- Some { p_val = Itbl.create 64; p_cont = Itbl.create 64 };
    Fun.protect ~finally:(fun () -> mv.shared <- None) f

(* [f] of the node holding handle [h], or [None] when the node is gone.
   Inside [sharing_payloads] it is computed once per node, and every
   entry binding the node holds the same string. *)
let resolve mv field f h =
  let compute () = Option.map f (Store.node_of_handle mv.store h) in
  match mv.shared with
  | None -> compute ()
  | Some sh -> (
    let tbl = field sh in
    match Itbl.find_opt tbl h with
    | Some p -> p
    | None ->
      let p = compute () in
      Itbl.add tbl h p;
      p)

let value_of mv h = resolve mv (fun sh -> sh.p_val) Xml_tree.string_value h
let content_of mv h = resolve mv (fun sh -> sh.p_cont) Xml_tree.serialize h

let share_content mv h s =
  match mv.shared with Some sh -> Itbl.replace sh.p_cont h (Some s) | None -> ()

(* The refreshed [cont] of the node holding [h], whose old payload is
   [old]. Only inside a pass is [old] sure to predate the statement: a
   cell made in the pass by {!add_binding} already holds the new payload,
   and the pass computed it for the node, so a refresh reads it back
   without editing. *)
let refreshed_content mv h edit old =
  resolve mv
    (fun sh -> sh.p_cont)
    (fun node ->
      let edited =
        match (mv.shared, old, edit) with
        | None, _, _ | _, None, _ | _, _, Reserialize -> None
        | Some _, Some s, Append fragment -> Xml_tree.splice_content s (Lazy.force fragment)
        | Some _, Some s, Cut k -> Xml_tree.cut_content s (Lazy.force k)
      in
      match edited with
      | Some s ->
        Obs.Counter.incr c_spliced;
        s
      | None ->
        Obs.Counter.incr c_reserialized;
        Xml_tree.serialize node)
    h

let make_cell mv i h =
  let { Pattern.store_val; store_cont; _ } = mv.pat.Pattern.annots.(i) in
  (* Most stored cells hold the identifier alone: resolve the node only
     for a payload. *)
  {
    cell_id = Dewey_arena.to_dewey (Store.arena mv.store) h;
    cell_h = h;
    cell_value = (if store_val then value_of mv h else None);
    cell_content = (if store_cont then content_of mv h else None);
  }

(* An empty table may lack columns (an empty term output): it has no
   rows to read either. *)
let stored_columns mv t =
  if Tuple_table.is_empty t then Array.map (fun _ -> [||]) mv.stored
  else
    let columns = Tuple_table.columns t in
    Array.map (fun i -> columns.(Tuple_table.col_pos t i)) mv.stored

(* The slot of row [r]'s tuple, found through the view's probe. *)
let find_row mv (cols : int array array) r =
  let tbl = mv.entries in
  let probe = tbl.probe in
  for p = 0 to Array.length probe - 1 do
    probe.(p) <- cols.(p).(r)
  done;
  slot tbl.slots probe

let count_of mv cols r = mv.entries.slots.(find_row mv cols r).count

let add_binding mv cols r =
  let tbl = mv.entries in
  let i = find_row mv cols r in
  let e = tbl.slots.(i) in
  if e != vacant then e.count <- e.count + 1
  else
    let cells = Array.mapi (fun p h -> make_cell mv mv.stored.(p) h) tbl.probe in
    insert tbl i { count = 1; cells; key = key_of_cells cells }

let remove_binding mv cols r =
  let tbl = mv.entries in
  let i = find_row mv cols r in
  let e = tbl.slots.(i) in
  if e == vacant then invalid_arg "Mview.remove_binding: tuple not in view";
  e.count <- e.count - 1;
  if e.count <= 0 then delete tbl i

let mat_for mv s =
  List.find_map
    (fun (set, table) -> if Lattice.equal set s then Some table else None)
    mv.mats

let refresh_cell mv ~stored_node ~edit cell =
  let { Pattern.store_val; store_cont; _ } = mv.pat.Pattern.annots.(stored_node) in
  let h = cell.cell_h in
  let value = if store_val then value_of mv h else None in
  let content = if store_cont then refreshed_content mv h edit cell.cell_content else None in
  (* A gone node keeps its old payloads. *)
  if (store_val && value = None) || (store_cont && content = None) then false
  else begin
    if store_val then cell.cell_value <- value;
    if store_cont then cell.cell_content <- content;
    store_val || store_cont
  end

(* The snowcap chain in one left-deep pass: level [l] binds the
   preorder prefix [0..l] and is level [l-1] joined with node [l]'s atom
   along the edge to its parent, which precedes [l] in preorder. Returns
   the first [n] levels; level [k-1] of a [k]-node view is the view
   itself, after k-1 joins. The join sorts level [l-1] in place on the
   parent column, keeping its metadata sound. *)
let chain_levels store pat n =
  let arena = Store.arena store in
  let levels = Array.make n (Tuple_table.empty ~arena ~cols:[||]) in
  for l = 0 to n - 1 do
    levels.(l) <-
      (if l = 0 then Plan.atom_of_store store pat 0
       else if Tuple_table.is_empty levels.(l - 1) then
         Tuple_table.empty ~arena ~cols:(Array.init (l + 1) Fun.id)
       else
         Struct_join.join levels.(l - 1) (Plan.atom_of_store store pat l)
           ~parent:pat.Pattern.parents.(l) ~child:l ~axis:pat.Pattern.axes.(l))
  done;
  levels

(* Sets the snowcap tables of [mv.policy] and returns the view's full
   table when [view]. [Leaves] evaluates the view with [Plan.eval], the
   reference the oracles compare against; [Chosen] sets need not be
   prefixes, so each is evaluated on its own. *)
let evaluate mv ~view =
  let pat = mv.pat and store = mv.store in
  let full () = if view then Some (Plan.eval store pat) else None in
  match mv.policy with
  | Leaves -> full ()
  | Snowcaps ->
    let k = Pattern.node_count pat in
    let levels = chain_levels store pat (if view then k else k - 1) in
    mv.mats <- List.mapi (fun l s -> (s, levels.(l))) (Lattice.chain pat);
    if view then Some levels.(k - 1) else None
  | Chosen sets ->
    List.iter
      (fun s ->
        if not (List.exists (Lattice.equal s) mv.all_snowcaps) then
          invalid_arg "Mview.materialize: Chosen set is not a snowcap of the view")
      sets;
    let full = full () in
    mv.mats <-
      List.map
        (fun s ->
          ( s,
            Plan.eval_subtree pat
              ~atom:(fun i -> Plan.atom_of_store store pat i)
              ~within:(Lattice.mem s) ~root:0 ))
        sets;
    full

let add_rows mv full =
  let cols = stored_columns mv full in
  for r = 0 to Tuple_table.length full - 1 do
    add_binding mv cols r
  done

let populate mv =
  sharing_payloads mv @@ fun () ->
  Option.iter (add_rows mv) (evaluate mv ~view:true)

let shell policy store pat =
  let stored = Array.of_list (Pattern.stored_nodes pat) in
  {
    pat;
    store;
    policy;
    stored;
    cvn = Array.of_list (Pattern.cvn pat);
    all_snowcaps = Lattice.snowcaps pat;
    footprint = footprint_of pat;
    mats = [];
    entries = new_table (Array.length stored);
    shared = None;
  }

let materialize ?(policy = Snowcaps) store pat =
  let mv = shell policy store pat in
  populate mv;
  mv

(* The slot array is cleared in place: the view's size before the
   rebuild is the best guess of its size after it. *)
let rebuild mv =
  Array.fill mv.entries.slots 0 (Array.length mv.entries.slots) vacant;
  mv.entries.live <- 0;
  mv.mats <- [];
  populate mv

let empty_shell ?(policy = Snowcaps) store pat =
  let mv = shell policy store pat in
  ignore (evaluate mv ~view:false);
  mv

let restored_cell mv id ~value ~content =
  {
    cell_id = id;
    cell_h = Option.value (Dewey_arena.find (Store.arena mv.store) id) ~default:(-1);
    cell_value = value;
    cell_content = content;
  }

(* A restored entry is found by its cells' handles like any other, so
   a cell the store never interned could never be maintained. *)
let restore_entry mv ~count ~cells =
  let tbl = mv.entries in
  let probe = tbl.probe in
  if Array.length cells <> Array.length probe then
    invalid_arg "Mview.restore_entry: cell arity mismatch";
  Array.iteri
    (fun p c ->
      if c.cell_h < 0 then invalid_arg "Mview.restore_entry: identifier not in the store";
      probe.(p) <- c.cell_h)
    cells;
  let i = slot tbl.slots probe in
  if tbl.slots.(i) != vacant then invalid_arg "Mview.restore_entry: duplicate tuple";
  insert tbl i { count; cells; key = key_of_cells cells }

let cardinality mv = mv.entries.live

let iter_entries mv f = Array.iter (fun e -> if e != vacant then f e) mv.entries.slots

let total_count mv =
  let n = ref 0 in
  iter_entries mv (fun e -> n := !n + e.count);
  !n

let entries_in_order mv =
  let out = ref [] in
  iter_entries mv (fun e -> out := e :: !out);
  List.sort (fun a b -> String.compare a.key b.key) !out

let slot_count mv = Array.length mv.entries.slots
let home_slot mv hs = hash_handles hs 0 0 land (slot_count mv - 1)

let dump mv = List.map (fun e -> (e.key, e.count, e.cells)) (entries_in_order mv)
