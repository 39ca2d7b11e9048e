type policy = Snowcaps | Leaves | Chosen of Lattice.nset list

type cell = {
  cell_id : Dewey.t;
  cell_h : int;
  mutable cell_value : string option;
  mutable cell_content : string option;
}

type entry = { mutable count : int; cells : cell array }

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
  entries : (string, entry) Hashtbl.t;
  mutable shared : payloads option;
}

let footprint_of pat =
  let star = ref false in
  let tags = Hashtbl.create 8 in
  Array.iter
    (fun tag -> if tag = "*" then star := true else Hashtbl.replace tags tag ())
    pat.Pattern.tags;
  { fp_star = !star; fp_tags = Array.of_seq (Hashtbl.to_seq_keys tags) }

(* Dewey encodings are self-delimiting, so their concatenation is an
   injective key for the projected tuple: [id_at p] is the identifier of
   the [p]-th stored node. *)
let key_of_ids mv id_at =
  let buf = Buffer.create 32 in
  for p = 0 to Array.length mv.stored - 1 do
    Dewey.add_encoded buf (id_at p)
  done;
  Buffer.contents buf

let key_of_handles mv (hs : int array) =
  let arena = Store.arena mv.store in
  key_of_ids mv (fun p -> Dewey_arena.to_dewey arena hs.(p))

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

(* [hs] are the stored nodes' handles, in [mv.stored] order. *)
let add_tuple mv hs ~count =
  let key = key_of_handles mv hs in
  match Hashtbl.find_opt mv.entries key with
  | Some e -> e.count <- e.count + count
  | None ->
    let cells = Array.mapi (fun p h -> make_cell mv mv.stored.(p) h) hs in
    Hashtbl.add mv.entries key { count; cells }

let add_binding mv get = add_tuple mv (Array.map get mv.stored) ~count:1

let remove_binding mv get =
  let key = key_of_handles mv (Array.map get mv.stored) in
  match Hashtbl.find_opt mv.entries key with
  | None -> invalid_arg "Mview.remove_binding: tuple not in view"
  | Some e ->
    e.count <- e.count - 1;
    if e.count <= 0 then Hashtbl.remove mv.entries key

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

(* Handle tuples of the stored columns. *)
module Tuple_tbl = Hashtbl.Make (struct
  type t = int array

  (* Top-level, so that no closure is allocated per probe. *)
  let rec equal_from (a : t) (b : t) i =
    i >= Array.length a || (a.(i) = b.(i) && equal_from a b (i + 1))

  let equal (a : t) (b : t) = Array.length a = Array.length b && equal_from a b 0

  let hash (a : t) = Array.fold_left (fun h x -> (h * 65599) + x) 0 a land max_int
end)

(* Rows are folded by the handle tuple of the stored columns first, so
   keys and cells are built once per distinct tuple, whose row count is
   its derivation count. Entries are added in first-row order. *)
let add_rows mv full =
  let columns = Tuple_table.columns full in
  let cols = Array.map (fun i -> columns.(Tuple_table.col_pos full i)) mv.stored in
  let n = Array.length cols in
  let counts = Tuple_tbl.create 1024 in
  let order = ref [] in
  let probe = Array.make n 0 in
  for r = 0 to Tuple_table.length full - 1 do
    for p = 0 to n - 1 do
      probe.(p) <- cols.(p).(r)
    done;
    match Tuple_tbl.find_opt counts probe with
    | Some c -> incr c
    | None ->
      let tuple = Array.copy probe in
      let c = ref 1 in
      Tuple_tbl.add counts tuple c;
      order := (tuple, c) :: !order
  done;
  List.iter (fun (tuple, c) -> add_tuple mv tuple ~count:!c) (List.rev !order)

let populate mv =
  sharing_payloads mv @@ fun () ->
  Option.iter (add_rows mv) (evaluate mv ~view:true)

let shell policy store pat =
  {
    pat;
    store;
    policy;
    stored = Array.of_list (Pattern.stored_nodes pat);
    cvn = Array.of_list (Pattern.cvn pat);
    all_snowcaps = Lattice.snowcaps pat;
    footprint = footprint_of pat;
    mats = [];
    entries = Hashtbl.create 1024;
    shared = None;
  }

let materialize ?(policy = Snowcaps) store pat =
  let mv = shell policy store pat in
  populate mv;
  mv

let rebuild mv =
  Hashtbl.reset mv.entries;
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

let restore_entry mv ~count ~cells =
  if Array.length cells <> Array.length mv.stored then
    invalid_arg "Mview.restore_entry: cell arity mismatch";
  Hashtbl.replace mv.entries (key_of_ids mv (fun p -> cells.(p).cell_id)) { count; cells }

let cardinality mv = Hashtbl.length mv.entries

let total_count mv = Hashtbl.fold (fun _ e acc -> acc + e.count) mv.entries 0

let iter_entries mv f = Hashtbl.iter (fun _ e -> f e) mv.entries

let entries_in_order mv =
  Hashtbl.fold (fun key e acc -> (key, e) :: acc) mv.entries []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let dump mv = List.map (fun (key, e) -> (key, e.count, e.cells)) (entries_in_order mv)
