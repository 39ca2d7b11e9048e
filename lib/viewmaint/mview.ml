type policy = Snowcaps | Leaves | Chosen of Lattice.nset list

type cell = {
  cell_id : Dewey.t;
  mutable cell_value : string option;
  mutable cell_content : string option;
}

type entry = { mutable count : int; cells : cell array }

(* The label footprint is cached at materialization time so the batch
   engine's relevance pre-filter is a pure lookup per update. *)
type footprint = { fp_star : bool; fp_tags : string array }

module Dewey_tbl = Hashtbl.Make (Dewey)

(* Payloads resolved so far in one pass, per node: [None] when the node
   is gone from the store. *)
type payloads = {
  p_val : string option Dewey_tbl.t;
  p_cont : string option Dewey_tbl.t;
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
   injective key for the projected tuple. *)
let key_of mv get =
  let buf = Buffer.create 32 in
  Array.iter (fun i -> Buffer.add_string buf (Dewey.encode (get i))) mv.stored;
  Buffer.contents buf

let sharing_payloads mv f =
  match mv.shared with
  | Some _ -> f ()
  | None ->
    mv.shared <- Some { p_val = Dewey_tbl.create 64; p_cont = Dewey_tbl.create 64 };
    Fun.protect ~finally:(fun () -> mv.shared <- None) f

(* [f] of node [id], or [None] when the node is gone. Inside
   [sharing_payloads] it is computed once per node, and every entry
   binding the node holds the same string. *)
let resolve mv field f id =
  let compute () = Option.map f (Store.node_of mv.store id) in
  match mv.shared with
  | None -> compute ()
  | Some sh -> (
    let tbl = field sh in
    match Dewey_tbl.find_opt tbl id with
    | Some p -> p
    | None ->
      let p = compute () in
      Dewey_tbl.add tbl id p;
      p)

let value_of mv id = resolve mv (fun sh -> sh.p_val) Xml_tree.string_value id
let content_of mv id = resolve mv (fun sh -> sh.p_cont) Xml_tree.serialize id

let make_cell mv i id =
  let { Pattern.store_val; store_cont; _ } = mv.pat.Pattern.annots.(i) in
  (* Most stored cells hold the identifier alone: resolve the node only
     for a payload. *)
  {
    cell_id = id;
    cell_value = (if store_val then value_of mv id else None);
    cell_content = (if store_cont then content_of mv id else None);
  }

let add_binding mv get =
  let key = key_of mv get in
  match Hashtbl.find_opt mv.entries key with
  | Some e -> e.count <- e.count + 1
  | None ->
    let cells = Array.map (fun i -> make_cell mv i (get i)) mv.stored in
    Hashtbl.add mv.entries key { count = 1; cells }

let remove_binding mv get =
  let key = key_of mv get in
  match Hashtbl.find_opt mv.entries key with
  | None -> invalid_arg "Mview.remove_binding: tuple not in view"
  | Some e ->
    e.count <- e.count - 1;
    if e.count <= 0 then Hashtbl.remove mv.entries key

let mat_for mv s =
  List.find_map
    (fun (set, table) -> if Lattice.equal set s then Some table else None)
    mv.mats

let set_mats mv mats = mv.mats <- mats

let refresh_cell mv ~stored_node cell =
  let { Pattern.store_val; store_cont; _ } = mv.pat.Pattern.annots.(stored_node) in
  let id = cell.cell_id in
  let value = if store_val then value_of mv id else None in
  let content = if store_cont then content_of mv id else None in
  (* A gone node keeps its old payloads. *)
  if (store_val && value = None) || (store_cont && content = None) then false
  else begin
    if store_val then cell.cell_value <- value;
    if store_cont then cell.cell_content <- content;
    store_val || store_cont
  end

let populate_mats mv =
  let pat = mv.pat and store = mv.store in
  let materialize_sets sets =
    mv.mats <-
      List.map
        (fun s ->
          let table =
            Plan.eval_subtree pat
              ~atom:(fun i -> Plan.atom_of_store store pat i)
              ~within:(Lattice.mem s) ~root:0
          in
          (s, table))
        sets
  in
  match mv.policy with
  | Leaves -> ()
  | Snowcaps -> materialize_sets (Lattice.chain pat)
  | Chosen sets ->
    let all = mv.all_snowcaps in
    List.iter
      (fun s ->
        if not (List.exists (Lattice.equal s) all) then
          invalid_arg "Mview.materialize: Chosen set is not a snowcap of the view")
      sets;
    materialize_sets sets

let populate mv =
  sharing_payloads mv @@ fun () ->
  let pat = mv.pat and store = mv.store in
  let full = Plan.eval store pat in
  let positions = Array.map (fun i -> Tuple_table.col_pos full i) mv.stored in
  for r = 0 to Tuple_table.length full - 1 do
    (* [get] is only consulted on stored nodes, so only their cells are
       boxed. *)
    let get i =
      let rec find p =
        if mv.stored.(p) = i then Tuple_table.cell_id full r positions.(p)
        else find (p + 1)
      in
      find 0
    in
    add_binding mv get
  done;
  populate_mats mv

let materialize ?(policy = Snowcaps) store pat =
  let mv =
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
  in
  populate mv;
  mv

let rebuild mv =
  Hashtbl.reset mv.entries;
  mv.mats <- [];
  populate mv

let empty_shell ?(policy = Snowcaps) store pat =
  let mv =
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
  in
  populate_mats mv;
  mv

let restore_entry mv ~count ~cells =
  if Array.length cells <> Array.length mv.stored then
    invalid_arg "Mview.restore_entry: cell arity mismatch";
  let buf = Buffer.create 32 in
  Array.iter (fun c -> Buffer.add_string buf (Dewey.encode c.cell_id)) cells;
  Hashtbl.replace mv.entries (Buffer.contents buf) { count; cells }

let cardinality mv = Hashtbl.length mv.entries

let total_count mv = Hashtbl.fold (fun _ e acc -> acc + e.count) mv.entries 0

let iter_entries mv f = Hashtbl.iter (fun _ e -> f e) mv.entries

let entries_in_order mv =
  Hashtbl.fold (fun key e acc -> (key, e) :: acc) mv.entries []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let dump mv = List.map (fun (key, e) -> (key, e.count, e.cells)) (entries_in_order mv)
