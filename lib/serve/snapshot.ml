type tuple = {
  t_key : string;
  t_count : int;
  t_cells : (Dewey.t * string option * string option) array;
}

type view = {
  v_name : string;
  v_pattern : string;
  v_tuples : tuple array;
  v_total : int;
}

type t = {
  epoch : int;
  applied : int;
  views : view array;
  relations : (string * int) array;
  node_count : int;
}

(* [Mview.dump] is already sorted by key; copy cells out of the mutable
   view records so the snapshot owns plain immutable data. *)
let capture_view mv =
  let total = ref 0 in
  let tuples =
    mv |> Mview.dump
    |> List.map (fun (key, count, cells) ->
           total := !total + count;
           {
             t_key = key;
             t_count = count;
             t_cells =
               Array.map
                 (fun c ->
                   (c.Mview.cell_id, c.Mview.cell_value, c.Mview.cell_content))
                 cells;
           })
    |> Array.of_list
  in
  {
    v_name = mv.Mview.pat.Pattern.name;
    v_pattern = Pattern.to_string mv.Mview.pat;
    v_tuples = tuples;
    v_total = !total;
  }

let capture_relations store =
  Store.relation_labels store
  |> List.sort compare
  |> List.map (fun l -> (l, Array.length (Store.relation store l)))
  |> Array.of_list

let initial set =
  let store = View_set.store set in
  {
    epoch = 0;
    applied = 0;
    views = Array.of_list (List.map capture_view (View_set.views set));
    relations = capture_relations store;
    node_count = Store.node_count store;
  }

let advance prev ~applied ~changed set =
  let by_name = Hashtbl.create 16 in
  Array.iter (fun v -> Hashtbl.replace by_name v.v_name v) prev.views;
  let views =
    View_set.views set
    |> List.map (fun mv ->
           let name = mv.Mview.pat.Pattern.name in
           match Hashtbl.find_opt by_name name with
           | Some v when not (changed name) -> v
           | _ -> capture_view mv)
    |> Array.of_list
  in
  let store = View_set.store set in
  {
    epoch = prev.epoch + 1;
    applied;
    views;
    relations = capture_relations store;
    node_count = Store.node_count store;
  }

let find_view t name =
  Array.find_opt (fun v -> String.equal v.v_name name) t.views


let cardinality v = Array.length v.v_tuples

let mem v key =
  let tuples = v.v_tuples in
  let lo = ref 0 and hi = ref (Array.length tuples) in
  let found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let c = compare key tuples.(mid).t_key in
    if c = 0 then found := true
    else if c < 0 then hi := mid
    else lo := mid + 1
  done;
  !found

let relation_count t label =
  let rels = t.relations in
  let lo = ref 0 and hi = ref (Array.length rels) in
  let count = ref 0 in
  while !count = 0 && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let l, n = rels.(mid) in
    let c = compare label l in
    if c = 0 then count := n
    else if c < 0 then hi := mid
    else lo := mid + 1
  done;
  !count

let cells_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (ia, va, ca) (ib, vb, cb) ->
         Dewey.equal ia ib
         && Option.equal String.equal va vb
         && Option.equal String.equal ca cb)
       a b

let tuple_equal a b =
  String.equal a.t_key b.t_key && a.t_count = b.t_count
  && cells_equal a.t_cells b.t_cells

let view_equal a b =
  Array.length a.v_tuples = Array.length b.v_tuples
  && Array.for_all2 tuple_equal a.v_tuples b.v_tuples

let view_diff a b =
  if Array.length a.v_tuples <> Array.length b.v_tuples then
    Some
      (Printf.sprintf "cardinality %d vs %d" (Array.length a.v_tuples)
         (Array.length b.v_tuples))
  else
    let n = Array.length a.v_tuples in
    let rec go i =
      if i >= n then None
      else
        let ta = a.v_tuples.(i) and tb = b.v_tuples.(i) in
        if tuple_equal ta tb then go (i + 1)
        else
          let opt = function None -> "-" | Some s -> Printf.sprintf "%S" s in
          let render t =
            Printf.sprintf "count=%d cells=[%s]" t.t_count
              (String.concat "; "
                 (Array.to_list
                    (Array.map
                       (fun (id, v, c) ->
                         Printf.sprintf "%s val=%s cont=%s" (Dewey.to_string id)
                           (opt v) (opt c))
                       t.t_cells)))
          in
          Some
            (Printf.sprintf "tuple %d: %s <> %s (keys %S / %S)" i (render ta)
               (render tb) ta.t_key tb.t_key)
    in
    go 0
