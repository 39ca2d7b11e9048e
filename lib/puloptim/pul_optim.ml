type op =
  | Ins of { target : Dewey.t; forest : Xml_tree.node list }
  | Del of { target : Dewey.t }

let target_of = function Ins { target; _ } -> target | Del { target } -> target

let target = target_of

let atomic_ops store u =
  let targets = Update.targets store u in
  match u with
  | Update.Delete _ ->
    List.map (fun n -> Del { target = Store.id_of store n }) targets
  | Update.Insert { placement = Update.Into; forest; _ } ->
    List.map
      (fun n -> Ins { target = Store.id_of store n; forest = forest n })
      targets
  | Update.Insert _ | Update.Replace_value _ ->
    (* The Cavalieri et al. operation set covers ins↘ and del only. *)
    invalid_arg "Pul_optim.atomic_ops: only into-insertions and deletions lower"

(* {1 Reduction} *)

let reduce ops =
  let arr = Array.of_list ops in
  let n = Array.length arr in
  let dropped = Array.make n false in
  (* O1 / O3: a later deletion erases earlier operations on the same node
     or on its descendants. *)
  for j = 0 to n - 1 do
    match arr.(j) with
    | Del { target = dj } ->
      for i = 0 to j - 1 do
        if not dropped.(i) then begin
          let ti = target_of arr.(i) in
          if Dewey.equal ti dj || Dewey.is_ancestor dj ti then dropped.(i) <- true
        end
      done
    | Ins _ -> ()
  done;
  (* I5: merge insertions sharing a target into the earliest one. *)
  let first_ins : (string, int) Hashtbl.t = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    if not dropped.(i) then
      match arr.(i) with
      | Ins { target; forest } -> (
        let key = Dewey.encode target in
        match Hashtbl.find_opt first_ins key with
        | None -> Hashtbl.add first_ins key i
        | Some k -> (
          match arr.(k) with
          | Ins { target = t0; forest = f0 } ->
            arr.(k) <- Ins { target = t0; forest = f0 @ forest };
            dropped.(i) <- true
          | Del _ -> assert false))
      | Del _ -> ()
  done;
  let out = ref [] in
  for i = n - 1 downto 0 do
    if not dropped.(i) then out := arr.(i) :: !out
  done;
  !out

(* {1 Conflicts} *)

type conflict_kind = Insertion_order | Local_override | Non_local_override

type conflict = { kind : conflict_kind; left : int; right : int }

let conflicts pul1 pul2 =
  let a1 = Array.of_list pul1 and a2 = Array.of_list pul2 in
  let out = ref [] in
  Array.iteri
    (fun i op1 ->
      Array.iteri
        (fun j op2 ->
          let t1 = target_of op1 and t2 = target_of op2 in
          match (op1, op2) with
          | Ins _, Ins _ when Dewey.equal t1 t2 ->
            out := { kind = Insertion_order; left = i; right = j } :: !out
          | Del _, Ins _ when Dewey.equal t1 t2 ->
            out := { kind = Local_override; left = i; right = j } :: !out
          | Ins _, Del _ when Dewey.equal t1 t2 ->
            out := { kind = Local_override; left = i; right = j } :: !out
          | Del _, Ins _ when Dewey.is_ancestor t1 t2 ->
            out := { kind = Non_local_override; left = i; right = j } :: !out
          | Ins _, Del _ when Dewey.is_ancestor t2 t1 ->
            out := { kind = Non_local_override; left = i; right = j } :: !out
          | (Ins _ | Del _), (Ins _ | Del _) -> ())
        a2)
    a1;
  List.rev !out

(* {1 Aggregation} *)

(* Does [id] belong to a forest inserted by [op1]? Only decidable once the
   forest's roots carry identifiers (i.e. after ∆1 has been applied);
   resolve through the store and test physical containment. *)
let inside_forest store op1 id =
  match op1 with
  | Del _ -> None
  | Ins { forest; _ } -> (
    match Store.node_of store id with
    | None -> None
    | Some node ->
      if
        List.exists
          (fun root -> root == node || Xml_tree.is_ancestor root node)
          forest
      then Some node
      else None)

let aggregate store pul1 pul2 =
  let a1 = Array.of_list pul1 in
  let remaining2 = ref [] in
  List.iter
    (fun op2 ->
      let folded = ref false in
      Array.iteri
        (fun i op1 ->
          if not !folded then
            match (op1, op2) with
            (* A1 / A2: combine same-target insertions. *)
            | Ins { target = t1; forest = f1 }, Ins { target = t2; forest = f2 }
              when Dewey.equal t1 t2 ->
              a1.(i) <- Ins { target = t1; forest = f1 @ f2 };
              folded := true
            | _ -> (
              (* D6: an op2 referencing a node of an op1-inserted tree is
                 performed on the tree parameter and dropped from ∆2. *)
              match inside_forest store op1 (target_of op2) with
              | None -> ()
              | Some node ->
                (match op2 with
                | Ins { forest; _ } -> Xml_tree.append_children node forest
                | Del _ -> (
                  match node.Xml_tree.parent with
                  | Some p -> Xml_tree.remove_child p node
                  | None -> ()));
                folded := true))
        a1;
      if not !folded then remaining2 := op2 :: !remaining2)
    pul2;
  Array.to_list a1 @ List.rev !remaining2

(* {1 Propagation} *)

let propagate_op ?(commit = true) ?(on_missing = `Fail) mv op =
  let store = mv.Mview.store in
  let missing what =
    match on_missing with
    | `Skip -> None
    | `Fail -> invalid_arg (Printf.sprintf "Pul_optim.propagate_op: unresolved %s target" what)
  in
  match op with
  | Ins { target; forest } -> (
    match Store.node_of store target with
    | None -> missing "insertion"
    | Some node ->
      let app = Update.apply_insert_at store ~target:node forest in
      Some (Maint.propagate_applied ~commit mv (Maint.Ins app)))
  | Del { target } -> (
    match Store.node_of store target with
    | None -> missing "deletion"
    | Some node ->
      let app = Update.apply_delete store ~targets:[ node ] in
      Some (Maint.propagate_applied ~commit mv (Maint.Del app)))
