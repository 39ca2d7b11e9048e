(* Struct-of-arrays over [Dewey_arena] handles: one unboxed int column
   per pattern node, all of one capacity, so the join/delta hot loops run
   over contiguous ints. Identifiers are boxed only on demand, one cell
   at a time ([cell_id]). *)

type t = {
  tcols : int array;
  arena : Dewey_arena.t;
  mutable data : int array array;
      (* one per column; shared capacity = Array.length data.(0) *)
  mutable len : int;
  mutable sorted : int option; (* column in non-decreasing document order *)
}

let empty ~arena ~cols =
  { tcols = cols; arena; data = Array.map (fun _ -> [||]) cols; len = 0; sorted = None }

let of_handles ?(sorted = false) ~arena ~node handles =
  {
    tcols = [| node |];
    arena;
    data = [| handles |];
    len = Array.length handles;
    sorted = (if sorted then Some node else None);
  }

let of_cols ~arena ~cols ~len data =
  if Array.length data <> Array.length cols then
    invalid_arg "Tuple_table.of_cols: column count mismatch";
  { tcols = cols; arena; data; len; sorted = None }

let length t = t.len
let is_empty t = t.len = 0
let cols t = t.tcols
let arena t = t.arena

let compact t =
  if Array.length t.data > 0 && Array.length t.data.(0) <> t.len then
    t.data <- Array.map (fun a -> Array.sub a 0 t.len) t.data

let columns t =
  compact t;
  t.data

let cell_id t i p =
  if i < 0 || i >= t.len then invalid_arg "Tuple_table.cell_id";
  Dewey_arena.to_dewey t.arena t.data.(p).(i)

let rows t =
  Array.init t.len (fun i ->
      Array.map (fun col -> Dewey_arena.to_dewey t.arena col.(i)) t.data)

(* A top-level loop, not a local closure: without flambda the latter is
   allocated per call. *)
let rec col_pos_from (tcols : int array) node i =
  if i >= Array.length tcols then raise Not_found
  else if Array.unsafe_get tcols i = node then i
  else col_pos_from tcols node (i + 1)

let col_pos t node = col_pos_from t.tcols node 0

let sorted_by t = t.sorted
let sorted_on t node = t.len <= 1 || t.sorted = Some node
let mark_sorted_by t node = t.sorted <- Some node

let ensure_capacity t extra =
  let need = t.len + extra in
  let cap = if Array.length t.data = 0 then 0 else Array.length t.data.(0) in
  if need > cap then begin
    let cap' = max need (max 8 (2 * cap)) in
    t.data <-
      Array.map
        (fun a ->
          let a' = Array.make cap' 0 in
          Array.blit a 0 a' 0 t.len;
          a')
        t.data
  end

let check_arena fn t u =
  if u.arena != t.arena then
    invalid_arg ("Tuple_table." ^ fn ^ ": tables over different arenas")

(* Columns are lined up by pattern node: [src]'s column for node
   [t.tcols.(p)] lands in [t]'s column [p], one blit per column. The
   order metadata survives with int-only checks at the boundary and,
   unless [src] is known sorted, along the appended column. *)
let append_table t src =
  if src.len > 0 then begin
    check_arena "append_table" t src;
    let from = Array.map (fun node -> src.data.(col_pos src node)) t.tcols in
    (match t.sorted with
    | None -> ()
    | Some cl ->
      let p = col_pos t cl in
      let col = from.(p) in
      let ok =
        ref
          (t.len = 0
          || Dewey_arena.compare t.arena t.data.(p).(t.len - 1) col.(0) <= 0)
      in
      if !ok && not (sorted_on src cl) then begin
        let i = ref 1 in
        while !ok && !i < src.len do
          if Dewey_arena.compare t.arena col.(!i - 1) col.(!i) > 0 then ok := false;
          incr i
        done
      end;
      if not !ok then t.sorted <- None);
    ensure_capacity t src.len;
    Array.iteri (fun p col -> Array.blit from.(p) 0 col t.len src.len) t.data;
    t.len <- t.len + src.len
  end

module Handle_set = Dewey_arena.Tbl

let remove_ids t keys =
  let keys = List.filter (fun (_, d) -> d.len > 0) keys in
  if keys <> [] && t.len > 0 then begin
    let probes =
      Array.of_list
        (List.map
           (fun (node, d) ->
             check_arena "remove_ids" t d;
             let set = Handle_set.create (2 * d.len) in
             let col = d.data.(0) in
             for i = 0 to d.len - 1 do
               Handle_set.replace set col.(i) ()
             done;
             (t.data.(col_pos t node), set))
           keys)
    in
    let ncols = Array.length t.data and nprobes = Array.length probes in
    let k = ref 0 in
    for i = 0 to t.len - 1 do
      let dead = ref false and q = ref 0 in
      while (not !dead) && !q < nprobes do
        let col, set = probes.(!q) in
        dead := Handle_set.mem set col.(i);
        incr q
      done;
      if not !dead then begin
        if !k < i then
          for p = 0 to ncols - 1 do
            t.data.(p).(!k) <- t.data.(p).(i)
          done;
        incr k
      end
    done;
    t.len <- !k
  end

let sort_by_node t node =
  let pos = col_pos t node in
  if not (sorted_on t node) then begin
    compact t;
    let key = t.data.(pos) in
    let perm = Array.init t.len Fun.id in
    Array.sort (fun i j -> Dewey_arena.compare t.arena key.(i) key.(j)) perm;
    t.data <- Array.map (fun col -> Array.map (fun i -> col.(i)) perm) t.data
  end;
  t.sorted <- Some node

let copy t =
  { t with data = Array.map (fun a -> Array.sub a 0 t.len) t.data }
