(* Two physical layouts share one logical table type:

   - [Boxed]: row-major [Dewey.t array array] — the original layout,
     kept as the escape hatch (--boxed / XVM_BOXED_TABLES=1) and for
     tables built away from any arena;
   - [Cols]: struct-of-arrays over [Dewey_arena] handles — one unboxed
     int column per pattern node, so the join/delta hot loops run over
     contiguous ints.

   The boxed row API ([rows]/[get]/[iter]/[filter]) stays available on
   columnar tables as a compatibility view (rows are materialized from
   the handle columns, and cached by [rows]), so operators migrate to
   the columnar fast paths incrementally. *)

type repr =
  | Boxed of boxed
  | Cols of colstore

and boxed = { mutable buf : Dewey.t array array (* capacity = Array.length buf *) }

and colstore = {
  arena : Dewey_arena.t;
  mutable data : int array array;
      (* one per column; shared capacity = Array.length data.(0) *)
  mutable cache : Dewey.t array array option; (* boxed compatibility view *)
}

type t = {
  tcols : int array;
  mutable repr : repr;
  mutable len : int;
  mutable sorted : int option; (* column in non-decreasing document order *)
}

(* Global layout toggle: columnar by default, boxed via the environment
   escape hatch or [set_columnar false] (xvmcli --boxed). Consulted by
   the scan builders (Plan, Delta), not by existing tables.

   Only the explicit truthy spellings "1" and "true" (case-insensitive,
   surrounding whitespace ignored) request the boxed layout; any other
   value — including "0", "false", "", "on" — leaves the default
   columnar layout, exactly like an unset variable. The parse is a pure
   function of the variable's value so tests can cover it without
   mutating the process environment. *)
let boxed_requested env =
  match env with
  | None -> false
  | Some s -> (
    match String.lowercase_ascii (String.trim s) with
    | "1" | "true" -> true
    | _ -> false)

let columnar = ref (not (boxed_requested (Sys.getenv_opt "XVM_BOXED_TABLES")))

let columnar_enabled () = !columnar
let set_columnar b = columnar := b

let dummy_row : Dewey.t array = [||]

let create ~cols = { tcols = cols; repr = Boxed { buf = [||] }; len = 0; sorted = None }

let of_rows ?sorted_by ~cols rows =
  { tcols = cols; repr = Boxed { buf = rows }; len = Array.length rows; sorted = sorted_by }

let of_ids ?(sorted = false) ~node ids =
  {
    tcols = [| node |];
    repr = Boxed { buf = Array.map (fun id -> [| id |]) ids };
    len = Array.length ids;
    sorted = (if sorted then Some node else None);
  }

let of_handles ?(sorted = false) ~arena ~node handles =
  {
    tcols = [| node |];
    repr = Cols { arena; data = [| handles |]; cache = None };
    len = Array.length handles;
    sorted = (if sorted then Some node else None);
  }

let of_cols ?sorted_by ~arena ~cols ~len data =
  if Array.length data <> Array.length cols then
    invalid_arg "Tuple_table.of_cols: column count mismatch";
  if Array.length cols = 0 then
    { tcols = cols; repr = Boxed { buf = [||] }; len = 0; sorted = sorted_by }
  else
    { tcols = cols; repr = Cols { arena; data; cache = None }; len; sorted = sorted_by }

let length t = t.len
let is_empty t = t.len = 0
let cols t = t.tcols

let compact_cols t c =
  if Array.length c.data > 0 && Array.length c.data.(0) <> t.len then
    c.data <- Array.map (fun a -> Array.sub a 0 t.len) c.data

let columns t =
  match t.repr with
  | Boxed _ -> None
  | Cols c ->
    compact_cols t c;
    Some (c.arena, c.data)

let arena t = match t.repr with Boxed _ -> None | Cols c -> Some c.arena

let build_row c i =
  Array.map (fun col -> Dewey_arena.to_dewey c.arena col.(i)) c.data

let rows t =
  match t.repr with
  | Boxed b ->
    if Array.length b.buf <> t.len then b.buf <- Array.sub b.buf 0 t.len;
    b.buf
  | Cols c -> (
    match c.cache with
    | Some r -> r
    | None ->
      let r = Array.init t.len (fun i -> build_row c i) in
      c.cache <- Some r;
      r)

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Tuple_table.get";
  match t.repr with
  | Boxed b -> b.buf.(i)
  | Cols c -> ( match c.cache with Some r -> r.(i) | None -> build_row c i)

let iter f t =
  match t.repr with
  | Boxed b ->
    for i = 0 to t.len - 1 do
      f b.buf.(i)
    done
  | Cols c -> (
    match c.cache with
    | Some r -> Array.iter f r
    | None ->
      for i = 0 to t.len - 1 do
        f (build_row c i)
      done)

let cell_id t i p =
  if i < 0 || i >= t.len then invalid_arg "Tuple_table.cell_id";
  match t.repr with
  | Boxed b -> b.buf.(i).(p)
  | Cols c -> Dewey_arena.to_dewey c.arena c.data.(p).(i)

let col_pos t node =
  let n = Array.length t.tcols in
  let rec go i =
    if i >= n then raise Not_found else if t.tcols.(i) = node then i else go (i + 1)
  in
  go 0

let sorted_by t = t.sorted
let sorted_on t node = t.len <= 1 || t.sorted = Some node
let mark_sorted_by t node = t.sorted <- Some node

let ensure_capacity t extra =
  let need = t.len + extra in
  match t.repr with
  | Boxed b ->
    let cap = Array.length b.buf in
    if need > cap then begin
      let cap' = max need (max 8 (2 * cap)) in
      let buf = Array.make cap' dummy_row in
      Array.blit b.buf 0 buf 0 t.len;
      b.buf <- buf
    end
  | Cols c ->
    let cap = if Array.length c.data = 0 then 0 else Array.length c.data.(0) in
    if need > cap then begin
      let cap' = max need (max 8 (2 * cap)) in
      c.data <-
        Array.map
          (fun a ->
            let a' = Array.make cap' 0 in
            Array.blit a 0 a' 0 t.len;
            a')
          c.data
    end

(* Appends keep the metadata honest with one comparison per boundary: the
   incoming row must not sort before the current last one. *)
let still_sorted_after t row =
  match t.sorted with
  | None -> None
  | Some c ->
    if t.len = 0 then Some c
    else begin
      let p = col_pos t c in
      let last =
        match t.repr with
        | Boxed b -> b.buf.(t.len - 1).(p)
        | Cols cs -> Dewey_arena.to_dewey cs.arena cs.data.(p).(t.len - 1)
      in
      if Dewey.compare last row.(p) <= 0 then Some c else None
    end

let append_row t row =
  t.sorted <- still_sorted_after t row;
  ensure_capacity t 1;
  (match t.repr with
  | Boxed b -> b.buf.(t.len) <- row
  | Cols c ->
    (* Row cells coming from any live table originate in the store, so
       off the main domain these interns are guaranteed lookups. *)
    Array.iteri (fun p col -> col.(t.len) <- Dewey_arena.intern c.arena row.(p)) c.data;
    c.cache <- None);
  t.len <- t.len + 1

let append_rows t rows =
  let n = Array.length rows in
  if n > 0 then begin
    (match t.sorted with
    | None -> ()
    | Some c ->
      let p = col_pos t c in
      let ok = ref (still_sorted_after t rows.(0) <> None) in
      let i = ref 1 in
      while !ok && !i < n do
        if Dewey.compare rows.(!i - 1).(p) rows.(!i).(p) > 0 then ok := false;
        incr i
      done;
      if not !ok then t.sorted <- None);
    ensure_capacity t n;
    (match t.repr with
    | Boxed b -> Array.blit rows 0 b.buf t.len n
    | Cols c ->
      for i = 0 to n - 1 do
        let row = rows.(i) in
        Array.iteri
          (fun p col -> col.(t.len + i) <- Dewey_arena.intern c.arena row.(p))
          c.data
      done;
      c.cache <- None);
    t.len <- t.len + n
  end

let same_cols a b =
  Array.length a.tcols = Array.length b.tcols
  && Array.for_all2 ( = ) a.tcols b.tcols

(* Bulk append of a whole table; columnar→columnar over one arena is a
   per-column blit with int-only order checks, anything else goes
   through the boxed view. *)
let append_table t src =
  match (t.repr, src.repr) with
  | Cols c, Cols cs when c.arena == cs.arena && same_cols t src ->
    if src.len > 0 then begin
      compact_cols src cs;
      (match t.sorted with
      | None -> ()
      | Some cl ->
        let p = col_pos t cl in
        let col = cs.data.(p) in
        let ok =
          ref
            (t.len = 0
            || Dewey_arena.compare c.arena c.data.(p).(t.len - 1) col.(0) <= 0)
        in
        if !ok && not (sorted_on src cl) then begin
          let i = ref 1 in
          while !ok && !i < src.len do
            if Dewey_arena.compare c.arena col.(!i - 1) col.(!i) > 0 then ok := false;
            incr i
          done
        end;
        if not !ok then t.sorted <- None);
      ensure_capacity t src.len;
      Array.iteri (fun p col -> Array.blit cs.data.(p) 0 col t.len src.len) c.data;
      c.cache <- None;
      t.len <- t.len + src.len
    end
  | _ -> append_rows t (rows src)

let filter t keep =
  match t.repr with
  | Boxed b ->
    let k = ref 0 in
    for i = 0 to t.len - 1 do
      let row = b.buf.(i) in
      if keep row then begin
        b.buf.(!k) <- row;
        incr k
      end
    done;
    if !k < t.len then begin
      Array.fill b.buf !k (t.len - !k) dummy_row;
      t.len <- !k
    end
  | Cols c ->
    let ncols = Array.length c.data in
    let k = ref 0 in
    for i = 0 to t.len - 1 do
      if keep (build_row c i) then begin
        if !k < i then
          for p = 0 to ncols - 1 do
            c.data.(p).(!k) <- c.data.(p).(i)
          done;
        incr k
      end
    done;
    if !k < t.len then t.len <- !k;
    c.cache <- None

(* Handle sets for [remove_ids]: handles are dense small ints, so the
   identity hash spreads them evenly. *)
module Handle_set = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

module Dewey_set = Hashtbl.Make (Dewey)

let remove_ids t keys =
  let keys = List.filter (fun (_, d) -> d.len > 0) keys in
  if keys <> [] && t.len > 0 then
    match t.repr with
    | Cols c ->
      (* One handle set per keyed column; identifiers of a boxed or
         foreign-arena key that the arena never saw cannot occur in [t]. *)
      let probes =
        Array.of_list
          (List.map
             (fun (node, d) ->
               let set = Handle_set.create (2 * d.len) in
               (match d.repr with
               | Cols dc when dc.arena == c.arena ->
                 let col = dc.data.(0) in
                 for i = 0 to d.len - 1 do
                   Handle_set.replace set col.(i) ()
                 done
               | Cols _ | Boxed _ ->
                 for i = 0 to d.len - 1 do
                   match Dewey_arena.find c.arena (cell_id d i 0) with
                   | Some h -> Handle_set.replace set h ()
                   | None -> ()
                 done);
               (c.data.(col_pos t node), set))
             keys)
      in
      let ncols = Array.length c.data and nprobes = Array.length probes in
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
              c.data.(p).(!k) <- c.data.(p).(i)
            done;
          incr k
        end
      done;
      t.len <- !k;
      c.cache <- None
    | Boxed _ ->
      let probes =
        List.map
          (fun (node, d) ->
            let set = Dewey_set.create (2 * d.len) in
            for i = 0 to d.len - 1 do
              Dewey_set.replace set (cell_id d i 0) ()
            done;
            (col_pos t node, set))
          keys
      in
      filter t (fun row ->
          not (List.exists (fun (p, set) -> Dewey_set.mem set row.(p)) probes))

let sort_by_node t node =
  let pos = col_pos t node in
  if not (sorted_on t node) then begin
    match t.repr with
    | Boxed _ ->
      let r = rows t in
      Array.sort (fun a b -> Dewey.compare a.(pos) b.(pos)) r
    | Cols c ->
      compact_cols t c;
      let key = c.data.(pos) in
      let perm = Array.init t.len Fun.id in
      Array.sort (fun i j -> Dewey_arena.compare c.arena key.(i) key.(j)) perm;
      c.data <- Array.map (fun col -> Array.map (fun i -> col.(i)) perm) c.data;
      c.cache <- None
  end;
  t.sorted <- Some node

let copy t =
  let repr =
    match t.repr with
    | Boxed b -> Boxed { buf = Array.sub b.buf 0 t.len }
    | Cols c ->
      Cols
        {
          arena = c.arena;
          data = Array.map (fun a -> Array.sub a 0 t.len) c.data;
          cache = None;
        }
  in
  { tcols = t.tcols; repr; len = t.len; sorted = t.sorted }
