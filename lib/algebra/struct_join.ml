(* Metrics: [comparisons] counts identifier comparisons (document
   order, prefix tests and the [Child] axis's parent search), so
   complexity bounds expressed over it hold for every join. *)
let obs = Obs.Scope.v "algebra.join"
let c_rows_left = Obs.Scope.counter obs "rows_left"
let c_rows_right = Obs.Scope.counter obs "rows_right"
let c_rows_out = Obs.Scope.counter obs "rows_out"
let c_comparisons = Obs.Scope.counter obs "comparisons"
let c_merge_calls = Obs.Scope.counter obs "merge_calls"

let flush_tables left right out =
  Obs.Counter.add c_rows_left (Tuple_table.length left);
  Obs.Counter.add c_rows_right (Tuple_table.length right);
  Obs.Counter.add c_rows_out (Tuple_table.length out)

let out_cols left right =
  Array.append (Tuple_table.cols left) (Tuple_table.cols right)

(* {1 Sort-merge join}

   Stack-Tree on arena handles. Both inputs are sorted in document order
   of their join columns; equal ancestor-side identifiers form
   consecutive runs. The stack holds (id, run-start, run-stop) frames
   whose identifiers are nested prefixes of one another — exactly the
   ancestor-side nodes lying on the root path of the current descendant.
   Document order guarantees a frame popped once can never match again
   (a subtree is a contiguous document-order interval), so every frame is
   pushed and popped exactly once: O(|L| + |R| + |out|) overall.

   The join columns are unboxed handle arrays, compare/is_prefix are flat
   int arithmetic, and output rows are emitted as column-slice batches:
   one [Array.blit] per left column and one [Array.fill] per right column
   per stack frame. *)

let merge arena left right ~parent ~child ~axis =
  let lcols = Tuple_table.columns left and rcols = Tuple_table.columns right in
  let track = Obs.enabled () in
  let cmps = ref 0 in
  let cmp a b =
    if track then incr cmps;
    Dewey_arena.compare arena a b
  in
  let anc a b =
    if track then incr cmps;
    Dewey_arena.is_prefix arena a b
  in
  let ppos = Tuple_table.col_pos left parent in
  let cpos = Tuple_table.col_pos right child in
  let la = lcols.(ppos) and rc = rcols.(cpos) in
  let nl = Array.length la and nr = Array.length rc in
  let nlc = Array.length lcols and nrc = Array.length rcols in
  let nout = nlc + nrc in
  let ocols = out_cols left right in
  (* Growable output columns sharing one capacity. *)
  let obuf = ref (Array.make nout [||]) in
  let ocap = ref 0 and olen = ref 0 in
  let finish () =
    let out = Tuple_table.of_cols ~arena ~cols:ocols ~len:!olen !obuf in
    Tuple_table.mark_sorted_by out child;
    if track then begin
      Obs.Counter.incr c_merge_calls;
      Obs.Counter.add c_comparisons !cmps;
      flush_tables left right out
    end;
    out
  in
  if nl = 0 || nr = 0 then finish ()
  else begin
    let ensure extra =
      let need = !olen + extra in
      if need > !ocap then begin
        let cap' = max need (max 16 (2 * !ocap)) in
        obuf :=
          Array.map
            (fun a ->
              let a' = Array.make cap' 0 in
              Array.blit a 0 a' 0 !olen;
              a')
            !obuf;
        ocap := cap'
      end
    in
    (* Stack frames, parallel arrays; depths are strictly increasing. *)
    let cap = ref 16 in
    let st_id = ref (Array.make !cap 0) in
    let st_lo = ref (Array.make !cap 0) in
    let st_hi = ref (Array.make !cap 0) in
    let sp = ref 0 in
    let push id lo hi =
      if !sp >= !cap then begin
        let cap' = 2 * !cap in
        let id' = Array.make cap' 0 and lo' = Array.make cap' 0 and hi' = Array.make cap' 0 in
        Array.blit !st_id 0 id' 0 !sp;
        Array.blit !st_lo 0 lo' 0 !sp;
        Array.blit !st_hi 0 hi' 0 !sp;
        st_id := id';
        st_lo := lo';
        st_hi := hi';
        cap := cap'
      end;
      !st_id.(!sp) <- id;
      !st_lo.(!sp) <- lo;
      !st_hi.(!sp) <- hi;
      incr sp
    in
    let top_id () = !st_id.(!sp - 1) in
    let emit s j =
      let lo = !st_lo.(s) in
      let run = !st_hi.(s) - lo in
      ensure run;
      let b = !obuf in
      for c = 0 to nlc - 1 do
        Array.blit lcols.(c) lo b.(c) !olen run
      done;
      for c = 0 to nrc - 1 do
        Array.fill b.(nlc + c) !olen run rcols.(c).(j)
      done;
      olen := !olen + run
    in
    let i = ref 0 in
    for j = 0 to nr - 1 do
      let d = rc.(j) in
      (* Shift every ancestor-side run at or before [d] onto the stack. *)
      while !i < nl && cmp la.(!i) d <= 0 do
        let gid = la.(!i) in
        let lo = !i in
        incr i;
        while !i < nl && cmp la.(!i) gid = 0 do
          incr i
        done;
        while !sp > 0 && not (anc (top_id ()) gid) do
          decr sp
        done;
        push gid lo !i
      done;
      (* Drop frames whose subtrees we have left for good. *)
      while !sp > 0 && not (anc (top_id ()) d) do
        decr sp
      done;
      (* Every remaining frame is a prefix of [d]; only a depth-equal top
         frame (d itself) is not a strict ancestor. *)
      match axis with
      | Pattern.Descendant ->
        let dd = Dewey_arena.depth arena d in
        let stop =
          if !sp > 0 && Dewey_arena.depth arena (top_id ()) = dd then !sp - 1 else !sp
        in
        for s = 0 to stop - 1 do
          emit s j
        done
      | Pattern.Child ->
        (* Frame depths are strictly increasing: binary-search the parent. *)
        let target = Dewey_arena.depth arena d - 1 in
        if target >= 1 && !sp > 0 then begin
          let lo = ref 0 and hi = ref (!sp - 1) and found = ref (-1) in
          while !lo <= !hi do
            if track then incr cmps;
            let mid = (!lo + !hi) / 2 in
            let md = Dewey_arena.depth arena !st_id.(mid) in
            if md = target then begin
              found := mid;
              lo := !hi + 1
            end
            else if md < target then lo := mid + 1
            else hi := mid - 1
          done;
          if !found >= 0 then emit !found j
        end
    done;
    finish ()
  end

let join left right ~parent ~child ~axis =
  let arena = Tuple_table.arena left in
  if Tuple_table.arena right != arena then
    invalid_arg "Struct_join.join: tables over different arenas";
  Tuple_table.sort_by_node left parent;
  Tuple_table.sort_by_node right child;
  merge arena left right ~parent ~child ~axis
