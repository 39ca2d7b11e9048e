type handle = int

(* Arena behaviour is observable like every operator: [interned] counts
   fresh handles, [hits] intern calls resolved by lookup, [bytes] the
   approximate flat-array footprint of the interned data. *)
let obs = Obs.Scope.v "dewey.arena"
let c_interned = Obs.Scope.counter obs "interned"
let c_hits = Obs.Scope.counter obs "hits"
let c_bytes = Obs.Scope.counter obs "bytes"

module Dewey_tbl = Hashtbl.Make (struct
  type t = Dewey.t

  let equal = Dewey.equal
  let hash = Dewey.hash
end)

(* Struct-of-arrays: one slot per handle in each side array; the last
   step's ordinal digits live as a slice of [pack]. Everything before
   [n] (resp. [pack_len]) is immutable once written, so concurrent
   readers are safe while only the main domain appends. *)
type t = {
  mutable pack : int array; (* concatenated last-step ordinals *)
  mutable pack_len : int;
  mutable off : int array; (* handle -> start of its ordinal slice *)
  mutable nord : int array; (* handle -> ordinal digit count *)
  mutable par : int array; (* handle -> parent handle, -1 for roots *)
  mutable dep : int array; (* handle -> depth, >= 1 *)
  mutable lab : int array; (* handle -> label code *)
  mutable boxed : Dewey.t array; (* handle -> canonical boxed id *)
  mutable n : int;
  index : handle Dewey_tbl.t;
}

let create () =
  {
    pack = [||];
    pack_len = 0;
    off = [||];
    nord = [||];
    par = [||];
    dep = [||];
    lab = [||];
    boxed = [||];
    n = 0;
    index = Dewey_tbl.create 4096;
  }

let size t = t.n

let grow_int arr len need =
  if need <= Array.length arr then arr
  else begin
    let cap = max need (max 64 (2 * Array.length arr)) in
    let arr' = Array.make cap 0 in
    Array.blit arr 0 arr' 0 len;
    arr'
  end

let dummy_id : Dewey.t = Dewey.root ~lab:0

let add t (id : Dewey.t) ph =
  let steps = (id :> Dewey.step array) in
  let last = steps.(Array.length steps - 1) in
  let no = Array.length last.Dewey.ord in
  t.pack <- grow_int t.pack t.pack_len (t.pack_len + no);
  Array.blit last.Dewey.ord 0 t.pack t.pack_len no;
  let h = t.n in
  let need = h + 1 in
  t.off <- grow_int t.off h need;
  t.nord <- grow_int t.nord h need;
  t.par <- grow_int t.par h need;
  t.dep <- grow_int t.dep h need;
  t.lab <- grow_int t.lab h need;
  if need > Array.length t.boxed then begin
    let cap = max need (max 64 (2 * Array.length t.boxed)) in
    let b = Array.make cap dummy_id in
    Array.blit t.boxed 0 b 0 h;
    t.boxed <- b
  end;
  t.off.(h) <- t.pack_len;
  t.nord.(h) <- no;
  t.par.(h) <- ph;
  t.dep.(h) <- Array.length steps;
  t.lab.(h) <- last.Dewey.lab;
  t.boxed.(h) <- id;
  t.pack_len <- t.pack_len + no;
  t.n <- h + 1;
  Dewey_tbl.add t.index id h;
  if Obs.enabled () then begin
    Obs.Counter.incr c_interned;
    (* Ordinal slice plus the six per-handle side slots, in bytes. *)
    Obs.Counter.add c_bytes ((no + 6) * (Sys.word_size / 8))
  end;
  h

let rec intern_new t id =
  match Dewey_tbl.find_opt t.index id with
  | Some h -> h
  | None ->
    let ph = match Dewey.parent id with None -> -1 | Some p -> intern_new t p in
    add t id ph

let intern t id =
  match Dewey_tbl.find_opt t.index id with
  | Some h ->
    Obs.Counter.incr c_hits;
    h
  | None ->
    (* Same contract as [Store.commit]: child domains read the arena
       under the guarantee that nobody writes it concurrently, so a
       miss-driven insertion is a main-domain-only operation. *)
    if not (Domain.is_main_domain ()) then
      invalid_arg "Dewey_arena.intern: new identifier off the main domain";
    intern_new t id

(* No probe at all when the caller knows [id] is new. *)
let intern_absent_child t ~parent id =
  if not (Domain.is_main_domain ()) then
    invalid_arg "Dewey_arena.intern_absent_child: off the main domain";
  add t id parent

let find t id = Dewey_tbl.find_opt t.index id
let to_dewey t h = t.boxed.(h)
let depth t h = t.dep.(h)
let label t h = t.lab.(h)
let parent t h = t.par.(h)

let ancestor_at t h d =
  let x = ref h in
  while t.dep.(!x) > d do
    x := t.par.(!x)
  done;
  !x

(* Ordinal digits of two packed slices up to [m]. A top-level loop, not
   a local closure: without flambda the latter is allocated per call. *)
let rec digits_compare (p : int array) ox oy m j =
  if j >= m then 0
  else
    let a = Array.unsafe_get p (ox + j) and b = Array.unsafe_get p (oy + j) in
    if a < b then -1 else if a > b then 1 else digits_compare p ox oy m (j + 1)

(* Compare the last steps of two handles at equal depth: ordinal digits
   lexicographically, a strict digit-prefix first, then the label —
   exactly [Dewey.compare]'s per-step rule, over the flat buffers. *)
let step_compare t x y =
  let nx = t.nord.(x) and ny = t.nord.(y) in
  let c = digits_compare t.pack t.off.(x) t.off.(y) (if nx < ny then nx else ny) 0 in
  if c <> 0 then c
  else if nx <> ny then if nx < ny then -1 else 1
  else
    let la = t.lab.(x) and lb = t.lab.(y) in
    if la < lb then -1 else if la > lb then 1 else 0

(* Document order without touching boxed steps: lift the deeper handle
   to the shallower one's depth; identical handles there mean an
   ancestor relation (ancestors sort first), otherwise walk both up in
   lockstep to the first diverging step and compare it. *)
let compare t a b =
  if a = b then 0
  else begin
    let da = t.dep.(a) and db = t.dep.(b) in
    let m = if da < db then da else db in
    let a' = ancestor_at t a m and b' = ancestor_at t b m in
    if a' = b' then (if da < db then -1 else 1)
    else begin
      let x = ref a' and y = ref b' in
      while t.par.(!x) <> t.par.(!y) do
        x := t.par.(!x);
        y := t.par.(!y)
      done;
      step_compare t !x !y
    end
  end

let is_prefix t a d = t.dep.(a) <= t.dep.(d) && ancestor_at t d t.dep.(a) = a
let is_ancestor t a d = t.dep.(a) < t.dep.(d) && ancestor_at t d t.dep.(a) = a
let is_parent t p c = t.par.(c) = p

let gallop t (hs : int array) lo n h =
  if lo >= n || compare t hs.(lo) h >= 0 then lo
  else begin
    let prev = ref lo and step = ref 1 in
    while !prev + !step < n && compare t hs.(!prev + !step) h < 0 do
      prev := !prev + !step;
      step := 2 * !step
    done;
    let lo = ref (!prev + 1) and hi = ref (min n (!prev + !step)) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if compare t hs.(mid) h < 0 then lo := mid + 1 else hi := mid
    done;
    !lo
  end
