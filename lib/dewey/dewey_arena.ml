type handle = int

(* Arena behaviour is observable like every operator: [interned] counts
   fresh handles, [hits] intern calls resolved by lookup, [walks]
   whole-identifier lookups ({!find} and {!intern}, one child probe per
   step), [bytes] the approximate flat-array footprint of the interned
   data and of the child index's slots. *)
let obs = Obs.Scope.v "dewey.arena"
let c_interned = Obs.Scope.counter obs "interned"
let c_hits = Obs.Scope.counter obs "hits"
let c_walks = Obs.Scope.counter obs "walks"
let c_bytes = Obs.Scope.counter obs "bytes"

(* Struct-of-arrays: one slot per handle in each side array; the last
   step's ordinal digits live as a slice of [pack]. Everything before
   [n] (resp. [pack_len]) is immutable once written; only the main
   domain appends.

   [slots] is the child index: an open-addressing table (linear probing,
   power-of-two length, at most half full) of handles, [-1] for an empty
   slot, keyed by (parent handle, label code, last-step ordinal digits)
   read back from the side arrays. A step is one key, so a whole
   identifier is found by a root-to-leaf walk of child probes. A resize
   publishes a fresh array and never writes the old one again.

   [next] is the handle after the one {!intern_child} last returned. A
   fragment is interned in preorder the first time it is inserted, so
   when an undo frees its identifiers and the same insertion mints them
   again, each request's handle is usually the one after the previous
   request's: {!intern_child} compares that handle's key first. *)
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
  mutable slots : handle array; (* child index, see above *)
  mutable next : handle; (* tested first by [intern_child], see above *)
}

let word = Sys.word_size / 8
let initial_slots = 256

let create () =
  if Obs.enabled () then Obs.Counter.add c_bytes (initial_slots * word);
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
    slots = Array.make initial_slots (-1);
    next = 0;
  }

let size t = t.n

module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

let grow_int arr len need =
  if need <= Array.length arr then arr
  else begin
    let cap = max need (max 64 (2 * Array.length arr)) in
    let arr' = Array.make cap 0 in
    Array.blit arr 0 arr' 0 len;
    arr'
  end

let dummy_id : Dewey.t = Dewey.root ~lab:0

(* {2 Child index}

   The key hash folds the parent, the label and every ordinal digit, then
   mixes the high bits down: the slot is taken from the low bits. Callers'
   ordinals and the arena's packed slices hash through the same function
   (an array, an offset and a length). Top-level recursive functions, not
   local closures: without flambda the latter are allocated per call. *)
let rec hash_digits (a : int array) i stop h =
  if i >= stop then h
  else hash_digits a (i + 1) stop ((h lxor Array.unsafe_get a i) * 0x100000001b3)

let key_hash parent lab (a : int array) off len =
  let h = hash_digits a off (off + len) (((parent * 0x9e3779b1) lxor lab) * 0x100000001b3) in
  let h = h lxor (h lsr 32) in
  let h = h * 0xd6e8feb86659fd9 in
  h lxor (h lsr 29)

let rec same_digits (p : int array) po (o : int array) j n =
  j >= n
  || (Array.unsafe_get p (po + j) = Array.unsafe_get o j && same_digits p po o (j + 1) n)

(* [h] is the child of [parent] labelled [lab] at ordinal [o]: every
   digit must match, and so must the digit count, so an ordinal never
   matches its strict digit-prefix or extension. *)
let matches t h parent lab (o : int array) =
  Array.unsafe_get t.par h = parent
  && Array.unsafe_get t.lab h = lab
  &&
  let n = Array.length o in
  Array.unsafe_get t.nord h = n && same_digits t.pack (Array.unsafe_get t.off h) o 0 n

let rec seek t slots mask parent lab o i =
  let h = Array.unsafe_get slots i in
  if h < 0 || matches t h parent lab o then i
  else seek t slots mask parent lab o ((i + 1) land mask)

(* The index in [slots] of the key's handle, or of the empty slot where
   it would go. *)
let slot t slots parent lab o =
  let mask = Array.length slots - 1 in
  seek t slots mask parent lab o (key_hash parent lab o 0 (Array.length o) land mask)

let rec free_slot (slots : int array) mask i =
  if Array.unsafe_get slots i < 0 then i else free_slot slots mask ((i + 1) land mask)

(* Double the slot table once it is half full: every handle is re-placed
   from its side-array key into a fresh array, then published. *)
let grow_slots t =
  let cap = 2 * Array.length t.slots in
  let slots = Array.make cap (-1) in
  let mask = cap - 1 in
  for h = 0 to t.n - 1 do
    let k = key_hash t.par.(h) t.lab.(h) t.pack t.off.(h) t.nord.(h) in
    slots.(free_slot slots mask (k land mask)) <- h
  done;
  t.slots <- slots;
  if Obs.enabled () then Obs.Counter.add c_bytes ((cap / 2) * word)

(* Append a handle for [boxed], whose last step is ([lab], [ord]) under
   [parent], and index it at [t.slots.(i)], its empty slot (from
   {!slot}). Main domain only, like the store that owns the arena. *)
let add t ~parent ~lab ~ord ~boxed i =
  if not (Domain.is_main_domain ()) then
    invalid_arg "Dewey_arena.intern: new identifier off the main domain";
  let no = Array.length ord in
  t.pack <- grow_int t.pack t.pack_len (t.pack_len + no);
  Array.blit ord 0 t.pack t.pack_len no;
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
  t.par.(h) <- parent;
  t.dep.(h) <- (if parent < 0 then 1 else t.dep.(parent) + 1);
  t.lab.(h) <- lab;
  t.boxed.(h) <- boxed;
  t.pack_len <- t.pack_len + no;
  t.n <- need;
  t.slots.(i) <- h;
  if 2 * need > Array.length t.slots then grow_slots t;
  if Obs.enabled () then begin
    Obs.Counter.incr c_interned;
    (* Ordinal slice plus the six per-handle side slots, in bytes. *)
    Obs.Counter.add c_bytes ((no + 6) * word)
  end;
  h

(* Readers take [t.slots] once: a table published by a resize is never
   mixed with the one it replaced. *)
let find_child t ~parent ~lab ~ord =
  let slots = t.slots in
  slots.(slot t slots parent lab ord)

(* The key comparison on [next] is [matches], the probe's own test, so
   it finds exactly the handle the probe would. *)
let intern_child t ~parent ~lab ~ord =
  let h = t.next in
  let h =
    if h < t.n && matches t h parent lab ord then begin
      Obs.Counter.incr c_hits;
      h
    end
    else
      let i = slot t t.slots parent lab ord in
      let h = t.slots.(i) in
      if h >= 0 then begin
        Obs.Counter.incr c_hits;
        h
      end
      else
        let boxed =
          if parent < 0 then Dewey.of_steps [| { Dewey.lab; ord } |]
          else Dewey.child t.boxed.(parent) ~lab ~ord
        in
        add t ~parent ~lab ~ord ~boxed i
  in
  t.next <- h + 1;
  h

(* Root-to-leaf walk: one child probe per step, from the roots' parent
   [-1]. Stops at the first step that is not interned. *)
let rec walk t (steps : Dewey.step array) parent k =
  if k = Array.length steps then parent
  else
    let s = Array.unsafe_get steps k in
    let h = find_child t ~parent ~lab:s.Dewey.lab ~ord:s.Dewey.ord in
    if h < 0 then -1 else walk t steps h (k + 1)

let find t (id : Dewey.t) =
  Obs.Counter.incr c_walks;
  let h = walk t (id :> Dewey.step array) (-1) 0 in
  if h < 0 then None else Some h

(* The walk interns the missing suffix: the leaf keeps the caller's boxed
   id, a missing inner step gets a fresh prefix array. *)
let rec intern_from t (id : Dewey.t) (steps : Dewey.step array) parent k =
  let s = steps.(k) in
  let last = k = Array.length steps - 1 in
  let i = slot t t.slots parent s.Dewey.lab s.Dewey.ord in
  let h = t.slots.(i) in
  let h =
    if h >= 0 then begin
      if last then Obs.Counter.incr c_hits;
      h
    end
    else
      let boxed = if last then id else Dewey.of_steps (Array.sub steps 0 (k + 1)) in
      add t ~parent ~lab:s.Dewey.lab ~ord:s.Dewey.ord ~boxed i
  in
  if last then h else intern_from t id steps h (k + 1)

let intern t (id : Dewey.t) =
  Obs.Counter.incr c_walks;
  intern_from t id (id :> Dewey.step array) (-1) 0

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
