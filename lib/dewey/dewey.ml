type step = { lab : int; ord : int array }
type t = step array

module Ord = struct
  type o = int array

  let first = [| 1 |]
  let after o = [| o.(0) + 1 |]
  let before o = [| o.(0) - 1 |]

  (* Kernels are top-level recursive functions rather than local
     closures: without flambda a local [let rec] capturing its
     arguments is heap-allocated on every call. *)
  let rec compare_from (a : int array) (b : int array) la lb i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else
      let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
      if x < y then -1 else if x > y then 1 else compare_from a b la lb (i + 1)

  let compare a b = compare_from a b (Array.length a) (Array.length b) 0

  (* An ordinal strictly between [a] and [b] always exists: either there is
     room at the first diverging component, or we extend [a] (extensions of
     [a] sort after [a] and, sharing [a]'s diverging component, before
     [b]). *)
  let between a b =
    if compare a b >= 0 then invalid_arg "Dewey.Ord.between: a >= b";
    let la = Array.length a in
    let rec go i =
      if i >= la then
        (* [a] is a strict prefix of [b]. *)
        Array.append a [| b.(i) - 1; 1 |]
      else if a.(i) < b.(i) then
        if b.(i) - a.(i) >= 2 then Array.append (Array.sub a 0 i) [| a.(i) + 1 |]
        else Array.append a [| 1 |]
      else go (i + 1)
    in
    go 0
end

let of_steps steps =
  if Array.length steps = 0 then invalid_arg "Dewey.of_steps: empty";
  steps

let root ~lab = [| { lab; ord = Ord.first } |]
let child parent ~lab ~ord = Array.append parent [| { lab; ord } |]
let depth t = Array.length t
let label t = t.(Array.length t - 1).lab
let label_path t = Array.map (fun s -> s.lab) t
let last_ord t = t.(Array.length t - 1).ord

let parent t =
  let n = Array.length t in
  if n <= 1 then None else Some (Array.sub t 0 (n - 1))

let ancestors t =
  let n = Array.length t in
  let rec go i acc = if i = 0 then acc else go (i - 1) (Array.sub t 0 i :: acc) in
  go (n - 1) []

let rec has_label_below (t : t) lab stop i =
  i < stop && (t.(i).lab = lab || has_label_below t lab stop (i + 1))

let has_ancestor_label ?(self = false) t ~lab =
  let n = Array.length t in
  has_label_below t lab (if self then n else n - 1) 0

(* [a.ord = b.ord] would be a generic structural-equality call on every
   step; ordinals sit on the hot path of every structural predicate, so
   compare them as int arrays directly. The loops below are top-level
   recursive functions, not local closures: without flambda a local
   [let rec] is allocated on every call (and, nested inside a step loop,
   on every step). *)
let rec ord_equal_from (a : int array) (b : int array) n i =
  i >= n
  || (Array.unsafe_get a i = Array.unsafe_get b i && ord_equal_from a b n (i + 1))

let ord_equal (a : int array) (b : int array) =
  let n = Array.length a in
  n = Array.length b && ord_equal_from a b n 0

let step_equal a b = a.lab = b.lab && ord_equal a.ord b.ord

(* Digits of two ordinals up to [m]: the first difference decides. *)
let rec digits_compare (oa : int array) (ob : int array) m j =
  if j >= m then 0
  else
    let x = Array.unsafe_get oa j and y = Array.unsafe_get ob j in
    if x < y then -1 else if x > y then 1 else digits_compare oa ob m (j + 1)

(* One step in document order: ordinal digits lexicographically, a
   strict digit-prefix first, then the label. *)
let step_compare sa sb =
  let oa = sa.ord and ob = sb.ord in
  let loa = Array.length oa and lob = Array.length ob in
  let c = digits_compare oa ob (if loa < lob then loa else lob) 0 in
  if c <> 0 then c
  else if loa <> lob then if loa < lob then -1 else 1
  else if sa.lab <> sb.lab then if sa.lab < sb.lab then -1 else 1
  else 0

let rec steps_compare (a : t) (b : t) la lb n i =
  if i >= n then Stdlib.compare (la : int) lb
  else
    let c = step_compare (Array.unsafe_get a i) (Array.unsafe_get b i) in
    if c <> 0 then c else steps_compare a b la lb n (i + 1)

(* Document-order comparison is the single hottest operation in the
   system (sorting relations, merge joins). *)
let compare (a : t) (b : t) =
  if a == b then 0
  else
    let la = Array.length a and lb = Array.length b in
    steps_compare a b la lb (if la < lb then la else lb) 0

let equal a b = Array.length a = Array.length b && Array.for_all2 step_equal a b

let hash t =
  let h = ref 17 in
  for i = 0 to Array.length t - 1 do
    let s = t.(i) in
    h := (!h * 31) + s.lab;
    for j = 0 to Array.length s.ord - 1 do
      h := (!h * 31) + s.ord.(j)
    done
  done;
  !h

let rec steps_equal (a : t) (b : t) k i =
  i >= k || (step_equal a.(i) b.(i) && steps_equal a b k (i + 1))

let is_prefix a d =
  a == d
  ||
  let la = Array.length a in
  la <= Array.length d && steps_equal a d la 0

let is_parent p c = Array.length c = Array.length p + 1 && is_prefix p c
let is_ancestor a d = Array.length a < Array.length d && is_prefix a d
let is_ancestor_or_self a d = Array.length a <= Array.length d && is_prefix a d

(* Zig-zag varint codec. An encoding is written into a string of its
   exact size: [encoded_size] first, then [blit_encoded]. Top-level
   loops, as in [compare]. *)

let zigzag v = (v lsl 1) lxor (v asr (Sys.int_size - 1))
let unzigzag v = (v lsr 1) lxor (-(v land 1))

let rec varint_size v = if v lsr 7 = 0 then 1 else 1 + varint_size (v lsr 7)

let rec blit_varint b pos v =
  if v lsr 7 = 0 then begin
    Bytes.set b pos (Char.unsafe_chr v);
    pos + 1
  end
  else begin
    Bytes.set b pos (Char.unsafe_chr (v land 0x7f lor 0x80));
    blit_varint b (pos + 1) (v lsr 7)
  end

let rec ords_size (o : int array) j acc =
  if j = Array.length o then acc
  else ords_size o (j + 1) (acc + varint_size (zigzag (Array.unsafe_get o j)))

let rec steps_size (t : t) i acc =
  if i = Array.length t then acc
  else
    let s = Array.unsafe_get t i in
    let n = Array.length s.ord in
    steps_size t (i + 1) (ords_size s.ord 0 (acc + varint_size s.lab + varint_size n))

let encoded_size t = steps_size t 0 (varint_size (Array.length t))

let rec blit_ords b pos (o : int array) j =
  if j = Array.length o then pos
  else blit_ords b (blit_varint b pos (zigzag (Array.unsafe_get o j))) o (j + 1)

let rec blit_steps b pos (t : t) i =
  if i = Array.length t then pos
  else
    let s = Array.unsafe_get t i in
    let pos = blit_varint b (blit_varint b pos s.lab) (Array.length s.ord) in
    blit_steps b (blit_ords b pos s.ord 0) t (i + 1)

let blit_encoded t b pos = blit_steps b (blit_varint b pos (Array.length t)) t 0

let encode t =
  let b = Bytes.create (encoded_size t) in
  ignore (blit_encoded t b 0);
  Bytes.unsafe_to_string b

(* Order of two varints' byte strings: the first byte that differs
   decides, bytes read low group first, continuation bit set on all but
   the last. *)
let rec varint_bytes_compare x y =
  if x = y then 0
  else
    let cx = x lsr 7 and cy = y lsr 7 in
    let bx = if cx = 0 then x land 0x7f else x land 0x7f lor 0x80
    and by = if cy = 0 then y land 0x7f else y land 0x7f lor 0x80 in
    if bx <> by then Int.compare bx by else varint_bytes_compare cx cy

(* The encoding of a step is its label, its digit count, then its
   zigzagged digits, each a varint. Top-level loops, as in [compare]. *)
let rec ords_encoded_compare (oa : int array) (ob : int array) n j =
  if j = n then 0
  else
    let c =
      varint_bytes_compare (zigzag (Array.unsafe_get oa j)) (zigzag (Array.unsafe_get ob j))
    in
    if c <> 0 then c else ords_encoded_compare oa ob n (j + 1)

let step_encoded_compare sa sb =
  let c = varint_bytes_compare sa.lab sb.lab in
  if c <> 0 then c
  else
    let oa = sa.ord and ob = sb.ord in
    let n = Array.length oa in
    let c = varint_bytes_compare n (Array.length ob) in
    if c <> 0 then c else ords_encoded_compare oa ob n 0

let rec steps_encoded_compare (a : t) (b : t) n i =
  if i = n then 0
  else
    let sa = Array.unsafe_get a i and sb = Array.unsafe_get b i in
    let c = if sa == sb then 0 else step_encoded_compare sa sb in
    if c <> 0 then c else steps_encoded_compare a b n (i + 1)

let compare_encoded (a : t) (b : t) =
  if a == b then 0
  else
    let la = Array.length a in
    let c = varint_bytes_compare la (Array.length b) in
    if c <> 0 then c else steps_encoded_compare a b la 0

let decode s =
  let pos = ref 0 in
  (* Bounded at 9 bytes: 8 × 7 payload bits plus a final byte limited to
     bits 56–61, so [lsl] stays within the defined range for a 63-bit
     int and overlong encodings fail instead of decoding garbage. *)
  let read_varint () =
    let v = ref 0 and shift = ref 0 and continue = ref true in
    while !continue do
      if !pos >= String.length s then invalid_arg "Dewey.decode: truncated";
      let byte = Char.code s.[!pos] in
      incr pos;
      if !shift = 56 then begin
        if byte land 0xc0 <> 0 then invalid_arg "Dewey.decode: varint overflow";
        v := !v lor (byte lsl 56);
        continue := false
      end
      else begin
        v := !v lor ((byte land 0x7f) lsl !shift);
        shift := !shift + 7;
        if byte land 0x80 = 0 then continue := false
      end
    done;
    !v
  in
  (* Every step/ordinal costs at least one byte, so a declared count
     larger than the bytes left is corrupt — checked before Array.init
     can allocate from an attacker-controlled length. *)
  let check_count what n =
    if n > String.length s - !pos then
      invalid_arg (Printf.sprintf "Dewey.decode: %s count exceeds input" what)
  in
  let nsteps = read_varint () in
  if nsteps = 0 then invalid_arg "Dewey.decode: empty";
  check_count "step" nsteps;
  let steps =
    Array.init nsteps (fun _ ->
        let lab = read_varint () in
        let nord = read_varint () in
        check_count "ordinal" nord;
        let ord = Array.init nord (fun _ -> unzigzag (read_varint ())) in
        { lab; ord })
  in
  if !pos <> String.length s then invalid_arg "Dewey.decode: trailing bytes";
  steps

let to_string ?dict t =
  let step_str s =
    let lab =
      match dict with Some d -> Label_dict.label d s.lab | None -> string_of_int s.lab
    in
    let ord =
      String.concat "_" (Array.to_list (Array.map string_of_int s.ord))
    in
    lab ^ ord
  in
  String.concat "." (Array.to_list (Array.map step_str t))
