(* Shared-work batch maintenance helpers: the relevance pre-filter and the
   heavy-routing test used by View_set.update. See batch.mli for the
   contracts. *)

type update_labels =
  | Labels of Delta.Shared.t
  | Text_only

let touches labels tag =
  match labels with
  | Labels sh ->
    if tag = "*" then Delta.Shared.has_elements sh
    else Delta.Shared.mem_label sh tag
  | Text_only -> tag = "#text"

(* A star node matches elements only, so a star view is relevant exactly
   when the update region holds an element: attribute-only deletes,
   text-only inserts, replace-value and target-less statements leave it
   untouched. *)
let relevant mv labels =
  let fp = mv.Mview.footprint in
  (fp.Mview.fp_star && touches labels "*")
  || Array.exists (touches labels) fp.Mview.fp_tags

(* Skip-safety (the argument is spelled out in DESIGN.md): with a disjoint
   footprint every Δ table of the view is empty, so every union term is
   pruned and no embedding is added or removed; no footprint-labeled node
   lies inside a deleted region, so no view entry or snowcap row is
   purged; a payload can only go stale on an ancestor-or-self of an
   insertion point or deleted root's parent, and no val/cont node of the
   view carries a label on those root paths; value-predicate flips are
   guarded separately by the caller's watches. *)
let can_skip mv labels affected =
  (not (relevant mv labels)) && Maint.payload_safe mv affected

(* Heavy-routing test for adaptive maintenance: the update's delta
   enters the view through a heavy label. Exact tags check the delta's
   label map against [heavy]; a star node routes heavy as soon as any
   heavy element label was touched (conservative: the star column would
   scan those entries). Replace-value updates route through the text
   partition only. *)
let routes_heavy ~heavy mv labels =
  match labels with
  | Text_only ->
    heavy "#text"
    && (mv.Mview.footprint.Mview.fp_star
       || Array.exists (( = ) "#text") mv.Mview.footprint.Mview.fp_tags)
  | Labels sh ->
    let fp = mv.Mview.footprint in
    (fp.Mview.fp_star && Delta.Shared.exists_label sh heavy)
    || Array.exists
         (fun tag -> heavy tag && Delta.Shared.mem_label sh tag)
         fp.Mview.fp_tags
