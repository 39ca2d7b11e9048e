(** Bounded-growth update mix for the serving benchmarks.

    A cyclic statement stream for driving a long-lived {!Server} over
    an XMark document: insertions add small fragments (person phones,
    auction bidders) and the paired deletions remove exactly those
    label populations, so the document size stays bounded no matter how
    long the stream runs. The mix alternates footprints that are
    relevant and irrelevant to the typical Q1–Q17 views, exercising
    both the propagation and the relevance-skip paths. *)

(** [statement i] is the [i]-th statement of the stream (0-based,
    deterministic). *)
val statement : int -> Update.t
