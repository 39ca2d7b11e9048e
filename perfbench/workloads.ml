(* The three workloads. Each runs on the calling domain only: no
   [Load.run], no reader/timer domains, no metrics endpoint, jobs = 1.
   Library calls are timed from outside; per-layer counts come from a
   separate traced run under [Obs.with_scope]. *)

open Bstats

type inject = No_inject | Wrong_view | Wrong_answer
type mode = Untraced | Traced

(* A traced run reports per-layer metrics; an untraced run raw samples,
   as encoded JSON values by name. *)
type result = Per_layer of metrics | Raw of (string * string) list

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let ms s = s *. 1e3

(* {1 Statement streams} *)

let pattern_of name = Xmark_views.find name

(* Undo of an Appendix-A insertion: delete exactly the fragment roots it
   appended under each target. Generated documents have no name under a
   name, no increase under an increase and no item under an item, so the
   undo removes what the insertion added and nothing else. *)
let undo_of (u : Xmark_updates.t) =
  let starts prefix = String.starts_with ~prefix u.fragment in
  let suffix =
    if starts "<name>" then "/name[name]"
    else if starts "<increase>" then "/increase[increase]"
    else "/item"
  in
  "delete " ^ u.path ^ suffix

let insert_text u = Update.to_string (Xmark_updates.insert u)

(* Statements on labels the generator never emits: they change no view.
   (The relevance skip still does not discharge them for views that
   store values; [maint.skip_ratio] shows it.) *)
let irrelevant =
  [|
    "insert into /site/categories <edge from=\"c0\" to=\"c1\"/>";
    "delete /site/categories/edge";
    "insert into /site/people/person <note>bench</note>";
    "delete /site/people/person/note";
  |]

(* bulk-uniform: every Appendix-A statement as an insertion, each
   followed by its undo, with the irrelevant pairs spliced in after the
   first third and at the end. One cycle leaves the document level. *)
let bulk_stream =
  let pairs =
    List.concat_map (fun u -> [ insert_text u; undo_of u ]) Xmark_updates.all
  in
  let a = Array.of_list pairs in
  Array.concat
    [ Array.sub a 0 14; Array.sub irrelevant 0 2;
      Array.sub a 14 (Array.length a - 14); Array.sub irrelevant 2 2 ]

(* skew-hot: bidder insertions into every open auction (the heavy label
   on a skewed document) and their matching deletions, interleaved with
   light person statements that only Q1 sees. Generated bidders are
   dated 07/05/2026, so the date marks exactly the inserted ones. *)
let skew_stream =
  let x1 = Xmark_updates.find "X1_L" and a7 = Xmark_updates.find "A7_O" in
  [|
    "insert into /site/open_auctions/open_auction \
     <bidder><date>01/01/2000</date><increase>4.50</increase></bidder>";
    insert_text x1;
    undo_of x1;
    "delete /site/open_auctions/open_auction/bidder[date='01/01/2000']";
    insert_text a7;
    undo_of a7;
  |]

(* {1 Closed-loop workloads (bulk-uniform, skew-hot)} *)

type closed = {
  set : View_set.t;
  store : Store.t;
  pats : Pattern.t list;
  queries : Pattern.t list;
  sources : Answer.source list;
  stream : string array;
  read_every : int;  (** one read after every [read_every] statements *)
  again : unit -> setup_parts;  (** a throwaway set-up of the same document *)
}

and setup_parts = {
  gen_s : float;
  load_s : float;
  mat_s : float;
  classify_s : float;
  wal_s : float;
}

let setup_total p = p.gen_s +. p.load_s +. p.mat_s +. p.classify_s +. p.wal_s

let mean_parts ps =
  let m f = mean (List.map f ps) in
  {
    gen_s = m (fun p -> p.gen_s);
    load_s = m (fun p -> p.load_s);
    mat_s = m (fun p -> p.mat_s);
    classify_s = m (fun p -> p.classify_s);
    wal_s = m (fun p -> p.wal_s);
  }

(* Set-up and recovery take 0.05–1 s, and this host's speed drifts over
   seconds: samples taken back to back share one drift. So they are
   taken between measured stretches all through the run ("ticks", every
   [tick_every] measured seconds, outside the measured time), each
   followed by a full major collection so that its garbage is not
   collected on a measured statement's time. *)
let tick_due ~tick_every ~measured next =
  if measured >= !next then begin
    next := !next +. tick_every;
    true
  end
  else false

let load_views store pats =
  let set = View_set.create store in
  List.iter (fun p -> ignore (View_set.add set p)) pats;
  set

let rec setup_closed ~gen ~pats ~hl ~queries ~stream ~read_every () =
  let root, gen_s = timed gen in
  let store, load_s = timed (fun () -> Store.of_document root) in
  let set, mat_s = timed (fun () -> load_views store pats) in
  let (), classify_s =
    timed (fun () ->
        match hl with
        | None -> ()
        | Some config ->
          View_set.set_adaptive set (Some (Hl.create ~config store)))
  in
  let sources = List.map Answer.source_of_mview (View_set.views set) in
  let again () =
    snd (setup_closed ~gen ~pats ~hl ~queries ~stream ~read_every ())
  in
  ( { set; store; pats; queries = queries set; sources; stream; read_every; again },
    { gen_s; load_s; mat_s; classify_s; wal_s = 0. } )

(* Query with [Pattern.n] specs mirroring an existing pattern, with one
   extra value predicate on its first stored-val node. *)
let with_vpred (q : Pattern.t) ~name const =
  let vi = ref (-1) in
  Array.iteri
    (fun i (a : Pattern.annot) -> if !vi < 0 && a.Pattern.store_val then vi := i)
    q.Pattern.annots;
  let rec build i =
    let a = q.Pattern.annots.(i) in
    let vpred = if i = !vi then Some const else q.Pattern.vpreds.(i) in
    Pattern.n ~axis:q.Pattern.axes.(i) ~id:a.Pattern.store_id
      ~value:a.Pattern.store_val ~content:a.Pattern.store_cont ?vpred
      q.Pattern.tags.(i)
      (List.map build (Pattern.children q i))
  in
  Pattern.compile ~name (build 0)

(* Items under regions with their name: answered by joining Q6 (the
   prefix down to item) with [item_name_view] (item and its name). *)
let item_name_query =
  Pattern.compile ~name:"Qjoin"
    Pattern.(
      n ~axis:Child ~id:true "site"
        [ n ~axis:Child ~id:true "regions"
            [ n ~id:true ~content:true "item"
                [ n ~axis:Child ~value:true "name" [] ] ] ])

let item_name_view = Pattern.subpattern item_name_query 2 ~name:"Qitem_name"

let bulk_pats =
  List.map pattern_of [ "Q1"; "Q2"; "Q3"; "Q4"; "Q6"; "Q13"; "Q17" ]
  @ [ item_name_view ]

(* One query per plan shape: single view, single view with a value
   compensation, two-view join, base-evaluation fallback. *)
let bulk_queries set =
  let first_name =
    match View_set.find set "Q1" with
    | None -> "unmatched"
    | Some mv ->
      let v = ref None in
      List.iter
        (fun (_, _, cells) ->
          Array.iter
            (fun (c : Mview.cell) ->
              if !v = None then v := c.Mview.cell_value)
            cells)
        (Mview.dump mv);
      Option.value !v ~default:"unmatched"
  in
  [
    Pattern.rename Xmark_views.q2 "Q2x";
    with_vpred Xmark_views.q1 ~name:"Q1v" first_name;
    item_name_query;
    Pattern.compile ~name:"Qfb"
      Pattern.(n ~id:true "bidder" [ n ~id:true "date" [] ]);
  ]

let bulk_setup ~seed =
  setup_closed
    ~gen:(fun () -> Xmark_gen.document ~seed ~target_kb:2048)
    ~pats:bulk_pats ~hl:None ~queries:bulk_queries ~stream:bulk_stream
    ~read_every:1

let skew_profile = { Xmark_gen.zipf_alpha = 1.6; hot_share = 0.7; value_alpha = 1.4 }
let skew_pats = List.map pattern_of [ "Q1"; "Q2"; "Q3"; "Q4" ]

(* Which of the hottest auctions carry the values Q3 and Q4 select is a
   draw of the seed, and those self-joins cost about the square of an
   auction's fan-out: with one document, run-to-run spread tracked the
   seed. A process cycles through three documents drawn from its seed,
   and a run pools five processes. *)
let skew_seeds seed = List.init 3 (fun j -> (3 * seed) + j)

let skew_setup ~seed =
  setup_closed
    ~gen:(fun () ->
      Xmark_gen.document_skewed ~skew:skew_profile ~seed ~target_kb:256 ())
    ~pats:skew_pats
    ~hl:(Some { Hl.default_config with Hl.drain_budget = 1 lsl 16 })
    ~queries:(fun _ ->
      List.map (fun p -> Pattern.rename p (p.Pattern.name ^ "x")) skew_pats)
    ~stream:skew_stream ~read_every:3

type closed_samples = {
  upd : Samples.t;  (** statement text → view set committed, seconds *)
  vis : Samples.t;  (** statement start → readable by a reader *)
  reads : Samples.t;  (** one drain + answer pass *)
  bd : Timing.breakdown;  (** summed over every report *)
  mutable parse_s : float;
  mutable plan_s : float;
  mutable run_s : float;
  mutable drain_s : float;
  mutable plans : int;
  mutable fallbacks : int;
  mutable stmts : int;
  mutable measured_s : float;
}

let closed_samples () =
  {
    upd = Samples.create (); vis = Samples.create (); reads = Samples.create ();
    bd = Timing.zero (); parse_s = 0.; plan_s = 0.; run_s = 0.; drain_s = 0.;
    plans = 0; fallbacks = 0; stmts = 0; measured_s = 0.;
  }

let add_breakdown (acc : Timing.breakdown) (b : Timing.breakdown) =
  acc.find_target <- acc.find_target +. b.find_target;
  acc.apply_doc <- acc.apply_doc +. b.apply_doc;
  acc.compute_delta <- acc.compute_delta +. b.compute_delta;
  acc.get_expression <- acc.get_expression +. b.get_expression;
  acc.execute <- acc.execute +. b.execute;
  acc.update_aux <- acc.update_aux +. b.update_aux

let bump_first_entry mv =
  let first = ref true in
  Mview.iter_entries mv (fun e ->
      if !first then begin
        e.Mview.count <- e.Mview.count + 1;
        first := false
      end)

(* Rebuild every view from the committed store (what a restart costs
   when the views are lost but the document survives), compared tuple
   for tuple with the live views. Returns the rebuild time. *)
let rebuild_sample c (env : closed) =
  ignore (View_set.drain_all env.set);
  let fresh, t = timed (fun () -> load_views env.store env.pats) in
  List.iter2
    (fun f mv ->
      attempt c 1;
      match Recompute.diff f mv with
      | None -> ()
      | Some d -> fail c ("view " ^ mv.Mview.pat.Pattern.name ^ ": " ^ d))
    (View_set.views fresh) (View_set.views env.set);
  t

let check_views c env = ignore (rebuild_sample c env)

let check_answers c ~inject (env : closed) answers =
  List.iter2
    (fun q got ->
      attempt c 1;
      let got =
        match (inject, got) with Wrong_answer, _ :: rest -> rest | _ -> got
      in
      match Answer.diff ~expect:(Answer.base_rows env.store q) ~got with
      | None -> ()
      | Some d -> fail c ("answer " ^ q.Pattern.name ^ ": " ^ d))
    env.queries answers

(* One read: drain deferred views (no-op without a classifier), then
   plan and run every query, falling back to base evaluation. *)
let read_pass s (env : closed) =
  let t0 = now () in
  ignore (View_set.drain_all env.set);
  let t1 = now () in
  s.drain_s <- s.drain_s +. (t1 -. t0);
  let answers =
    List.map
      (fun q ->
        let a = now () in
        let plan = Answer.plan ~sources:env.sources q in
        let b = now () in
        let rows =
          match Answer.run plan with
          | Some rows -> rows
          | None ->
            s.fallbacks <- s.fallbacks + 1;
            Answer.base_rows env.store q
        in
        s.plan_s <- s.plan_s +. (b -. a);
        s.run_s <- s.run_s +. (now () -. b);
        s.plans <- s.plans + 1;
        rows)
      env.queries
  in
  let t2 = now () in
  Samples.add s.reads (t2 -. t0);
  (answers, t1)

(* [Seconds (sec, min_reads)]: whole cycles until [sec] measured seconds
   have passed and at least [min_reads] reads were taken, so that a slow
   host still yields enough samples for the read p90. *)
type stop = Cycles of int | Seconds of float * int

(* Drive whole cycles of the stream, each cycle on the next document of
   [envs] in turn. With [check_every], every view and answer is checked
   at every [check_every]th read (and an injected fault at the first);
   a traced pass runs without them, since its Obs scope would count
   their work. Checks and the per-cycle level check run outside the
   measured time. A statement that left a view newly stale becomes
   visible when the next read's drain completes; any other statement
   when its update returns. *)
let run_closed ?(inject = No_inject) ?tick ?check_every ~stop c (envs : closed array) =
  let s = closed_samples () in
  let next_tick = ref 0. in
  let levels = Array.map (fun env -> Store.node_count env.store) envs in
  let reads = ref 0 in
  let unmeasured = ref 0. in
  let t_start = now () in
  let cycles = ref 0 in
  let continue () =
    match stop with
    | Cycles k -> !cycles < k
    | Seconds (sec, min_reads) ->
      now () -. t_start -. !unmeasured < sec || !reads < min_reads
  in
  while continue () do
    let e = !cycles mod Array.length envs in
    let env = envs.(e) in
    let waiting = ref [] in
    for i = 0 to Array.length env.stream - 1 do
      attempt c 1;
      let stale_before = View_set.stale env.set in
      let t0 = now () in
      (try
         let u = Update.parse env.stream.(i) in
         let tp = now () in
         let reports = View_set.update env.set u in
         let t1 = now () in
         s.parse_s <- s.parse_s +. (tp -. t0);
         Samples.add s.upd (t1 -. t0);
         List.iter (fun (_, r) -> add_breakdown s.bd r.Maint.timing) reports;
         let stale_after = View_set.stale env.set in
         if List.exists (fun v -> not (List.mem v stale_before)) stale_after
         then waiting := t0 :: !waiting
         else Samples.add s.vis (t1 -. t0)
       with e -> fail c ("statement " ^ env.stream.(i) ^ ": " ^ Printexc.to_string e));
      s.stmts <- s.stmts + 1;
      if (i + 1) mod env.read_every = 0 then begin
        attempt c 1;
        match read_pass s env with
        | exception e -> fail c ("read: " ^ Printexc.to_string e)
        | answers, drained_at ->
          List.iter (fun t -> Samples.add s.vis (drained_at -. t)) !waiting;
          waiting := [];
          incr reads;
          (match check_every with
          | Some k when !reads mod k = 0 || (inject <> No_inject && !reads = 1) ->
            let t = now () in
            if inject = Wrong_view then
              bump_first_entry (List.hd (View_set.views env.set));
            check_views c env;
            check_answers c ~inject env answers;
            unmeasured := !unmeasured +. (now () -. t)
          | _ -> ());
          match tick with
          | Some (tick_every, f)
            when tick_due ~tick_every
                   ~measured:(now () -. t_start -. !unmeasured) next_tick ->
            let t = now () in
            f ();
            unmeasured := !unmeasured +. (now () -. t)
          | _ -> ()
      end
    done;
    incr cycles;
    attempt c 1;
    let nc = Store.node_count env.store in
    check c (nc = levels.(e))
      (lazy (Printf.sprintf "node count %d after a cycle, %d before" nc levels.(e)))
  done;
  s.measured_s <- now () -. t_start -. !unmeasured;
  s

let live_heap_mb () =
  Gc.full_major ();
  let st = Gc.stat () in
  float_of_int (st.Gc.live_words * (Sys.word_size / 8)) /. 1048576.

let put_setup m parts =
  put m "xmark.gen_s" "s" parts.gen_s;
  put m "store.load_s" "s" parts.load_s;
  put m "viewmaint.materialize_s" "s" parts.mat_s;
  put m "hl.classify_s" "s" parts.classify_s;
  put m "wal.init_s" "s" parts.wal_s

(* Per-layer counts from an Obs snapshot of the traced phase. *)
let put_counts m snap ~stmts ~views ~plans ~fallbacks =
  let cv = Obs.counter_value snap in
  let f = float_of_int in
  let ratio a b = if b = 0 then 0. else f a /. f b in
  let count name key = put m name "count" (f (cv key)) in
  count "algebra.join.comparisons" "algebra.join.comparisons";
  count "algebra.join.rows_out" "algebra.join.rows_out";
  put m "algebra.join.hash_fallback_ratio" "ratio"
    (ratio (cv "algebra.join.hash_fallbacks")
       (cv "algebra.join.merge_calls" + cv "algebra.join.hash_calls"));
  count "store.span.probes" "store.span.probes";
  count "store.scan.rows" "store.scan.rows";
  count "dewey.arena.interned" "dewey.arena.interned";
  count "xml.parse.nodes" "xml.parse.nodes";
  count "maint.delta.nodes" "maint.delta.nodes";
  put m "maint.embeddings" "count"
    (f (cv "maint.work.embeddings_added" + cv "maint.work.embeddings_removed"));
  put m "maint.terms_surviving_ratio" "ratio"
    (ratio (cv "maint.work.terms_surviving") (cv "maint.work.terms_developed"));
  put m "maint.skip_ratio" "ratio"
    (ratio (cv "maint.work.skipped_irrelevant") (views * stmts));
  count "maint.fallback_recomputes" "maint.work.fallback_recomputes";
  count "maint.defer.deferrals" "maint.defer.deferrals";
  count "maint.defer.drains" "maint.defer.drains";
  count "maint.defer.budget_drains" "maint.defer.budget_drains";
  count "maint.defer.deferred_work" "maint.defer.deferred_work";
  count "store.hl.merge_copies" "store.hl.merge_copies";
  count "store.hl.routed_tail" "store.hl.routed_tail";
  count "maint.hl.rescan_rows" "maint.hl.rescan_rows";
  put m "answer.fallback_ratio" "ratio" (ratio fallbacks plans)

let put_gc m (g0 : Gc.stat) (g1 : Gc.stat) ~stmts =
  put m "gc.minor_words_per_stmt" "words"
    ((g1.Gc.minor_words -. g0.Gc.minor_words) /. float_of_int (max 1 stmts));
  put m "gc.major_collections" "count"
    (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections))

let put_host m refs = put m "host.ref_ms" "ms" (mean refs)

(* Raw samples of an untraced run, in seconds. [busy_s] is the time
   [stmts] statements kept the program busy, for [stmts_per_s]. *)
let raw ~setup ~upd ~vis ~reads ~recover ~stmts ~busy_s ~heap_mb ~refs =
  Raw
    [ ("setup_s", json_list setup); ("update_s", json_samples upd);
      ("visible_s", json_samples vis); ("read_s", json_samples reads);
      ("recover_s", json_list recover); ("stmts", string_of_int stmts);
      ("busy_s", json_num busy_s); ("heap_mb", json_num heap_mb);
      ("host_ref_ms", json_list refs) ]

(* Zero rows for the layers a closed-loop workload does not exercise,
   so every workload prints the same metric names. *)
let put_serve_zero m =
  List.iter
    (fun (n, u) -> put m n u 0.)
    [ ("serve.step_ms", "ms"); ("serve.queue_wait_ms", "ms");
      ("serve.sched_lag_ms", "ms"); ("serve.batch_fill", "stmts");
      ("serve.lookup_us", "us"); ("wal.sync_ms", "ms");
      ("wal.syncs_per_stmt", "ratio"); ("wal.bytes_per_stmt", "bytes");
      ("wal.checkpoint_ms", "ms"); ("wal.replayed", "count");
      ("wal.recover_ms_per_stmt", "ms") ]

(* [seeds] are the documents the run cycles through. At each tick one
   rebuild of a document is timed, and at every [setup_every]th tick one
   throwaway set-up of it. The ticks take the documents in turn, not the
   one being updated at the moment, so that each document, whose rebuild
   costs differ by about 10%, gets its share of the samples. *)
let closed_workload ~setup ~seeds ~tick_every ~setup_every ~min_reads ~trace_cycles
    ?inject ~check_every ~mode ~seconds c =
  let m = metrics () in
  let refs = ref [ host_ref_ms () ] in
  let envs, all_parts = List.split (List.map (fun seed -> setup ~seed ()) seeds) in
  let envs = Array.of_list envs in
  let parts = mean_parts all_parts in
  Gc.compact ();
  match mode with
  | Untraced ->
    let setups = ref [] and recovers = ref [] and ticks = ref 0 in
    let tick () =
      incr ticks;
      let env = envs.(!ticks mod Array.length envs) in
      if !ticks mod setup_every = 0 then begin
        setups := setup_total (env.again ()) :: !setups;
        Gc.full_major ()
      end;
      recovers := rebuild_sample c env :: !recovers;
      Gc.full_major ()
    in
    let s =
      run_closed ?inject ~tick:(tick_every, tick) ~check_every
        ~stop:(Seconds (seconds, min_reads)) c envs
    in
    let heap_mb = live_heap_mb () in
    Array.iter (check_views c) envs;
    refs := host_ref_ms () :: !refs;
    raw ~setup:!setups ~upd:s.upd ~vis:s.vis ~reads:s.reads ~recover:!recovers
      ~stmts:s.stmts ~busy_s:s.measured_s ~heap_mb ~refs:(List.rev !refs)
  | Traced ->
    let plain = run_closed ?inject ~check_every ~stop:(Cycles trace_cycles) c envs in
    Gc.compact ();
    let migrations () =
      Array.fold_left
        (fun acc env ->
          match View_set.adaptive env.set with
          | None -> acc
          | Some hl -> acc + Hl.migrations hl)
        0 envs
    in
    let mig0 = migrations () in
    let g0 = Gc.quick_stat () in
    let s, snap =
      Obs.with_scope (fun () -> run_closed ~stop:(Cycles trace_cycles) c envs)
    in
    let g1 = Gc.quick_stat () in
    Array.iter (check_views c) envs;
    refs := host_ref_ms () :: !refs;
    let per_stmt x = ms x /. float_of_int s.stmts in
    let per_read x = ms x /. float_of_int (max 1 (Samples.count s.reads)) in
    let b = s.bd in
    let phases =
      b.find_target +. b.apply_doc +. b.compute_delta +. b.get_expression
      +. b.execute +. b.update_aux
    in
    let wall = Samples.sum s.upd in
    put_setup m parts;
    put m "update.stmt_ms" "ms" (per_stmt wall);
    put m "update.parse_ms" "ms" (per_stmt s.parse_s);
    put m "xpath.find_target_ms" "ms" (per_stmt b.find_target);
    put m "update.apply_doc_ms" "ms" (per_stmt b.apply_doc);
    put m "viewmaint.delta_ms" "ms" (per_stmt b.compute_delta);
    put m "viewmaint.expr_ms" "ms" (per_stmt b.get_expression);
    put m "viewmaint.exec_ms" "ms" (per_stmt b.execute);
    put m "viewmaint.aux_ms" "ms" (per_stmt b.update_aux);
    put m "update.unattributed_ms" "ms" (per_stmt (wall -. s.parse_s -. phases));
    put_counts m snap ~stmts:s.stmts ~views:(List.length envs.(0).pats)
      ~plans:s.plans ~fallbacks:s.fallbacks;
    put m "hl.drain_ms" "ms" (per_read s.drain_s);
    put m "hl.migrations" "count" (float_of_int (migrations () - mig0));
    put m "answer.plan_ms" "ms" (per_read s.plan_s);
    put m "answer.run_ms" "ms" (per_read s.run_s);
    put_serve_zero m;
    put_gc m g0 g1 ~stmts:s.stmts;
    put m "obs.overhead_pct" "%"
      (100.
      *. ((float_of_int plain.stmts /. plain.measured_s)
          /. (float_of_int s.stmts /. s.measured_s)
         -. 1.));
    put_host m !refs;
    Per_layer m

(* {1 serve-durable}: one loop on one domain is both the open-loop
   client and the server's writer. It submits on a fixed schedule,
   steps the server whenever statements are pending, and otherwise runs
   batched snapshot lookups. *)

let serve_rate = 50.  (* statements per second: well below one loop's capacity *)
let checkpoint_every = 400  (* statements between requested checkpoints *)
let recover_tail = 200  (* statements logged after the final checkpoint *)
let lookups_per_read = 1024
let serve_pats = List.map pattern_of [ "Q1"; "Q2"; "Q6" ]
(* Bounded growth with marked deletions, as in the closed-loop streams:
   each deletion removes exactly what its insertion added (generated
   phones read "+33 …", generated bidders are dated 07/05/2026), so the
   per-statement work does not depend on how many phones or bidders a
   seed happened to generate. *)
let serve_stream =
  [|
    "insert into /site/people/person <phone>+1-555-0199</phone>";
    "insert into /site/open_auctions/open_auction \
     <bidder><date>01/01/2000</date><increase>7.50</increase></bidder>";
    "delete /site/people/person/phone[.='+1-555-0199']";
    "delete /site/open_auctions/open_auction/bidder[date='01/01/2000']";
    irrelevant.(0);
    irrelevant.(1);
  |]

type served = {
  server : Server.t;
  durable : Durable.t;
  sset : View_set.t;
  sstore : Store.t;
  dir : string;
  mutable submitted : int;  (** statements admitted so far *)
  mutable applied : int;  (** statements applied so far *)
}

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let serve_setup ~seed ~dir () =
  rm_rf dir;
  let root, gen_s = timed (fun () -> Xmark_gen.document ~seed ~target_kb:256) in
  let store, load_s = timed (fun () -> Store.of_document root) in
  let set, mat_s = timed (fun () -> load_views store serve_pats) in
  let durable, wal_s = timed (fun () -> Durable.init ~dir set) in
  let server = Server.create ~durable set in
  ( { server; durable; sset = set; sstore = store; dir; submitted = 0; applied = 0 },
    { gen_s; load_s; mat_s; classify_s = 0.; wal_s } )

type open_samples = {
  o_upd : Samples.t;  (** per statement: the step that applied it *)
  o_vis : Samples.t;  (** due → first publication containing it *)
  o_reads : Samples.t;  (** one batch of [lookups_per_read] lookups *)
  o_lag : Samples.t;  (** submit time − due time *)
  o_wait : Samples.t;  (** start of the applying step − due time *)
  mutable o_parse_s : float;
  mutable o_steps : int;
  mutable o_stmts : int;
  mutable o_busy_s : float;  (** summed [Server.step] time *)
}

(* Submit [Seconds] worth or [Cycles n] statements (n counted in
   statements here) on schedule, then drain the queue. A tick runs only
   when the queue is empty and the schedule pauses for it, so it delays
   no statement. *)
let run_open ?tick c sv ~stop =
  let s =
    { o_upd = Samples.create (); o_vis = Samples.create ();
      o_reads = Samples.create (); o_lag = Samples.create ();
      o_wait = Samples.create (); o_parse_s = 0.; o_steps = 0; o_stmts = 0;
      o_busy_s = 0. }
  in
  let due = Samples.create () in
  let first = sv.applied in
  let start = now () in
  let paused = ref 0. and next_tick = ref 0. in
  let next = ref 0 in
  let submitting () =
    match stop with
    | Cycles n -> !next < n
    | Seconds (sec, _) -> now () -. start -. !paused < sec
  in
  let rng = ref 12345 in
  while submitting () || Server.pending sv.server > 0 do
    let t = now () in
    let due_next = start +. !paused +. (float_of_int !next /. serve_rate) in
    if submitting () && t >= due_next then begin
      attempt c 1;
      let text = serve_stream.(sv.submitted mod Array.length serve_stream) in
      let u = Update.parse text in
      s.o_parse_s <- s.o_parse_s +. (now () -. t);
      if Server.submit sv.server u then begin
        Samples.add due due_next;
        Samples.add s.o_lag (t -. due_next);
        sv.submitted <- sv.submitted + 1;
        incr next;
        if sv.submitted mod checkpoint_every = 0 then
          Server.request_checkpoint sv.server
      end
      else fail c ("statement refused: " ^ text)
    end
    else if Server.pending sv.server > 0 then begin
      let ts = now () in
      let k = Server.step sv.server in
      let te = now () in
      for j = sv.applied - first to sv.applied - first + k - 1 do
        Samples.add s.o_upd (te -. ts);
        Samples.add s.o_wait (ts -. due.Samples.a.(j))
      done;
      sv.applied <- sv.applied + k;
      s.o_steps <- s.o_steps + 1;
      s.o_busy_s <- s.o_busy_s +. (te -. ts)
    end
    else if
      match tick with
      | Some (tick_every, f)
        when tick_due ~tick_every ~measured:(t -. start -. !paused) next_tick ->
        f ();
        paused := !paused +. (now () -. t);
        true
      | _ -> false
    then ()
    else begin
      attempt c 1;
      let snap = Server.snapshot sv.server in
      let views = snap.Snapshot.views in
      let tr = now () in
      let hits = ref 0 in
      for l = 0 to lookups_per_read - 1 do
        let v = views.(l mod Array.length views) in
        let n = Array.length v.Snapshot.v_tuples in
        rng := (!rng * 1103515245 + 12345) land 0x3FFFFFFF;
        if n > 0 && Snapshot.mem v v.Snapshot.v_tuples.(!rng mod n).Snapshot.t_key
        then incr hits
      done;
      Samples.add s.o_reads (now () -. tr);
      if !hits = 0 then fail c "snapshot lookups found none of the stored keys"
    end
  done;
  s.o_stmts <- sv.applied - first;
  attempt c 1;
  check c (sv.submitted = (Server.snapshot sv.server).Snapshot.applied)
    (lazy
      (Printf.sprintf "%d statements admitted, %d published" sv.submitted
         (Server.snapshot sv.server).Snapshot.applied));
  (* Visibility: each statement against the first publication whose
     applied count covers it. *)
  let pubs = List.filter (fun p -> p.Server.p_applied > first) (Server.publish_log sv.server) in
  let j = ref 0 in
  List.iter
    (fun p ->
      while !j < s.o_stmts && first + !j < p.Server.p_applied do
        Samples.add s.o_vis (p.Server.p_time -. due.Samples.a.(!j));
        incr j
      done)
    pubs;
  s

(* Published snapshot and live views against fresh materializations. *)
let check_served c sv =
  let pub = Server.snapshot sv.server in
  let live = Snapshot.initial sv.sset in
  Array.iter2
    (fun a b ->
      attempt c 1;
      match Snapshot.view_diff a b with
      | None -> ()
      | Some d -> fail c ("published " ^ a.Snapshot.v_name ^ ": " ^ d))
    pub.Snapshot.views live.Snapshot.views;
  List.iter
    (fun mv ->
      attempt c 1;
      match Recompute.diff (Mview.materialize sv.sstore mv.Mview.pat) mv with
      | None -> ()
      | Some d -> fail c ("view " ^ mv.Mview.pat.Pattern.name ^ ": " ^ d))
    (View_set.views sv.sset)

let wal_bytes dir =
  Array.fold_left
    (fun acc f ->
      if Filename.check_suffix f ".log" then
        acc + (Unix.stat (Filename.concat dir f)).Unix.st_size
      else acc)
    0 (Sys.readdir dir)

let parse_pattern ~name _ = pattern_of name

(* Recover [dir] after a crash: it must replay exactly [recover_tail]
   statements and rebuild views equal to [expect]. The recovered
   engine is crashed again at once, so [dir] can be recovered again.
   Returns the recovery time and the replay count. *)
let recover_sample ?(inject = No_inject) c ~dir ~(expect : Snapshot.t) =
  attempt c 1;
  match timed (fun () -> Durable.recover ~dir ~parse_pattern ()) with
  | None, t ->
    fail c "recovery found no checkpoint";
    (t, 0)
  | Some o, t ->
    check c (o.Durable.replayed = recover_tail)
      (lazy (Printf.sprintf "replayed %d of %d logged statements"
               o.Durable.replayed recover_tail));
    if inject = Wrong_view then
      bump_first_entry (List.hd (View_set.views o.Durable.set));
    Array.iter2
      (fun a b ->
        attempt c 1;
        if not (Snapshot.view_equal a b) then
          fail c ("recovered " ^ a.Snapshot.v_name ^ " differs from " ^ b.Snapshot.v_name))
      (Snapshot.initial o.Durable.set).Snapshot.views expect.Snapshot.views;
    Durable.crash o.Durable.engine;
    (t, o.Durable.replayed)

(* A crashed log directory to recover from at ticks: checkpoint 0 of a
   fresh document of the same seed plus [recover_tail] logged
   statements. Returns the views recovery must rebuild. *)
let make_fixture ~seed ~dir =
  rm_rf dir;
  let set = load_views (Store.of_document (Xmark_gen.document ~seed ~target_kb:256)) serve_pats in
  let d = Durable.init ~dir set in
  for i = 0 to recover_tail - 1 do
    ignore (View_set.update set (Update.parse serve_stream.(i mod Array.length serve_stream)))
  done;
  Durable.sync d;
  Durable.crash d;
  Snapshot.initial set

(* End of run: checkpoint, log exactly [recover_tail] more statements,
   crash the live server, and recover; the recovered views must equal
   the last published snapshot. Returns the recovery time, the log's
   bytes per statement and the replay count. *)
let crash_and_recover ?inject c sv =
  Server.request_checkpoint sv.server;
  ignore (Server.step sv.server);
  for i = 0 to recover_tail - 1 do
    ignore (Server.submit sv.server (Update.parse serve_stream.(i mod Array.length serve_stream)));
    sv.submitted <- sv.submitted + 1;
    while Server.pending sv.server > 0 do
      sv.applied <- sv.applied + Server.step sv.server
    done
  done;
  let published = Server.snapshot sv.server in
  let bytes = wal_bytes sv.dir in
  Durable.crash sv.durable;
  let t, replayed = recover_sample ?inject c ~dir:sv.dir ~expect:published in
  (t, float_of_int bytes /. float_of_int recover_tail, replayed)

let serve_workload ~seed ~dir ~tick_every ~mode ~seconds ?inject c =
  let m = metrics () in
  let refs = ref [ host_ref_ms () ] in
  let sv, parts = serve_setup ~seed ~dir () in
  Gc.compact ();
  match mode with
  | Untraced ->
    (* At each tick: one throwaway set-up in its own directory and one
       recovery of the fixture. *)
    let spare = dir ^ "-setup" and fixture = dir ^ "-fixture" in
    let expect = make_fixture ~seed ~dir:fixture in
    let setups = ref [] and recovers = ref [] in
    let tick () =
      let other, p = serve_setup ~seed ~dir:spare () in
      Durable.close other.durable;
      setups := setup_total p :: !setups;
      Gc.full_major ();
      recovers := fst (recover_sample c ~dir:fixture ~expect) :: !recovers;
      Gc.full_major ()
    in
    let s = run_open ~tick:(tick_every, tick) c sv ~stop:(Seconds (seconds, 0)) in
    let heap_mb = live_heap_mb () in
    check_served c sv;
    let t, _, _ = crash_and_recover ?inject c sv in
    List.iter rm_rf [ spare; fixture ];
    refs := host_ref_ms () :: !refs;
    raw ~setup:!setups ~upd:s.o_upd ~vis:s.o_vis ~reads:s.o_reads
      ~recover:(t :: !recovers) ~stmts:s.o_stmts ~busy_s:s.o_busy_s
      ~heap_mb ~refs:(List.rev !refs)
  | Traced ->
    let n = int_of_float (serve_rate *. seconds /. 2.) in
    let plain = run_open c sv ~stop:(Cycles n) in
    Gc.compact ();
    let g0 = Gc.quick_stat () in
    let s, snap = Obs.with_scope (fun () -> run_open c sv ~stop:(Cycles n)) in
    let g1 = Gc.quick_stat () in
    check_served c sv;
    let recover_s, bytes_per_stmt, replayed = crash_and_recover ?inject c sv in
    refs := host_ref_ms () :: !refs;
    let tsec k = Obs.timer_seconds snap k and tspans k = Obs.timer_spans snap k in
    let per_stmt x = ms x /. float_of_int s.o_stmts in
    let step_total = Samples.sum s.o_upd in
    let phase k = tsec ("maint.phase." ^ k) in
    let find = phase "find_target" and apply = phase "apply_doc"
    and delta = phase "compute_delta" and expr = phase "get_expression"
    and exec = phase "execute" and aux = phase "update_aux" in
    put_setup m parts;
    put m "update.stmt_ms" "ms" (per_stmt (step_total +. s.o_parse_s));
    put m "update.parse_ms" "ms" (per_stmt s.o_parse_s);
    put m "xpath.find_target_ms" "ms" (per_stmt find);
    put m "update.apply_doc_ms" "ms" (per_stmt apply);
    put m "viewmaint.delta_ms" "ms" (per_stmt delta);
    put m "viewmaint.expr_ms" "ms" (per_stmt expr);
    put m "viewmaint.exec_ms" "ms" (per_stmt exec);
    put m "viewmaint.aux_ms" "ms" (per_stmt aux);
    put m "update.unattributed_ms" "ms"
      (per_stmt (step_total -. (find +. apply +. delta +. expr +. exec +. aux)));
    put_counts m snap ~stmts:s.o_stmts ~views:(List.length serve_pats) ~plans:0
      ~fallbacks:0;
    put m "hl.drain_ms" "ms" 0.;
    put m "hl.migrations" "count" 0.;
    put m "answer.plan_ms" "ms" 0.;
    put m "answer.run_ms" "ms" 0.;
    let mean_ms x = ms (Samples.mean x) in
    put m "serve.step_ms" "ms" (ms step_total /. float_of_int (max 1 s.o_steps));
    put m "serve.queue_wait_ms" "ms" (mean_ms s.o_wait);
    put m "serve.sched_lag_ms" "ms" (mean_ms s.o_lag);
    put m "serve.batch_fill" "stmts"
      (float_of_int s.o_stmts /. float_of_int (max 1 s.o_steps));
    put m "serve.lookup_us" "us"
      (Samples.mean s.o_reads *. 1e6 /. float_of_int lookups_per_read);
    let syncs = tspans "wal.sync" in
    put m "wal.sync_ms" "ms" (ms (tsec "wal.sync") /. float_of_int (max 1 syncs));
    put m "wal.syncs_per_stmt" "ratio" (float_of_int syncs /. float_of_int s.o_stmts);
    put m "wal.bytes_per_stmt" "bytes" bytes_per_stmt;
    put m "wal.checkpoint_ms" "ms"
      (ms (tsec "wal.checkpoint") /. float_of_int (max 1 (tspans "wal.checkpoint")));
    put m "wal.replayed" "count" (float_of_int replayed);
    put m "wal.recover_ms_per_stmt" "ms" (ms recover_s /. float_of_int recover_tail);
    put_gc m g0 g1 ~stmts:s.o_stmts;
    (* Submission is paced, so statements per second cannot show the
       tracing cost here; the applying steps' time can. *)
    put m "obs.overhead_pct" "%"
      (100. *. ((Samples.mean s.o_upd /. Samples.mean plain.o_upd) -. 1.));
    put_host m !refs;
    Per_layer m
