(* Benchmark harness regenerating every figure of the paper's evaluation
   (Section 6). Document sizes are scaled down by default so the whole
   run finishes on a laptop-class container; pass [--full] for
   paper-scale documents. Absolute milliseconds differ from the paper's
   2010-era Java/BerkeleyDB setup; the reproduced artifact is the shape
   of each figure (who wins, how components break down, where curves
   bend).

   A Bechamel micro-benchmark section at the end samples the core
   operations behind the figures with statistical rigor. *)

(* Command line. Anything the table below does not name is a usage
   error (exit 2): a mistyped flag must not silently run every section.
   [--only] is validated against the section table at the end of this
   file. *)
let full_arg = ref false
let runs_arg = ref 1
let skip_counters_arg = ref false
let only : string list option ref = ref None
let list_sections = ref false

let usage =
  "usage: main.exe [--full] [--runs N] [--no-counters] [--only SECTION,...] [--list]"

let () =
  Arg.parse
    (Arg.align
       [
         ("--full", Arg.Set full_arg, " Paper-scale documents");
         ( "--runs",
           Arg.Set_int runs_arg,
           "N Fresh runs averaged per data point (default 1)" );
         ( "--no-counters",
           Arg.Set skip_counters_arg,
           " Skip the extra profiled (untimed) run per recorded point that \
            captures operator-counter snapshots" );
         ( "--only",
           Arg.String (fun s -> only := Some (String.split_on_char ',' s)),
           "SECTION,... Run only the named sections (see --list)" );
         ("--list", Arg.Set list_sections, " Print every section with its title and exit");
       ])
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage

let full = !full_arg
let runs = max 1 !runs_arg
let skip_counters = !skip_counters_arg

let seed = 42

(* {1 Machine-readable results}

   Every section records its rows into an in-memory registry; [main]
   writes the whole thing to BENCH_results.json at the end of the run,
   whatever subset of sections actually executed. The emitter is
   deliberately self-contained — no JSON library in the dependency
   cone. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let num f = if Float.is_finite f then Num f else Null
  let int i = Num (float_of_int i)

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.0f" f)
      else Buffer.add_string buf (Printf.sprintf "%.6g" f)
    | Str s ->
      Buffer.add_char buf '"';
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string buf "\\\""
          | '\\' -> Buffer.add_string buf "\\\\"
          | '\n' -> Buffer.add_string buf "\\n"
          | '\t' -> Buffer.add_string buf "\\t"
          | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char buf c)
        s;
      Buffer.add_char buf '"'
    | Arr l ->
      Buffer.add_char buf '[';
      List.iteri (fun i x -> if i > 0 then Buffer.add_char buf ','; write buf x) l;
      Buffer.add_char buf ']'
    | Obj l ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          write buf (Str k);
          Buffer.add_char buf ':';
          write buf v)
        l;
      Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 4096 in
    write buf t;
    Buffer.contents buf
end

let results_sections : (string, Json.t list ref) Hashtbl.t = Hashtbl.create 16
let results_order : string list ref = ref []

let record section fields =
  let rows =
    match Hashtbl.find_opt results_sections section with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add results_sections section r;
      results_order := section :: !results_order;
      r
  in
  rows := Json.Obj fields :: !rows

let results_file = "BENCH_results.json"

let write_results () =
  let sections =
    List.rev_map
      (fun s -> (s, Json.Arr (List.rev !(Hashtbl.find results_sections s))))
      !results_order
  in
  let doc =
    Json.Obj
      [
        ("mode", Json.Str (if full then "full" else "scaled"));
        ("runs_per_point", Json.int runs);
        ("seed", Json.int seed);
        ("sections", Json.Obj sections);
      ]
  in
  let oc = open_out results_file in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s (%d section(s))\n%!" results_file (List.length sections)

(* Direct median-of-repeats timing for the A/B micro-benchmarks — where
   we compare two implementations of the same operator on identical
   inputs and the quantity of interest is a robust per-call estimate —
   is [Obs.Stats.time_median]: one shared monotonic-clock helper instead
   of per-harness [Unix.gettimeofday] arithmetic. *)

let time_median = Obs.Stats.time_median

let small_kb = 100
let big_kb = if full then 10240 else 2048
let scaling_kbs = if full then [ 500; 1024; 10240; 51200 ] else [ 125; 250; 500; 1024; 2048 ]
let snowcap_kbs = if full then [ 1024; 5120; 10240; 20480 ] else [ 250; 500; 1024; 2048 ]

let doc kb = Xmark_gen.document ~seed ~target_kb:kb

let header title = Printf.printf "\n=== %s ===\n%!" title
let subheader title = Printf.printf "--- %s ---\n%!" title

let ms f = f *. 1000.

type totals = {
  find : float;
  delta : float;
  expr : float;
  exec : float;
  aux : float;
}

let totals_of (b : Timing.breakdown) =
  {
    find = b.Timing.find_target;
    delta = b.Timing.compute_delta;
    expr = b.Timing.get_expression;
    exec = b.Timing.execute;
    aux = b.Timing.update_aux;
  }

let totals_sum t = t.find +. t.delta +. t.expr +. t.exec +. t.aux

let avg_totals ts =
  let n = float_of_int (List.length ts) in
  let add a b =
    {
      find = a.find +. b.find;
      delta = a.delta +. b.delta;
      expr = a.expr +. b.expr;
      exec = a.exec +. b.exec;
      aux = a.aux +. b.aux;
    }
  in
  let zero = { find = 0.; delta = 0.; expr = 0.; exec = 0.; aux = 0. } in
  let s = List.fold_left add zero ts in
  { find = s.find /. n; delta = s.delta /. n; expr = s.expr /. n;
    exec = s.exec /. n; aux = s.aux /. n }

type op = Insert | Delete

let stmt_of op u =
  match op with Insert -> Xmark_updates.insert u | Delete -> Xmark_updates.delete u

(* One maintenance run on fresh state; returns the phase breakdown. *)
let run_once ?(policy = Mview.Snowcaps) ~kb ~view stmt =
  let store = Store.of_document (doc kb) in
  let mv = Mview.materialize ~policy store view in
  let r = Maint.propagate mv stmt in
  (totals_of r.Maint.timing, r)

let run_avg ?policy ~kb ~view stmt =
  let results = List.init runs (fun _ -> run_once ?policy ~kb ~view stmt) in
  let t = avg_totals (List.map fst results) in
  (t, snd (List.hd results))

let phase_cols = [ "find"; "delta"; "expr"; "exec"; "lattice" ]
let breakdown_header () = Obs.Fmt.phase_header "update" phase_cols

let print_breakdown name t =
  Obs.Fmt.phase_row name [ t.find; t.delta; t.expr; t.exec; t.aux ]

(* {1 Counter snapshots}

   Each recorded point gets one extra run under [Obs.with_scope]: the
   timed measurements above stay metrics-free (the disabled fast path),
   while the profiled run contributes a per-figure counter snapshot to
   BENCH_results.json. *)

let profile_run f =
  if skip_counters then None
  else Some (snd (Obs.with_scope (fun () -> ignore (f ()))))

let counter_fields = function
  | None -> []
  | Some snap ->
    let cs =
      List.map (fun (k, v) -> (k, Json.int v)) (Obs.nonzero_counters snap)
    in
    let ts =
      List.concat_map
        (fun (k, sec, n) ->
          if n = 0 then []
          else [ (k ^ "_ms", Json.num (ms sec)); (k ^ "_spans", Json.int n) ])
        (Obs.timers snap)
    in
    [ ("counters", Json.Obj (cs @ ts)) ]

(* {1 Figures 18 / 19: per-phase breakdowns} *)

let breakdown_fields t =
  [
    ("find_ms", Json.num (ms t.find));
    ("delta_ms", Json.num (ms t.delta));
    ("expr_ms", Json.num (ms t.expr));
    ("exec_ms", Json.num (ms t.exec));
    ("lattice_ms", Json.num (ms t.aux));
    ("total_ms", Json.num (ms (totals_sum t)));
  ]

let fig18_19 op tag =
  Printf.printf "(document ~%d KB)\n" big_kb;
  List.iter
    (fun (vname, unames) ->
      if List.mem vname [ "Q1"; "Q3"; "Q6" ] then begin
        Printf.printf "view %s:\n" vname;
        breakdown_header ();
        List.iter
          (fun uname ->
            let u = Xmark_updates.find uname in
            let view = Xmark_views.find vname in
            let t, _ = run_avg ~kb:big_kb ~view (stmt_of op u) in
            print_breakdown uname t;
            let prof =
              profile_run (fun () -> run_once ~kb:big_kb ~view (stmt_of op u))
            in
            record tag
              ([ ("view", Json.Str vname); ("update", Json.Str uname) ]
              @ breakdown_fields t @ counter_fields prof))
          unames
      end)
    Xmark_updates.breakdown_pairs

(* {1 Figures 20 / 21: totals over all 35 pairs} *)

let fig20_21 op tag =
  Printf.printf "  %-12s %12s\n" "view_update" "total(ms)";
  List.iter
    (fun (vname, uname) ->
      let u = Xmark_updates.find uname in
      let view = Xmark_views.find vname in
      let t, _ = run_avg ~kb:big_kb ~view (stmt_of op u) in
      Printf.printf "  %-12s %12.2f\n%!"
        (Printf.sprintf "%s_%s" vname uname)
        (ms (totals_sum t));
      let prof = profile_run (fun () -> run_once ~kb:big_kb ~view (stmt_of op u)) in
      record tag
        ([
           ("view", Json.Str vname);
           ("update", Json.Str uname);
           ("total_ms", Json.num (ms (totals_sum t)));
         ]
        @ counter_fields prof))
    Xmark_updates.figure20_pairs

(* {1 Figures 22 / 23: deletion path depth} *)

let fig22_23 () =
  let paths =
    [
      "/site"; "/site/people"; "/site/people/person"; "/site/people/person/@id";
      "/site/people/person/name";
    ]
  in
  List.iter
    (fun kb ->
      Printf.printf "document ~%d KB:\n" kb;
      Printf.printf "  %-32s %12s\n" "path" "total(ms)";
      List.iter
        (fun path ->
          let t, _ = run_avg ~kb ~view:Xmark_views.q1 (Update.delete path) in
          Printf.printf "  %-32s %12.2f\n%!" path (ms (totals_sum t));
          let prof =
            profile_run (fun () ->
                run_once ~kb ~view:Xmark_views.q1 (Update.delete path))
          in
          record "fig22_23"
            ([
               ("kb", Json.int kb);
               ("path", Json.Str path);
               ("total_ms", Json.num (ms (totals_sum t)));
             ]
            @ counter_fields prof))
        paths)
    [ small_kb; big_kb ]

(* {1 Figure 24: annotation variants} *)

let fig24 () =
  (* Run on the small document: the VC-Root variants store the serialized
     document once per tuple, which is exactly the cost the figure
     studies — at large scale it dwarfs everything else. *)
  Printf.printf "(document ~%d KB)\n" small_kb;
  let stmt = Update.delete "/site/people/person[@id='person0']" in
  Printf.printf "  %-24s %12s\n" "variant" "total(ms)";
  List.iter
    (fun (label, pat) ->
      let t, _ = run_avg ~kb:small_kb ~view:pat stmt in
      Printf.printf "  %-24s %12.2f\n%!" label (ms (totals_sum t));
      record "fig24"
        [ ("variant", Json.Str label); ("total_ms", Json.num (ms (totals_sum t))) ])
    Xmark_views.q1_annotation_variants

(* {1 Figure 25: scalability} *)

let fig25 () =
  let u = Xmark_updates.find "A6_A" in
  List.iter
    (fun (op, label) ->
      subheader (label ^ " propagation");
      Obs.Fmt.phase_header ~label_width:10 "size(KB)" phase_cols;
      List.iter
        (fun kb ->
          let t, _ = run_avg ~kb ~view:Xmark_views.q1 (stmt_of op u) in
          Obs.Fmt.phase_row ~label_width:10 (string_of_int kb)
            [ t.find; t.delta; t.expr; t.exec; t.aux ];
          let prof =
            profile_run (fun () -> run_once ~kb ~view:Xmark_views.q1 (stmt_of op u))
          in
          record "fig25"
            ([ ("op", Json.Str label); ("kb", Json.int kb) ]
            @ breakdown_fields t @ counter_fields prof))
        scaling_kbs)
    [ (Insert, "insert"); (Delete, "delete") ]

(* {1 Figures 26 / 27: incremental vs full recomputation} *)

let fig26_27 op tag =
  Printf.printf "(document ~%d KB)\n" big_kb;
  (* Both strategies locate the targets and mutate the document; the
     comparison is between what happens next: delta + terms + execution +
     auxiliary upkeep (incremental) versus committing and re-evaluating
     the view and its snowcaps from scratch (full). *)
  Printf.printf "  %-12s %15s %10s %8s\n" "view_update" "incremental(ms)" "full(ms)"
    "speedup";
  let pairs =
    List.filter (fun (v, _) -> List.mem v [ "Q1"; "Q2"; "Q4" ]) Xmark_updates.figure20_pairs
  in
  let run_row label view stmt =
    let t, _ = run_avg ~kb:big_kb ~view stmt in
    let incr_ms = ms (t.delta +. t.expr +. t.exec +. t.aux) in
    let store = Store.of_document (doc big_kb) in
    let targets = Update.targets store stmt in
    (match stmt with
    | Update.Insert _ -> ignore (Update.apply_insert store stmt ~targets)
    | Update.Delete _ -> ignore (Update.apply_delete store ~targets)
    | Update.Replace_value { text; _ } ->
      ignore (Update.apply_replace store ~text ~targets));
    let _, full_s =
      Obs.duration (fun () ->
          Store.commit store;
          Mview.materialize store view)
    in
    let full_ms = ms full_s in
    Printf.printf "  %-16s %15.2f %10.2f %7.1fx\n%!" label incr_ms full_ms
      (full_ms /. max 0.001 incr_ms);
    record tag
      [
        ("label", Json.Str label);
        ("incremental_ms", Json.num incr_ms);
        ("full_ms", Json.num full_ms);
        ("speedup", Json.num (full_ms /. max 0.001 incr_ms));
      ]
  in
  List.iter
    (fun (vname, uname) ->
      run_row
        (Printf.sprintf "%s_%s" vname uname)
        (Xmark_views.find vname)
        (stmt_of op (Xmark_updates.find uname)))
    pairs;
  (* The benchmark updates above touch most of the view's extent, where
     recomputation has little left to do; selective updates — the common
     case the paper's conclusion targets — show the incremental gain. *)
  Printf.printf "selective variants (one target):\n";
  List.iter
    (fun (vname, label, path, fragment) ->
      let stmt =
        match (op, fragment) with
        | Insert, frag -> Update.insert ~into:path frag
        | Delete, _ -> Update.delete path
      in
      run_row label (Xmark_views.find vname) stmt)
    [
      ("Q1", "Q1_one_person", "/site/people/person[@id='person7']",
       "<name>sel</name>");
      ("Q2", "Q2_one_auction",
       "/site/open_auctions/open_auction[@id='open_auction3']/bidder",
       "<increase>9.99</increase>");
      ("Q4", "Q4_one_auction",
       "/site/open_auctions/open_auction[@id='open_auction3']/bidder",
       "<increase>9.99</increase>");
    ]

(* {1 Figure 28: bulk propagation vs node-at-a-time IVMA} *)

let fig28 () =
  Printf.printf "  %-8s %12s %12s %8s %12s\n" "update" "bulk(ms)" "ivma(ms)" "ratio"
    "invocations";
  List.iter
    (fun uname ->
      let u = Xmark_updates.find uname in
      let stmt = Xmark_updates.insert u in
      let t, _ = run_avg ~kb:small_kb ~view:Xmark_views.q1 stmt in
      let bulk_ms = ms (totals_sum t) in
      let store = Store.of_document (doc small_kb) in
      let mv = Mview.materialize ~policy:Mview.Leaves store Xmark_views.q1 in
      let r = Ivma.propagate mv stmt in
      let ivma_ms = ms r.Ivma.elapsed in
      Printf.printf "  %-8s %12.2f %12.2f %7.1fx %12d\n%!" uname bulk_ms ivma_ms
        (ivma_ms /. max 0.001 bulk_ms)
        r.Ivma.invocations;
      let prof =
        profile_run (fun () -> run_once ~kb:small_kb ~view:Xmark_views.q1 stmt)
      in
      record "fig28"
        ([
           ("update", Json.Str uname);
           ("bulk_ms", Json.num bulk_ms);
           ("ivma_ms", Json.num ivma_ms);
           ("ratio", Json.num (ivma_ms /. max 0.001 bulk_ms));
           ("invocations", Json.int r.Ivma.invocations);
         ]
        @ counter_fields prof))
    [ "X1_L"; "A6_A"; "A7_O"; "A8_AO"; "B7_LB" ]

(* {1 Figures 29–32: snowcaps vs leaves} *)

let fig29_32 () =
  List.iter
    (fun (vname, uname) ->
      subheader (Printf.sprintf "view %s, insert %s" vname uname);
      Printf.printf "  %-10s | %9s %9s %10s | %9s %9s %10s\n" "size(KB)" "R_snow"
        "U_snow" "tot_snow" "R_leaves" "U_leaves" "tot_leaves";
      let view = Xmark_views.find vname in
      let stmt = Xmark_updates.insert (Xmark_updates.find uname) in
      List.iter
        (fun kb ->
          (* As in the paper, the totals here are R + U: term evaluation
             plus auxiliary-structure update, the two policy-dependent
             phases. *)
          let measure policy =
            let t, _ = run_avg ~policy ~kb ~view stmt in
            (ms t.exec, ms t.aux, ms (t.exec +. t.aux))
          in
          let rs, us, ts = measure Mview.Snowcaps in
          let rl, ul, tl = measure Mview.Leaves in
          Printf.printf "  %-10d | %9.2f %9.2f %10.2f | %9.2f %9.2f %10.2f\n%!" kb rs
            us ts rl ul tl;
          record "fig29_32"
            [
              ("view", Json.Str vname);
              ("update", Json.Str uname);
              ("kb", Json.int kb);
              ("r_snow_ms", Json.num rs);
              ("u_snow_ms", Json.num us);
              ("total_snow_ms", Json.num ts);
              ("r_leaves_ms", Json.num rl);
              ("u_leaves_ms", Json.num ul);
              ("total_leaves_ms", Json.num tl);
            ])
        snowcap_kbs)
    [ ("Q4", "X2_L"); ("Q6", "E6_L") ]

(* {1 Figures 33–35: PUL reduction rules} *)

let fig33_35 () =
  let pcts = [ 20; 40; 60; 80; 100 ] in
  let take_pct lst pct =
    let n = List.length lst * pct / 100 in
    List.filteri (fun i _ -> i < n) lst
  in
  let build_state () =
    let store = Store.of_document (doc small_kb) in
    let mv = Mview.materialize store Xmark_views.q1 in
    (store, mv)
  in
  let ops_for rule store pct =
    let persons = Update.select store (Xpath.parse "/site/people/person") in
    let subset = take_pct persons pct in
    let did n = Store.id_of store n in
    match rule with
    | `O1 ->
      (* Insert under a subset, then delete every person: rule O1 erases
         the insertions on the same target (the Example 5.1 shape). *)
      List.map
        (fun p ->
          Pul_optim.Ins { target = did p; forest = Xml_parse.fragment "<name>tmp</name>" })
        subset
      @ List.map (fun p -> Pul_optim.Del { target = did p }) persons
    | `O3 ->
      (* Delete subset persons' name children, then the persons
         themselves: rule O3 erases the descendants' deletions. *)
      List.filter_map
        (fun p ->
          List.find_opt (fun c -> Xml_tree.label c = "name") p.Xml_tree.children
          |> Option.map (fun n -> Pul_optim.Del { target = did n }))
        subset
      @ List.map (fun p -> Pul_optim.Del { target = did p }) persons
    | `I5 ->
      (* Insert a name under every person, plus a second name under the
         subset: rule I5 merges same-target insertions. *)
      List.map
        (fun p ->
          Pul_optim.Ins { target = did p; forest = Xml_parse.fragment "<name>base</name>" })
        persons
      @ List.map
          (fun p ->
            Pul_optim.Ins
              { target = did p; forest = Xml_parse.fragment "<name>extra</name>" })
          subset
  in
  List.iter
    (fun (rule, label) ->
      Printf.printf "rule %s:\n" label;
      Printf.printf "  %-6s %13s %16s %8s %8s\n" "pct" "optimise(ms)" "no-optimise(ms)"
        "ops_opt" "ops_raw";
      List.iter
        (fun pct ->
          let run ~optimise =
            let _store, mv = build_state () in
            let ops = ops_for rule mv.Mview.store pct in
            let count = ref 0 in
            let (), elapsed =
              Obs.duration (fun () ->
                  let ops = if optimise then Pul_optim.reduce ops else ops in
                  count := List.length ops;
                  List.iter
                    (fun opn ->
                      ignore (Pul_optim.propagate_op ~on_missing:`Skip mv opn))
                    ops)
            in
            (elapsed, !count)
          in
          let t_opt, n_opt = run ~optimise:true in
          let t_raw, n_raw = run ~optimise:false in
          Printf.printf "  %-6d %13.1f %16.1f %8d %8d\n%!" pct (ms t_opt) (ms t_raw)
            n_opt n_raw;
          record "fig33_35"
            [
              ("rule", Json.Str label);
              ("pct", Json.int pct);
              ("optimise_ms", Json.num (ms t_opt));
              ("no_optimise_ms", Json.num (ms t_raw));
              ("ops_opt", Json.int n_opt);
              ("ops_raw", Json.int n_raw);
            ])
        pcts)
    [ (`O1, "O1"); (`O3, "O3"); (`I5, "I5") ]

(* {1 Ablations beyond the paper's figures} *)

let ablation_pruning () =
  subheader "data-driven term pruning (Props 3.6/3.8/4.7) on vs off";
  Printf.printf "  %-14s %6s %12s %12s %12s %12s\n" "view_update" "op" "pruned(ms)"
    "unpruned(ms)" "terms_kept" "terms_all";
  List.iter
    (fun (vname, uname, op) ->
      let view = Xmark_views.find vname in
      let u = Xmark_updates.find uname in
      let stmt = stmt_of op u in
      let measure prune =
        (* Minimum of three runs: robust against scheduler noise. *)
        let one () =
          let store = Store.of_document (doc big_kb) in
          let mv = Mview.materialize store view in
          let r = Maint.propagate ~prune mv stmt in
          (Timing.maintenance_total r.Maint.timing, r)
        in
        let samples = List.init 3 (fun _ -> one ()) in
        List.fold_left
          (fun (bt, br) (t, r) -> if t < bt then (t, r) else (bt, br))
          (List.hd samples) (List.tl samples)
      in
      let t_on, r_on = measure true in
      let t_off, r_off = measure false in
      Printf.printf "  %-14s %6s %12.2f %12.2f %12d %12d\n%!"
        (Printf.sprintf "%s_%s" vname uname)
        (match op with Insert -> "ins" | Delete -> "del")
        (ms t_on) (ms t_off) r_on.Maint.terms_surviving r_off.Maint.terms_surviving;
      record "ablation_pruning"
        [
          ("view", Json.Str vname);
          ("update", Json.Str uname);
          ("op", Json.Str (match op with Insert -> "ins" | Delete -> "del"));
          ("pruned_ms", Json.num (ms t_on));
          ("unpruned_ms", Json.num (ms t_off));
          ("terms_kept", Json.int r_on.Maint.terms_surviving);
          ("terms_all", Json.int r_off.Maint.terms_surviving);
        ])
    [
      ("Q4", "X3_A", Delete); ("Q4", "X2_L", Insert); ("Q3", "B3_LB", Delete);
      ("Q1", "A6_A", Insert);
    ]

let ablation_advisor () =
  subheader "snowcap choice — chain vs cost-based advisor vs leaves";
  Printf.printf "  %-10s %12s %14s %12s\n" "view" "chain(ms)" "advisor(ms)" "leaves(ms)";
  List.iter
    (fun (vname, uname, profile) ->
      let view = Xmark_views.find vname in
      let stmt = Xmark_updates.insert (Xmark_updates.find uname) in
      let measure policy =
        let one () =
          let store = Store.of_document (doc big_kb) in
          let mv = Mview.materialize ~policy store view in
          let r = Maint.propagate mv stmt in
          ms (r.Maint.timing.Timing.execute +. r.Maint.timing.Timing.update_aux)
        in
        List.fold_left min (one ()) (List.init 2 (fun _ -> one ()))
      in
      let advisor_policy =
        let store = Store.of_document (doc big_kb) in
        Advisor.policy store view ~profile
      in
      let chain_ms = measure Mview.Snowcaps in
      let advisor_ms = measure advisor_policy in
      let leaves_ms = measure Mview.Leaves in
      Printf.printf "  %-10s %12.2f %14.2f %12.2f\n%!" vname chain_ms advisor_ms
        leaves_ms;
      record "ablation_advisor"
        [
          ("view", Json.Str vname);
          ("chain_ms", Json.num chain_ms);
          ("advisor_ms", Json.num advisor_ms);
          ("leaves_ms", Json.num leaves_ms);
        ])
    [
      ("Q4", "X2_L", [ ("increase", 10.); ("bidder", 5.) ]);
      ("Q1", "X1_L", [ ("name", 10.) ]);
    ]

let ablation_deferred () =
  subheader "immediate vs deferred (reduced) propagation of an update burst";
  (* A burst: two insertion rounds into the same bidders, then their
     deletion — deferred mode reduces it to the deletions alone. *)
  let statements =
    [
      Update.insert ~into:"//open_auction/bidder" "<increase>d1</increase>";
      Update.insert ~into:"//open_auction/bidder" "<increase>d2</increase>";
      Update.delete "//open_auction/bidder";
    ]
  in
  let build () =
    let store = Store.of_document (doc small_kb) in
    Mview.materialize store (Xmark_views.find "Q2")
  in
  (* Statement-level bulk propagation, for context. *)
  let mv_stmt = build () in
  let (), t_stmt =
    Obs.duration (fun () ->
        List.iter (fun stmt -> ignore (Maint.propagate mv_stmt stmt)) statements)
  in
  (* Immediate node-at-a-statement mode: every atomic operation propagated
     as it arrives (the Section 5 baseline). *)
  let mv_imm = build () in
  let imm_ops = ref 0 in
  let (), t_imm =
    Obs.duration (fun () ->
        List.iter
          (fun stmt ->
            let ops = Pul_optim.atomic_ops mv_imm.Mview.store stmt in
            List.iter
              (fun op ->
                incr imm_ops;
                ignore (Pul_optim.propagate_op ~on_missing:`Skip mv_imm op))
              ops)
          statements)
  in
  (* Deferred: queue, reduce at read time, propagate the survivors. *)
  let mv_def = build () in
  let d = Deferred.create mv_def in
  let (), t_def =
    Obs.duration (fun () ->
        List.iter (Deferred.update d) statements;
        ignore (Deferred.view d))
  in
  let totals = Deferred.totals d in
  Printf.printf "  statement-level bulk: %8.1f ms (3 statements)\n" (ms t_stmt);
  Printf.printf "  immediate per-op:     %8.1f ms (%d ops)\n" (ms t_imm) !imm_ops;
  Printf.printf "  deferred + reduced:   %8.1f ms (%d ops queued -> %d propagated)\n%!"
    (ms t_def) totals.Deferred.ops_queued totals.Deferred.ops_propagated;
  let consistent = Recompute.equal mv_stmt mv_def && Recompute.equal mv_imm mv_def in
  Printf.printf "  all consistent: %b\n%!" consistent;
  record "ablation_deferred"
    [
      ("bulk_ms", Json.num (ms t_stmt));
      ("immediate_ms", Json.num (ms t_imm));
      ("immediate_ops", Json.int !imm_ops);
      ("deferred_ms", Json.num (ms t_def));
      ("ops_queued", Json.int totals.Deferred.ops_queued);
      ("ops_propagated", Json.int totals.Deferred.ops_propagated);
      ("consistent", Json.Bool consistent);
    ]

(* {1 Bechamel micro-benchmarks} *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  (* Shared prepared state (committed, never mutated by the benches). *)
  let store = Store.of_document (doc small_kb) in
  let q1 = Xmark_views.q1 in
  let persons = Plan.atom_of_store store q1 2 in
  let names = Plan.atom_of_store store q1 4 in
  let some_person = (Store.relation store "person").(0).Store.id in
  let region = Id_region.of_roots [ some_person ] in
  let rel_b = Array.map (fun e -> e.Store.id) (Store.relation store "bidder") in
  let a8 = Xpath.parse (Xmark_updates.find "A8_AO").Xmark_updates.path in
  let tests =
    [
      Test.make ~name:"fig18:xpath-find-targets(A8_AO)"
        (Staged.stage (fun () -> Update.select store a8));
      Test.make ~name:"fig18:structural-join(person,name)"
        (Staged.stage (fun () ->
             Struct_join.join persons names ~parent:2 ~child:4 ~axis:Pattern.Child));
      Test.make ~name:"fig20:algebraic-eval(Q1)"
        (Staged.stage (fun () -> Plan.eval store q1));
      Test.make ~name:"fig22:id-region-filter(bidders)"
        (Staged.stage (fun () -> Array.map (fun id -> Id_region.mem region id) rel_b));
      Test.make ~name:"fig25:materialize(Q1)"
        (Staged.stage (fun () -> Mview.materialize ~policy:Mview.Leaves store q1));
      Test.make ~name:"dewey:compare"
        (Staged.stage (fun () -> Dewey.compare some_person rel_b.(0)));
      Test.make ~name:"dewey:codec-roundtrip"
        (Staged.stage (fun () -> Dewey.decode (Dewey.encode some_person)));
    ]
  in
  let grouped = Test.make_grouped ~name:"xvm" tests in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let est = match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan in
      Printf.printf "  %-46s %12.0f ns/run\n" name est;
      record "micro" [ ("name", Json.Str name); ("ns_per_run", Json.num est) ])
    (List.sort compare rows)

(* A synthetic deep-nesting document: [chains] independent chains, each a
   [section] wrapping a [depth]-deep spine of [wrap] elements with one
   [para] leaf. XMark is shallow (max depth ~6); deep identifiers are
   where per-step work on boxed Dewey steps shows. *)
let deep_doc ~chains ~depth =
  let buf = Buffer.create (chains * depth * 16) in
  Buffer.add_string buf "<deep>";
  for i = 1 to chains do
    Buffer.add_string buf "<section>";
    for _ = 1 to depth do
      Buffer.add_string buf "<wrap>"
    done;
    Buffer.add_string buf (Printf.sprintf "<para>p%d</para>" i);
    for _ = 1 to depth do
      Buffer.add_string buf "</wrap>"
    done;
    Buffer.add_string buf "</section>"
  done;
  Buffer.add_string buf "</deep>";
  Xml_parse.document (Buffer.contents buf)

(* {1 prims: Dewey vs arena primitives}

   The arena-handle representation justified primitive by primitive:
   interning, document-order compare and the ancestor test, each timed
   on boxed Dewey identifiers and on their arena handles over identical
   inputs (the deep document's [wrap] relation — depth ~12, where
   per-step work shows). *)

let prims () =
  let store = Store.of_document (deep_doc ~chains:2000 ~depth:10) in
  let arena = Store.arena store in
  let entries, handles = Store.relation_handles store "wrap" in
  let ids = Array.map (fun e -> e.Store.id) entries in
  let n = Array.length ids in
  (* Arena ingest counters for one deep-document build. *)
  let (), snap_build =
    Obs.with_scope (fun () ->
        ignore (Store.of_document (deep_doc ~chains:200 ~depth:10)))
  in
  let cval name = Obs.counter_value snap_build ("dewey.arena." ^ name) in
  Printf.printf
    "  arena ingest (200x10 deep doc): interned=%d hits=%d bytes=%d\n"
    (cval "interned") (cval "hits") (cval "bytes");
  record "prims"
    [
      ("name", Json.Str "arena_ingest");
      ("interned", Json.int (cval "interned"));
      ("hits", Json.int (cval "hits"));
      ("bytes", Json.int (cval "bytes"));
    ];
  (* Deterministic index pairs over the deep [wrap] relation. *)
  let npairs = 8192 in
  let idx = Array.make (2 * npairs) 0 in
  let s = ref 0x2545F491 in
  for i = 0 to (2 * npairs) - 1 do
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    idx.(i) <- !s mod n
  done;
  let sink = ref 0 in
  let per_op ops f = time_median f *. 1e9 /. float_of_int ops in
  Printf.printf "  %-24s %10s %10s %8s\n" "primitive" "dewey(ns)" "arena(ns)"
    "speedup";
  let report name ops dewey handles =
    let d = per_op ops dewey and a = per_op ops handles in
    Printf.printf "  %-24s %10.1f %10.1f %7.2fx\n%!" name d a (d /. a);
    record "prims"
      [
        ("name", Json.Str name);
        ("dewey_ns", Json.num d);
        ("arena_ns", Json.num a);
        ("speedup", Json.num (d /. a));
      ]
  in
  (* intern has no Dewey counterpart: report cold (fresh arena, closure
     built as it goes) and hit (every id already present) medians. *)
  let t_cold =
    per_op n (fun () ->
        let a = Dewey_arena.create () in
        Array.iter (fun id -> ignore (Dewey_arena.intern a id)) ids)
  in
  let t_hit =
    per_op n (fun () ->
        Array.iter (fun id -> sink := !sink + Dewey_arena.intern arena id) ids)
  in
  Printf.printf "  %-24s %10s %10.1f\n" "intern (cold)" "-" t_cold;
  Printf.printf "  %-24s %10s %10.1f\n%!" "intern (hit)" "-" t_hit;
  record "prims" [ ("name", Json.Str "intern_cold"); ("arena_ns", Json.num t_cold) ];
  record "prims" [ ("name", Json.Str "intern_hit"); ("arena_ns", Json.num t_hit) ];
  report "compare" npairs
    (fun () ->
      for i = 0 to npairs - 1 do
        sink := !sink + Dewey.compare ids.(idx.(2 * i)) ids.(idx.((2 * i) + 1))
      done)
    (fun () ->
      for i = 0 to npairs - 1 do
        sink :=
          !sink
          + Dewey_arena.compare arena
              handles.(idx.(2 * i))
              handles.(idx.((2 * i) + 1))
      done);
  report "is_prefix" npairs
    (fun () ->
      for i = 0 to npairs - 1 do
        if Dewey.is_ancestor_or_self ids.(idx.(2 * i)) ids.(idx.((2 * i) + 1))
        then incr sink
      done)
    (fun () ->
      for i = 0 to npairs - 1 do
        if
          Dewey_arena.is_prefix arena
            handles.(idx.(2 * i))
            handles.(idx.((2 * i) + 1))
        then incr sink
      done);
  ignore !sink

(* {1 figMV: multi-view batch maintenance}

   The view-set deployment: the Figure-20 views registered together over
   one store, one update maintained three ways — batched
   ([View_set.update]: shared update-region index, relevance skip,
   hoisted commit), independent (the
   same single document mutation, but every view extracts its own
   delta), and full recomputation. The counter snapshots are the point:
   batched [maint.delta] nodes/extractions stay flat as views are added
   while the independent ones grow linearly. *)

let figmv () =
  let kb = if full then 2048 else 256 in
  Printf.printf
    "(document ~%d KB; view sets are prefixes of the Figure-20 set)\n" kb;
  let view_counts = [ 1; 2; 4; 7 ] in
  let prefix n = List.filteri (fun i _ -> i < n) Xmark_views.all in
  let base = doc kb in
  let fresh_store () = Store.of_document (Xml_tree.copy base) in
  let apply_manually store u targets =
    match u with
    | Update.Insert _ -> Maint.Ins (Update.apply_insert store u ~targets)
    | Update.Delete _ -> Maint.Del (Update.apply_delete store ~targets)
    | Update.Replace_value { text; _ } ->
      let d, i = Update.apply_replace store ~text ~targets in
      Maint.Repl (d, i)
  in
  (* One batched trial on fresh state; setup (store build, view
     materialization) stays outside the timed region. *)
  let batched ~n u =
    let store = fresh_store () in
    let set = View_set.create store in
    List.iter (fun (_, pat) -> ignore (View_set.add set pat)) (prefix n);
    let reports, elapsed = Obs.duration (fun () -> View_set.update set u) in
    let skipped =
      List.length (List.filter (fun (_, r) -> r.Maint.skipped_irrelevant) reports)
    in
    (elapsed, skipped)
  in
  (* Independent: one mutation, then the full per-view pipeline for every
     view — own delta extraction, no relevance filter, commit hoisted the
     same way so the comparison isolates the shared work. *)
  let independent ~n u =
    let store = fresh_store () in
    let mvs = List.map (fun (_, pat) -> Mview.materialize store pat) (prefix n) in
    snd
      (Obs.duration (fun () ->
           let targets = Update.targets store u in
           let watched =
             List.map (fun mv -> (mv, Maint.vpred_watches mv targets)) mvs
           in
           let applied = apply_manually store u targets in
           List.iter
             (fun (mv, watches) ->
               let flipped = Maint.watches_flipped mv watches in
               ignore (Maint.propagate_applied ~commit:false ~flipped mv applied))
             watched;
           Store.commit store))
  in
  let recompute ~n u =
    let store = fresh_store () in
    let pats = List.map snd (prefix n) in
    List.iter (fun pat -> ignore (Mview.materialize store pat)) pats;
    snd
      (Obs.duration (fun () ->
           let targets = Update.targets store u in
           ignore (apply_manually store u targets);
           Store.commit store;
           List.iter (fun pat -> ignore (Mview.materialize store pat)) pats))
  in
  (* The per-update work is a few milliseconds at the scaled document
     size; average at least three trials however [--runs] is set. *)
  let trials = max runs 3 in
  let avg f =
    let ts = List.init trials (fun _ -> f ()) in
    List.fold_left ( +. ) 0. ts /. float_of_int trials
  in
  Printf.printf "  %-10s %2s %12s %15s %13s %8s\n" "update" "N" "batched(ms)"
    "independent(ms)" "recompute(ms)" "speedup";
  List.iter
    (fun (uname, u) ->
      List.iter
        (fun n ->
          let ind_ms = ms (avg (fun () -> independent ~n u)) in
          let rec_ms = ms (avg (fun () -> recompute ~n u)) in
          let batched_prof = profile_run (fun () -> batched ~n u) in
          let independent_prof = profile_run (fun () -> independent ~n u) in
          let skipped = ref 0 in
          let b_ms =
            ms
              (avg (fun () ->
                   let e, s = batched ~n u in
                   skipped := s;
                   e))
          in
          Printf.printf "  %-10s %2d %12.2f %15.2f %13.2f %7.1fx\n%!" uname n b_ms
            ind_ms rec_ms
            (ind_ms /. max 0.001 b_ms);
          record "figMV"
            ([
               ("update", Json.Str uname);
               ("views", Json.int n);
               ("batched_ms", Json.num b_ms);
               ("independent_ms", Json.num ind_ms);
               ("recompute_ms", Json.num rec_ms);
               ("speedup_vs_independent", Json.num (ind_ms /. max 0.001 b_ms));
               ("speedup_vs_recompute", Json.num (rec_ms /. max 0.001 b_ms));
               ("skipped", Json.int !skipped);
             ]
            @ counter_fields batched_prof
            @
            match counter_fields independent_prof with
            | [ (_, obj) ] -> [ ("independent_counters", obj) ]
            | _ -> []))
        view_counts)
    [
      ("X1_L_ins", Xmark_updates.insert (Xmark_updates.find "X1_L"));
      ("X1_L_del", Xmark_updates.delete (Xmark_updates.find "X1_L"));
      (* Mass delete of the regions subtree: its labels (item, name,
         description, …) sit in the footprint of several views at once,
         so the independent baseline re-extracts the same slices per
         view — the case the shared index is for. *)
      ("regions_del", Update.delete "/site/regions");
    ]

(* {1 figHL: heavy-light adaptive maintenance under skew}

   The beyond-the-paper result: a sweep of document skew × partition
   threshold comparing eager maintenance (every update propagates
   through every relevant view immediately) against adaptive heavy-light
   maintenance (updates whose delta reaches a view through a
   heavy-partitioned label defer; readers drain). The statement stream
   interleaves hot updates (new bidders under every open auction — under
   skew the hot auction's bidder fan-out is extreme, so the bidder label
   classifies heavy) with light updates (person names — never heavy), in
   a grow/shrink cycle so the document stays bounded. Reads (drain +
   snapshot access) are timed separately at a fixed cadence; after every
   read and at the end, each view must equal a fresh materialization of
   its pattern over the committed store — the in-harness safety oracle
   (the adaptive≡eager lockstep oracle is `xvmcli difftest --property heavy`).

   The crossover the figure is after: at high skew the hot updates route
   heavy and defer, collapsing per-update latency; on the uniform
   document no label ever classifies heavy, so the adaptive path *is*
   the eager path plus classifier upkeep — the overhead bound. *)

let fighl () =
  let kb = if full then 1024 else 256 in
  let cycles = if full then 24 else 16 in
  let read_every = 12 in
  let high_skew =
    { Xmark_gen.zipf_alpha = 1.6; hot_share = 0.7; value_alpha = 1.4 }
  in
  let regimes =
    [
      ("uniform", None);
      ("skew", Some Xmark_gen.default_skew);
      ("skew_high", Some high_skew);
    ]
  in
  let fanouts = [ 64; 256; 1024 ] in
  let views =
    [ Xmark_views.q1; Xmark_views.q2; Xmark_views.q3; Xmark_views.q4 ]
  in
  let stmts =
    List.concat
      (List.init cycles (fun i ->
           [
             Update.parse
               "insert into /site/open_auctions/open_auction \
                <bidder><increase>4.50</increase></bidder>";
             (if i mod 2 = 0 then
                Xmark_updates.insert (Xmark_updates.find "X1_L")
              else Update.parse "delete /site/people/person/name");
             Update.parse
               "insert into /site/open_auctions/open_auction \
                <bidder><increase>200.00</increase></bidder>";
           ]))
  in
  let median xs =
    match xs with
    | [] -> 0.
    | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      a.(Array.length a / 2)
  in
  (* One paired pass per configuration: twin eager/adaptive view sets
     over identical document copies, driven through the statement stream
     in lockstep. Each statement is timed on both sides back to back
     (alternating which goes first, so allocator and GC drift cancels
     out of the comparison instead of landing on whichever side runs
     later). Every [read_every] statements both sides take a timed read
     (drain + snapshot access), then the oracle: every adaptive view
     must equal its eager twin tuple for tuple. *)
  let pass ~label ~base ~fanout () =
    let mk () =
      let store = Store.of_document (Xml_tree.copy base) in
      let set = View_set.create store in
      List.iter (fun pat -> ignore (View_set.add set pat)) views;
      set
    in
    let eset = mk () and aset = mk () in
    (* Compact before timing: earlier sections (or passes) leave a large
       fragmented major heap, and on this single-pass harness the GC debt
       they bequeath lands asymmetrically on the twin loops — enough to
       swamp the few-percent uniform-regime differences this section
       exists to bound. *)
    Gc.compact ();
    let config =
      {
        Hl.default_config with
        Hl.heavy_fanout = fanout;
        Hl.heavy_count = 1 lsl 20;
        Hl.drain_budget = 1 lsl 16;
      }
    in
    View_set.set_adaptive aset (Some (Hl.create ~config (View_set.store aset)));
    let eupd = ref [] and aupd = ref [] in
    let ereads = ref [] and areads = ref [] in
    let check_views () =
      List.iter2
        (fun emv amv ->
          match Recompute.diff emv amv with
          | None -> ()
          | Some d ->
            write_results ();
            failwith
              (Printf.sprintf "figHL %s: adaptive %s diverged from eager: %s"
                 label amv.Mview.pat.Pattern.name d))
        (View_set.views eset) (View_set.views aset)
    in
    List.iteri
      (fun i u ->
        let eager () =
          let _, e = Obs.duration (fun () -> View_set.update eset u) in
          eupd := e :: !eupd
        in
        let adaptive () =
          let _, e = Obs.duration (fun () -> View_set.update aset u) in
          aupd := e :: !aupd
        in
        if i mod 2 = 0 then (eager (); adaptive ()) else (adaptive (); eager ());
        if (i + 1) mod read_every = 0 then begin
          let _, e = Obs.duration (fun () -> View_set.drain_all eset) in
          ereads := e :: !ereads;
          let _, e = Obs.duration (fun () -> View_set.drain_all aset) in
          areads := e :: !areads;
          check_views ()
        end)
      stmts;
    ignore (View_set.drain_all eset);
    ignore (View_set.drain_all aset);
    check_views ();
    let hl_stats =
      match View_set.adaptive aset with
      | None -> []
      | Some hl ->
        let heavy = Hl.heavy_labels hl in
        [
          ("heavy_labels", Json.Str (String.concat "," heavy));
          ("heavy_parts", Json.int (List.length heavy));
          ("migrations", Json.int (Hl.migrations hl));
          ("pending_rows", Json.int (Store.pending_rows (View_set.store aset)));
        ]
    in
    let tot l = List.fold_left ( +. ) 0. l in
    (* The headline comparison is the median of per-statement paired
       ratios: each statement's two timings are adjacent in time, so
       allocator/GC/machine drift hits both and divides out — raw
       per-side medians (also reported) can drift ±10% between passes on
       a noisy container. *)
    let ratio =
      median (List.map2 (fun e a -> e /. Float.max 1e-9 a) !eupd !aupd)
    in
    ( (median !eupd, median !ereads, tot !eupd, tot !ereads),
      (median !aupd, median !areads, tot !aupd, tot !areads),
      ratio, hl_stats )
  in
  let run_pass ~label ~base ~fanout () =
    if skip_counters then (pass ~label ~base ~fanout (), None)
    else
      let r, snap = Obs.with_scope (fun () -> pass ~label ~base ~fanout ()) in
      (r, Some snap)
  in
  Printf.printf
    "(document ~%d KB, %d statement(s)/pass, %d view(s); fanout = heavy \
     threshold)\n"
    kb (List.length stmts) (List.length views);
  Printf.printf "  %-10s %7s %11s %13s %8s %9s %9s %9s %6s %5s\n" "regime"
    "fanout" "eager(ms)" "adaptive(ms)" "speedup" "e.read" "a.read" "combined"
    "heavy" "migr";
  let best_skew_speedup = ref 0. and worst_uniform_overhead = ref 0. in
  let best_skew_combined = ref 0. and worst_uniform_combined = ref infinity in
  List.iter
    (fun (rname, skew) ->
      let base =
        match skew with
        | None -> Xmark_gen.document ~seed ~target_kb:kb
        | Some sk -> Xmark_gen.document_skewed ~skew:sk ~seed ~target_kb:kb ()
      in
      let s0 = Store.of_document (Xml_tree.copy base) in
      let bstat = Store.label_stat s0 "bidder" in
      Printf.printf
        "  %s: %d KB, %d bidder(s), max bidder fan-out %d\n%!" rname
        (Xmark_gen.actual_bytes base / 1024)
        bstat.Store.ls_count bstat.Store.ls_max_fanout;
      List.iter
        (fun f ->
          let ( (e_med, e_read, e_total, e_read_total),
                (a_med, a_read, a_total, a_read_total),
                speedup,
                hl_stats ),
              a_prof =
            run_pass
              ~label:(Printf.sprintf "%s f=%d" rname f)
              ~base ~fanout:f ()
          in
          if rname <> "uniform" then
            best_skew_speedup := Float.max !best_skew_speedup speedup;
          if rname = "uniform" then
            worst_uniform_overhead :=
              Float.max !worst_uniform_overhead ((1. /. Float.max 1e-7 speedup) -. 1.);
          (* The combined figure: each side's whole bill, every update
             plus every read (drains included), over the same stream.
             Above 1 the adaptive side did less total work. *)
          let e_combined = e_total +. e_read_total
          and a_combined = a_total +. a_read_total in
          let combined = e_combined /. Float.max 1e-9 a_combined in
          if rname <> "uniform" then
            best_skew_combined := Float.max !best_skew_combined combined
          else worst_uniform_combined := Float.min !worst_uniform_combined combined;
          let nheavy, migr =
            match hl_stats with
            | _ :: ("heavy_parts", Json.Num n) :: ("migrations", Json.Num m) :: _
              ->
              (int_of_float n, int_of_float m)
            | _ -> (0, 0)
          in
          Printf.printf
            "  %-10s %7d %11.3f %13.3f %7.1fx %9.3f %9.3f %8.2fx %6d %5d\n%!"
            rname f (ms e_med) (ms a_med) speedup (ms e_read) (ms a_read)
            combined nheavy migr;
          record "figHL"
            ([
               ("regime", Json.Str rname);
               ("heavy_fanout", Json.int f);
               ("doc_kb", Json.int (Xmark_gen.actual_bytes base / 1024));
               ("max_bidder_fanout", Json.int bstat.Store.ls_max_fanout);
               ("statements", Json.int (List.length stmts));
               ("eager_median_ms", Json.num (ms e_med));
               ("adaptive_median_ms", Json.num (ms a_med));
               ("speedup_median", Json.num speedup);
               ("speedup_medians_unpaired", Json.num (e_med /. Float.max 1e-7 a_med));
               ("eager_total_ms", Json.num (ms e_total));
               ("adaptive_total_ms", Json.num (ms a_total));
               ("eager_read_ms", Json.num (ms e_read));
               ("adaptive_read_ms", Json.num (ms a_read));
               ("eager_read_total_ms", Json.num (ms e_read_total));
               ("adaptive_read_total_ms", Json.num (ms a_read_total));
               ("eager_combined_ms", Json.num (ms e_combined));
               ("adaptive_combined_ms", Json.num (ms a_combined));
               ("combined_ratio", Json.num combined);
             ]
            @ hl_stats @ counter_fields a_prof))
        fanouts)
    regimes;
  Printf.printf
    "  crossover: best skewed speedup %.1fx; uniform overhead %+.1f%%\n%!"
    !best_skew_speedup
    (100. *. !worst_uniform_overhead);
  Printf.printf
    "  combined (updates + reads, eager/adaptive): best skewed %.2fx; worst \
     uniform %.2fx\n%!"
    !best_skew_combined !worst_uniform_combined

(* {1 answer: rewriting from views}

   Answering a fresh query from the materialized views against algebraic
   recomputation over the base document, checking tuple-for-tuple
   agreement on every run. The view set is the Figure-20 set minus Q13,
   plus Q13's two legs ([prune]/[subpattern] at node 1) — so Q13 itself
   exercises the two-view intersection plan. *)

let answer_bench () =
  let root = doc small_kb in
  let store = Store.of_document root in
  let set = View_set.create store in
  List.iter
    (fun (nm, pat) -> if nm <> "Q13" then ignore (View_set.add set pat))
    Xmark_views.all;
  ignore (View_set.add set (Pattern.prune Xmark_views.q13 1 ~name:"Q13top"));
  ignore (View_set.add set (Pattern.subpattern Xmark_views.q13 1 ~name:"Q13bot"));
  let sources = List.map Answer.source_of_mview (View_set.views set) in
  (* Q1 with an extra value predicate on its stored-val node: answered
     from the Q1 view through a [Val_eq] compensation. The constant is a
     value the view actually stores, so the residual result is
     nonempty. *)
  let q1_vpred =
    let q = Xmark_views.q1 in
    let vi =
      let found = ref (-1) in
      Array.iteri
        (fun i (a : Pattern.annot) ->
          if !found < 0 && a.Pattern.store_val then found := i)
        q.Pattern.annots;
      !found
    in
    let const =
      let rec first_val = function
        | [] -> "unmatched"
        | (_, _, cells) :: rest -> (
          match
            Array.find_opt (fun c -> c.Mview.cell_value <> None) cells
          with
          | Some c -> Option.get c.Mview.cell_value
          | None -> first_val rest)
      in
      match View_set.find set "Q1" with
      | Some mv -> first_val (Mview.dump mv)
      | None -> "unmatched"
    in
    let rec build i =
      let a = q.Pattern.annots.(i) in
      let vp = if i = vi then Some const else q.Pattern.vpreds.(i) in
      Pattern.n ~axis:q.Pattern.axes.(i) ~id:a.Pattern.store_id
        ~value:a.Pattern.store_val ~content:a.Pattern.store_cont ?vpred:vp
        q.Pattern.tags.(i)
        (List.map build (Pattern.children q i))
    in
    Pattern.compile ~name:"Q1v" (build 0)
  in
  (* A shape no view covers: forced base fallback. *)
  let fallback_q =
    Pattern.compile ~name:"Qfb"
      (Pattern.n ~axis:Pattern.Descendant ~id:true "bidder"
         [ Pattern.n ~axis:Pattern.Descendant ~id:true "date" [] ])
  in
  let queries =
    [
      ("Q1_exact", Pattern.rename Xmark_views.q1 "Q1x", "single(");
      ("Q1_vpred", q1_vpred, "single(");
      ("Q13_join", Pattern.rename Xmark_views.q13 "Q13j", "join(");
      ("fallback", fallback_q, "fallback(");
    ]
  in
  Printf.printf "  %-10s %-38s %10s %10s %8s\n" "query" "plan" "views(ms)"
    "base(ms)" "tuples";
  List.iter
    (fun (label, q, expect_plan) ->
      let plan_desc, rows =
        match Answer.answer ~store ~sources q with
        | Some (plan, rows) -> (Answer.describe plan, rows)
        | None -> assert false
      in
      let base = Answer.base_rows store q in
      (match Answer.diff ~expect:base ~got:rows with
      | None -> ()
      | Some d ->
        write_results ();
        failwith (Printf.sprintf "answer bench: %s: views vs base: %s" label d));
      if
        String.length plan_desc < String.length expect_plan
        || String.sub plan_desc 0 (String.length expect_plan) <> expect_plan
      then begin
        write_results ();
        failwith
          (Printf.sprintf "answer bench: %s: expected a %s… plan, got %s"
             label expect_plan plan_desc)
      end;
      let views_s =
        time_median (fun () -> ignore (Answer.answer ~store ~sources q))
      in
      let base_s = time_median (fun () -> ignore (Answer.base_rows store q)) in
      Printf.printf "  %-10s %-38s %10.3f %10.3f %8d\n%!" label plan_desc
        (ms views_s) (ms base_s) (List.length rows);
      record "answer"
        [
          ("metric", Json.Str "rewrite");
          ("query", Json.Str label);
          ("plan", Json.Str plan_desc);
          ("views_ms", Json.num (ms views_s));
          ("base_ms", Json.num (ms base_s));
          ("speedup", Json.num (base_s /. views_s));
          ("tuples", Json.int (List.length rows));
        ])
    queries

(* The section table, in dispatch order: [--only] validates against it,
   [--list] prints it, and each run starts with its title as header. *)
let sections =
  [
    ( "fig18",
      "Figure 18: PINT/PIMT time breakdown (insert propagation)",
      fun () -> fig18_19 Insert "fig18" );
    ( "fig19",
      "Figure 19: PDDT/PDMT time breakdown (delete propagation)",
      fun () -> fig18_19 Delete "fig19" );
    ( "fig20",
      "Figure 20: insert propagation, all XMark views",
      fun () -> fig20_21 Insert "fig20" );
    ( "fig21",
      "Figure 21: delete propagation, all XMark views",
      fun () -> fig20_21 Delete "fig21" );
    ("fig22", "Figure 22/23: deletions of varying depth against view Q1", fig22_23);
    ( "fig24",
      "Figure 24: one person deleted, view Q1 with varying annotations",
      fig24 );
    ("fig25", "Figure 25: scalability of view Q1 under update A6_A", fig25);
    ( "fig26",
      "Figure 26: PINT/PIMT vs full recomputation",
      fun () -> fig26_27 Insert "fig26" );
    ( "fig27",
      "Figure 27: PDDT/PDMT vs full recomputation",
      fun () -> fig26_27 Delete "fig27" );
    ("fig28", "Figure 28: PINT/PIMT vs IVMA (view Q1, 100 KB document)", fig28);
    ( "fig29",
      "Figure 29-32: snowcaps vs leaves; R = evaluate terms, U = update \
       auxiliary structures",
      fig29_32 );
    ( "fig33",
      "Figure 33-35: reduction rules O1 / O3 / I5 (view Q1, 100 KB document), \
       optimise vs no-optimise",
      fig33_35 );
    ( "ablations",
      "Ablations: term pruning, snowcap choice, deferred propagation",
      fun () ->
        ablation_pruning ();
        ablation_advisor ();
        ablation_deferred () );
    ("prims", "prims: Dewey arena primitives (Dewey vs arena handles)", prims);
    ("figMV", "figMV: batch maintenance of a view set (shared delta)", figmv);
    ("figHL", "figHL: heavy-light adaptive maintenance under skew", fighl);
    ("answer", "answer: answering from views vs base recompute", answer_bench);
    ("micro", "Bechamel micro-benchmarks (core operations behind the figures)", micro);
  ]

let () =
  let names = List.map (fun (name, _, _) -> name) sections in
  if !list_sections then begin
    List.iter (fun (name, title, _) -> Printf.printf "%-10s %s\n" name title) sections;
    exit 0
  end;
  (match !only with
  | None -> ()
  | Some ts -> (
    match List.filter (fun t -> not (List.mem t names)) ts with
    | [] -> ()
    | unknown ->
      Printf.eprintf "error: unknown section%s %s\nvalid sections: %s\n%s\n"
        (if List.length unknown > 1 then "s" else "")
        (String.concat ", " unknown) (String.concat ", " names) usage;
      exit 2));
  Printf.printf "xvm benchmark harness — %s mode, %d run(s) per point\n"
    (if full then "full (paper-scale)" else "scaled")
    runs;
  let d = doc big_kb in
  Printf.printf "big document calibration: target %d KB, actual %d KB, %d nodes\n%!"
    big_kb
    (Xmark_gen.actual_bytes d / 1024)
    (Xml_tree.size d);
  List.iter
    (fun (name, title, run) ->
      match !only with
      | Some ts when not (List.mem name ts) -> ()
      | _ ->
        header title;
        run ())
    sections;
  write_results ();
  print_newline ()
