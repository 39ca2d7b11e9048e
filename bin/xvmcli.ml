(* xvmcli — inspect documents, evaluate paths, materialize views and run
   incremental maintenance from the command line. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_store path = Store.of_document (Xml_parse.document (read_file path))

(* Counts such as [--max-batch] must be positive: 0 or negative values
   are rejected at parse time. *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "expected a positive integer, got %d" n))
    | None -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* [--name] takes a built-in view: an unknown name is a usage error
   that lists the valid ones. *)
let view_name =
  let parse s =
    match Xmark_views.find s with
    | pat -> Ok pat
    | exception Not_found ->
      Error
        (`Msg
          (Printf.sprintf "unknown view %S; valid names: %s" s
             (String.concat ", " (List.map fst Xmark_views.all))))
  in
  Arg.conv (parse, fun ppf pat -> Format.pp_print_string ppf pat.Pattern.name)

let resolve_view ~name ~query =
  match (name, query) with
  | Some pat, None -> pat
  | None, Some q -> View_parser.parse ~name:"cli" q
  | _ -> invalid_arg "give exactly one of --name or --query"

(* {1 --metrics}

   Shared by every subcommand. [--metrics] enables the process-wide
   [Obs] registry for the whole run and dumps it afterwards — flat
   [key=value] lines by default, or a single JSON line with
   [--metrics=json] (always the last line of stdout, so pipelines can
   [tail -n 1] it). *)

let metrics_term =
  let fmt = Arg.enum [ ("flat", `Flat); ("json", `Json) ] in
  Arg.(
    value
    & opt ~vopt:(Some `Flat) (some fmt) None
    & info [ "metrics" ] ~docv:"FMT"
        ~doc:
          "Collect operator-level metrics during the run and print the \
           registry afterwards; $(docv) is $(b,flat) (default) or $(b,json).")

let with_metrics metrics f =
  match metrics with
  | None -> f ()
  | Some fmt ->
    Obs.set_enabled true;
    let dump () =
      match fmt with
      | `Json -> print_endline (Obs.to_json ())
      | `Flat -> print_string (Obs.dump_kv ())
    in
    Fun.protect ~finally:dump f

(* {1 gen} *)

let gen_cmd =
  let run metrics size_kb seed skewed zipf_alpha hot_share value_alpha output =
    with_metrics metrics @@ fun () ->
    let doc =
      if skewed || zipf_alpha <> None || hot_share <> None || value_alpha <> None
      then begin
        let d = Xmark_gen.default_skew in
        let skew =
          {
            Xmark_gen.zipf_alpha =
              Option.value zipf_alpha ~default:d.Xmark_gen.zipf_alpha;
            hot_share = Option.value hot_share ~default:d.Xmark_gen.hot_share;
            value_alpha =
              Option.value value_alpha ~default:d.Xmark_gen.value_alpha;
          }
        in
        Xmark_gen.document_skewed ~skew ~seed ~target_kb:size_kb ()
      end
      else Xmark_gen.document ~seed ~target_kb:size_kb
    in
    let text = Xml_tree.serialize ~decl:true doc in
    (match output with
    | None -> print_string text
    | Some path ->
      let oc = open_out_bin path in
      output_string oc text;
      close_out oc);
    Printf.eprintf "generated %d bytes\n" (String.length text)
  in
  let size =
    Arg.(value & opt int 100 & info [ "size-kb" ] ~doc:"Approximate size in KB.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let skewed =
    Arg.(
      value & flag
      & info [ "skewed" ]
          ~doc:
            "Generate a skewed document (Zipfian sibling fan-out, hot-label \
             concentration, skewed values) with the default skew knobs; any \
             explicit knob below implies this flag.")
  in
  let zipf_alpha =
    Arg.(
      value
      & opt (some float) None
      & info [ "zipf-alpha" ]
          ~doc:"Zipf exponent for sibling fan-out (default 1.1; higher = more skew).")
  in
  let hot_share =
    Arg.(
      value
      & opt (some float) None
      & info [ "hot-share" ]
          ~doc:
            "Fraction of the node budget concentrated under hot parents \
             (default 0.5).")
  in
  let value_alpha =
    Arg.(
      value
      & opt (some float) None
      & info [ "value-alpha" ]
          ~doc:"Zipf exponent for drawing text values (default 1.2).")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate an XMark-style auction document.")
    Term.(
      const run $ metrics_term $ size $ seed $ skewed $ zipf_alpha $ hot_share
      $ value_alpha $ output)

(* Parse→serialize→parse the raw document text and verify the second
   pass is the identity, reporting where ingestion would lose data. *)
let check_roundtrip_text text =
  let t = Xml_parse.document text in
  let s = Xml_tree.serialize t in
  let t' = Xml_parse.document s in
  if not (Xml_tree.equal t t') then begin
    prerr_endline "roundtrip: FAILED (reparse differs structurally)";
    exit 1
  end;
  let s' = Xml_tree.serialize t' in
  if s' <> s then begin
    prerr_endline "roundtrip: FAILED (serialization is not a fixpoint)";
    exit 1
  end;
  Printf.printf "roundtrip: ok (%d bytes in, %d canonical bytes, %d nodes)\n"
    (String.length text) (String.length s) (Xml_tree.size t)

(* {1 eval} *)

let eval_cmd =
  let run metrics doc path limit check_roundtrip =
    with_metrics metrics @@ fun () ->
    if check_roundtrip then check_roundtrip_text (read_file doc);
    let store = load_store doc in
    let hits = Update.select store (Xpath.parse path) in
    Printf.printf "%d nodes match %s\n" (List.length hits) path;
    List.iteri
      (fun i n ->
        if i < limit then
          Printf.printf "  %s  %s\n"
            (Dewey.to_string ~dict:(Store.dict store) (Store.id_of store n))
            (let s = Xml_tree.serialize n in
             if String.length s > 100 then String.sub s 0 100 ^ "…" else s))
      hits
  in
  let doc = Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC") in
  let path = Arg.(required & pos 1 (some string) None & info [] ~docv:"XPATH") in
  let limit =
    Arg.(value & opt int 10 & info [ "limit" ] ~doc:"Max nodes to print.")
  in
  let check_roundtrip =
    Arg.(
      value & flag
      & info [ "check-roundtrip" ]
          ~doc:
            "First verify that parse/serialize round-trips the document \
             without data loss (exit 1 otherwise).")
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Evaluate an XPath over a document.")
    Term.(const run $ metrics_term $ doc $ path $ limit $ check_roundtrip)

(* {1 view} *)

let print_view ~limit store mv =
  Printf.printf "%d tuples (%d embeddings)\n" (Mview.cardinality mv)
    (Mview.total_count mv);
  let dict = Store.dict store in
  List.iteri
    (fun i (_, count, cells) ->
      if i < limit then begin
        let cell (c : Mview.cell) =
          let id = Dewey.to_string ~dict c.Mview.cell_id in
          match (c.Mview.cell_value, c.Mview.cell_content) with
          | Some v, _ -> Printf.sprintf "%s=%S" id v
          | None, Some ct ->
            Printf.sprintf "%s cont=%s" id
              (if String.length ct > 40 then String.sub ct 0 40 ^ "…" else ct)
          | None, None -> id
        in
        Printf.printf "  [%d] %s\n" count
          (String.concat " " (Array.to_list (Array.map cell cells)))
      end)
    (Mview.dump mv)

let view_cmd =
  let run metrics doc vname vquery limit save load =
    with_metrics metrics @@ fun () ->
    let store = load_store doc in
    let pat = resolve_view ~name:vname ~query:vquery in
    Printf.printf "view: %s\n" (Pattern.to_string pat);
    let mv, t =
      Timing.duration (fun () ->
          match load with
          | Some path -> Mview_codec.load_from_file store pat path
          | None -> Mview.materialize store pat)
    in
    Printf.printf "%s in %.1f ms; "
      (match load with Some _ -> "loaded" | None -> "materialized")
      (t *. 1000.);
    print_view ~limit store mv;
    match save with
    | Some path ->
      Mview_codec.save_to_file mv path;
      Printf.printf "saved to %s\n" path
    | None -> ()
  in
  let doc = Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC") in
  let vname =
    Arg.(value & opt (some view_name) None & info [ "name" ] ~doc:"Built-in view (Q1…Q17).")
  in
  let vquery =
    Arg.(value & opt (some string) None & info [ "query" ] ~doc:"View statement.")
  in
  let limit = Arg.(value & opt int 10 & info [ "limit" ] ~doc:"Max tuples to print.") in
  let save =
    Arg.(value & opt (some string) None & info [ "save" ] ~doc:"Persist the view to a file.")
  in
  let load =
    Arg.(value & opt (some file) None & info [ "load" ] ~doc:"Load the view from a file instead of evaluating.")
  in
  Cmd.v
    (Cmd.info "view" ~doc:"Materialize (or load) a view over a document.")
    Term.(const run $ metrics_term $ doc $ vname $ vquery $ limit $ save $ load)

(* {1 maintain} *)

let maintain_cmd =
  let run metrics doc vnames vqueries updates check =
    with_metrics metrics @@ fun () ->
    let store = load_store doc in
    let pats =
      vnames
      @ List.mapi
          (fun i q -> View_parser.parse ~name:(Printf.sprintf "cli%d" (i + 1)) q)
          vqueries
    in
    if pats = [] then invalid_arg "give at least one --name or --query";
    let set = View_set.create store in
    let mvs = List.map (fun pat -> View_set.add set pat) pats in
    List.iter
      (fun mv ->
        Printf.printf "view %s: %d tuples\n"
          (Pattern.to_string mv.Mview.pat)
          (Mview.cardinality mv))
      mvs;
    List.iter
      (fun text ->
        let stmt = Update.parse text in
        Printf.printf "%s\n" (Update.to_string stmt);
        let reports = View_set.update set stmt in
        List.iter
          (fun (mv, r) ->
            let b = r.Maint.timing in
            Printf.printf
              "  %-6s +%d -%d tuples, %d refreshed, %d/%d terms%s%s\n\
              \         find %.1f ms | delta %.1f ms | expr %.1f ms | exec %.1f ms | aux %.1f ms\n"
              mv.Mview.pat.Pattern.name r.Maint.embeddings_added
              r.Maint.embeddings_removed r.Maint.tuples_modified
              r.Maint.terms_surviving r.Maint.terms_developed
              (if r.Maint.fallback_recompute then " [fallback recompute]" else "")
              (if r.Maint.skipped_irrelevant then " [skipped: irrelevant]" else "")
              (b.Timing.find_target *. 1000.) (b.Timing.compute_delta *. 1000.)
              (b.Timing.get_expression *. 1000.) (b.Timing.execute *. 1000.)
              (b.Timing.update_aux *. 1000.))
          reports)
      updates;
    List.iter
      (fun mv ->
        Printf.printf "final view %s: %d tuples\n" mv.Mview.pat.Pattern.name
          (Mview.cardinality mv))
      mvs;
    if check then begin
      let consistent mv =
        let fresh = Mview.materialize ~policy:Mview.Leaves store mv.Mview.pat in
        let ok = Recompute.equal mv fresh in
        Printf.printf "view %s consistent with recomputation: %b\n"
          mv.Mview.pat.Pattern.name ok;
        ok
      in
      (* Check every view before failing, so the output names them all. *)
      if not (List.for_all Fun.id (List.map consistent mvs)) then exit 1
    end
  in
  let doc = Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC") in
  let vnames =
    Arg.(
      value & opt_all view_name []
      & info [ "name" ] ~doc:"Built-in view (Q1…Q17); repeatable.")
  in
  let vqueries =
    Arg.(
      value & opt_all string [] & info [ "query" ] ~doc:"View statement; repeatable.")
  in
  let updates =
    Arg.(
      value & opt_all string []
      & info [ "u"; "update" ]
          ~doc:"Update statement: 'delete PATH' or 'insert into PATH FRAGMENT'.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Verify every view against recomputation; exit 1 if any view \
             differs.")
  in
  Cmd.v
    (Cmd.info "maintain"
       ~doc:
         "Apply updates and maintain one or more views incrementally (batch \
          engine: shared update-region index, relevance skipping).")
    Term.(
      const run $ metrics_term $ doc $ vnames $ vqueries $ updates $ check)

(* {1 fuzz} *)

let fuzz_cmd =
  let run metrics seed trees codec wal =
    with_metrics metrics @@ fun () ->
    Printf.printf "fuzzing the ingestion & persistence boundary (seed %d)\n%!" seed;
    let rt, t_rt =
      Timing.duration (fun () -> Fuzz_oracle.roundtrip_trees ~seed ~count:trees)
    in
    Printf.printf "  %s  (%.1f ms)\n%!"
      (Fuzz_oracle.summary "parse∘serialize=id" rt)
      (t_rt *. 1000.);
    let cc, t_cc =
      Timing.duration (fun () -> Fuzz_oracle.codec_corrupt ~seed ~count:codec)
    in
    Printf.printf "  %s  (%.1f ms)\n%!"
      (Fuzz_oracle.summary "codec corrupt-or-correct" cc)
      (t_cc *. 1000.);
    let wc, t_wc =
      Timing.duration (fun () -> Fuzz_oracle.wal_corrupt ~seed ~count:wal)
    in
    Printf.printf "  %s  (%.1f ms)\n%!"
      (Fuzz_oracle.summary "wal corrupt-or-correct" wc)
      (t_wc *. 1000.);
    if not (Fuzz_oracle.ok rt && Fuzz_oracle.ok cc && Fuzz_oracle.ok wc) then
      exit 1
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let trees =
    Arg.(
      value & opt int 10000
      & info [ "trees" ] ~doc:"Randomized trees for the round-trip property.")
  in
  let codec =
    Arg.(
      value & opt int 10000
      & info [ "codec" ]
          ~doc:"Random/mutated byte inputs for the view-codec property.")
  in
  let wal =
    Arg.(
      value & opt int 2000
      & info [ "wal" ]
          ~doc:
            "Torn/truncated/bit-flipped/checksum-forged write-ahead-log \
             images for the WAL scanner property.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Run the round-trip fuzzing oracle: parse/serialize identity over \
          random trees, Corrupt-or-correct over mutated view images, and \
          scanner robustness over damaged write-ahead-log images. Exits 1 on \
          any failure.")
    Term.(const run $ metrics_term $ seed $ trees $ codec $ wal)

(* {1 difftest} *)

(* What each property compares, and the equality a clean run reports. *)
let property_claim = function
  | Difftest.Engines -> ("recompute vs maint vs ivma", "maint=recompute=ivma")
  | Batch ->
    ("View_set.update vs one-by-one maint", "batched=one-by-one")
  | Serve ->
    ("snapshots a racing reader observes vs sequential replay", "observed=replayed")
  | Recover ->
    ("checkpoint + WAL replay vs uninterrupted run", "recovered=uninterrupted")
  | Answer ->
    ( "Answer.answer vs brute-force embeddings, before and after maintenance",
      "views=base" )
  | Heavy ->
    ( "adaptive (deferred, partitioned) maintenance vs eager at every read point",
      "adaptive=eager" )

let difftest_cmd =
  let run metrics seed iters replay property =
    with_metrics metrics @@ fun () ->
    let name p = fst (List.find (fun (_, q) -> q = p) Difftest.properties) in
    match replay with
    | Some repro ->
      let s =
        try Difftest.of_repro repro
        with Invalid_argument msg ->
          Printf.eprintf "difftest: %s\n" msg;
          exit 2
      in
      let prop = s.Difftest.prop in
      (match property with
      | Some p when p <> prop ->
        Printf.eprintf "difftest: --property %s disagrees with the reproducer's %s\n"
          (name p) (name prop);
        exit 2
      | _ -> ());
      Printf.printf
        "replaying %s scenario: %d view(s), %d statement(s), %d-node document\n%!"
        (name prop) (List.length s.Difftest.views) (List.length s.Difftest.stmts)
        (Xml_tree.size s.Difftest.doc);
      (match Difftest.check s with
      | None -> Printf.printf "%s holds\n" (snd (property_claim prop))
      | Some f ->
        print_endline (Difftest.describe f);
        exit 1)
    | None ->
      let prop = Option.value property ~default:Difftest.Engines in
      let what, claim = property_claim prop in
      Printf.printf "%s oracle: %s (seed %d, %d iterations)\n%!" (name prop) what seed
        iters;
      let rep, t =
        Timing.duration (fun () -> Difftest.run prop ~seed ~iters ())
      in
      List.iter print_endline rep.Qgen.failures;
      Printf.printf "  %s  (%.1f ms)\n%!" (Qgen.summary claim rep) (t *. 1000.);
      if not (Qgen.ok rep) then exit 1
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let iters =
    Arg.(
      value & opt int 2000
      & info [ "iters" ] ~doc:"Random scenarios to check.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ]
          ~doc:
            "Re-check one reproducer (the xvmdt2 string a failure report \
             prints) instead of running randomized iterations; it names its \
             own property.")
  in
  let property =
    Arg.(
      value
      & opt (some (enum Difftest.properties)) None
      & info [ "property" ] ~docv:"PROP"
          ~doc:
            "The claim to check (default $(b,engines)): $(b,engines) — maint \
             and ivma equal recompute; $(b,batch) — one View_set.update over \
             2-4 views equals one-by-one propagation on fresh stores; \
             $(b,serve) — every epoch a concurrent reader \
             observes equals a sequential replay; $(b,recover) — a run killed \
             at a seeded statement boundary and recovered from checkpoint + \
             write-ahead log equals an uninterrupted run; $(b,answer) — \
             queries answered from the view set equal brute-force embeddings, \
             before and after maintenance; $(b,heavy) — adaptive heavy-light \
             maintenance under tiny thresholds equals eager at every read \
             point. With $(b,--replay), it must match the reproducer's \
             property (exit 2 otherwise).")
  in
  Cmd.v
    (Cmd.info "difftest"
       ~doc:
         "Check one differential property on random scenarios (document, \
          views, statements and the property's own fields) against an \
          independent reference; failing scenarios are shrunk and printed \
          as replayable reproducers. Exits 1 on any failure, 2 on a \
          malformed reproducer.")
    Term.(const run $ metrics_term $ seed $ iters $ replay $ property)

(* {1 answer} *)

(* A query argument is a built-in view name (Q1…Q17), a view statement
   (View_parser dialect), or a compact pattern (Pattern.to_string
   syntax) — tried in that order. *)
let parse_query ~name s =
  match Xmark_views.find s with
  | pat -> Pattern.rename pat name
  | exception _ -> (
    match View_parser.parse ~name s with
    | pat -> pat
    | exception _ -> Difftest.view_of_compact ~name s)

let answer_cmd =
  let run metrics doc gen_kb seed vnames vqueries query update check limit =
    with_metrics metrics @@ fun () ->
    let root =
      match doc with
      | Some path -> Xml_parse.document (read_file path)
      | None -> Xmark_gen.document ~seed ~target_kb:gen_kb
    in
    let store = Store.of_document root in
    let pats =
      vnames
      @ List.mapi
          (fun i q -> parse_query ~name:(Printf.sprintf "cli%d" (i + 1)) q)
          vqueries
    in
    let pats = if pats = [] then [ Xmark_views.q1 ] else pats in
    let set = View_set.create store in
    List.iter (fun pat -> ignore (View_set.add set pat)) pats;
    let q = parse_query ~name:"query" query in
    let dict = Store.dict store in
    let show_answer () =
      let sources = List.map Answer.source_of_mview (View_set.views set) in
      match Answer.answer ~store ~sources q with
      | None -> assert false (* a store is at hand: fallback always runs *)
      | Some (plan, rows) ->
        let total = List.fold_left (fun a r -> a + r.Answer.count) 0 rows in
        Printf.printf "plan: %s\n%d tuple(s), %d embedding(s)\n"
          (Answer.describe plan) (List.length rows) total;
        List.iteri
          (fun i r ->
            if i < limit then print_endline ("  " ^ Answer.row_to_string ~dict r))
          rows;
        if List.length rows > limit then
          Printf.printf "  … %d more (raise --limit)\n" (List.length rows - limit);
        if check then begin
          match Answer.diff ~expect:(Answer.base_rows store q) ~got:rows with
          | None -> print_endline "check: views = base recomputation"
          | Some d ->
            Printf.printf "check FAILED: %s\n" d;
            exit 1
        end
    in
    show_answer ();
    match update with
    | None -> ()
    | Some stmt ->
      (* Apply one statement, report which views the relevance skip
         discharged, and re-answer. *)
      let reports = View_set.update set (Update.parse stmt) in
      let skipped =
        List.filter (fun (_, r) -> r.Maint.skipped_irrelevant) reports
      in
      Printf.printf "\napplied %s: %d/%d view(s) skipped (irrelevant) (%s)\n"
        stmt (List.length skipped) (List.length reports)
        (match skipped with
        | [] -> "none skipped"
        | l ->
          String.concat ", "
            (List.map (fun (mv, _) -> mv.Mview.pat.Pattern.name) l));
      show_answer ()
  in
  let query =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"QUERY"
          ~doc:
            "Query to answer: a built-in view name (Q1…Q17), a view \
             statement, or a compact pattern.")
  in
  let doc =
    Arg.(
      value & opt (some file) None
      & info [ "doc" ] ~docv:"FILE"
          ~doc:"Document; omitted, one is generated ($(b,--gen-kb)).")
  in
  let gen_kb =
    Arg.(
      value & opt int 64
      & info [ "gen-kb" ]
          ~doc:"Without $(b,--doc), generate an XMark document of this size (KB).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Generator seed.") in
  let vnames =
    Arg.(
      value & opt_all view_name []
      & info [ "name" ]
          ~doc:"Built-in view (Q1…Q17) to materialize; repeatable. Default Q1.")
  in
  let vqueries =
    Arg.(
      value & opt_all string []
      & info [ "view" ] ~doc:"View statement to materialize; repeatable.")
  in
  let update =
    Arg.(
      value & opt (some string) None
      & info [ "update" ] ~docv:"STMT"
          ~doc:
            "After answering, apply this update statement through the view \
             set, report which views the relevance skip left untouched, and \
             answer again.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Cross-check every answer against base-document recomputation; \
             exit 1 on any discrepancy.")
  in
  let limit =
    Arg.(value & opt int 20 & info [ "limit" ] ~doc:"Tuples to print.")
  in
  Cmd.v
    (Cmd.info "answer"
       ~doc:
         "Answer a fresh tree-pattern query from materialized views — a \
          single view with residual compensations, the intersection of two \
          views joined on a shared node, or base-document recomputation \
          when no rewriting exists.")
    Term.(
      const run $ metrics_term $ doc $ gen_kb $ seed $ vnames $ vqueries
      $ query $ update $ check $ limit)

(* {1 serve} *)

(* Shared by serve/bench-serve: a document from a file or the XMark
   generator, and a view set over it. *)
let serve_set ~doc ~gen_kb ~seed ~vnames ~vqueries =
  let root =
    match doc with
    | Some path -> Xml_parse.document (read_file path)
    | None -> Xmark_gen.document ~seed ~target_kb:gen_kb
  in
  let store = Store.of_document root in
  let pats =
    vnames
    @ List.mapi
        (fun i q -> View_parser.parse ~name:(Printf.sprintf "cli%d" (i + 1)) q)
        vqueries
  in
  let pats = if pats = [] then [ Xmark_views.q1 ] else pats in
  let set = View_set.create store in
  List.iter (fun pat -> ignore (View_set.add set pat)) pats;
  set

let start_endpoint server port =
  let ep = Metrics_http.start ~port (fun () -> Server.prometheus server) in
  Printf.eprintf "metrics endpoint: http://127.0.0.1:%d/metrics\n%!"
    (Metrics_http.port ep);
  ep

let serve_cmd =
  let run metrics doc gen_kb seed vnames vqueries max_batch port wal =
    with_metrics metrics @@ fun () ->
    (* With --wal, an existing manifest wins over the command-line
       document/view flags: the directory IS the state, and startup is a
       recovery. A fresh directory is initialized from the flags. *)
    let set, durable =
      match wal with
      | None -> (serve_set ~doc ~gen_kb ~seed ~vnames ~vqueries, None)
      | Some dir -> (
        let parse_pattern ~name s = Difftest.view_of_compact ~name s in
        match Durable.recover ~dir ~parse_pattern () with
        | Some o ->
          Printf.eprintf
            "recovered from %s: checkpoint %d, %d statement(s) replayed%s%s\n%!"
            dir o.Durable.ck_seq o.Durable.replayed
            (match o.Durable.rebuilt_views with
            | [] -> ""
            | vs -> Printf.sprintf ", %d view image(s) rebuilt" (List.length vs))
            (match o.Durable.truncated with
            | [] -> ""
            | ts ->
              String.concat ""
                (List.map
                   (fun (f, d) ->
                     Printf.sprintf "\n  truncated %s: %s" f
                       (Wal.damage_to_string d))
                   ts));
          (o.Durable.set, Some o.Durable.engine)
        | None ->
          let set = serve_set ~doc ~gen_kb ~seed ~vnames ~vqueries in
          Printf.eprintf "initialized durability in %s\n%!" dir;
          (set, Some (Durable.init ~dir set)))
    in
    let server = Server.create ~max_batch ?durable set in
    let endpoint = Option.map (start_endpoint server) port in
    let s0 = Server.snapshot server in
    Printf.eprintf
      "serving %d view(s) over %d nodes; statements on stdin (also: query \
       NAME | epoch | metrics%s | quit)\n\
       %!"
      (Array.length s0.Snapshot.views)
      s0.Snapshot.node_count
      (if durable <> None then " | checkpoint" else "");
    (* The console runs on its own domain: it only submits to the
       admission queue and reads published snapshots. The main domain —
       the store's writer — runs the serving loop. *)
    let console =
      Domain.spawn (fun () ->
          let rec loop () =
            match In_channel.input_line In_channel.stdin with
            | None -> Server.stop server
            | Some line -> (
              match String.trim line with
              | "" -> loop ()
              | "quit" | "exit" -> Server.stop server
              | "epoch" ->
                let s = Server.snapshot server in
                Printf.printf "epoch %d; %d applied; %d pending%s\n%!"
                  s.Snapshot.epoch s.Snapshot.applied (Server.pending server)
                  (if durable = None then ""
                   else Printf.sprintf "; durable seq %d" (Server.durable_seq server));
                loop ()
              | "checkpoint" ->
                if durable = None then
                  Printf.printf "no --wal directory: nothing to checkpoint\n%!"
                else begin
                  Server.request_checkpoint server;
                  Printf.printf "checkpoint requested\n%!"
                end;
                loop ()
              | "metrics" ->
                print_string (Server.prometheus server);
                flush stdout;
                loop ()
              | line when String.length line > 6 && String.sub line 0 6 = "query "
                ->
                let name = String.trim (String.sub line 6 (String.length line - 6)) in
                let s = Server.snapshot server in
                (match Snapshot.find_view s name with
                | Some v ->
                  Printf.printf
                    "view %s @ epoch %d: %d tuples, %d embeddings\n%!" name
                    s.Snapshot.epoch (Snapshot.cardinality v) v.Snapshot.v_total
                | None -> (
                  (* Not a view name: a fresh query, answered from the
                     snapshot's immutable view images — never the live
                     store, so this is safe on the console domain and
                     reads one consistent epoch. *)
                  match parse_query ~name:"query" name with
                  | exception _ ->
                    Printf.printf
                      "no view %S at epoch %d (and not a parseable query)\n%!"
                      name s.Snapshot.epoch
                  | q -> (
                    let sources =
                      Array.to_list s.Snapshot.views
                      |> List.map (fun v ->
                             Answer.source ~name:v.Snapshot.v_name
                               (Difftest.view_of_compact ~name:v.Snapshot.v_name
                                  v.Snapshot.v_pattern)
                               (fun () ->
                                 Array.to_list v.Snapshot.v_tuples
                                 |> List.map (fun t ->
                                        {
                                          Answer.count = t.Snapshot.t_count;
                                          cells = t.Snapshot.t_cells;
                                        })))
                    in
                    match Answer.answer ~sources q with
                    | None ->
                      Printf.printf
                        "no rewriting from the materialized views at epoch \
                         %d (base fallback is not available on a reader)\n%!"
                        s.Snapshot.epoch
                    | Some (plan, rows) ->
                      let total =
                        List.fold_left (fun a r -> a + r.Answer.count) 0 rows
                      in
                      Printf.printf
                        "%s @ epoch %d: %d tuples, %d embeddings\n"
                        (Answer.describe plan) s.Snapshot.epoch
                        (List.length rows) total;
                      List.iteri
                        (fun i r ->
                          if i < 10 then
                            print_endline ("  " ^ Answer.row_to_string r))
                        rows;
                      if List.length rows > 10 then
                        Printf.printf "  … %d more\n" (List.length rows - 10);
                      flush stdout)));
                loop ()
              | line ->
                let stmt =
                  if String.length line > 7 && String.sub line 0 7 = "update " then
                    String.sub line 7 (String.length line - 7)
                  else line
                in
                (match Update.parse stmt with
                | exception e ->
                  Printf.printf "parse error: %s\n%!" (Printexc.to_string e)
                | u ->
                  if Server.submit server u then
                    Printf.printf "queued (%d pending)\n%!" (Server.pending server)
                  else Printf.printf "rejected: server is stopping\n%!");
                loop ())
          in
          loop ())
    in
    Server.run server;
    Domain.join console;
    Option.iter Metrics_http.stop endpoint;
    Option.iter Durable.close durable;
    let s = Server.snapshot server in
    Printf.printf "served %d epoch(s), %d statement(s) applied%s\n"
      s.Snapshot.epoch s.Snapshot.applied
      (if durable = None then ""
       else Printf.sprintf ", durable through seq %d" (Server.durable_seq server))
  in
  let doc =
    Arg.(
      value & pos 0 (some file) None
      & info [] ~docv:"DOC"
          ~doc:"Document to serve; omitted, one is generated ($(b,--gen-kb)).")
  in
  let gen_kb =
    Arg.(
      value & opt int 64
      & info [ "gen-kb" ]
          ~doc:"Without $(docv), generate an XMark document of this size (KB).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Generator seed.") in
  let vnames =
    Arg.(
      value & opt_all view_name []
      & info [ "name" ] ~doc:"Built-in view (Q1…Q17); repeatable. Default Q1.")
  in
  let vqueries =
    Arg.(
      value & opt_all string [] & info [ "query" ] ~doc:"View statement; repeatable.")
  in
  let max_batch =
    Arg.(
      value & opt pos_int 64
      & info [ "max-batch" ]
          ~doc:"Maximum statements coalesced into one published epoch.")
  in
  let port =
    Arg.(
      value & opt (some int) None
      & info [ "port" ]
          ~doc:"Serve Prometheus metrics on this TCP port (0 = ephemeral).")
  in
  let wal =
    Arg.(
      value & opt (some string) None
      & info [ "wal" ] ~docv:"DIR"
          ~doc:
            "Durability directory: journal every admitted statement to a \
             write-ahead log before applying it (a batch is acknowledged \
             only after its records are fsynced), and on startup recover \
             automatically from the directory's last checkpoint plus log — \
             an existing $(docv) overrides the document/view flags. The \
             $(b,checkpoint) console command persists the current state and \
             truncates the log.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the view set as a long-lived server: update statements read \
          from stdin are admitted into a pending queue and coalesced into \
          batched maintenance passes, while queries are answered from \
          epoch-tagged immutable snapshots — readers never block on the \
          store commit. With $(b,--port), expose Prometheus metrics over \
          HTTP; with $(b,--wal), journal statements durably and recover on \
          restart.")
    Term.(
      const run $ metrics_term $ doc $ gen_kb $ seed $ vnames $ vqueries
      $ max_batch $ port $ wal)

(* {1 bench-serve} *)

let bench_serve_cmd =
  let run metrics gen_kb seed vnames vqueries readers duration write_rate
      closed_loop max_batch port prom_out json =
    with_metrics metrics @@ fun () ->
    let set = serve_set ~doc:None ~gen_kb ~seed ~vnames ~vqueries in
    let endpoint = ref None in
    let on_server server =
      match (port, prom_out) with
      | None, None -> ()
      | _ ->
        endpoint := Some (start_endpoint server (Option.value ~default:0 port))
    in
    let config =
      {
        Load.readers;
        duration;
        write_rate;
        closed_loop;
        max_batch;
        seed;
      }
    in
    let r = Load.run ~on_server config set ~gen:Xmark_mix.statement in
    (* Self-scrape over real TCP after the run: the endpoint serves the
       final published snapshot and counters. *)
    (match (!endpoint, prom_out) with
    | Some ep, Some file ->
      let code, body = Metrics_http.get ~port:(Metrics_http.port ep) "/metrics" in
      if code <> 200 then Printf.eprintf "self-scrape failed: HTTP %d\n" code
      else begin
        let oc = open_out_bin file in
        output_string oc body;
        close_out oc;
        Printf.eprintf "wrote %d bytes of metrics to %s\n" (String.length body)
          file
      end
    | _ -> ());
    Option.iter Metrics_http.stop !endpoint;
    let lat_fields l =
      match l with
      | None -> []
      | Some l ->
        [
          ("p50_ms", l.Load.p50);
          ("p95_ms", l.Load.p95);
          ("p99_ms", l.Load.p99);
          ("mean_ms", l.Load.mean);
          ("max_ms", l.Load.max);
        ]
    in
    if json then begin
      let b = Buffer.create 256 in
      Buffer.add_char b '{';
      let first = ref true in
      let field k v =
        if not !first then Buffer.add_char b ',';
        first := false;
        Buffer.add_string b (Printf.sprintf "%S:%s" k v)
      in
      field "wall_s" (Printf.sprintf "%.3f" r.Load.wall_s);
      field "epochs" (string_of_int r.Load.epochs);
      field "reads" (string_of_int r.Load.reads);
      field "read_rps" (Printf.sprintf "%.1f" r.Load.read_rps);
      List.iter
        (fun (k, v) -> field ("read_" ^ k) (Printf.sprintf "%.4f" v))
        (lat_fields r.Load.read_ms);
      field "writes_submitted" (string_of_int r.Load.writes_submitted);
      field "writes_rejected" (string_of_int r.Load.writes_rejected);
      field "writes_applied" (string_of_int r.Load.writes_applied);
      List.iter
        (fun (k, v) -> field ("write_visible_" ^ k) (Printf.sprintf "%.4f" v))
        (lat_fields r.Load.write_visible_ms);
      field "max_batch_fill" (string_of_int r.Load.max_batch_fill);
      Buffer.add_char b '}';
      print_endline (Buffer.contents b)
    end
    else begin
      Printf.printf
        "serve bench: %.2f s wall, %d epoch(s), %d reader(s), %s writer\n"
        r.Load.wall_s r.Load.epochs readers
        (if closed_loop then "closed-loop"
         else if write_rate > 0. then Printf.sprintf "%.0f/s open-loop" write_rate
         else "no");
      Printf.printf "  reads: %d (%.0f/s)\n" r.Load.reads r.Load.read_rps;
      (match r.Load.read_ms with
      | Some l ->
        Printf.printf
          "  read latency: p50 %.4f ms | p95 %.4f ms | p99 %.4f ms | mean \
           %.4f ms | max %.2f ms\n"
          l.Load.p50 l.Load.p95 l.Load.p99 l.Load.mean l.Load.max
      | None -> ());
      Printf.printf
        "  writes: %d submitted, %d applied, %d rejected at admission, max \
         batch fill %d\n"
        r.Load.writes_submitted r.Load.writes_applied r.Load.writes_rejected
        r.Load.max_batch_fill;
      match r.Load.write_visible_ms with
      | Some l ->
        Printf.printf
          "  write visibility: p50 %.3f ms | p95 %.3f ms | p99 %.3f ms | max \
           %.2f ms\n"
          l.Load.p50 l.Load.p95 l.Load.p99 l.Load.max
      | None -> ()
    end;
    (* Rejection at admission (the post-stop shutdown race) is counted
       apart; an admitted statement that never applied was lost. *)
    if r.Load.writes_applied <> r.Load.writes_submitted then begin
      Printf.eprintf
        "bench-serve: %d admitted statement(s) lost in flight (%d rejected at \
         admission)\n"
        (r.Load.writes_submitted - r.Load.writes_applied)
        r.Load.writes_rejected;
      exit 1
    end
  in
  let gen_kb =
    Arg.(
      value & opt int 64
      & info [ "gen-kb" ] ~doc:"XMark document size to generate (KB).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let vnames =
    Arg.(
      value & opt_all view_name []
      & info [ "name" ] ~doc:"Built-in view (Q1…Q17); repeatable. Default Q1.")
  in
  let vqueries =
    Arg.(
      value & opt_all string [] & info [ "query" ] ~doc:"View statement; repeatable.")
  in
  let readers =
    Arg.(
      value & opt int 2
      & info [ "readers" ] ~doc:"Concurrent reader domains.")
  in
  let duration =
    Arg.(
      value & opt float 2.0
      & info [ "duration" ] ~doc:"Wall-clock seconds of load.")
  in
  let write_rate =
    Arg.(
      value & opt float 50.0
      & info [ "write-rate" ]
          ~doc:
            "Open-loop statement arrival rate (statements/second); 0 disables \
             the writer.")
  in
  let closed_loop =
    Arg.(
      value & flag
      & info [ "closed-loop" ]
          ~doc:
            "Closed-loop writer: submit the next statement only once the \
             previous one is visible in a published snapshot (overrides \
             $(b,--write-rate) pacing).")
  in
  let max_batch =
    Arg.(
      value & opt pos_int 64
      & info [ "max-batch" ]
          ~doc:"Maximum statements coalesced into one published epoch.")
  in
  let port =
    Arg.(
      value & opt (some int) None
      & info [ "port" ]
          ~doc:"Expose Prometheus metrics during the run (0 = ephemeral).")
  in
  let prom_out =
    Arg.(
      value & opt (some string) None
      & info [ "prom-out" ]
          ~doc:
            "After the run, scrape the run's own metrics endpoint over TCP \
             and write the Prometheus exposition to $(docv).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the report as one JSON line.")
  in
  Cmd.v
    (Cmd.info "bench-serve"
       ~doc:
         "pgbench-style load driver for the serving loop: reader domains \
          answering snapshot queries, an open- or closed-loop writer feeding \
          the bounded XMark update mix, throughput and p50/p95/p99 latency \
          reporting, and an optional Prometheus self-scrape. Exits 1 if an \
          admitted statement was never applied.")
    Term.(
      const run $ metrics_term $ gen_kb $ seed $ vnames $ vqueries $ readers
      $ duration $ write_rate $ closed_loop $ max_batch $ port $ prom_out
      $ json)

(* {1 workload} *)

let workload_cmd =
  let run metrics () =
    with_metrics metrics @@ fun () ->
    Printf.printf "views:\n";
    List.iter
      (fun (n, p) -> Printf.printf "  %-4s %s\n" n (Pattern.to_string p))
      Xmark_views.all;
    Printf.printf "updates:\n";
    List.iter
      (fun u ->
        Printf.printf "  %-7s (%-2s) %s\n" u.Xmark_updates.name u.Xmark_updates.cls
          u.Xmark_updates.path)
      Xmark_updates.all
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:
         "List the built-in benchmark views and updates.")
    Term.(const run $ metrics_term $ const ())

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info = Cmd.info "xvmcli" ~doc:"Algebraic XML view maintenance toolbox." in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            gen_cmd;
            eval_cmd;
            view_cmd;
            maintain_cmd;
            answer_cmd;
            serve_cmd;
            bench_serve_cmd;
            workload_cmd;
            fuzz_cmd;
            difftest_cmd;
          ]))
