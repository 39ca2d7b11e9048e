(* Tests for the observability layer itself: counters, timers, the
   disabled fast path, scope snapshots and the export formats. Every
   test runs against the process-wide registry, so each uses its own
   scope names and restores the enabled flag. *)

let scope = Obs.Scope.v "test.obs"
let c_hits = Obs.Scope.counter scope "hits"
let t_work = Obs.Scope.timer scope "work"

let with_enabled b f =
  let prev = Obs.enabled () in
  Obs.set_enabled b;
  Fun.protect ~finally:(fun () -> Obs.set_enabled prev) f

let test_counter_basics () =
  with_enabled true @@ fun () ->
  let before = Obs.Counter.value c_hits in
  Obs.Counter.incr c_hits;
  Obs.Counter.add c_hits 41;
  Alcotest.(check int) "incr + add" (before + 42) (Obs.Counter.value c_hits);
  Alcotest.(check string) "full key" "test.obs.hits" (Obs.Counter.key c_hits)

let test_disabled_is_inert () =
  with_enabled false @@ fun () ->
  let c = Obs.Counter.value c_hits and s = Obs.Timer.seconds t_work in
  Obs.Counter.incr c_hits;
  Obs.Counter.add c_hits 7;
  Obs.Timer.add_span t_work 1.0;
  let x = Obs.Timer.time t_work (fun () -> 42) in
  Alcotest.(check int) "timed thunk still runs" 42 x;
  Alcotest.(check int) "counter unchanged when disabled" c
    (Obs.Counter.value c_hits);
  Alcotest.(check (float 0.0)) "timer unchanged when disabled" s
    (Obs.Timer.seconds t_work)

let test_timer_accumulates () =
  with_enabled true @@ fun () ->
  let spans = Obs.Timer.spans t_work in
  Obs.Timer.add_span t_work 0.25;
  Obs.Timer.add_span t_work 0.75;
  Alcotest.(check int) "two more spans" (spans + 2) (Obs.Timer.spans t_work);
  Alcotest.(check bool) "seconds monotone" true (Obs.Timer.seconds t_work >= 1.0)

let test_with_scope_diff_and_restore () =
  Obs.set_enabled false;
  let (), snap =
    Obs.with_scope (fun () ->
        Obs.Counter.add c_hits 3;
        let (), inner =
          Obs.with_scope (fun () -> Obs.Counter.add c_hits 2)
        in
        Alcotest.(check int) "inner scope sees only its own increments" 2
          (Obs.counter_value inner "test.obs.hits"))
  in
  Alcotest.(check int) "outer scope sees both" 5
    (Obs.counter_value snap "test.obs.hits");
  Alcotest.(check bool) "flag restored after with_scope" false (Obs.enabled ());
  Alcotest.(check int) "absent key reads as zero" 0
    (Obs.counter_value snap "no.such.counter")

let test_with_scope_restores_on_exception () =
  Obs.set_enabled false;
  (try ignore (Obs.with_scope (fun () -> failwith "boom")) with Failure _ -> ());
  Alcotest.(check bool) "flag restored after an exception" false (Obs.enabled ())

(* Cells count on the main domain only: a spawned domain's increments
   and spans are dropped, not raced into the cells and not raised on. *)
let d_scope = Obs.Scope.v "test.obs.domains"
let c_ticks = Obs.Scope.counter d_scope "ticks"
let t_spans = Obs.Scope.timer d_scope "spans"

let test_other_domains_ignored () =
  let (), snap =
    Obs.with_scope (fun () ->
        Domain.join
          (Domain.spawn (fun () ->
               Obs.Counter.incr c_ticks;
               Obs.Counter.add c_ticks 4;
               Obs.Timer.add_span t_spans 0.5;
               ignore (Obs.Timer.time t_spans (fun () -> ()))));
        Obs.Counter.incr c_ticks)
  in
  Alcotest.(check int) "only the main domain's increment counts" 1
    (Obs.counter_value snap "test.obs.domains.ticks");
  Alcotest.(check int) "no span from the spawned domain" 0
    (Obs.timer_spans snap "test.obs.domains.spans");
  Alcotest.(check (float 0.0)) "no seconds from the spawned domain" 0.
    (Obs.timer_seconds snap "test.obs.domains.spans")

let test_monotonic_now () =
  let rec loop i prev =
    if i = 0 then ()
    else
      let t = Obs.now () in
      Alcotest.(check bool) "now never goes backwards" true (t >= prev);
      loop (i - 1) t
  in
  loop 1000 (Obs.now ())

(* The clock must actually advance (it is a real monotonic source, not a
   constant passing the non-decreasing check) and measure a sleep with
   sane magnitude. *)
let test_clock_advances () =
  let t0 = Obs.now () in
  Unix.sleepf 0.02;
  let elapsed = Obs.now () -. t0 in
  Alcotest.(check bool) "sleep measured as > 5 ms" true (elapsed > 0.005);
  Alcotest.(check bool) "sleep measured as < 10 s" true (elapsed < 10.)

let contains haystack needle =
  let n = String.length needle and l = String.length haystack in
  let rec at i = i + n <= l && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

let test_prometheus_export () =
  Alcotest.(check string) "name sanitization" "a_b_c_d"
    (Obs.prometheus_name "a.b-c d");
  let ((), snap) =
    Obs.with_scope (fun () ->
        Obs.Counter.add c_hits 3;
        Obs.Timer.add_span t_work 0.25)
  in
  let prom = Obs.to_prometheus ~snapshot:snap () in
  List.iter
    (fun needle ->
      if not (contains prom needle) then
        Alcotest.failf "prometheus dump missing %S in:\n%s" needle prom)
    [
      "# TYPE xvm_test_obs_hits_total counter";
      "xvm_test_obs_hits_total 3\n";
      "xvm_test_obs_work_seconds_total 0.250000000\n";
      "xvm_test_obs_work_spans_total 1\n";
    ];
  (* Every non-comment line is "<name> <value>". *)
  List.iter
    (fun line ->
      if String.length line > 0 && line.[0] <> '#' then
        match String.split_on_char ' ' line with
        | [ name; value ] ->
          Alcotest.(check string) "metric name is sanitized" name
            (Obs.prometheus_name name);
          Alcotest.(check bool)
            (Printf.sprintf "value %S parses" value)
            true
            (float_of_string_opt value <> None)
        | _ -> Alcotest.failf "malformed exposition line %S" line)
    (String.split_on_char '\n' prom)

let test_export_formats () =
  let ((), snap) =
    Obs.with_scope (fun () ->
        Obs.Counter.add c_hits 9;
        Obs.Timer.add_span t_work 0.5)
  in
  let json = Obs.to_json ~snapshot:snap () in
  Alcotest.(check bool) "single line" false (String.contains json '\n');
  List.iter
    (fun needle ->
      if
        not
          (let n = String.length needle and l = String.length json in
           let rec at i = i + n <= l && (String.sub json i n = needle || at (i + 1)) in
           at 0)
      then Alcotest.failf "JSON dump missing %S in %s" needle json)
    [ "\"version\":1"; "\"test.obs\""; "\"hits\":9"; "\"work\""; "\"spans\":1" ];
  let kv = Obs.dump_kv ~snapshot:snap () in
  Alcotest.(check bool) "kv dump has the counter line" true
    (List.mem "test.obs.hits=9" (String.split_on_char '\n' kv));
  Alcotest.(check string) "kv digest of nonzero counters" "test.obs.hits=9"
    (Obs.kv_line snap)

let test_registry_listing () =
  let names = Obs.scopes () in
  Alcotest.(check bool) "registered scope listed" true
    (List.mem "test.obs" names);
  Alcotest.(check bool) "listing is sorted" true
    (names = List.sort compare names);
  (* create-or-find: same name yields the same cell *)
  let again = Obs.Scope.counter (Obs.Scope.v "test.obs") "hits" in
  with_enabled true @@ fun () ->
  let v = Obs.Counter.value c_hits in
  Obs.Counter.incr again;
  Alcotest.(check int) "same underlying cell" (v + 1) (Obs.Counter.value c_hits)

let test_stats_median () =
  Alcotest.(check (float 1e-9)) "odd length" 3.0
    (Obs.Stats.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "even length" 2.5
    (Obs.Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  let m = Obs.Stats.time_median ~repeats:3 ~iters:5 (fun () -> ()) in
  Alcotest.(check bool) "time_median non-negative" true (m >= 0.0)

let () =
  Alcotest.run "obs"
    [
      ( "cells",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "disabled path is inert" `Quick
            test_disabled_is_inert;
          Alcotest.test_case "timer accumulates" `Quick test_timer_accumulates;
          Alcotest.test_case "other domains' increments ignored" `Quick
            test_other_domains_ignored;
        ] );
      ( "scopes",
        [
          Alcotest.test_case "with_scope diffs and restores" `Quick
            test_with_scope_diff_and_restore;
          Alcotest.test_case "with_scope restores on exception" `Quick
            test_with_scope_restores_on_exception;
          Alcotest.test_case "registry listing" `Quick test_registry_listing;
        ] );
      ( "clock+export",
        [
          Alcotest.test_case "monotonic now" `Quick test_monotonic_now;
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "prometheus export" `Quick test_prometheus_export;
          Alcotest.test_case "export formats" `Quick test_export_formats;
          Alcotest.test_case "stats median" `Quick test_stats_median;
        ] );
    ]
