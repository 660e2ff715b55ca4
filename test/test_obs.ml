(* Observability subsystem: metrics registry, monotone clock, trace
   spans, rank correlation, the search journal exported from the trace,
   and the determinism contract (identical journal/counter content at
   jobs=1 and jobs=4). *)

module Clock = Tir_obs.Clock
module Metrics = Tir_obs.Metrics
module Trace = Tir_obs.Trace
module Stat = Tir_obs.Stat
module Journal = Tir_obs.Journal
module W = Tir_workloads.Workloads
module Tune = Tir_autosched.Tune

let gpu = Tir_sim.Target.gpu_tensorcore

(* --- clock --- *)

let test_clock_monotone () =
  let prev = ref (Clock.now_us ()) in
  for _ = 1 to 1000 do
    let t = Clock.now_us () in
    if t < !prev then Alcotest.fail "clock went backwards";
    prev := t
  done

(* --- metrics --- *)

let test_counter () =
  let c = Metrics.counter "test.obs.counter" in
  let before = Metrics.counter_value c in
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "incr + add" (before + 42) (Metrics.counter_value c);
  (* find-or-create returns the same underlying cells *)
  Metrics.incr (Metrics.counter "test.obs.counter");
  Alcotest.(check int) "shared handle" (before + 43) (Metrics.counter_value c)

let test_gauge () =
  let gg = Metrics.gauge "test.obs.gauge" in
  Metrics.set gg 2.5;
  Alcotest.(check (float 0.0)) "last write wins" 2.5 (Metrics.gauge_value gg);
  Metrics.set gg (-1.0);
  Alcotest.(check (float 0.0)) "overwritten" (-1.0) (Metrics.gauge_value gg)

let test_histogram () =
  let h = Metrics.histogram ~buckets:[| 1.0; 10.0; 100.0 |] "test.obs.hist" in
  List.iter (Metrics.observe h) [ 0.5; 5.0; 50.0; 500.0; 5.0 ];
  let snap = Metrics.snapshot () in
  let _, hs =
    List.find (fun (n, _) -> String.equal n "test.obs.hist") snap.Metrics.histograms
  in
  Alcotest.(check int) "total" 5 hs.Metrics.total;
  Alcotest.(check (array int)) "bucket counts" [| 1; 2; 1; 1 |] hs.Metrics.counts;
  Alcotest.(check int) "counts sum to total" hs.Metrics.total
    (Array.fold_left ( + ) 0 hs.Metrics.counts)

let test_kind_mismatch () =
  ignore (Metrics.counter "test.obs.kind");
  Alcotest.check_raises "counter reused as gauge"
    (Metrics.Kind_mismatch "test.obs.kind") (fun () ->
      ignore (Metrics.gauge "test.obs.kind"))

let test_reset_keeps_handles () =
  let c = Metrics.counter "test.obs.reset" in
  Metrics.add c 7;
  Metrics.reset ();
  Alcotest.(check int) "zeroed" 0 (Metrics.counter_value c);
  Metrics.incr c;
  Alcotest.(check int) "handle still live" 1 (Metrics.counter_value c)

(* --- spans --- *)

(* Record into a fresh trace; leave tracing off for the rest of the suite. *)
let traced f =
  Trace.enable ();
  Trace.reset ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
    f

let spans () = List.filter (fun e -> e.Trace.e_kind = Trace.Span) (Trace.events ())

let test_span_nesting () =
  traced @@ fun () ->
  let v =
    Trace.with_span "outer" (fun () ->
        Trace.with_span "inner" (fun () -> 42))
  in
  Alcotest.(check int) "value returned" 42 v;
  match List.sort (fun a b -> compare a.Trace.e_stack b.Trace.e_stack) (spans ()) with
  | [ outer; inner ] ->
      Alcotest.(check (list string)) "outer stack" [ "outer" ] outer.Trace.e_stack;
      Alcotest.(check (list string)) "inner nests in outer" [ "outer"; "inner" ]
        inner.Trace.e_stack;
      Alcotest.(check bool) "durations non-negative" true
        (outer.Trace.e_dur_us >= 0.0 && inner.Trace.e_dur_us >= 0.0);
      Alcotest.(check bool) "inner within outer" true
        (inner.Trace.e_dur_us <= outer.Trace.e_dur_us)
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_span_recorded_on_raise () =
  traced @@ fun () ->
  (try Trace.with_span "raising" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check (list (list string))) "span recorded despite raise"
    [ [ "raising" ] ]
    (List.map (fun e -> e.Trace.e_stack) (spans ()))

(* --- rank correlation --- *)

let test_spearman () =
  let check name expected pairs =
    Alcotest.(check (float 1e-9)) name expected (Stat.spearman pairs)
  in
  check "perfect" 1.0 [| (1.0, 10.0); (2.0, 20.0); (3.0, 30.0); (4.0, 40.0) |];
  check "inverse" (-1.0) [| (1.0, 40.0); (2.0, 30.0); (3.0, 20.0); (4.0, 10.0) |];
  check "degenerate: constant xs" 0.0 [| (5.0, 1.0); (5.0, 2.0); (5.0, 3.0) |];
  check "degenerate: too few points" 0.0 [| (1.0, 2.0) |];
  check "non-finite pairs dropped" 1.0
    [| (1.0, 10.0); (Float.nan, 0.0); (2.0, 20.0); (3.0, Float.infinity); (3.0, 30.0) |];
  (* ties get average ranks; still positively correlated *)
  let r = Stat.spearman [| (1.0, 10.0); (2.0, 10.0); (3.0, 30.0); (4.0, 40.0) |] in
  Alcotest.(check bool) "ties: 0 < r < 1" true (r > 0.0 && r < 1.0)

(* --- journal serialization --- *)

let adversarial = "a|b\"c\\d\ne%f,g=h\x01\x7fi"

let roundtrip_events =
  [
    Journal.Run_start
      { workload = adversarial; target = "gpu|x\"y"; seed = -3; trials = 0; jobs = 64 };
    Journal.Generation
      {
        gen = 2;
        proposed = 10;
        deduped = 3;
        invalid = 1;
        inapplicable = 4;
        memo_hits = 2;
        measured = 5;
        mutations = 6;
        crossovers = 1;
        accepted = 2;
        best_us = 123.456;
        rank_corr = -0.25;
      };
    Journal.Pair { gen = 0; predicted = -1.5e-9; measured_us = 7.25 };
    Journal.Span { name = adversarial; depth = 3; start_us = 1.0e12; dur_us = 0.5 };
    Journal.Counter { name = "sim.bytes.global"; value = max_int };
    Journal.Gauge { name = "costmodel.rank_corr"; value = -0.75 };
    Journal.Run_end { best_us = Float.nan; trials = 0; wall_us = 9.0 };
  ]

let event_eq a b =
  (* nan <> nan under (=); compare via the serialized form instead *)
  String.equal (Journal.to_line a) (Journal.to_line b)

let test_journal_roundtrip () =
  List.iter
    (fun ev ->
      let line = Journal.to_line ev in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %s" line)
        true
        (event_eq ev (Journal.of_line line));
      (* percent-escaping leaves no raw JSON escapes or control chars: one
         line per event, and the only '"' are field delimiters *)
      String.iter
        (fun c ->
          if c = '\n' || c = '\r' || Char.code c < 0x20 then
            Alcotest.fail "control character leaked into a journal line")
        line)
    roundtrip_events

(* The shared percent codec: each format's alphabet, byte for byte, and
   strict decoding. *)
let test_percent_codec () =
  let module P = Tir_core.Percent in
  Alcotest.(check string) "database alphabet" "a%25%7Cb%2C%3D%0A%0Dc"
    (Tir_autosched.Database.escape "a%|b,=\n\rc");
  Alcotest.(check string) "journal alphabet"
    {|{"ev":"counter","name":"%22%5C%25%01%7F|,=","value":1}|}
    (Journal.to_line (Journal.Counter { name = "\"\\%\x01\x7f|,="; value = 1 }));
  let plain = "no reserved bytes" in
  Alcotest.(check bool) "unescaped input returned as is" true
    (P.encode ~reserved:(fun _ -> false) plain == plain);
  Alcotest.(check (option string)) "lower-case hex" (Some "J") (P.decode "%4a");
  List.iter
    (fun bad -> Alcotest.(check (option string)) bad None (P.decode bad))
    [ "%"; "%4"; "ab%4"; "%zz"; "%_1" ]

let test_journal_nan_null () =
  let line = Journal.to_line (Journal.Run_end { best_us = Float.nan; trials = 1; wall_us = 2.0 }) in
  Alcotest.(check bool) "nan written as null" true
    (let rec contains i =
       i + 4 <= String.length line
       && (String.equal (String.sub line i 4) "null" || contains (i + 1))
     in
     contains 0);
  match Journal.of_line line with
  | Journal.Run_end { best_us; _ } ->
      Alcotest.(check bool) "null read back as nan" true (Float.is_nan best_us)
  | _ -> Alcotest.fail "wrong event"

let test_journal_rejects_garbage () =
  let rejects s =
    match Journal.of_line s with
    | exception Journal.Parse_error _ -> ()
    | _ -> Alcotest.failf "accepted garbage: %s" s
  in
  rejects "";
  rejects "not json";
  rejects "{\"no_ev\":1}";
  rejects "{\"ev\":\"launch_missiles\"}";
  rejects "{\"ev\":\"pair\",\"gen\":0}" (* missing fields *)

let test_journal_file_and_summary () =
  let path = Filename.temp_file "tir_journal" ".jsonl" in
  let gen_ev gen best_us =
    Journal.Generation
      {
        gen;
        proposed = 4;
        deduped = 0;
        invalid = 0;
        inapplicable = 0;
        memo_hits = 1;
        measured = 2;
        mutations = 1;
        crossovers = 1;
        accepted = 1;
        best_us;
        rank_corr = 0.5;
      }
  in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun e -> output_string oc (Journal.to_line e ^ "\n\n"))
        [
          Journal.Run_start { workload = "w"; target = "t"; seed = 1; trials = 4; jobs = 2 };
          gen_ev 0 100.0;
          gen_ev 1 80.0;
          Journal.Run_end { best_us = 80.0; trials = 4; wall_us = 1.0 };
        ]);
  let events = Journal.load path in
  Alcotest.(check int) "blank lines skipped" 4 (List.length events);
  let s = Journal.summarize events in
  Alcotest.(check int) "runs" 1 s.Journal.runs;
  Alcotest.(check int) "generations" 2 s.Journal.generations;
  Alcotest.(check int) "proposed" 8 s.Journal.proposed;
  Alcotest.(check int) "measured" 4 s.Journal.measured;
  Alcotest.(check int) "accepted" 2 s.Journal.accepted;
  Alcotest.(check bool) "monotone" true s.Journal.best_monotone;
  Alcotest.(check (float 0.0)) "final best" 80.0 s.Journal.final_best_us;
  Sys.remove path;
  (* a best-so-far that increases must be flagged *)
  let bad = [ gen_ev 0 50.0; gen_ev 1 60.0 ] in
  Alcotest.(check bool) "regression detected" false
    (Journal.summarize bad).Journal.best_monotone

(* --- gflops edge cases --- *)

let test_gflops_edges () =
  let w = W.gmm ~in_dtype:Tir_ir.Dtype.F16 ~acc_dtype:Tir_ir.Dtype.F32 ~m:128 ~n:128 ~k:128 () in
  let r = Util.tune ~seed:11 ~trials:8 gpu w in
  let b = match r.Tune.best with Some b -> b | None -> Alcotest.fail "no best" in
  Alcotest.(check bool) "real result rates > 0" true (Tune.gflops r > 0.0);
  Alcotest.(check (float 0.0)) "no candidate -> 0.0" 0.0
    (Tune.gflops { r with Tune.best = None });
  let with_latency l =
    { r with Tune.best = Some { b with Tir_autosched.Evolutionary.latency_us = l } }
  in
  Alcotest.(check (float 0.0)) "nan latency -> 0.0" 0.0 (Tune.gflops (with_latency Float.nan));
  Alcotest.(check (float 0.0)) "inf latency -> 0.0" 0.0
    (Tune.gflops (with_latency Float.infinity));
  Alcotest.(check (float 0.0)) "zero latency -> 0.0" 0.0 (Tune.gflops (with_latency 0.0));
  Alcotest.(check bool) "all finite" true
    (List.for_all
       (fun l -> Float.is_finite (Tune.gflops (with_latency l)))
       [ Float.nan; Float.infinity; Float.neg_infinity; 0.0; -1.0; 5.0 ])

(* --- end-to-end: journaled tuning run, determinism across job counts --- *)

(* Journal lines that must be bit-identical at any job count: everything
   except span durations, time-derived gauges, and the run-end wall time.
   [run_start] deliberately records the job count itself — mask that one
   field so the rest of the line is still compared. *)
let deterministic_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let contains l pat =
    let n = String.length pat and m = String.length l in
    let rec at i = i + n <= m && (String.equal (String.sub l i n) pat || at (i + 1)) in
    at 0
  in
  let mask_jobs l =
    match String.index_opt l ':' with
    | _ when not (contains l "\"ev\":\"run_start\"") -> l
    | _ -> (
        (* replace the digits after "jobs": with J *)
        let pat = "\"jobs\":" in
        let n = String.length pat and m = String.length l in
        let rec find i = if i + n > m then None else if String.equal (String.sub l i n) pat then Some (i + n) else find (i + 1) in
        match find 0 with
        | None -> l
        | Some start ->
            let stop = ref start in
            while !stop < m && (match l.[!stop] with '0' .. '9' -> true | _ -> false) do
              incr stop
            done;
            String.sub l 0 start ^ "J" ^ String.sub l !stop (m - !stop))
  in
  List.rev_map mask_jobs
    (List.filter
       (fun l ->
         not
           (contains l "\"ev\":\"span\""
           || contains l "\"ev\":\"gauge\""
           || contains l "\"ev\":\"run_end\""))
       !lines)
  |> List.rev

let test_journal_determinism_across_jobs () =
  let w = W.gmm ~in_dtype:Tir_ir.Dtype.F16 ~acc_dtype:Tir_ir.Dtype.F32 ~m:128 ~n:128 ~k:128 () in
  let run jobs =
    (* fresh process-wide state so neither run coasts on the other (the
       analysis memo too: its counters are in the journal) *)
    Tir_autosched.Eval.clear_caches ();
    Tir_analysis.Analysis.clear_cache ();
    Metrics.reset ();
    let path = Filename.temp_file (Printf.sprintf "tir_jobs%d" jobs) ".jsonl" in
    let r = Util.tune ~seed:7 ~trials:24 ~jobs ~journal:path gpu w in
    let counters = (Metrics.snapshot ()).Metrics.counters in
    (path, r, counters)
  in
  let p1, r1, c1 = run 1 in
  let p4, r4, c4 = run 4 in
  (* 1. deterministic journal content is bit-identical *)
  let l1 = deterministic_lines p1 and l4 = deterministic_lines p4 in
  Alcotest.(check int) "same journal length" (List.length l1) (List.length l4);
  List.iter2 (fun a b -> Alcotest.(check string) "identical journal line" a b) l1 l4;
  (* 2. every registry counter is bit-identical *)
  Alcotest.(check (list (pair string int))) "identical counters" c1 c4;
  (* 3. journals parse, and the best-so-far curve is monotone *)
  let check_file path (r : Tune.result) =
    let events = Journal.load path in
    let s = Journal.summarize events in
    Alcotest.(check bool) "monotone best curve" true s.Journal.best_monotone;
    Alcotest.(check int) "journal trials match stats" r.Tune.stats.Tir_autosched.Evolutionary.trials
      s.Journal.measured;
    (* journal floats are written at %.9g — compare up to that precision *)
    Alcotest.(check (float 1e-5)) "journal best matches result" (Tune.latency_us r)
      s.Journal.final_best_us;
    Sys.remove path
  in
  check_file p1 r1;
  check_file p4 r4

(* Two traced runs in one trace: each exports as Run_start, then per
   generation its pairs in slot order before its Generation, then
   Run_end; spans fold to one line per distinct stack. *)
let test_journal_export_order () =
  let w = W.gmm ~in_dtype:Tir_ir.Dtype.F16 ~acc_dtype:Tir_ir.Dtype.F32 ~m:128 ~n:128 ~k:128 () in
  traced @@ fun () ->
  let r1 = Util.tune ~seed:3 ~trials:8 gpu w in
  let r2 = Util.tune ~seed:5 ~trials:8 gpu w in
  let events =
    match Journal.of_trace ~jobs:2 () with
    | Ok evs -> evs
    | Error e -> Alcotest.failf "export: %s" (Tir_core.Error.to_string e)
  in
  let rec runs acc = function
    | Journal.Run_start { seed; jobs; _ } :: rest ->
        Alcotest.(check int) "jobs filled in" 2 jobs;
        let rec body gen slot = function
          | Journal.Pair p :: rest ->
              Alcotest.(check int) "pair in its generation" gen p.gen;
              body gen (slot + 1) rest
          | Journal.Generation g :: rest ->
              Alcotest.(check int) "generations ascend" gen g.gen;
              Alcotest.(check int) "one pair per measured candidate" g.measured slot;
              body (gen + 1) 0 rest
          | Journal.Run_end { trials; _ } :: rest -> runs ((seed, trials) :: acc) rest
          | _ -> Alcotest.fail "run not closed by Run_end"
        in
        body 0 0 rest
    | rest -> (List.rev acc, rest)
  in
  let run_summaries, rest = runs [] events in
  Alcotest.(check (list (pair int int)))
    "both runs, in recording order"
    [ (3, r1.Tune.stats.Tir_autosched.Evolutionary.trials);
      (5, r2.Tune.stats.Tir_autosched.Evolutionary.trials) ]
    run_summaries;
  let span_keys =
    List.filter_map
      (function Journal.Span { name; depth; _ } -> Some (name, depth) | _ -> None)
      rest
  in
  Alcotest.(check bool) "one span line per distinct stack" true
    (List.length span_keys < List.length (spans ())
    && List.mem ("tune.search", 0) span_keys)

let test_journal_export_fails_on_drops () =
  traced @@ fun () ->
  Fun.protect ~finally:(fun () -> Trace.set_capacity 1_000_000) @@ fun () ->
  Trace.set_capacity 2;
  List.iter (fun n -> Trace.instant n) [ "a"; "b"; "c" ];
  match Journal.of_trace ~jobs:1 () with
  | Ok _ -> Alcotest.fail "exported a trace that dropped events"
  | Error e ->
      Alcotest.(check string) "corrupt" "corrupt" (Tir_core.Error.kind_name e.Tir_core.Error.kind)

let test_rank_corr_gauge_set () =
  let w = W.gmm ~in_dtype:Tir_ir.Dtype.F16 ~acc_dtype:Tir_ir.Dtype.F32 ~m:128 ~n:128 ~k:128 () in
  Tir_autosched.Eval.clear_caches ();
  Metrics.reset ();
  ignore (Util.tune ~seed:3 ~trials:12 gpu w);
  let snap = Metrics.snapshot () in
  (match Metrics.find_gauge snap "costmodel.rank_corr" with
  | None -> Alcotest.fail "rank-corr gauge missing"
  | Some v -> Alcotest.(check bool) "rank corr in [-1,1]" true (v >= -1.0 && v <= 1.0));
  let counter name = Option.value ~default:0 (Metrics.find_counter snap name) in
  Alcotest.(check bool) "search counters populated" true
    (counter "search.generations" > 0
    && counter "search.trials" = 12
    && counter "sim.measurements" > 0
    && counter "sim.bytes.global" > 0)

let test_memo_hit_rate_gauge_set () =
  (* Regression: the gauge was written per-generation, so the final —
     empty, exhausted — generation always reset it to 0.0. It now reports
     the cumulative eval/measure memo rate and must be positive after a
     run that repeats itself. *)
  let w = W.gmm ~in_dtype:Tir_ir.Dtype.F16 ~acc_dtype:Tir_ir.Dtype.F32 ~m:128 ~n:128 ~k:128 () in
  Tir_autosched.Eval.clear_caches ();
  Metrics.reset ();
  ignore (Util.tune ~seed:3 ~trials:12 gpu w);
  (* Second identical run: every evaluation and measurement memo-hits. *)
  ignore (Util.tune ~seed:3 ~trials:12 gpu w);
  match Metrics.find_gauge (Metrics.snapshot ()) "search.memo_hit_rate" with
  | None -> Alcotest.fail "memo-hit-rate gauge missing"
  | Some v ->
      Alcotest.(check bool)
        (Printf.sprintf "memo rate %.3f in (0,1]" v)
        true
        (v > 0.0 && v <= 1.0)

let test_memo_hit_rate_gauge_matches_counters () =
  (* Regression: the gauge read the memo atomics, which
     [Eval.clear_caches] zeroes, while the registry counters it summarizes
     kept counting — after a clear the gauge read 0.0 beside real hits. *)
  let w = W.gmm ~in_dtype:Tir_ir.Dtype.F16 ~acc_dtype:Tir_ir.Dtype.F32 ~m:128 ~n:128 ~k:128 () in
  Tir_autosched.Eval.clear_caches ();
  Metrics.reset ();
  ignore (Util.tune ~seed:3 ~trials:12 gpu w);
  ignore (Util.tune ~seed:3 ~trials:12 gpu w);
  Tir_autosched.Eval.clear_caches ();
  ignore (Util.tune ~seed:5 ~trials:12 gpu w);
  let snap = Metrics.snapshot () in
  let counter name = Option.value ~default:0 (Metrics.find_counter snap name) in
  let hits = counter "memo.eval.hits" + counter "memo.measure.hits" in
  let misses = counter "memo.eval.misses" + counter "memo.measure.misses" in
  Alcotest.(check bool) "counters saw hits" true (hits > 0);
  match Metrics.find_gauge snap "search.memo_hit_rate" with
  | None -> Alcotest.fail "memo-hit-rate gauge missing"
  | Some v ->
      Alcotest.(check (float 1e-12)) "gauge = counters' hit rate"
        (float_of_int hits /. float_of_int (hits + misses))
        v

let suite =
  [
    Alcotest.test_case "clock: monotone" `Quick test_clock_monotone;
    Alcotest.test_case "metrics: counter" `Quick test_counter;
    Alcotest.test_case "metrics: gauge" `Quick test_gauge;
    Alcotest.test_case "metrics: histogram" `Quick test_histogram;
    Alcotest.test_case "metrics: kind mismatch" `Quick test_kind_mismatch;
    Alcotest.test_case "metrics: reset keeps handles" `Quick test_reset_keeps_handles;
    Alcotest.test_case "span: nesting + flame order" `Quick test_span_nesting;
    Alcotest.test_case "span: recorded on raise" `Quick test_span_recorded_on_raise;
    Alcotest.test_case "stat: spearman" `Quick test_spearman;
    Alcotest.test_case "journal: roundtrip adversarial" `Quick test_journal_roundtrip;
    Alcotest.test_case "journal: nan as null" `Quick test_journal_nan_null;
    Alcotest.test_case "percent: alphabets + strict decode" `Quick test_percent_codec;
    Alcotest.test_case "journal: rejects garbage" `Quick test_journal_rejects_garbage;
    Alcotest.test_case "journal: file + summary" `Quick test_journal_file_and_summary;
    Alcotest.test_case "tune: gflops edge cases" `Quick test_gflops_edges;
    Alcotest.test_case "journal: identical at jobs=1/4" `Quick
      test_journal_determinism_across_jobs;
    Alcotest.test_case "metrics: rank-corr gauge after tuning" `Quick
      test_rank_corr_gauge_set;
    Alcotest.test_case "metrics: memo-hit-rate gauge after tuning" `Quick
      test_memo_hit_rate_gauge_set;
    Alcotest.test_case "metrics: memo-hit-rate gauge = memo counters" `Quick
      test_memo_hit_rate_gauge_matches_counters;
    Alcotest.test_case "journal: export order + span folding" `Quick
      test_journal_export_order;
    Alcotest.test_case "journal: export fails on dropped events" `Quick
      test_journal_export_fails_on_drops;
  ]
