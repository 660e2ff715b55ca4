(* Schema-aware regression gate between two BENCH_results.json files.

     dune exec tools/bench_diff.exe CURRENT BASELINE [--inject-regression]

   Compares the schema-9 headline blocks and per-row results with
   per-metric tolerances:

     - hotpath combined throughput and speedup: wall-clock-derived, so a
       wide floor (>= 50% of baseline) that still catches order-of-
       magnitude regressions;
     - memo / db-replay hit rates: deterministic, >= baseline - 0.05;
     - legality agreement: the static-vs-dynamic soundness check, must
       match the baseline exactly (both are 1.0 in any healthy run);
     - legality prune rate: deterministic given the proposal streams,
       >= baseline - 0.05;
     - pool.busy_frac: utilization accounting, >= baseline - 0.20;
     - costmodel held-out and transfer rank correlations: deterministic
       given the seeds, >= baseline - 0.05;
     - per-row "us" latencies and "gflops" rates: the simulator is
       deterministic, so 5% relative slack only (shared rows by
       section:name:unit; rows present in one file only are skipped —
       BENCH_ONLY runs cover subsets);
     - "ms" rows (the cost-model retrain_ms): wall-clock times, so the
       same 2x band as the hotpath floors — at most twice the baseline;
     - "bool" rows (resume_identical, replay_identical, hotpath
       identical): must match the baseline exactly.

   --inject-regression degrades the current file's values after loading
   (throughput x0.1, latencies and times x10) — the Makefile uses it to
   assert the gate actually fails on a regression.

   Exit 0 when nothing regressed, 1 with one line per regression, 2 on
   usage errors (including schema or fast-mode mismatch, which would make
   the comparison meaningless). *)

open Tir_obs.Json_min

let usage () =
  prerr_endline "usage: bench_diff CURRENT BASELINE [--inject-regression]";
  exit 2

type doc = {
  d_fast : bool;
  d_hotpath : (string * v) list option;
  d_legality : (float * float) option;  (** agreement, prune_rate *)
  d_costmodel : (float * float) option;  (** rank_corr, transfer_rank_corr *)
  d_memo_rate : float;
  d_db_rate : float;
  d_busy_frac : float option;
  d_rows : ((string * string * string) * float) list;
      (** (section, name, unit) -> value; duplicate keys keep the first *)
}

let load_doc path =
  let top = obj "top level" (parse_file path) in
  let f = field "top level" top in
  (match int_ "schema" (f "schema") with
  | 9 -> ()
  | s -> fail "%s: schema 9 expected, got %d" path s);
  let memo = obj "memo" (f "memo") in
  let db = obj "db_replay" (f "db_replay") in
  let gauges =
    obj "metrics.gauges" (field "metrics" (obj "metrics" (f "metrics")) "gauges")
  in
  let rows =
    List.map
      (fun r ->
        let r = obj "results[]" r in
        let g k = field "results[]" r k in
        ( (str "section" (g "section"), str "name" (g "name"), str "unit" (g "unit")),
          num "value" (g "value") ))
      (arr "results" (f "results"))
  in
  {
    d_fast = (match f "fast" with Bool b -> b | _ -> fail "%s: fast: expected a bool" path);
    d_hotpath = (match List.assoc_opt "hotpath" top with
      | Some hp -> Some (obj "hotpath" hp)
      | None -> None);
    d_legality =
      (match List.assoc_opt "legality" top with
      | Some lg ->
          let lg = obj "legality" lg in
          Some
            ( num "legality.agreement" (field "legality" lg "agreement"),
              ratio "legality.prune_rate" (field "legality" lg "prune_rate") )
      | None -> None);
    d_costmodel =
      (match List.assoc_opt "costmodel" top with
      | Some cm ->
          let cm = obj "costmodel" cm in
          Some
            ( num "costmodel.rank_corr" (field "costmodel" cm "rank_corr"),
              num "costmodel.transfer_rank_corr"
                (field "costmodel" cm "transfer_rank_corr") )
      | None -> None);
    d_memo_rate = ratio "memo.hit_rate" (field "memo" memo "hit_rate");
    d_db_rate = ratio "db_replay.hit_rate" (field "db_replay" db "hit_rate");
    d_busy_frac =
      Option.map (num "pool.busy_frac") (List.assoc_opt "pool.busy_frac" gauges);
    d_rows = rows;
  }

let hotpath_combined hp k =
  num ("hotpath.combined." ^ k) (field "combined" (obj "combined" (field "hotpath" hp "combined")) k)

let inject d =
  {
    d with
    d_hotpath =
      Option.map
        (fun hp ->
          List.map
            (function
              | "combined", c ->
                  let c = obj "combined" c in
                  ( "combined",
                    Obj
                      (List.map
                         (fun (k, v) ->
                           (k, Num (num ("combined." ^ k) v *. 0.1)))
                         c) )
              | kv -> kv)
            hp)
        d.d_hotpath;
    d_rows =
      List.map
        (fun (((_, _, unit_) as k), v) ->
          (k, if String.equal unit_ "us" || String.equal unit_ "ms" then v *. 10.0 else v))
        d.d_rows;
  }

let () =
  let args = Array.to_list Sys.argv in
  let flags, paths = List.partition (fun a -> String.length a > 2 && String.sub a 0 2 = "--") (List.tl args) in
  let injectp = List.mem "--inject-regression" flags in
  List.iter (fun f -> if f <> "--inject-regression" then usage ()) flags;
  let cur_path, base_path =
    match paths with [ c; b ] -> (c, b) | _ -> usage ()
  in
  try
    let cur = load_doc cur_path and base = load_doc base_path in
    if cur.d_fast <> base.d_fast then begin
      Printf.eprintf
        "bench_diff: fast-mode mismatch (%b vs %b): runs are not comparable\n"
        cur.d_fast base.d_fast;
      exit 2
    end;
    let cur = if injectp then inject cur else cur in
    let regressions = ref [] in
    let bad fmt = Printf.ksprintf (fun s -> regressions := s :: !regressions) fmt in
    let compared = ref 0 in
    let floor_rel what ~floor cur_v base_v =
      incr compared;
      if base_v > 0.0 && cur_v < base_v *. floor then
        bad "%s: %.3g below %.0f%% of baseline %.3g" what cur_v (floor *. 100.0)
          base_v
    in
    let floor_abs what ~slack cur_v base_v =
      incr compared;
      if cur_v < base_v -. slack then
        bad "%s: %.3g more than %.3g below baseline %.3g" what cur_v slack base_v
    in
    (match (cur.d_hotpath, base.d_hotpath) with
    | Some c, Some b ->
        floor_rel "hotpath.candidates_per_s" ~floor:0.5
          (hotpath_combined c "candidates_per_s")
          (hotpath_combined b "candidates_per_s");
        floor_rel "hotpath.speedup" ~floor:0.5
          (hotpath_combined c "speedup") (hotpath_combined b "speedup")
    | _ -> ());
    (match (cur.d_legality, base.d_legality) with
    | Some (ca, cp), Some (ba, bp) ->
        incr compared;
        if ca <> ba then
          bad "legality.agreement: %g differs from baseline %g" ca ba;
        floor_abs "legality.prune_rate" ~slack:0.05 cp bp
    | _ -> ());
    (match (cur.d_costmodel, base.d_costmodel) with
    | Some (cr, ct), Some (br, bt) ->
        floor_abs "costmodel.rank_corr" ~slack:0.05 cr br;
        floor_abs "costmodel.transfer_rank_corr" ~slack:0.05 ct bt
    | _ -> ());
    floor_abs "memo.hit_rate" ~slack:0.05 cur.d_memo_rate base.d_memo_rate;
    floor_abs "db_replay.hit_rate" ~slack:0.05 cur.d_db_rate base.d_db_rate;
    (match (cur.d_busy_frac, base.d_busy_frac) with
    | Some c, Some b -> floor_abs "pool.busy_frac" ~slack:0.20 c b
    | _ -> ());
    List.iter
      (fun (((sec, name, unit_) as key), base_v) ->
        match List.assoc_opt key cur.d_rows with
        | None -> ()
        | Some cur_v -> (
            let what = Printf.sprintf "[%s] %s (%s)" sec name unit_ in
            match unit_ with
            | "us" ->
                incr compared;
                if cur_v > base_v *. 1.05 then
                  bad "%s: %.2f regressed over baseline %.2f (+%.1f%%)" what
                    cur_v base_v
                    (100.0 *. ((cur_v /. base_v) -. 1.0))
            | "ms" ->
                incr compared;
                if cur_v > base_v *. 2.0 then
                  bad "%s: %.3f ms more than twice the baseline %.3f ms" what
                    cur_v base_v
            | "gflops" -> floor_rel what ~floor:(1.0 /. 1.05) cur_v base_v
            | "bool" ->
                incr compared;
                if cur_v <> base_v then
                  bad "%s: %g differs from baseline %g" what cur_v base_v
            | _ -> ()))
      base.d_rows;
    match List.rev !regressions with
    | [] ->
        Printf.printf "bench_diff: %s vs %s: no regressions (%d comparisons)\n"
          cur_path base_path !compared;
        exit 0
    | rs ->
        List.iter (fun r -> Printf.eprintf "REGRESSION: %s\n" r) rs;
        Printf.eprintf "bench_diff: %d regression(s) vs %s\n" (List.length rs)
          base_path;
        exit 1
  with
  | Invalid msg ->
      Printf.eprintf "bench_diff: %s\n" msg;
      exit 2
  | Sys_error msg ->
      Printf.eprintf "bench_diff: %s\n" msg;
      exit 2
