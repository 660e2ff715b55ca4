(* End-to-end tuning benchmark.

     tunebench/main.exe --workload op-search|model-compile|serve-mixed
                        --seed N --seconds S --trace 0|1

   Each run is one fresh process on a pool of at most nproc domains (two
   unless TIR_JOBS says otherwise). The work of a run is fixed by the
   workload and the seed: every trial budget and arrival schedule is a
   constant, so the simulated output latency is deterministic for a seed
   and every wall-clock figure measures identical work.

   With --trace 0 the workload runs untraced in child processes (the same
   executable with --child), replicas of one another, for about
   [--seconds] in all, and the command prints the end-to-end metrics
   combined over them (see [end_to_end]). With --trace 1 it first runs
   one untraced child (for the tracing overhead), then the workload in
   this process with spans around every public call the benchmark makes,
   then the layer replay, and prints the per-layer metrics. Every run
   checks its outputs (see [Check]); any failed check makes the result
   incorrect and the exit code 1. The last line of standard output is
   one JSON object. *)

let entry = Unix.gettimeofday ()

module Tune = Tir_autosched.Tune
module Evo = Tir_autosched.Evolutionary
module Eval = Tir_autosched.Eval
module Model = Tir_autosched.Model
module Database = Tir_autosched.Database
module Pool = Tir_parallel.Pool
module Metrics = Tir_obs.Metrics

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("tunebench: " ^ s); exit 2) fmt

(* --- arguments and environment ----------------------------------------- *)

let workloads = [ "op-search"; "model-compile"; "serve-mixed" ]

let args () =
  let workload = ref "" and seed = ref None and seconds = ref 0 and trace = ref None in
  let child = ref false in
  let rec go = function
    | "--child" :: rest ->
        child := true;
        go rest
    | "--workload" :: v :: rest ->
        workload := v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := Option.value ~default:0 (int_of_string_opt v);
        go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := Some (v = "1");
        go rest
    | [] -> ()
    | a :: _ -> die "unexpected argument %S" a
  in
  go (List.tl (Array.to_list Sys.argv));
  if not (List.mem !workload workloads) then
    die "--workload must be one of %s" (String.concat ", " workloads);
  match (!seed, !trace) with
  | Some seed, Some trace when !seconds > 0 -> (!workload, seed, !seconds, trace, !child)
  | _ -> die "usage: --workload W --seed N --seconds S --trace 0|1"

(* Only the default program is measured: every TIR_* knob but the pool
   size selects a non-default code path. *)
let refuse_knobs () =
  Array.iter
    (fun kv ->
      match String.index_opt kv '=' with
      | Some i ->
          let k = String.sub kv 0 i in
          if String.starts_with ~prefix:"TIR_" k && k <> "TIR_JOBS" then
            die "refusing to run with %s set: only TIR_JOBS may be set" k
      | None -> ())
    (Unix.environment ())

let nproc = Domain.recommended_domain_count ()

let jobs () =
  let requested =
    match Option.bind (Sys.getenv_opt "TIR_JOBS") int_of_string_opt with
    | Some j -> j
    | None -> 2
  in
  max 1 (min nproc requested)

(* The checkout may not be a git repository; then the digest of the
   library sources identifies the code measured. *)
let commit () =
  let read path = try Some (String.trim (In_channel.with_open_bin path In_channel.input_all)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head ->
      Option.value ~default:"unknown" (read (Filename.concat ".git" (String.sub head 5 (String.length head - 5))))
  | Some hash -> hash
  | None -> "none"

let source_digest () =
  let rec files dir =
    List.concat_map
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then files p
        else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
        else [])
      (List.sort compare (Array.to_list (Sys.readdir dir)))
  in
  try Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file (files "lib"))))
  with Sys_error _ -> "none"

(* --- statistics and output --------------------------------------------- *)

let sorted xs = List.sort Float.compare xs

(* Nearest-rank percentile. *)
let percentile p xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
      let n = List.length s in
      List.nth s (max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median xs = percentile 0.5 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b
let mb words = float_of_int words *. float_of_int (Sys.word_size / 8) /. 1048576.0

let metrics : (string * float * string) list ref = ref []

let metric name value unit =
  Printf.printf "metric %s = %.6g %s\n" name value unit;
  metrics := (name, value, unit) :: !metrics

let note fmt = Printf.printf (fmt ^^ "\n")

(* A per-layer ratio, printed with its numerator and denominator. *)
let frac name num den =
  note "ratio %s = %.0f / %.0f" name num den;
  metric name (ratio num den) "frac"

(* The result line. A non-finite metric is a defect of the run: it is
   written as 0 and makes the result incorrect. *)
let print_result ~correct ~attempted ~failed =
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) !metrics in
  if not finite then note "check failed: a metric is not finite";
  let fields =
    List.rev_map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
          (if Float.is_finite v then v else 0.0)
          unit)
      !metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (correct && finite) attempted failed (String.concat ", " fields);
  correct && finite

(* What was measured, printed once per command. *)
let header ~workload ~seed ~seconds =
  note "workload = %s" workload;
  note "seed = %d" seed;
  note "seconds = %d (budget for untraced replicas of the fixed work)" seconds;
  note "nproc = %d" nproc;
  note "pool_jobs = %d" (jobs ());
  note "ocaml = %s" Sys.ocaml_version;
  note "commit = %s" (commit ());
  note "source_digest = %s" (source_digest ())

(* --- one workload ------------------------------------------------------ *)

let run_dir = Filename.concat ".tunebench-run" (string_of_int (Unix.getpid ()))

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let setup_of name ~pool ~seed =
  match name with
  | "op-search" -> Op_search.setup ~pool ~seed
  | "model-compile" -> Model_compile.setup ~pool ~seed
  | _ -> Serve_mixed.setup ~pool ~seed ~dir:run_dir

(* Set up [reps] times; each repetition registers the intrinsics, creates
   the pool and builds the workload (and, for serve-mixed, loads the
   database and model store). The first is timed from process entry.
   Returns the median set-up seconds and the last repetition's state. *)
let setup_reps = 15

let set_up name ~jobs ~seed =
  let rec go i acc =
    let t0 = if i = 0 then entry else Unix.gettimeofday () in
    Tir_intrin.Library.register_all ();
    let pool = Pool.create ~jobs () in
    let run = setup_of name ~pool ~seed in
    let dt = Unix.gettimeofday () -. t0 in
    if i + 1 = setup_reps then (median (dt :: acc), pool, run)
    else begin
      Pool.shutdown pool;
      go (i + 1) (dt :: acc)
    end
  in
  go 0 []

(* One untraced run of the workload in a fresh child process (the same
   executable with --child). The child prints its end-to-end values and
   generation times as exact hex floats; everything else it prints is
   passed through, prefixed with the child's number. *)
type child = {
  values : (string * float) list;
  steps_ms : float list;
  turnaround_s : float list;
  correct : bool;
  attempted : int;
  failed : int;
}

let spawn ~workload ~seed ~seconds i =
  let argv =
    [| Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed;
       "--seconds"; string_of_int seconds; "--trace"; "0"; "--child" |]
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin out_w Unix.stderr in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let output = In_channel.input_all ic in
  close_in ic;
  (match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED (0 | 1) -> ()
  | _ -> die "run %d of %s failed" i workload);
  let c = ref { values = []; steps_ms = []; turnaround_s = []; correct = false; attempted = 0; failed = 0 } in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "value"; name; v ] -> c := { !c with values = (name, float_of_string v) :: !c.values }
      | [ "step_ms"; v ] -> c := { !c with steps_ms = float_of_string v :: !c.steps_ms }
      | [ "turnaround_s"; v ] -> c := { !c with turnaround_s = float_of_string v :: !c.turnaround_s }
      | [ "result"; correct; attempted; failed ] ->
          c :=
            { !c with correct = bool_of_string correct; attempted = int_of_string attempted;
              failed = int_of_string failed }
      | _ -> if line <> "" then Printf.printf "[run %d] %s\n" i line)
    (String.split_on_char '\n' output);
  if !c.attempted = 0 then die "run %d of %s printed no result" i workload;
  !c

let sum f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs
let sumi f xs = List.fold_left (fun a x -> a + f x) 0 xs

let stats (t : Tuner.task) = t.Tuner.result.Tune.stats

(* Tasks that ran a search (not the database short-circuit). *)
let searched tasks = List.filter (fun (t : Tuner.task) -> t.Tuner.result.Tune.model <> None) tasks

(* A child run's end-to-end values, exact, for the parent to combine. *)
let child_values ~setup_s ~peak_mb ~live_mb (o : Tuner.outcome) =
  let trials = sumi (fun t -> (stats t).Evo.trials) o.Tuner.tasks in
  let value name v = Printf.printf "value %s %h\n" name v in
  value "trials" (float_of_int trials);
  value "timed_wall_s" o.Tuner.timed_s;
  value "setup_s" setup_s;
  value "trials_per_s" (float_of_int trials /. o.Tuner.timed_s);
  value "output_latency_us" o.Tuner.output_latency_us;
  value "peak_heap_mb" peak_mb;
  value "live_heap_mb" live_mb;
  value "turnaround_s_max"
    (List.fold_left (fun a (t : Tuner.task) -> Float.max a t.Tuner.turnaround_s) 0.0 o.Tuner.tasks);
  List.iter (fun s -> Printf.printf "step_ms %h\n" (s *. 1e3)) (List.rev o.Tuner.steps_s);
  List.iter (fun (t : Tuner.task) -> Printf.printf "turnaround_s %h\n" t.Tuner.turnaround_s) o.Tuner.tasks

(* Untraced runs are replicas: fresh processes that do identical work
   (same workload, same seed), started one after another until the next
   one would overrun [--seconds]; at least [min_replicas]. The host-speed
   probe (see [Probe]) runs before the first replica and after each one;
   every time a replica measured is multiplied by its scale, the probe's
   reference seconds over the mean of the two probes around it, so that
   it reads as on the reference host. Generation and turnaround times
   are pooled over the replicas for their percentiles; every other value
   is the median over the replicas. Each time metric is also printed as
   measured, unscaled. The replicas must agree exactly on the trial
   count, the number of generations and tasks, and the simulated output
   latency. *)
let min_replicas = 3

let end_to_end ~workload ~seed ~seconds =
  header ~workload ~seed ~seconds;
  let t0 = Unix.gettimeofday () in
  let probe () = Probe.seconds ~jobs:(jobs ()) in
  (* The first probe in a process runs on a cold heap. *)
  ignore (probe ());
  let rec replicate acc before =
    let n = List.length acc in
    let elapsed = Unix.gettimeofday () -. t0 in
    if n >= min_replicas && elapsed +. (elapsed /. float_of_int n) > float_of_int seconds then
      List.rev acc
    else begin
      let c = spawn ~workload ~seed ~seconds (n + 1) in
      let after = probe () in
      replicate ((c, (before, after)) :: acc) after
    end
  in
  let runs = replicate [] (probe ()) in
  let children = List.map fst runs in
  let scales = List.map (fun (_, (b, a)) -> Probe.reference_s /. ((b +. a) /. 2.0)) runs in
  let replicas = List.length children in
  note "replicas = %d in %.3g s" replicas (Unix.gettimeofday () -. t0);
  let values name = List.map (fun c -> List.assoc name c.values) children in
  let med name = median (values name) in
  let show name xs = note "replicas %s = %s" name (String.concat " " (List.map (Printf.sprintf "%.6g") xs)) in
  show "probe_s" (fst (snd (List.hd runs)) :: List.map (fun (_, (_, a)) -> a) runs);
  show "scale" scales;
  List.iter (fun name -> show name (values name)) [ "setup_s"; "trials_per_s"; "timed_wall_s" ];
  let agree what f =
    let xs = List.map f children in
    let ok = List.for_all (( = ) (List.hd xs)) xs in
    if not ok then note "check failed: replicas disagree on %s" what;
    ok
  in
  let deterministic =
    List.for_all Fun.id
      [
        agree "the trial count" (fun c -> Int64.bits_of_float (List.assoc "trials" c.values));
        agree "the number of generations" (fun c -> List.length c.steps_ms);
        agree "the number of tasks" (fun c -> List.length c.turnaround_s);
        agree "output_latency_us" (fun c -> Int64.bits_of_float (List.assoc "output_latency_us" c.values));
      ]
  in
  let n = List.length children * List.length (List.hd children).steps_ms in
  note "samples step_ms = %d over %d replicas (beyond p90: %d)" n replicas
    (n - int_of_float (Float.ceil (0.9 *. float_of_int n)));
  note "samples turnaround_s = %d over %d replicas"
    (List.length children * List.length (List.hd children).turnaround_s) replicas;
  (* A time metric as a function of the replicas' scales: printed as
     measured (every scale 1), reported scaled. *)
  let timed name unit f =
    note "measured %s = %.6g %s" name (f (List.map (fun _ -> 1.0) scales)) unit;
    metric name (f scales) unit
  in
  let scaled name ks = List.map2 (fun c k -> List.assoc name c.values *. k) children ks in
  let pooled field ks = List.concat (List.map2 (fun c k -> List.map (( *. ) k) (field c)) children ks) in
  timed "setup_s" "s" (fun ks -> median (scaled "setup_s" ks));
  timed "trials_per_s" "1/s" (fun ks ->
      median (List.map2 (fun c k -> List.assoc "trials_per_s" c.values /. k) children ks));
  timed "step_ms_p50" "ms" (fun ks -> median (pooled (fun c -> c.steps_ms) ks));
  timed "step_ms_p90" "ms" (fun ks -> percentile 0.9 (pooled (fun c -> c.steps_ms) ks));
  metric "output_latency_us" (med "output_latency_us") "us";
  metric "peak_heap_mb" (med "peak_heap_mb") "MB";
  metric "live_heap_mb" (med "live_heap_mb") "MB";
  timed "turnaround_s_p50" "s" (fun ks -> median (pooled (fun c -> c.turnaround_s) ks));
  timed "turnaround_s_max" "s" (fun ks -> median (scaled "turnaround_s_max" ks));
  let attempted = sumi (fun c -> c.attempted) children and failed = sumi (fun c -> c.failed) children in
  note "failed_frac = %d / %d" failed attempted;
  let correct = deterministic && List.for_all (fun c -> c.correct) children in
  if not (print_result ~correct ~attempted ~failed) then exit 1

(* Public counters sampled around the timed phase. *)
type counters = {
  apply : int * int;
  memo : Eval.cache_stats;
  registry : Metrics.snapshot;
  replay : int * int;
}

let counters () =
  {
    apply = Tir_sched.Apply_cache.stats ();
    memo = Eval.cache_stats ();
    registry = Metrics.snapshot ();
    replay = Database.replay_counters ();
  }

let registry_delta c0 c1 name =
  let v c = Option.value ~default:0 (Metrics.find_counter c.registry name) in
  float_of_int (v c1 - v c0)

(* Layers whose calls the engine fans out across the pool; the cost-model
   and sketch calls run in the caller. *)
let pooled = [ "sched."; "validate."; "analysis."; "features."; "eval."; "sim." ]
let sequential = [ "model."; "sketch." ]
let service = [ "session.create"; "session.resume"; "model_store."; "db." ]

let per_layer ~jobs ~live_mb ~untraced_s ~c0 ~c1 ~timed ~checked ~replayed
    (o : Tuner.outcome) tallies =
  let all_calls name = (Prof.find checked name).Prof.calls + (Prof.find timed name).Prof.calls in
  let all_self name = (Prof.find checked name).Prof.self_s +. (Prof.find timed name).Prof.self_s in
  let per_call_replay name scale =
    let a = Prof.find replayed name in
    ratio (a.Prof.self_s *. scale) (float_of_int a.Prof.calls)
  in
  let per_call_all name scale = ratio (all_self name *. scale) (float_of_int (all_calls name)) in
  let extra name = match List.find_opt (fun (n, _, _) -> n = name) o.Tuner.extra with Some (_, v, _) -> v | None -> 0.0 in
  let searched = searched o.Tuner.tasks in
  let st f = float_of_int (sumi (fun t -> f (stats t)) searched) in
  let tl f = float_of_int (sumi (fun (_, t) -> f t) tallies) in
  let steps = float_of_int (List.length o.Tuner.steps_s) in
  let step_wall = sum Fun.id o.Tuner.steps_s in
  let pooled_s = Prof.self_s_of replayed pooled in
  let model_s = Prof.self_s_of replayed [ "model." ] in
  (* sched *)
  metric "sched.apply_us" (per_call_replay "sched.apply" 1e6) "us";
  metric "sched.apply_calls" (float_of_int (Prof.find replayed "sched.apply").Prof.calls) "count";
  frac "sched.inapplicable_frac" (st (fun s -> s.Evo.inapplicable)) (st (fun s -> s.Evo.proposed));
  (let h0, m0 = c0.apply and h1, m1 = c1.apply in
   frac "sched.apply_cache_hit_rate" (float_of_int (h1 - h0)) (float_of_int (h1 - h0 + m1 - m0)));
  (* validate *)
  metric "validate.check_us" (per_call_replay "validate.check" 1e6) "us";
  frac "validate.invalid_frac" (st (fun s -> s.Evo.invalid)) (tl (fun t -> t.Replay.applied));
  (* analysis *)
  metric "analysis.certify_us" (per_call_replay "analysis.certify" 1e6) "us";
  metric "analysis.errors_us" (per_call_replay "analysis.errors" 1e6) "us";
  frac "analysis.illegal_frac" (tl (fun t -> t.Replay.illegal)) (tl (fun t -> t.Replay.certified));
  frac "analysis.unknown_frac" (tl (fun t -> t.Replay.unknown)) (tl (fun t -> t.Replay.certified));
  (* features and simulator *)
  metric "features.extract_us" (per_call_replay "features.extract" 1e6) "us";
  metric "sim.measure_us" (per_call_replay "sim.measure" 1e6) "us";
  metric "sim.measurements" (tl (fun t -> t.Replay.measurements)) "count";
  metric "sim.unmeasurable" (st (fun s -> s.Evo.unmeasurable)) "count";
  (* evaluation memo *)
  let hits = c1.memo.Eval.hits - c0.memo.Eval.hits and misses = c1.memo.Eval.misses - c0.memo.Eval.misses in
  frac "eval.memo_hit_rate" (float_of_int hits) (float_of_int (hits + misses));
  note "ratio engine.memo_hit_rate (Tune stats) = %.0f / %.0f" (st (fun s -> s.Evo.cache_hits)) (st (fun s -> s.Evo.cache_lookups));
  note "gauge search.memo_hit_rate = %.6g" (Option.value ~default:nan (Metrics.find_gauge c1.registry "search.memo_hit_rate"));
  metric "eval.memo_entries" (float_of_int c1.memo.Eval.entries) "count";
  (* cost model *)
  metric "model.retrain_ms" (per_call_replay "model.retrain" 1e3) "ms";
  metric "model.score_batch_us" (per_call_replay "model.score_batch" 1e6) "us";
  metric "model.samples"
    (float_of_int
       (sumi (fun (t : Tuner.task) -> match t.Tuner.result.Tune.model with Some m -> (Model.stats m).Model.samples | None -> 0) searched))
    "count";
  let corrs = List.map (fun (_, t) -> Replay.rank_corr t) tallies in
  metric "model.rank_corr" (ratio (sum Fun.id corrs) (float_of_int (List.length corrs))) "corr";
  List.iter
    (fun ((rt : Replay.task), tally) ->
      match List.find_opt (fun (t : Tuner.task) -> t.Tuner.label = rt.Replay.label) searched with
      | Some t when Float.is_finite t.Tuner.rank_corr ->
          note "rank_corr %s: replay %.6g, engine %.6g" rt.Replay.label (Replay.rank_corr tally) t.Tuner.rank_corr
      | _ -> ())
    tallies;
  (* engine *)
  let layer_s_per_step = ratio ((pooled_s /. float_of_int jobs) +. model_s) steps in
  note "engine.step_wall_ms = %.6g (mean over %.0f steps), layers per step = %.6g ms" (1e3 *. ratio step_wall steps) steps (1e3 *. layer_s_per_step);
  metric "engine.step_self_ms" (1e3 *. (ratio step_wall steps -. layer_s_per_step)) "ms";
  (let deduped = registry_delta c0 c1 "search.deduped" and fresh = registry_delta c0 c1 "search.proposed" in
   frac "engine.dedup_frac" deduped (deduped +. fresh));
  frac "engine.measured_frac" (st (fun s -> s.Evo.trials)) (st (fun s -> s.Evo.proposed));
  metric "sketch.generate_ms" (per_call_replay "sketch.generate" 1e3) "ms";
  (* graph *)
  metric "graph.tasks" (extra "graph.tasks") "count";
  metric "graph.task_cache_hits" (extra "graph.task_cache_hits") "count";
  (* pool *)
  metric "pool.jobs" (float_of_int jobs) "count";
  note "ratio pool.busy_frac = %.6g s / (%.6g s x %d)" pooled_s step_wall jobs;
  metric "pool.busy_frac" (ratio pooled_s (step_wall *. float_of_int jobs)) "frac";
  note "gauge pool.busy_frac = %.6g" (Pool.busy_frac ());
  (* database *)
  metric "db.commit_ms" (per_call_all "db.commit" 1e3) "ms";
  metric "db.replay_ms" (per_call_all "db.replay" 1e3) "ms";
  (let f0, r0 = c0.replay and f1, r1 = c1.replay in
   note "ratio db.replayed = %d / %d found" (r1 - r0) (f1 - f0);
   metric "db.replayed" (float_of_int (r1 - r0)) "count");
  metric "db.save_ms" (per_call_all "db.save" 1e3) "ms";
  metric "db.load_ms" (per_call_all "db.load" 1e3) "ms";
  (* service *)
  metric "session.step_overhead_ms" (extra "session.step_overhead_ms") "ms";
  metric "wal.bytes" (extra "wal.bytes") "B";
  metric "session.resume_ms" (per_call_all "session.resume" 1e3) "ms";
  metric "scheduler.steps" (extra "scheduler.steps") "count";
  metric "model_store.absorb_ms" (per_call_all "model_store.absorb" 1e3) "ms";
  (* memory *)
  metric "mem.live_mb_per_task" (live_mb /. float_of_int o.Tuner.attempted) "MB";
  (* coverage and tracing overhead *)
  let explained =
    (pooled_s /. float_of_int jobs) +. Prof.self_s_of replayed sequential +. Prof.self_s_of timed service
  in
  note "ratio layers.explained_frac = %.6g s / %.6g s (pooled layer time divided by %d domains)" explained o.Tuner.timed_s jobs;
  metric "layers.explained_frac" (ratio explained o.Tuner.timed_s) "frac";
  note "traced timed_wall_s = %.6g, untraced = %.6g" o.Tuner.timed_s untraced_s;
  metric "trace.overhead_s" (o.Tuner.timed_s -. untraced_s) "s";
  metric "trace.overhead_frac" (ratio (o.Tuner.timed_s -. untraced_s) untraced_s) "frac"

(* One run of the workload in this process: set-up, timed phase, output
   checks and, when traced, the layer replay. *)
let run_workload ~workload ~seed ~seconds ~trace ~child =
  if not child then header ~workload ~seed ~seconds;
  let untraced_s =
    if trace then List.assoc "timed_wall_s" (spawn ~workload ~seed ~seconds 0).values else nan
  in
  let jobs = jobs () in
  Prof.enabled := trace;
  List.iter (fun d -> try Sys.mkdir d 0o755 with Sys_error _ -> ()) [ Filename.dirname run_dir; run_dir ];
  at_exit (fun () ->
      remove_tree run_dir;
      try Sys.rmdir (Filename.dirname run_dir) with Sys_error _ -> ());
  let setup_s, pool, run = set_up workload ~jobs ~seed in
  let m0 = Prof.mark () in
  let c0 = counters () in
  let o = run () in
  let c1 = counters () in
  let m1 = Prof.mark () in
  let peak_mb = mb (Gc.quick_stat ()).Gc.top_heap_words in
  Gc.compact ();
  let live_mb = mb (Gc.stat ()).Gc.live_words in
  let oracle_label = if workload = "op-search" then Op_search.oracle_label else "" in
  let failing =
    List.filter
      (fun (t : Tuner.task) ->
        let reasons = Check.task ~dir:run_dir ~seed ~oracle_label t in
        List.iter (fun r -> note "check failed: %s: %s" t.Tuner.label r) reasons;
        reasons <> [])
      o.Tuner.tasks
  in
  (* A task that produced no result failed too. *)
  let failed_tasks = o.Tuner.attempted - List.length o.Tuner.tasks + List.length failing in
  let m2 = Prof.mark () in
  let mismatches =
    if not trace then []
    else begin
      (* Replay cold, as the traced run started: drop the caches the
         traced run warmed on this domain. *)
      Tir_sched.Apply_cache.clear ();
      Tir_sim.Machine.nest_cache_clear ();
      Tir_analysis.Analysis.clear_cache ();
      let replays = List.filter_map (fun (t : Tuner.task) -> t.Tuner.replay) o.Tuner.tasks in
      let tallies = List.map (fun rt -> (rt, Replay.run rt)) replays in
      let mismatches = List.concat_map (fun (rt, tl) -> Replay.check rt tl) tallies in
      List.iter (fun m -> note "replay mismatch: %s" m) mismatches;
      note "replay tally: %d tasks, proposed %d, inapplicable %d, invalid %d, unsound %d, evaluated %d, trials %d, mismatches %d"
        (List.length tallies)
        (sumi (fun (_, t) -> t.Replay.proposed) tallies)
        (sumi (fun (_, t) -> t.Replay.inapplicable) tallies)
        (sumi (fun (_, t) -> t.Replay.invalid) tallies)
        (sumi (fun (_, t) -> t.Replay.unsound) tallies)
        (sumi (fun (_, t) -> t.Replay.evaluated) tallies)
        (sumi (fun (_, t) -> t.Replay.trials) tallies)
        (List.length mismatches);
      per_layer ~jobs ~live_mb ~untraced_s ~c0 ~c1
        ~timed:(Prof.aggregate ~from:m0 ~upto:m1 ())
        ~checked:(Prof.aggregate ~from:m1 ~upto:m2 ())
        ~replayed:(Prof.aggregate ~from:m2 ())
        o tallies;
      mismatches
    end
  in
  if child then child_values ~setup_s ~peak_mb ~live_mb o;
  List.iter (fun (n, v, u) -> note "%s = %.6g %s" n v u) o.Tuner.extra;
  note "failed_frac = %d / %d" failed_tasks o.Tuner.attempted;
  Pool.shutdown pool;
  let correct = failed_tasks = 0 && mismatches = [] in
  let correct =
    if child then begin
      note "result %b %d %d" correct o.Tuner.attempted failed_tasks;
      correct
    end
    else print_result ~correct ~attempted:o.Tuner.attempted ~failed:failed_tasks
  in
  if not correct then exit 1

let () =
  let workload, seed, seconds, trace, child = args () in
  refuse_knobs ();
  if trace || child then run_workload ~workload ~seed ~seconds ~trace ~child
  else end_to_end ~workload ~seed ~seconds
