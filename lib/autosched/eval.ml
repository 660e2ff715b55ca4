(** Candidate evaluation pipeline plus the process-wide measurement memo.

    The memo tables cache the two expensive stages of candidate evaluation
    (schedule application + §3.3 validation + feature extraction, and the
    machine-model measurement) keyed by
    [target fingerprint | sketch name | canonical decision key]. The
    simulator is a pure function of (target, program), and a (sketch,
    decisions) pair determines the program, so entries never go stale; the
    tables are shared by every search in the process and are safe to probe
    from pool domains concurrently. Duplicate proposals — mutation and
    crossover collide often across generations, and ablation runs re-tune
    the same workloads — never re-enter the simulator.

    This used to live inside [Cost_model], fused with the learner; the
    learner is now [Model] and this module owns evaluation end to end. *)

module Memo = Tir_parallel.Memo

(** Outcome of the candidate evaluation pipeline (§4.3 apply, §3.3
    validate, feature extraction). Immutable, safe to share across
    domains. *)
type evaluation =
  | Inapplicable  (** the sketch rejected the decision vector *)
  | Invalid  (** the §3.3 validator found issues *)
  | Unsound  (** the semantic analyzer proved a race / unsound region / OOB *)
  | Unsupported  (** the machine model cannot run the program *)
  | Evaluated of {
      func : Tir_ir.Primfunc.t;
      fp : Tir_ir.Fingerprint.t;
          (** structural fingerprint of [func] — the program-identity
              component of measurement memo keys, shared between search
              and database replay *)
      features : float array;
      trace : Tir_sched.Trace.t;
          (** the schedule's instruction trace — carried to [measured]
              results and into database records for sketch-free replay *)
    }

(** Outcome of one (memoized) machine-model measurement. *)
type measurement =
  | Measured of float  (** latency in microseconds *)
  | Unsupported_target  (** the machine model cannot run the program *)
  | Unmeasurable
      (** the candidate could not be measured: injected faults exhausted
          the retry budget, or the simulated latency blew the
          per-candidate measurement budget. Deterministic under a fixed
          fault seed — and never fed to the cost model or database. *)

(* Named tables feed the metrics registry: [memo.eval.*] and
   [memo.measure.*] (hits / misses / pending waits). *)
let eval_cache : evaluation Memo.t = Memo.create ~name:"eval" ()
let measure_cache : measurement Memo.t = Memo.create ~name:"measure" ()

(** [cache_prefix target] — compute once per search, prepend to candidate
    keys ([sketch name ^ "|" ^ Space.key_of decisions]). The full decision
    key (not just a hash) is part of the cache key, so distinct candidates
    can never alias. *)
let cache_prefix target = Tir_sim.Target.fingerprint target ^ "|"

(* There used to be a second memo here keyed by (target, program
   fingerprint), on the theory that distinct decision vectors often
   materialize structurally identical programs whose post-apply work
   (validate / analyze / extract) could be shared. Measured over full
   bench runs it recorded 0 hits in ~1300 misses: [evaluate] only runs
   behind the eval cache's canonical-decision-key dedup, and since the
   exact knob pre-filter (PR 6) folded the vectorization-width fallback
   into the decision space, surviving distinct vectors materialize
   distinct programs. A memo with a guaranteed-cold key is pure overhead
   (fingerprint-keyed allocation + probe per candidate), so the
   classification now runs inline. *)

(* Candidates rejected by the static legality certificate alone — the
   search never ran the region/bounds analyzers or feature extraction on
   them. Incremented only inside the eval memo's compute function, so the
   count is bit-identical at any TIR_JOBS. *)
let m_pruned_static = Tir_obs.Metrics.counter "search.pruned_static"

(* [Space.Unknown_knob] deliberately propagates: the search only builds
   decision vectors from the sketch's own knob list, so an unknown knob is
   a programming error, not an invalid sample. *)
let evaluate ~target (sk : Sketch.t) (d : Space.decisions) : evaluation =
  if sk.Sketch.rejects d then Inapplicable
  else
    match sk.Sketch.apply d with
    | exception Tir_sched.State.Schedule_error _ -> Inapplicable
    | sch -> (
        let f = Tir_sched.Schedule.func sch in
        match Tir_sched.Validate.check_func f with
        | _ :: _ -> Invalid
        | [] -> (
            (* Static pre-filter: a proven-illegal parallel structure is
               Unsound without running the remaining analyzers. The
               certificate is served from the fingerprint-keyed race memo,
               and [Analysis.errors] below shares it, so nothing is
               analyzed twice. *)
            let verdict = Tir_analysis.Analysis.certify f in
            Tir_analysis.Legality.count verdict;
            match verdict with
            | Tir_analysis.Legality.Illegal _ ->
                Tir_obs.Metrics.incr m_pruned_static;
                Unsound
            | Tir_analysis.Legality.Legal | Tir_analysis.Legality.Unknown -> (
                if Tir_analysis.Analysis.errors f <> [] then Unsound
                else
                  match Features.extract target f with
                  | features ->
                      Evaluated
                        {
                          func = f;
                          fp = Tir_ir.Fingerprint.func f;
                          features;
                          trace = Tir_sched.Schedule.instructions sch;
                        }
                  | exception Tir_sim.Machine.Unsupported _ -> Unsupported)))

(** The pre-refactor pipeline, byte for byte: no knob pre-filter —
    every candidate runs the full
    apply/validate/analyze/extract chain. Kept for the bench hot-path
    comparison and the differential property test ([evaluate] must classify
    identically). *)
let evaluate_naive ~target (sk : Sketch.t) (d : Space.decisions) : evaluation =
  match sk.Sketch.apply d with
  | exception Tir_sched.State.Schedule_error _ -> Inapplicable
  | sch -> (
      let f = Tir_sched.Schedule.func sch in
      match Tir_sched.Validate.check_func f with
      | _ :: _ -> Invalid
      | [] when Tir_analysis.Analysis.errors f <> [] -> Unsound
      | [] -> (
          match Features.extract target f with
          | features ->
              Evaluated
                {
                  func = f;
                  fp = Tir_ir.Fingerprint.func f;
                  features;
                  trace = Tir_sched.Schedule.instructions sch;
                }
          | exception Tir_sim.Machine.Unsupported _ -> Unsupported))

(** Memoized evaluation; returns [(cache_hit, outcome)]. *)
let evaluate_cached ~key ~target sk d =
  Memo.find_or_add eval_cache key (fun () -> evaluate ~target sk d)

let m_timeout = Tir_obs.Metrics.counter "measure.timeout"

(* One measurement attempt under the retry policy's budget. *)
let classify policy latency_us =
  if latency_us > policy.Tir_parallel.Retry.timeout_us then begin
    Tir_obs.Metrics.incr m_timeout;
    Unmeasurable
  end
  else Measured latency_us

(** Memoized measurement; returns [(cache_hit, outcome)].

    Fault handling: when injection is configured for the [Measure] site,
    each attempt passes a per-attempt fault key to the simulator and
    injected failures are retried under [retry]. Retry exhaustion raises
    out of the memo's compute function — the memo removes its pending
    marker on a raise — so an exhausted candidate is reported
    [Unmeasurable] {e without being cached}: it never poisons the memo
    for a later run with different fault configuration. A candidate whose
    simulated latency exceeds [retry.timeout_us] is deterministically
    [Unmeasurable] (that outcome {e is} cached — the simulator is pure). *)
let measure_cached ?(retry = Tir_parallel.Retry.default) ~key ~target f =
  match
    Memo.find_or_add measure_cache key (fun () ->
        match
          if Tir_core.Fault.enabled Tir_core.Fault.Measure then
            Tir_parallel.Retry.with_retries ~policy:retry ~site:"measure" ~key
              (fun ~attempt ->
                Tir_sim.Machine.measure_us
                  ~fault_key:(Printf.sprintf "%s@%d" key attempt)
                  target f)
          else Tir_sim.Machine.measure_us target f
        with
        | latency_us -> classify retry latency_us
        | exception Tir_sim.Machine.Unsupported _ -> Unsupported_target)
  with
  | outcome -> outcome
  | exception Tir_parallel.Retry.Exhausted _ -> (false, Unmeasurable)

type cache_stats = { hits : int; misses : int; entries : int }

let cache_stats () =
  {
    hits = Memo.hits eval_cache + Memo.hits measure_cache;
    misses = Memo.misses eval_cache + Memo.misses measure_cache;
    entries = Memo.length eval_cache + Memo.length measure_cache;
  }

(** Drop every cached evaluation and measurement (tests; fresh-process
    comparisons). *)
let clear_caches () =
  Memo.clear eval_cache;
  Memo.clear measure_cache
