(* Layer replay: re-drive one traced tuning task's exact candidate stream
   through the public per-layer calls, one call at a time and in the
   engine's order, with a span around each call.

   The stream is what the engine's checkpoint hooks reported: the fresh
   candidate keys of every generation ([space_id|canonical_key], slot
   order) and the latency of every measured candidate (measurement order).
   Per generation the replay classifies each key exactly as
   [Eval.evaluate] does (sketch pre-filter, apply, validate, legality
   certificate, analyzer, features), ranks the evaluated candidates with a
   cost model built from the task's own model spec, measures the top of
   the ranking once per distinct program, feeds the model and retrains.
   Because every step is deterministic, the replay's classification tally
   and measured latencies must equal the traced run's [Tune] stats
   exactly; [check] reports any difference, since the per-layer times
   would then describe different work. *)

module W = Tir_workloads.Workloads
module Target = Tir_sim.Target
module Machine = Tir_sim.Machine
module Sketch = Tir_autosched.Sketch
module Model = Tir_autosched.Model
module Evo = Tir_autosched.Evolutionary
module Legality = Tir_analysis.Legality

(* [Engine.create]'s defaults, which [Tune] does not override. *)
let measure_batch = 16

type stream = {
  mutable seen : (int * string list) list;  (** per generation, newest first *)
  mutable measured : float list;  (** latencies, newest first *)
}

let new_stream () = { seen = []; measured = [] }

(* The engine's write-ahead hooks, recording into [s]. *)
let checkpoint s =
  {
    Evo.on_seen = (fun ~gen keys -> s.seen <- (gen, keys) :: s.seen);
    on_measured =
      (fun ~gen:_ (m : Evo.measured) ->
        s.measured <- m.Evo.latency_us :: s.measured);
    on_generation = (fun ~gen:_ _ ~best_us:_ -> ());
  }

type task = {
  label : string;
  target : Target.t;
  workload : W.t;
  model : Model.spec;
  trials : int;
  stream : stream;
  stats : Evo.stats;  (** the traced run's final stats *)
}

type tally = {
  mutable proposed : int;
  mutable inapplicable : int;
  mutable invalid : int;
  mutable unsound : int;
  mutable unsupported : int;
  mutable evaluated : int;
  mutable applied : int;  (** candidates [Sketch.apply] materialized *)
  mutable certified : int;
  mutable illegal : int;
  mutable unknown : int;
  mutable measurements : int;  (** [Machine.measure_us] calls *)
  mutable trials : int;
  mutable unmeasurable : int;
  mutable latencies : float list;  (** newest first *)
  mutable pairs : (float * float) list;  (** (score, latency) *)
}

let new_tally () =
  {
    proposed = 0;
    inapplicable = 0;
    invalid = 0;
    unsound = 0;
    unsupported = 0;
    evaluated = 0;
    applied = 0;
    certified = 0;
    illegal = 0;
    unknown = 0;
    measurements = 0;
    trials = 0;
    unmeasurable = 0;
    latencies = [];
    pairs = [];
  }

(* [space_id ^ "|" ^ Space.canonical_key knobs d] back to (sketch, d). The
   longest matching space id wins, so one id being a prefix of another
   cannot misroute a key. *)
let decode sketches key =
  let matching =
    List.filter
      (fun (sk : Sketch.t) ->
        String.starts_with ~prefix:(sk.Sketch.space_id ^ "|") key)
      sketches
  in
  match
    List.sort
      (fun (a : Sketch.t) (b : Sketch.t) ->
        compare (String.length b.Sketch.space_id) (String.length a.Sketch.space_id))
      matching
  with
  | [] -> failwith ("replay: no sketch for key " ^ key)
  | sk :: _ ->
      let n = String.length sk.Sketch.space_id + 1 in
      let canon = String.sub key n (String.length key - n) in
      let d =
        if canon = "" then []
        else
          List.map
            (fun kv ->
              let i = String.rindex kv '=' in
              ( String.sub kv 0 i,
                int_of_string (String.sub kv (i + 1) (String.length kv - i - 1)) ))
            (String.split_on_char ';' canon)
      in
      (sk, d)

(* One candidate through the evaluation layers, mirroring
   [Eval.evaluate]. *)
let evaluate tl target (sk : Sketch.t) d =
  tl.proposed <- tl.proposed + 1;
  let bump_inapplicable () = tl.inapplicable <- tl.inapplicable + 1 in
  if Prof.span "sched.rejects" (fun () -> sk.Sketch.rejects d) then begin
    bump_inapplicable ();
    None
  end
  else
    match Prof.span "sched.apply" (fun () -> sk.Sketch.apply d) with
    | exception Tir_sched.State.Schedule_error _ ->
        bump_inapplicable ();
        None
    | sch -> (
        tl.applied <- tl.applied + 1;
        let f = Tir_sched.Schedule.func sch in
        match Prof.span "validate.check" (fun () -> Tir_sched.Validate.check_func f) with
        | _ :: _ ->
            tl.invalid <- tl.invalid + 1;
            None
        | [] -> (
            tl.certified <- tl.certified + 1;
            let verdict =
              Prof.span "analysis.certify" (fun () -> Tir_analysis.Analysis.certify f)
            in
            match verdict with
            | Legality.Illegal _ ->
                tl.illegal <- tl.illegal + 1;
                tl.unsound <- tl.unsound + 1;
                None
            | Legality.Legal | Legality.Unknown -> (
                if verdict = Legality.Unknown then tl.unknown <- tl.unknown + 1;
                if
                  Prof.span "analysis.errors" (fun () ->
                      Tir_analysis.Analysis.errors f <> [])
                then begin
                  tl.unsound <- tl.unsound + 1;
                  None
                end
                else
                  match
                    Prof.span "features.extract" (fun () ->
                        Tir_autosched.Features.extract target f)
                  with
                  | exception Machine.Unsupported _ ->
                      tl.unsupported <- tl.unsupported + 1;
                      None
                  | features ->
                      tl.evaluated <- tl.evaluated + 1;
                      let fp =
                        Prof.span "eval.fingerprint" (fun () ->
                            Tir_ir.Fingerprint.func f)
                      in
                      Some (f, fp, features))))

type measurement = Measured of float | Unsupported_target | Unmeasurable

let measure tl target f =
  tl.measurements <- tl.measurements + 1;
  match Prof.span "sim.measure" (fun () -> Machine.measure_us target f) with
  | exception Machine.Unsupported _ -> Unsupported_target
  | l when l > Tir_parallel.Retry.default.Tir_parallel.Retry.timeout_us ->
      Unmeasurable
  | l -> Measured l

(* One generation: evaluate the fresh keys, rank, measure the top batch
   once per distinct program, feed and retrain the model. *)
let generation tl t sketches model keys =
  let cands =
    List.filter_map
      (fun key ->
        let sk, d = decode sketches key in
        evaluate tl t.target sk d)
      keys
  in
  if cands <> [] then begin
    let scores =
      Prof.span "model.score_batch" (fun () ->
          Model.score_batch model
            (Array.of_list (List.map (fun (_, _, ft) -> ft) cands)))
    in
    let ranked =
      List.stable_sort
        (fun ((a : float), _) (b, _) -> Float.compare b a)
        (List.combine (Array.to_list scores) cands)
    in
    let batch = min measure_batch (t.trials - tl.trials) in
    let outcomes = Hashtbl.create 16 in
    List.iteri
      (fun i (score, (f, fp, features)) ->
        if i < batch then begin
          let outcome =
            match Hashtbl.find_opt outcomes fp with
            | Some o -> o
            | None ->
                let o = measure tl t.target f in
                Hashtbl.add outcomes fp o;
                o
          in
          match outcome with
          | Unsupported_target -> ()
          | Unmeasurable -> tl.unmeasurable <- tl.unmeasurable + 1
          | Measured latency_us ->
              tl.trials <- tl.trials + 1;
              tl.latencies <- latency_us :: tl.latencies;
              tl.pairs <- (score, latency_us) :: tl.pairs;
              Prof.span "model.add" (fun () ->
                  Model.add model
                    ~group:(t.target.Target.name ^ "|" ^ t.workload.W.name)
                    ~features ~latency_us)
        end)
      ranked;
    Prof.span "model.retrain" (fun () -> Model.retrain model)
  end

let run (t : task) =
  let tl = new_tally () in
  let sketches =
    Prof.span "sketch.generate" (fun () ->
        Sketch.generate t.target t.workload
          (Tir_autosched.Tune.target_intrinsics t.target))
  in
  let model = Model.of_spec t.model in
  List.iter
    (fun (_, keys) -> generation tl t sketches model keys)
    (List.sort (fun (a, _) (b, _) -> compare a b) t.stream.seen);
  tl

(* Differences between the replay and the traced run, [] when the replay
   re-did exactly the traced work. *)
let check (t : task) tl =
  let s = t.stats in
  let field name replay traced =
    if replay = traced then []
    else [ Printf.sprintf "%s %s: replay %d, traced %d" t.label name replay traced ]
  in
  field "proposed" tl.proposed s.Evo.proposed
  @ field "inapplicable" tl.inapplicable s.Evo.inapplicable
  @ field "invalid" tl.invalid s.Evo.invalid
  @ field "unsound" tl.unsound s.Evo.unsound
  @ field "trials" tl.trials s.Evo.trials
  @ field "unmeasurable" tl.unmeasurable s.Evo.unmeasurable
  @
  if List.equal Float.equal tl.latencies t.stream.measured then []
  else [ t.label ^ " measured latencies differ" ]

(* Spearman correlation of predicted score against speed over the
   replay's measured pairs, as [Engine.rank_corr] defines it. *)
let rank_corr tl =
  Tir_obs.Stat.spearman
    (Array.of_list (List.rev_map (fun (s, l) -> (s, -.l)) tl.pairs))
