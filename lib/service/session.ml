(** Crash-safe resumable tuning sessions. See the interface for the log
    grammar and the recovery contract. *)

module W = Tir_workloads.Workloads
module Tune = Tir_autosched.Tune
module Evo = Tir_autosched.Evolutionary
module Model = Tir_autosched.Model
module Database = Tir_autosched.Database
module Error = Tir_core.Error
module Metrics = Tir_obs.Metrics
module Trace = Tir_sched.Trace

let m_resumes = Metrics.counter "session.resumes"
let m_generations = Metrics.counter "session.generations"
let m_discarded = Metrics.counter "session.discarded"
let m_compactions = Metrics.counter "session.compactions"

exception Halted of { path : string; gen : int }

let () =
  Printexc.register_printer (function
    | Halted { path; gen } ->
        Some (Printf.sprintf "Session.Halted(%s, gen %d)" path gen)
    | _ -> None)

let corrupt ~path fmt =
  Printf.ksprintf (fun msg -> Error.raise_error ~context:path Error.Corrupt msg) fmt

(* Hex float serialization round-trips every bit — latencies feed the
   cost model and the elite ranking, so "close" is not good enough. *)
let fl = Printf.sprintf "%h"
let esc = Database.escape
let unesc = Database.unescape

(* --- record grammar ----------------------------------------------------- *)

(* Cumulative stats snapshot embedded in [gen] and [done] records. *)
let stats_fields (s : Evo.stats) =
  [
    string_of_int s.Evo.trials;
    string_of_int s.Evo.proposed;
    string_of_int s.Evo.invalid;
    string_of_int s.Evo.unsound;
    string_of_int s.Evo.inapplicable;
    string_of_int s.Evo.unmeasurable;
    string_of_int s.Evo.cache_hits;
    string_of_int s.Evo.cache_lookups;
    fl s.Evo.profiling_us;
  ]

let stats_width = 9

let stats_of_fields ~path fields =
  let num s =
    match int_of_string_opt s with
    | Some n -> n
    | None -> corrupt ~path "bad stats field %S" s
  in
  match fields with
  | [ trials; proposed; invalid; unsound; inapplicable; unmeasurable;
      cache_hits; cache_lookups; profiling ] ->
      let s = Evo.new_stats () in
      s.Evo.trials <- num trials;
      s.Evo.proposed <- num proposed;
      s.Evo.invalid <- num invalid;
      s.Evo.unsound <- num unsound;
      s.Evo.inapplicable <- num inapplicable;
      s.Evo.unmeasurable <- num unmeasurable;
      s.Evo.cache_hits <- num cache_hits;
      s.Evo.cache_lookups <- num cache_lookups;
      (match float_of_string_opt profiling with
      | Some p -> s.Evo.profiling_us <- p
      | None -> corrupt ~path "bad profiling field %S" profiling);
      s
  | _ -> corrupt ~path "bad stats snapshot (%d fields)" (List.length fields)

let meta_line ~(w : W.t) ~(target : Tir_sim.Target.t) (cfg : Tune.Config.t) =
  String.concat "|"
    [
      "meta";
      esc w.W.tag;
      esc w.W.name;
      esc target.Tir_sim.Target.name;
      string_of_int cfg.Tune.Config.seed;
      string_of_int cfg.Tune.Config.trials;
      (if cfg.Tune.Config.use_cost_model then "1" else "0");
      (if cfg.Tune.Config.evolve then "1" else "0");
      esc (Model.spec_to_string cfg.Tune.Config.model);
    ]

let seen_line ~gen keys =
  String.concat "|" (("seen" :: string_of_int gen :: List.map esc keys))

let measure_line ~gen (m : Evo.measured) =
  String.concat "|"
    [
      "measure";
      string_of_int gen;
      esc m.Evo.sketch_name;
      esc m.Evo.base;
      fl m.Evo.latency_us;
      esc (Trace.to_string m.Evo.trace);
    ]

let gen_line ~gen stats ~best_us =
  String.concat "|"
    (("gen" :: string_of_int gen :: stats_fields stats) @ [ fl best_us ])

let done_line stats ~best_us (best : Evo.measured option) =
  let best_fields =
    match best with
    | Some m ->
        [ "1"; esc m.Evo.sketch_name; esc m.Evo.base; fl m.Evo.latency_us;
          esc (Trace.to_string m.Evo.trace) ]
    | None -> [ "0"; ""; ""; ""; "" ]
  in
  String.concat "|" (("done" :: stats_fields stats) @ (fl best_us :: best_fields))

(* --- log parsing -------------------------------------------------------- *)

type raw_measure = {
  rm_sketch : string;
  rm_base : string;
  rm_latency : float;
  rm_trace : string;  (** unescaped trace text, parsed lazily *)
}

type parsed = {
  p_tag : string;
  p_wname : string;
  p_tname : string;
  p_seed : int;
  p_trials : int;
  p_ucm : bool;
  p_evolve : bool;
  p_model : Model.spec;
  p_committed : string list;  (** canonical committed lines, meta first *)
  p_next_gen : int;
  p_seen : string list;  (** committed dedup keys, original order *)
  p_measured : raw_measure list;  (** committed, original order *)
  p_stats : Evo.stats option;  (** snapshot at the last commit marker *)
  p_best_us : float;
  p_done : (Evo.stats * float * raw_measure option) option;
  p_discarded : int;  (** uncommitted records dropped *)
}

let parse_raw_measure ~path = function
  | [ g; sketch; base; latency; trace ] -> (
      match (int_of_string_opt g, float_of_string_opt latency) with
      | Some g, Some l ->
          ( g,
            {
              rm_sketch = unesc sketch;
              rm_base = unesc base;
              rm_latency = l;
              rm_trace = unesc trace;
            } )
      | _ -> corrupt ~path "bad measure record")
  | _ -> corrupt ~path "bad measure record"

(* Classify one record line. Raises [Error] (kind [Corrupt]) on garbage —
   the caller decides whether a torn tail gets that treatment. *)
type record =
  | R_seen of int * string list
  | R_measure of int * raw_measure
  | R_gen of int * Evo.stats * float
  | R_done of Evo.stats * float * raw_measure option

let parse_record ~path line =
  match String.split_on_char '|' line with
  | "seen" :: g :: keys -> (
      match int_of_string_opt g with
      | Some g -> R_seen (g, List.map unesc keys)
      | None -> corrupt ~path "bad seen record")
  | "measure" :: rest ->
      let g, rm = parse_raw_measure ~path rest in
      R_measure (g, rm)
  | "gen" :: g :: rest when List.length rest = stats_width + 1 -> (
      match int_of_string_opt g with
      | None -> corrupt ~path "bad gen record"
      | Some g ->
          let stats_f = List.filteri (fun i _ -> i < stats_width) rest in
          let best = List.nth rest stats_width in
          let best_us =
            match float_of_string_opt best with
            | Some b -> b
            | None -> corrupt ~path "bad gen best field %S" best
          in
          R_gen (g, stats_of_fields ~path stats_f, best_us))
  | "done" :: rest when List.length rest = stats_width + 6 ->
      let stats_f = List.filteri (fun i _ -> i < stats_width) rest in
      let tail = List.filteri (fun i _ -> i >= stats_width) rest in
      (match tail with
      | [ best_us; has; sketch; base; latency; trace ] ->
          let best_us =
            match float_of_string_opt best_us with
            | Some b -> b
            | None -> corrupt ~path "bad done best field"
          in
          let best =
            if String.equal has "1" then
              match float_of_string_opt latency with
              | Some l ->
                  Some
                    {
                      rm_sketch = unesc sketch;
                      rm_base = unesc base;
                      rm_latency = l;
                      rm_trace = unesc trace;
                    }
              | None -> corrupt ~path "bad done latency field"
            else None
          in
          R_done (stats_of_fields ~path stats_f, best_us, best)
      | _ -> corrupt ~path "bad done record")
  | _ -> corrupt ~path "unrecognized session record: %s" line

let parse ~path =
  let lines, torn = Wal.read ~path in
  match lines with
  | [] -> corrupt ~path "empty or missing session log"
  | meta :: rest ->
      (* Logs written before the model field existed have 8 meta fields;
         they read back as the historical default (a fresh GBDT). *)
      let parse_meta fields spec =
        match fields with
        | [ "meta"; tag; name; tname; seed; trials; ucm; evolve ] -> (
            match (int_of_string_opt seed, int_of_string_opt trials) with
            | Some seed, Some trials ->
                let model =
                  match spec with
                  | None -> Model.Gbdt
                  | Some s -> (
                      match Model.spec_of_string (unesc s) with
                      | m -> m
                      | exception Model.Parse_error _ ->
                          corrupt ~path "bad meta model field")
                in
                ( unesc tag, unesc name, unesc tname, seed, trials,
                  String.equal ucm "1", String.equal evolve "1", model )
            | _ -> corrupt ~path "bad meta record")
        | _ -> corrupt ~path "missing meta record"
      in
      let p_tag, p_wname, p_tname, p_seed, p_trials, p_ucm, p_evolve, p_model =
        match String.split_on_char '|' meta with
        | [ _; _; _; _; _; _; _; _; spec ] as fields ->
            parse_meta (List.filteri (fun i _ -> i < 8) fields) (Some spec)
        | fields -> parse_meta fields None
      in
      (* Committed state grows only at [gen]/[done] markers; everything
         newer is pending and may be discarded. *)
      let committed = ref [ meta ] in
      let c_seen = ref [] and c_meas = ref [] in
      let pend_lines = ref [] and pend_seen = ref [] and pend_meas = ref [] in
      let next_gen = ref 0 in
      let stats = ref None and best_us = ref Float.nan in
      let done_ = ref None in
      let apply line = function
        | R_seen (_, keys) ->
            pend_lines := line :: !pend_lines;
            pend_seen := List.rev_append keys !pend_seen
        | R_measure (_, rm) ->
            pend_lines := line :: !pend_lines;
            pend_meas := rm :: !pend_meas
        | R_gen (g, s, b) ->
            if g <> !next_gen then
              corrupt ~path "commit marker out of sequence (gen %d, expected %d)"
                g !next_gen;
            committed := (line :: !pend_lines) @ !committed;
            c_seen := !pend_seen @ !c_seen;
            c_meas := !pend_meas @ !c_meas;
            pend_lines := [];
            pend_seen := [];
            pend_meas := [];
            next_gen := g + 1;
            stats := Some s;
            best_us := b
        | R_done (s, b, best) ->
            committed := line :: !committed;
            done_ := Some (s, b, best)
      in
      List.iter
        (fun line ->
          if !done_ <> None then corrupt ~path "records after done marker";
          let trimmed = String.trim line in
          if trimmed <> "" && trimmed.[0] <> '#' then
            apply line (parse_record ~path line))
        rest;
      (* Torn tail: salvage it when it parses, drop it silently when it
         does not — a crash mid-append is expected, garbage mid-file is
         not. *)
      (match torn with
      | Some frag when !done_ = None && String.trim frag <> "" -> (
          match parse_record ~path frag with
          | r -> apply frag r
          | exception Error.Error _ -> ())
      | _ -> ());
      let discarded = List.length !pend_lines in
      {
        p_tag;
        p_wname;
        p_tname;
        p_seed;
        p_trials;
        p_ucm;
        p_evolve;
        p_model;
        p_committed = List.rev !committed;
        p_next_gen = !next_gen;
        p_seen = List.rev !c_seen;
        p_measured = List.rev !c_meas;
        p_stats = !stats;
        p_best_us = !best_us;
        p_done = !done_;
        p_discarded = discarded;
      }

(* --- rebuilding search state -------------------------------------------- *)

(* A measured candidate is stored as (sketch, base, latency, trace); the
   program itself is rebuilt by replaying the trace onto the base
   function — replay is pure, so the rebuilt func is structurally the one
   that was measured. *)
let measured_of_raw ~path ~(w : W.t) rm : Evo.measured =
  let trace =
    match Trace.of_string_result rm.rm_trace with
    | Ok t -> t
    | Error e -> corrupt ~path "bad trace in measure record: %s" e.Error.message
  in
  match Database.base_func w rm.rm_base with
  | None -> corrupt ~path "unknown base intrinsic %S in measure record" rm.rm_base
  | Some f -> (
      match Tir_sched.Schedule.replay trace f with
      | exception Tir_sched.State.Schedule_error msg ->
          corrupt ~path "unreplayable trace in measure record: %s" msg
      | sch ->
          {
            Evo.sketch_name = rm.rm_sketch;
            base = rm.rm_base;
            decisions = Trace.decisions trace;
            trace;
            func = Tir_sched.Schedule.func sch;
            latency_us = rm.rm_latency;
          })

(* Best-curve reconstruction mirrors [Evolutionary]'s [consider]: the
   trial counter ticks per measurement, improvements push a point. *)
let curve_of_latencies lats =
  let trials = ref 0 and best = ref Float.infinity and curve = ref [] in
  List.iter
    (fun l ->
      incr trials;
      if l < !best then begin
        best := l;
        curve := (!trials, l) :: !curve
      end)
    lats;
  !curve

(* --- sessions ----------------------------------------------------------- *)

type t = {
  s_path : string;
  s_cfg : Tune.Config.t;
  s_w : W.t;
  s_target : Tir_sim.Target.t;
  s_resume : Evo.resume option;
  s_measured_raw : raw_measure list;
  s_done : (Evo.stats * float * raw_measure option) option;
  mutable s_writer : Wal.writer option;
  mutable s_gens_this_run : int;
}

let path t = t.s_path

let close t =
  match t.s_writer with
  | None -> ()
  | Some wr ->
      Wal.close wr;
      t.s_writer <- None

let writer t =
  match t.s_writer with
  | Some wr -> wr
  | None -> Error.raise_error ~context:t.s_path Error.Io "session is closed"

let create ?(force = false) ~path (cfg : Tune.Config.t) (w : W.t) target =
  if cfg.Tune.Config.sketches <> None then
    invalid_arg "Session.create: cfg.sketches is not serializable";
  if (not force) && Sys.file_exists path
     && (try (Unix.stat path).Unix.st_size > 0 with Unix.Unix_error _ -> false)
  then
    Error.raise_error ~context:path Error.Io
      "session log already exists (resume it, or pass ~force:true)";
  Wal.rewrite ~path [ meta_line ~w ~target cfg ];
  {
    s_path = path;
    s_cfg = cfg;
    s_w = w;
    s_target = target;
    s_resume = None;
    s_measured_raw = [];
    s_done = None;
    s_writer = Some (Wal.open_append ~path ~start_index:1);
    s_gens_this_run = 0;
  }

let compact_parsed ~path (p : parsed) =
  Wal.rewrite ~path p.p_committed;
  Metrics.incr m_compactions

let compact ~path = compact_parsed ~path (parse ~path)

let resume ?workload ?jobs ?database ?retry ~path () =
  Tir_obs.Trace.with_span "session.resume" (fun () ->
      Metrics.incr m_resumes;
      let p = parse ~path in
      let w =
        match workload with
        | Some w ->
            if not (String.equal w.W.name p.p_wname) then
              corrupt ~path "workload mismatch: log has %S, got %S" p.p_wname
                w.W.name;
            w
        | None -> (
            match W.by_tag p.p_tag with
            | w when String.equal w.W.name p.p_wname -> w
            | _ ->
                corrupt ~path
                  "workload %S is not tag %s's default shape; pass ~workload"
                  p.p_wname p.p_tag
            | exception _ -> corrupt ~path "unknown workload tag %S" p.p_tag)
      in
      let target =
        match Tir_sim.Target.by_name p.p_tname with
        | t -> t
        | exception _ -> corrupt ~path "unknown target %S" p.p_tname
      in
      let cfg =
        {
          Tune.Config.default with
          Tune.Config.seed = p.p_seed;
          trials = p.p_trials;
          use_cost_model = p.p_ucm;
          evolve = p.p_evolve;
          model = p.p_model;
          jobs;
          database;
          retry = Option.value retry ~default:Tune.Config.default.Tune.Config.retry;
        }
      in
      Metrics.add m_discarded p.p_discarded;
      (* Drop the uncommitted tail *atomically* before appending anything:
         a second resume must never see a stale partial generation in the
         middle of the log. *)
      compact_parsed ~path p;
      let resume_state =
        if p.p_done <> None then None
        else
          Some
            {
              Evo.r_gen = p.p_next_gen;
              r_seen = p.p_seen;
              r_measured = List.map (measured_of_raw ~path ~w) p.p_measured;
              r_stats =
                (match p.p_stats with
                | Some s -> s
                | None -> Evo.new_stats ());
            }
      in
      {
        s_path = path;
        s_cfg = cfg;
        s_w = w;
        s_target = target;
        s_resume = resume_state;
        s_measured_raw = p.p_measured;
        s_done = p.p_done;
        s_writer =
          (if p.p_done = None then
             Some (Wal.open_append ~path ~start_index:(List.length p.p_committed))
           else None);
        s_gens_this_run = 0;
      })

let reconstruct_result t (stats, _best_us, best_raw) : Tune.result =
  let best = Option.map (measured_of_raw ~path:t.s_path ~w:t.s_w) best_raw in
  stats.Evo.best_curve <-
    curve_of_latencies (List.map (fun rm -> rm.rm_latency) t.s_measured_raw);
  { Tune.workload = t.s_w; target = t.s_target; best; stats; model = None }

let env_halt_after () =
  Option.bind (Sys.getenv_opt "TIR_HALT_AFTER_GEN") int_of_string_opt

(* --- stepping ----------------------------------------------------------- *)

type stepper = {
  st_t : t;
  st_driver : Tune.driver option;  (** [None]: the log was already done *)
  mutable st_result : Tune.result option;  (** set at the [`Done] transition *)
  mutable st_best_us : float;
      (** live best after the last step; NaN until something measured.
          Read by the scheduler for per-tenant gauges and stall
          detection. *)
  mutable st_rank_corr : float;
      (** cumulative model rank correlation after the last step; 0.0
          until two candidates measured. Read by the scheduler for the
          per-tenant [tenant.<name>.rank_corr] gauge. *)
}

type step_result = [ `Stepped of int | `Done of Tune.result ]

let start ?pool t =
  match t.s_done with
  | Some d ->
      let r = reconstruct_result t d in
      let best =
        match r.Tune.best with Some b -> b.Evo.latency_us | None -> Float.nan
      in
      { st_t = t; st_driver = None; st_result = Some r; st_best_us = best;
        st_rank_corr = 0.0 }
  | None ->
      let wr = writer t in
      (* The WAL hooks; one generation's records become durable at the
         [gen] commit marker appended by [on_generation]. Halting policy
         lives in the drivers ([run]'s halt_after check, the scheduler's
         step budget) — the hook itself never raises, so a stepper can be
         preempted and re-stepped at any generation boundary. *)
      let checkpoint =
        {
          Evo.on_seen =
            (fun ~gen keys ->
              Wal.append wr (seen_line ~gen keys);
              Tir_obs.Trace.instant "wal.seen"
                ~args:
                  [ ("gen", string_of_int gen);
                    ("keys", string_of_int (List.length keys)) ]);
          on_measured =
            (fun ~gen m ->
              Wal.append wr (measure_line ~gen m);
              Tir_obs.Trace.instant "wal.measure"
                ~args:
                  [ ("gen", string_of_int gen);
                    ("sketch", m.Evo.sketch_name);
                    ("latency_us", fl m.Evo.latency_us) ]);
          on_generation =
            (fun ~gen stats ~best_us ->
              Wal.append wr (gen_line ~gen stats ~best_us);
              (* the gen line is the commit marker — the durability
                 checkpoint worth seeing on a trace timeline *)
              Tir_obs.Trace.instant "wal.checkpoint"
                ~args:
                  [ ("gen", string_of_int gen);
                    ("trials", string_of_int stats.Evo.trials);
                    ("best_us", fl best_us) ];
              Metrics.incr m_generations;
              t.s_gens_this_run <- t.s_gens_this_run + 1);
        }
      in
      let d =
        Tune.prepare ~checkpoint ?resume:t.s_resume ?pool t.s_cfg t.s_w
          t.s_target
      in
      { st_t = t; st_driver = Some d; st_result = None; st_best_us = Float.nan;
        st_rank_corr = 0.0 }

let best_us st = st.st_best_us
let rank_corr st = st.st_rank_corr

let step st : step_result =
  match st.st_result with
  | Some r -> `Done r
  | None -> (
      let t = st.st_t in
      match st.st_driver with
      | None -> assert false (* st_result is always set when driver is absent *)
      | Some d -> (
          match
            Tir_obs.Trace.with_ctx ~session:t.s_path (fun () -> Tune.step d)
          with
          | Tune.Stepped { gen; best_us; rank_corr; _ } ->
              st.st_best_us <- best_us;
              st.st_rank_corr <- rank_corr;
              `Stepped gen
          | Tune.Finished result ->
              let best_us =
                match result.Tune.best with
                | Some b -> b.Evo.latency_us
                | None -> Float.nan
              in
              Wal.append (writer t)
                (done_line result.Tune.stats ~best_us result.Tune.best);
              close t;
              st.st_result <- Some result;
              st.st_best_us <- best_us;
              `Done result))

let abort st =
  (* The WAL is already consistent (every append was flushed); just stop
     writing and join any driver-owned pool. [Halted] and injected faults
     reach the caller with the log committed through the last marker. *)
  Option.iter Tune.release st.st_driver;
  close st.st_t

let run ?halt_after t : Tune.result =
  match t.s_done with
  | Some d -> reconstruct_result t d
  | None ->
      let halt_after =
        match halt_after with Some h -> Some h | None -> env_halt_after ()
      in
      Tir_obs.Trace.with_span "session.run" (fun () ->
          let st = start t in
          let rec drive () =
            match step st with
            | `Done r -> r
            | `Stepped gen -> (
                match halt_after with
                | Some h when t.s_gens_this_run >= h ->
                    raise (Halted { path = t.s_path; gen })
                | _ -> drive ())
          in
          match drive () with
          | r -> r
          | exception e ->
              abort st;
              raise e)

type status = {
  workload : string;
  target : string;
  seed : int;
  trials_target : int;
  trials_done : int;
  generations : int;
  completed : bool;
  best_us : float option;
}

let status ~path =
  let p = parse ~path in
  let stats, best_us, completed =
    match p.p_done with
    | Some (s, b, _) -> (Some s, b, true)
    | None -> (p.p_stats, p.p_best_us, false)
  in
  {
    workload = p.p_wname;
    target = p.p_tname;
    seed = p.p_seed;
    trials_target = p.p_trials;
    trials_done = (match stats with Some s -> s.Evo.trials | None -> 0);
    generations = p.p_next_gen;
    completed;
    best_us = (if Float.is_finite best_us then Some best_us else None);
  }
