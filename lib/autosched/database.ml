(** Tuning-record database (paper §5.2).

    "TensorIR can eliminate search time further by caching historical cost
    models and search records. So no search is needed to build a model for
    an operator already tuned." Records map (target, workload) to the best
    schedule found, carrying the full instruction trace of that schedule:
    [replay] re-applies the trace to a freshly built start function — no
    sketch regeneration, so records survive search-space refactors — and
    falls back to re-applying the recorded decisions through the sketch for
    traceless (v1) records.

    On-disk format v2 is line-oriented, append-friendly and
    human-inspectable:
    {v
    # tensorir database v2
    target|workload|sketch|base|decisions|latency_us|trace
    v}
    Every field is percent-escaped, so names containing the [|] field
    separator (or the [,]/[=] used inside the decisions field, or newlines)
    cannot inject fields. The serialized trace has its newlines escaped to
    keep one record per line. Headerless files are read as the v1 format
    ([target|workload|sketch|decisions|latency_us], no escaping) for
    backward compatibility. *)

module W = Tir_workloads.Workloads
module TI = Tir_intrin.Tensor_intrin

type record = {
  target_name : string;
  workload_name : string;
  sketch_name : string;
  base : string;  (** [Sketch.base]: intrinsic name of the tensorization
                      candidate the schedule starts from, or [""] *)
  decisions : Space.decisions;
  latency_us : float;
  trace : Tir_sched.Trace.t option;
      (** [None] only for records loaded from v1 files *)
}

type t = { mutable records : record list }

(* Registry counters: replays attempted / replayed from trace alone /
   fresh results committed. *)
let m_found = Tir_obs.Metrics.counter "db.found"
let m_replayed = Tir_obs.Metrics.counter "db.replayed"
let m_committed = Tir_obs.Metrics.counter "db.committed"

let create () = { records = [] }

let find t ~target_name ~workload_name =
  (* Compare the name pair, not a joined string: a '|' inside a name must
     not let ("a|b", "c") alias ("a", "b|c"). *)
  List.fold_left
    (fun best r ->
      if String.equal r.target_name target_name && String.equal r.workload_name workload_name
      then
        match best with
        | Some b when b.latency_us <= r.latency_us -> best
        | _ -> Some r
      else best)
    None t.records

let add t r = t.records <- r :: t.records

let size t = List.length t.records

(* --- serialization --- *)

let version_header = "# tensorir database v2"

(* Percent-escape every character with structural meaning in the line
   format: '%' (the escape itself), '|' (field separator), '\n'/'\r' (record
   separator), ',' and '=' (decision-list separators). *)
let escape =
  Tir_core.Percent.encode ~reserved:(function
    | '|' | '\n' | '\r' | ',' | '=' -> true
    | _ -> false)

let unescape s =
  match Tir_core.Percent.decode s with
  | Some v -> v
  | None -> failwith "bad escape in database field"

let decisions_to_string (d : Space.decisions) =
  String.concat ","
    (List.map (fun (k, v) -> Printf.sprintf "%s=%d" (escape k) v) (List.sort compare d))

let decisions_of_string ~unescape_keys s =
  if String.equal s "" then []
  else
    List.map
      (fun kv ->
        match String.index_opt kv '=' with
        | Some i ->
            let k = String.sub kv 0 i in
            ( (if unescape_keys then unescape k else k),
              int_of_string (String.sub kv (i + 1) (String.length kv - i - 1)) )
        | None -> failwith ("bad decision entry " ^ kv))
      (String.split_on_char ',' s)

let record_to_line r =
  Printf.sprintf "%s|%s|%s|%s|%s|%.6f|%s" (escape r.target_name)
    (escape r.workload_name) (escape r.sketch_name) (escape r.base)
    (decisions_to_string r.decisions)
    r.latency_us
    (match r.trace with Some tr -> escape (Tir_sched.Trace.to_string tr) | None -> "")

let record_of_line_v2 line =
  match String.split_on_char '|' line with
  | [ target_name; workload_name; sketch_name; base; decisions; latency; trace ] ->
      {
        target_name = unescape target_name;
        workload_name = unescape workload_name;
        sketch_name = unescape sketch_name;
        base = unescape base;
        decisions = decisions_of_string ~unescape_keys:true decisions;
        latency_us = float_of_string latency;
        trace =
          (if String.equal trace "" then None
           else Some (Tir_sched.Trace.of_string (unescape trace)));
      }
  | _ -> failwith ("bad database line: " ^ line)

(* v1: [target|workload|sketch|decisions|latency_us], unescaped. *)
let record_of_line_v1 line =
  match String.split_on_char '|' line with
  | [ target_name; workload_name; sketch_name; decisions; latency ] ->
      {
        target_name;
        workload_name;
        sketch_name;
        base = "";
        decisions = decisions_of_string ~unescape_keys:false decisions;
        latency_us = float_of_string latency;
        trace = None;
      }
  | _ -> failwith ("bad database line: " ^ line)

(* One guarded write under the fault-injection harness (site [Db_write]):
   injected failures are retried with deterministic backoff; exhaustion
   surfaces as [Error.Error] with kind [Fault], never as a silent partial
   write. No-op (beyond the write itself) when injection is off. *)
let db_write_guard ~key =
  if Tir_core.Fault.enabled Tir_core.Fault.Db_write then
    try
      Tir_parallel.Retry.with_retries ~site:"db" ~key (fun ~attempt ->
          Tir_core.Fault.maybe_fail Tir_core.Fault.Db_write
            ~key:(Printf.sprintf "%s@%d" key attempt))
    with Tir_parallel.Retry.Exhausted { site; key; attempts } ->
      Tir_core.Error.raise_error ~context:key Tir_core.Error.Fault
        (Printf.sprintf "%s write failed after %d attempts" site attempts)

let save t path =
  (* Write-then-rename: a crash (or an exhausted injected fault) mid-save
     leaves the previous snapshot intact — readers never observe a
     half-written database. *)
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (try
     output_string oc (version_header ^ "\n");
     List.iteri
       (fun i r ->
         db_write_guard ~key:(Printf.sprintf "dbsave:%d" i);
         output_string oc (record_to_line r ^ "\n"))
       (List.rev t.records);
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let m_torn = Tir_obs.Metrics.counter "db.torn_dropped"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path =
  if not (Sys.file_exists path) then create ()
  else begin
    let content = read_file path in
    let len = String.length content in
    (* A file that does not end in a newline was torn by a crash
       mid-append: its final (partial) line is dropped if unparseable.
       Newline-terminated garbage is still an error — that is corruption,
       not a torn write. *)
    let complete_tail = len = 0 || content.[len - 1] = '\n' in
    let lines = String.split_on_char '\n' content in
    let records = ref [] in
    let v2 = ref false in
    let parse line = if !v2 then record_of_line_v2 line else record_of_line_v1 line in
    let rec go = function
      | [] -> ()
      | [ last ] when not complete_tail ->
          let trimmed = String.trim last in
          if trimmed <> "" && trimmed.[0] <> '#'
             && not (String.equal trimmed version_header) then (
            match parse last with
            | r -> records := r :: !records
            | exception _ -> Tir_obs.Metrics.incr m_torn)
      | line :: rest ->
          let trimmed = String.trim line in
          if String.equal trimmed version_header then v2 := true
          else if trimmed <> "" && trimmed.[0] <> '#' then
            records := parse line :: !records;
          go rest
    in
    go lines;
    { records = !records }
  end

(** [load] through the unified error surface: [Io] when the filesystem
    refuses, [Corrupt] when a (complete) line violates the format. *)
let load_result path : (t, Tir_core.Error.t) result =
  match load path with
  | db -> Ok db
  | exception Failure msg ->
      Error (Tir_core.Error.make ~context:path Tir_core.Error.Corrupt msg)
  | exception Tir_sched.Trace.Parse_error msg ->
      Error
        (Tir_core.Error.make ~context:path Tir_core.Error.Corrupt
           ("bad trace field: " ^ msg))
  | exception Sys_error msg ->
      Error (Tir_core.Error.make ~context:path Tir_core.Error.Io msg)
  | exception Tir_core.Error.Error e -> Error e

(** Record the best result of a tuning run. *)
let commit t (target : Tir_sim.Target.t) (w : W.t) (best : Evolutionary.measured) =
  Tir_obs.Metrics.incr m_committed;
  add t
    {
      target_name = target.Tir_sim.Target.name;
      workload_name = w.W.name;
      sketch_name = best.Evolutionary.sketch_name;
      base = best.Evolutionary.base;
      decisions = best.Evolutionary.decisions;
      latency_us = best.Evolutionary.latency_us;
      trace = Some best.Evolutionary.trace;
    }

(* --- replay --- *)

(* Trace-replay hit-rate counters for the bench JSON: how many records a
   replay was attempted for, and how many replayed from their trace alone
   (the fallback sketch path does not count as a trace replay). The same
   counts (plus commits) also flow into the metrics registry as
   [db.found] / [db.replayed] / [db.committed]; [reset_replay_counters]
   only clears the local pair ([Tir_obs.Metrics.reset] clears the registry
   side). *)
let replay_found = ref 0
let replay_ok = ref 0
let replay_counters () = (!replay_found, !replay_ok)

let reset_replay_counters () =
  replay_found := 0;
  replay_ok := 0

(* The function the record's trace was applied to: the workload's func for
   scalar sketches, or the tensorization candidate's canonical program for
   [base = <intrinsic>]. *)
let base_func (w : W.t) (base : string) =
  if String.equal base "" then Some w.W.func
  else
    match TI.lookup base with
    | intrin -> Option.map (fun c -> c.Candidate.func) (Candidate.generate w intrin)
    | exception TI.Not_registered _ -> None

(* Replay from the serialized trace alone: rebuild the start function from
   (workload, base), re-apply every instruction, re-validate, measure once
   (memoized on the digest of the replayed program). *)
let replay_from_trace (target : Tir_sim.Target.t) (w : W.t) (r : record) :
    Evolutionary.measured option =
  match r.trace with
  | None -> None
  | Some tr -> (
      match base_func w r.base with
      | None -> None
      | Some f -> (
          match Tir_sched.Schedule.replay tr f with
          | exception Tir_sched.State.Schedule_error _ -> None
          | sch -> (
              let func = Tir_sched.Schedule.func sch in
              match Tir_sched.Validate.check_func func with
              | _ :: _ -> None
              | [] -> (
                  (* [prog# ^ structural fingerprint] — the same key form
                     the search's measurement memo uses, so a replayed
                     record hits the entry a live search already paid
                     for (and vice versa). *)
                  let key =
                    Eval.cache_prefix target ^ "prog#"
                    ^ Sketch.workload_digest func
                  in
                  match snd (Eval.measure_cached ~key ~target func) with
                  | Eval.Unsupported_target | Eval.Unmeasurable -> None
                  | Eval.Measured latency_us ->
                      Some
                        {
                          Evolutionary.sketch_name = r.sketch_name;
                          base = r.base;
                          decisions = Tir_sched.Trace.decisions tr;
                          trace = tr;
                          func;
                          latency_us;
                        }))))

(* Legacy path for traceless (v1) records: re-apply the stored decisions
   through the matching freshly generated sketch. [Space.Unknown_knob]
   means the sketch's knob set changed since the record was written — the
   record is stale, not an error. *)
let replay_from_sketch (target : Tir_sim.Target.t) (sketches : Sketch.t list)
    (r : record) : Evolutionary.measured option =
  match
    List.find_opt (fun s -> String.equal s.Sketch.name r.sketch_name) sketches
  with
  | None -> None
  | Some sk -> (
      (* The evaluation key is the canonical (knob-projected) form the
         search uses; [Space.canonical_key] reads the vector with
         [decide_exn], so a missing knob — the search space changed since
         the record was written — parks the record as stale below. *)
      match
        let key =
          Eval.cache_prefix target ^ sk.Sketch.space_id ^ "|"
          ^ Space.canonical_key sk.Sketch.knobs r.decisions
        in
        snd (Eval.evaluate_cached ~key ~target sk r.decisions)
      with
      | exception Space.Unknown_knob _ -> None
      | Eval.Inapplicable | Eval.Invalid | Eval.Unsound
      | Eval.Unsupported ->
          None
      | Eval.Evaluated { func; fp; trace; _ } -> (
          let key =
            Eval.cache_prefix target ^ "prog#"
            ^ Tir_ir.Fingerprint.to_hex fp
          in
          match snd (Eval.measure_cached ~key ~target func) with
          | Eval.Unsupported_target | Eval.Unmeasurable -> None
          | Eval.Measured latency_us ->
              Some
                {
                  Evolutionary.sketch_name = r.sketch_name;
                  base = sk.Sketch.base;
                  decisions = Tir_sched.Trace.decisions trace;
                  trace;
                  func;
                  latency_us;
                }))

(** Replay a stored record: trace-first (no sketch regeneration — the
    record is portable across search-space versions), falling back to
    re-applying the recorded decisions through [sketches] for v1 records.
    Returns [None] if neither path yields a valid, measurable schedule.
    Re-application and the verification measurement go through the
    process-wide memo in [Eval], so replaying a schedule tuned
    earlier in the same process re-simulates nothing. *)
let replay (target : Tir_sim.Target.t) ~(workload : W.t) ~(sketches : Sketch.t list)
    (r : record) : Evolutionary.measured option =
  incr replay_found;
  Tir_obs.Metrics.incr m_found;
  match replay_from_trace target workload r with
  | Some m ->
      incr replay_ok;
      Tir_obs.Metrics.incr m_replayed;
      Some m
  | None -> replay_from_sketch target sketches r
