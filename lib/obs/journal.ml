(** Search journal: a line-oriented JSONL export of a tuning run's trace.

    One event per line, each a flat JSON object with an ["ev"]
    discriminator. The journal is not recorded on its own: {!of_trace}
    derives it from the [Trace] stream and a [Metrics] snapshot. The
    tuning driver brackets each run with [tune.start]/[tune.end] instants
    ([Run_start]/[Run_end]); the search commits each generation with a
    [gen.commit] instant ([Generation]: candidates proposed / deduped /
    invalid, memo hits, mutation-acceptance counters, best-so-far latency,
    the cost model's rank correlation over the generation) and one
    [search.pair] instant per measured candidate ([Pair]: predicted score
    vs measured latency). Spans fold into one [Span] line per distinct
    span stack, and the registry snapshot becomes [Counter]/[Gauge] lines,
    so the CLI [report] subcommand can render a whole run from the file
    alone.

    String fields are percent-escaped: every structural or non-printable
    character — ['%'] itself, ['"'], ['\\'], newlines, and anything
    outside printable ASCII — is written as [%XX]. Escaped strings
    therefore contain no JSON escapes and no quotes, which makes every
    line trivially parseable (and injection-proof: adversarial workload
    names cannot forge fields or extra events), while the file stays
    valid JSONL for external tools.

    Floats are emitted as [null] when non-finite (JSON has no NaN literal)
    and read back as [nan]. *)

type event =
  | Run_start of {
      workload : string;
      target : string;
      seed : int;
      trials : int;
      jobs : int;
    }
  | Generation of {
      gen : int;
      proposed : int;  (** fresh proposals this generation (post-dedup) *)
      deduped : int;  (** proposals dropped as duplicates *)
      invalid : int;  (** rejected by the §3.3 validator *)
      inapplicable : int;  (** rejected by the sketch *)
      memo_hits : int;  (** evaluation/measurement memo hits *)
      measured : int;  (** candidates measured this generation *)
      mutations : int;  (** proposals from mutation *)
      crossovers : int;  (** proposals from crossover *)
      accepted : int;  (** measured mutants/crossovers that entered the
                           elite set *)
      best_us : float;  (** best-so-far latency ([nan] before the first
                            valid measurement) *)
      rank_corr : float;
          (** Spearman correlation between predicted score and [-latency]
              over this generation's measured batch (1.0 = perfect
              ranking, 0.0 = uninformative or degenerate) *)
    }
  | Pair of { gen : int; predicted : float; measured_us : float }
  | Span of { name : string; depth : int; start_us : float; dur_us : float }
  | Counter of { name : string; value : int }
  | Gauge of { name : string; value : float }
  | Run_end of { best_us : float; trials : int; wall_us : float }

exception Parse_error of string

let parse_err fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* --- percent escaping: JSON-structural and non-printable bytes --- *)

let escape =
  Tir_core.Percent.encode ~reserved:(fun c ->
      c = '"' || c = '\\' || Char.code c < 0x20 || Char.code c >= 0x7f)

let unescape s =
  match Tir_core.Percent.decode s with
  | Some v -> v
  | None -> parse_err "bad escape in journal string"

(* --- emission --- *)

(* JSON has no NaN/Infinity literals; non-finite floats become null. *)
let json_float v = if Float.is_finite v then Printf.sprintf "%.9g" v else "null"

let to_line (e : event) =
  let b = Buffer.create 128 in
  let field_sep () = if Buffer.length b > 1 then Buffer.add_char b ',' in
  let str k v =
    field_sep ();
    Buffer.add_string b (Printf.sprintf "\"%s\":\"%s\"" k (escape v))
  in
  let int k v =
    field_sep ();
    Buffer.add_string b (Printf.sprintf "\"%s\":%d" k v)
  in
  let flt k v =
    field_sep ();
    Buffer.add_string b (Printf.sprintf "\"%s\":%s" k (json_float v))
  in
  Buffer.add_char b '{';
  (match e with
  | Run_start r ->
      str "ev" "run_start";
      str "workload" r.workload;
      str "target" r.target;
      int "seed" r.seed;
      int "trials" r.trials;
      int "jobs" r.jobs
  | Generation g ->
      str "ev" "generation";
      int "gen" g.gen;
      int "proposed" g.proposed;
      int "deduped" g.deduped;
      int "invalid" g.invalid;
      int "inapplicable" g.inapplicable;
      int "memo_hits" g.memo_hits;
      int "measured" g.measured;
      int "mutations" g.mutations;
      int "crossovers" g.crossovers;
      int "accepted" g.accepted;
      flt "best_us" g.best_us;
      flt "rank_corr" g.rank_corr
  | Pair p ->
      str "ev" "pair";
      int "gen" p.gen;
      flt "predicted" p.predicted;
      flt "measured_us" p.measured_us
  | Span s ->
      str "ev" "span";
      str "name" s.name;
      int "depth" s.depth;
      flt "start_us" s.start_us;
      flt "dur_us" s.dur_us
  | Counter c ->
      str "ev" "counter";
      str "name" c.name;
      int "value" c.value
  | Gauge g ->
      str "ev" "gauge";
      str "name" g.name;
      flt "value" g.value
  | Run_end r ->
      str "ev" "run_end";
      flt "best_us" r.best_us;
      int "trials" r.trials;
      flt "wall_us" r.wall_us);
  Buffer.add_char b '}';
  Buffer.contents b

(* --- parsing --- *)

(* Minimal parser for the flat objects [to_line] emits: string values hold
   no quotes or backslashes (escaping guarantees it), other values are
   numbers or null. Rejects anything else, so a journal that parses is one
   we wrote. *)
let fields_of_line line :
    (string * [ `Str of string | `Num of float * string ]) list =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let expect c =
    if !pos < n && line.[!pos] = c then incr pos
    else parse_err "journal line: expected '%c' at %d in %S" c !pos line
  in
  let quoted () =
    expect '"';
    let start = !pos in
    while !pos < n && line.[!pos] <> '"' do
      incr pos
    done;
    if !pos >= n then parse_err "journal line: unterminated string in %S" line;
    let s = String.sub line start (!pos - start) in
    incr pos;
    s
  in
  let value () =
    match peek () with
    | Some '"' -> `Str (unescape (quoted ()))
    | Some ('-' | '0' .. '9') ->
        let start = !pos in
        while
          !pos < n
          && match line.[!pos] with
             | '-' | '+' | '.' | 'e' | 'E' | '0' .. '9' -> true
             | _ -> false
        do
          incr pos
        done;
        let s = String.sub line start (!pos - start) in
        (* keep the raw token: integers above 2^53 must not round-trip
           through a float *)
        (match float_of_string_opt s with
        | Some v -> `Num (v, s)
        | None -> parse_err "journal line: bad number %S" s)
    | Some 'n' ->
        if !pos + 4 <= n && String.equal (String.sub line !pos 4) "null" then begin
          pos := !pos + 4;
          `Num (Float.nan, "null")
        end
        else parse_err "journal line: bad literal in %S" line
    | _ -> parse_err "journal line: bad value at %d in %S" !pos line
  in
  expect '{';
  let fields = ref [] in
  let rec pairs () =
    let k = quoted () in
    expect ':';
    let v = value () in
    fields := (unescape k, v) :: !fields;
    match peek () with
    | Some ',' ->
        incr pos;
        pairs ()
    | _ -> ()
  in
  if peek () <> Some '}' then pairs ();
  expect '}';
  if !pos <> n then parse_err "journal line: trailing garbage in %S" line;
  List.rev !fields

(* The event named by field ["ev"]; [src] (the line, or the trace
   instant) names the input in errors. A number field also reads as a
   string field (its raw token). *)
let of_fields ~src fields : event =
  let str k =
    match List.assoc_opt k fields with
    | Some (`Str s | `Num (_, s)) -> s
    | None -> parse_err "journal event missing string field %S in %S" k src
  in
  let flt k =
    match List.assoc_opt k fields with
    | Some (`Num (v, _)) -> v
    | _ -> parse_err "journal event missing number field %S in %S" k src
  in
  let int k =
    match List.assoc_opt k fields with
    | Some (`Num (_, raw)) -> (
        match int_of_string_opt raw with
        | Some i -> i
        | None -> parse_err "journal event field %S is not an integer in %S" k src)
    | _ -> parse_err "journal event missing number field %S in %S" k src
  in
  match str "ev" with
  | "run_start" ->
      Run_start
        {
          workload = str "workload";
          target = str "target";
          seed = int "seed";
          trials = int "trials";
          jobs = int "jobs";
        }
  | "generation" ->
      Generation
        {
          gen = int "gen";
          proposed = int "proposed";
          deduped = int "deduped";
          invalid = int "invalid";
          inapplicable = int "inapplicable";
          memo_hits = int "memo_hits";
          measured = int "measured";
          mutations = int "mutations";
          crossovers = int "crossovers";
          accepted = int "accepted";
          best_us = flt "best_us";
          rank_corr = flt "rank_corr";
        }
  | "pair" ->
      Pair { gen = int "gen"; predicted = flt "predicted"; measured_us = flt "measured_us" }
  | "span" ->
      Span
        {
          name = str "name";
          depth = int "depth";
          start_us = flt "start_us";
          dur_us = flt "dur_us";
        }
  | "counter" -> Counter { name = str "name"; value = int "value" }
  | "gauge" -> Gauge { name = str "name"; value = flt "value" }
  | "run_end" ->
      Run_end { best_us = flt "best_us"; trials = int "trials"; wall_us = flt "wall_us" }
  | ev -> parse_err "unknown journal event %S" ev

let of_line line = of_fields ~src:line (fields_of_line line)

(** Parse a journal file (blank lines skipped). Raises [Parse_error]. *)
let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let events = ref [] in
      (try
         while true do
           let line = String.trim (input_line ic) in
           if line <> "" then events := of_line line :: !events
         done
       with End_of_file -> ());
      List.rev !events)

(* --- export from the trace --- *)

(* The run instants carry their journal event's fields as args (ints in
   decimal, floats in [%h], so the export is exact); [extra] adds the
   fields the trace holds elsewhere. *)
let of_instant (e : Trace.event) ev extra =
  let typed v = match float_of_string_opt v with Some f -> `Num (f, v) | None -> `Str v in
  of_fields ~src:e.Trace.e_name
    (List.map (fun (k, v) -> (k, typed v)) ((("ev", ev) :: extra) @ e.Trace.e_args))

let int_arg (e : Trace.event) k =
  match Option.bind (List.assoc_opt k e.Trace.e_args) int_of_string_opt with
  | Some i -> i
  | None -> parse_err "trace instant %s lacks integer arg %S" e.Trace.e_name k

(* Run events, keyed (run, gen, slot). A run is opened by its
   [tune.start] instant, per tenant (the scheduler interleaves tenants
   on one trace), in recording order — never in timestamp order, because
   consecutive instants can share a µs timestamp. Events recorded before
   their tenant's first [tune.start] form run -1. *)
let run_events ~jobs (evs : Trace.event list) =
  let open_runs = Hashtbl.create 4 in
  let runs = ref 0 in
  List.filter_map
    (fun (e : Trace.event) ->
      let tenant = e.Trace.e_ctx.Trace.tenant in
      let run, t0 =
        Option.value ~default:(-1, e.Trace.e_ts_us) (Hashtbl.find_opt open_runs tenant)
      in
      match (e.Trace.e_kind, e.Trace.e_name) with
      | Trace.Instant, "tune.start" ->
          let run = !runs in
          incr runs;
          Hashtbl.replace open_runs tenant (run, e.Trace.e_ts_us);
          Some
            ((run, min_int, 0), of_instant e "run_start" [ ("jobs", string_of_int jobs) ])
      | Trace.Instant, "search.pair" ->
          Some ((run, int_arg e "gen", int_arg e "slot"), of_instant e "pair" [])
      | Trace.Instant, "gen.commit" ->
          Some ((run, int_arg e "gen", max_int), of_instant e "generation" [])
      | Trace.Instant, "tune.end" ->
          let wall_us = Printf.sprintf "%h" (e.Trace.e_ts_us -. t0) in
          Some ((run, max_int, 0), of_instant e "run_end" [ ("wall_us", wall_us) ])
      | _ -> None)
    (List.sort (fun a b -> Int.compare a.Trace.e_seq b.Trace.e_seq) evs)
  |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

(* One line per distinct span stack (outermost first): earliest start,
   total duration. Sorting by stack puts parents before children. *)
let span_events (evs : Trace.event list) =
  let stacks = Hashtbl.create 64 in
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.e_kind = Trace.Span then
        let start, dur =
          Option.value ~default:(e.Trace.e_ts_us, 0.0)
            (Hashtbl.find_opt stacks e.Trace.e_stack)
        in
        Hashtbl.replace stacks e.Trace.e_stack
          (Float.min start e.Trace.e_ts_us, dur +. e.Trace.e_dur_us))
    evs;
  Hashtbl.fold (fun stack v acc -> (stack, v) :: acc) stacks []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (stack, (start_us, dur_us)) ->
         Span
           {
             name = List.nth stack (List.length stack - 1);
             depth = List.length stack - 1;
             start_us;
             dur_us;
           })

let of_trace ~jobs () =
  let dropped = (Trace.counts ()).Trace.dropped in
  if dropped > 0 then
    Error
      (Tir_core.Error.errorf ~context:"trace" Tir_core.Error.Corrupt
         "the trace dropped %d events past its capacity; the journal would be \
          incomplete"
         dropped)
  else
    let evs = Trace.events () in
    match run_events ~jobs evs with
    | exception Parse_error msg ->
        Error (Tir_core.Error.make ~context:"trace" Tir_core.Error.Parse msg)
    | runs ->
        let snap = Metrics.snapshot () in
        Ok
          (runs @ span_events evs
          @ List.map (fun (name, value) -> Counter { name; value }) snap.Metrics.counters
          @ List.map (fun (name, value) -> Gauge { name; value }) snap.Metrics.gauges)

(* --- summary --- *)

type summary = {
  runs : int;
  generations : int;
  proposed : int;
  deduped : int;
  invalid : int;
  inapplicable : int;
  memo_hits : int;
  measured : int;
  mutations : int;
  crossovers : int;
  accepted : int;
  pairs : int;
  final_best_us : float;  (** [nan] when no run measured anything *)
  best_monotone : bool;
      (** per-run, per-generation best-so-far never increased *)
  last_rank_corr : float;
}

let summarize (events : event list) =
  let s =
    ref
      {
        runs = 0;
        generations = 0;
        proposed = 0;
        deduped = 0;
        invalid = 0;
        inapplicable = 0;
        memo_hits = 0;
        measured = 0;
        mutations = 0;
        crossovers = 0;
        accepted = 0;
        pairs = 0;
        final_best_us = Float.nan;
        best_monotone = true;
        last_rank_corr = 0.0;
      }
  in
  (* Best-so-far resets at each run boundary; within a run it must be
     non-increasing across generations (nan = nothing measured yet). *)
  let prev_best = ref Float.nan in
  List.iter
    (fun e ->
      match e with
      | Run_start _ ->
          s := { !s with runs = !s.runs + 1 };
          prev_best := Float.nan
      | Generation g ->
          let monotone =
            Float.is_nan g.best_us
            || Float.is_nan !prev_best
            || g.best_us <= !prev_best
          in
          if not (Float.is_nan g.best_us) then prev_best := g.best_us;
          s :=
            {
              !s with
              generations = !s.generations + 1;
              proposed = !s.proposed + g.proposed;
              deduped = !s.deduped + g.deduped;
              invalid = !s.invalid + g.invalid;
              inapplicable = !s.inapplicable + g.inapplicable;
              memo_hits = !s.memo_hits + g.memo_hits;
              measured = !s.measured + g.measured;
              mutations = !s.mutations + g.mutations;
              crossovers = !s.crossovers + g.crossovers;
              accepted = !s.accepted + g.accepted;
              best_monotone = !s.best_monotone && monotone;
              last_rank_corr = g.rank_corr;
            }
      | Pair _ -> s := { !s with pairs = !s.pairs + 1 }
      | Run_end r -> s := { !s with final_best_us = r.best_us }
      | Span _ | Counter _ | Gauge _ -> ())
    events;
  !s

let parse_result line : (event, Tir_core.Error.t) result =
  match of_line line with
  | e -> Ok e
  | exception Parse_error msg ->
      Error (Tir_core.Error.make ~context:"journal" Tir_core.Error.Parse msg)

let load_result path : (event list, Tir_core.Error.t) result =
  match load path with
  | evs -> Ok evs
  | exception Parse_error msg ->
      Error (Tir_core.Error.make ~context:path Tir_core.Error.Parse msg)
  | exception Sys_error msg ->
      Error (Tir_core.Error.make ~context:path Tir_core.Error.Io msg)
