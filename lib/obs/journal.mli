(** Search journal: a line-oriented JSONL export of tuning runs from the
    [Trace] stream.

    One flat JSON object per line with an ["ev"] discriminator. String
    fields are percent-escaped (the trace/database v2 convention), so
    adversarial names cannot inject fields or events and every line parses
    with a trivial scanner while staying valid JSON. Non-finite floats are
    written as [null] and read back as [nan].

    Deterministic-search contract: [Generation], [Pair], [Counter], and
    [Run_start] events (bar its [jobs] field) are bit-identical across job
    counts for a fixed seed; [Span] events (durations), time-derived
    [Gauge] events and [Run_end.wall_us] may differ. *)

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
      accepted : int;
          (** measured mutants/crossovers that entered the elite set *)
      best_us : float;  (** best-so-far latency ([nan] before the first
                            valid measurement) *)
      rank_corr : float;
          (** Spearman correlation of predicted score vs [-latency] over
              this generation's measured batch *)
    }
  | Pair of { gen : int; predicted : float; measured_us : float }
  | Span of { name : string; depth : int; start_us : float; dur_us : float }
  | Counter of { name : string; value : int }
  | Gauge of { name : string; value : float }
  | Run_end of { best_us : float; trials : int; wall_us : float }

exception Parse_error of string

(** One JSONL line (no trailing newline). *)
val to_line : event -> string

(** Inverse of [to_line]; raises [Parse_error] on anything we would not
    have written. *)
val of_line : string -> event

(** Export the runs recorded in [Trace.events ()], followed by one [Span]
    per distinct span stack (earliest start, total duration) and the
    [Metrics.snapshot ()] as [Counter]/[Gauge] events. Each run is
    [Run_start], then per generation its [Pair]s in slot order and its
    [Generation], then [Run_end] (absent when the run stopped early).
    Runs are ordered by recording order, events within a run by
    generation and slot — never by timestamp. [jobs] fills
    [Run_start.jobs] (the pool size is not part of the trace). Returns a
    [Corrupt] error when the trace dropped events past its capacity. *)
val of_trace : jobs:int -> unit -> (event list, Tir_core.Error.t) result

(** Parse a journal file (blank lines skipped). Raises [Parse_error]. *)
val load : string -> event list

(** [of_line] with the unified error surface: malformed lines return
    [Error] with kind [Parse] instead of raising. *)
val parse_result : string -> (event, Tir_core.Error.t) result

(** [load] with the unified error surface: kind [Parse] for malformed
    lines, [Io] for filesystem failures. *)
val load_result : string -> (event list, Tir_core.Error.t) result

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

(** Fold a journal into totals (used by the CLI report and tests). *)
val summarize : event list -> summary
