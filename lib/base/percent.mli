(** The percent codec shared by the line-oriented file formats (tuning
    database, session WAL, job files, cost-model snapshots, search
    journal).

    Each format picks its own reserved alphabet; a reserved byte is
    written as [%XX] (two upper-case hex digits) and ['%'] itself is
    always reserved, so {!decode} inverts {!encode} for every alphabet. *)

(** [encode ~reserved s] escapes every byte of [s] for which [reserved]
    holds, plus ['%']. Returns [s] itself when nothing needs escaping. *)
val encode : reserved:(char -> bool) -> string -> string

(** Inverse of {!encode} for any alphabet; [None] on a truncated escape
    or a non-hex digit. *)
val decode : string -> string option
