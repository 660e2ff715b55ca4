(* In-memory span recorder for the traced run.

   Spans are recorded only from the benchmark's own code, around the
   public library calls it makes, and only from the main domain (the
   benchmark calls into the library sequentially; parallelism lives inside
   those calls). When disabled, [span] is a plain call, so untraced runs
   pay one branch per call site. A span's self time is its duration minus
   the time its direct children cover. *)

let now = Unix.gettimeofday

type span = {
  name : string;
  parent : int;  (** index of the enclosing span, -1 at the root *)
  start : float;
  mutable stop : float;
}

let enabled = ref false
let spans : span array ref = ref [||]
let used = ref 0
let stack = ref []

let push s =
  if !used = Array.length !spans then begin
    let grown = Array.make (max 1024 (2 * !used)) s in
    Array.blit !spans 0 grown 0 !used;
    spans := grown
  end;
  !spans.(!used) <- s;
  incr used;
  !used - 1

let span name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with i :: _ -> i | [] -> -1 in
    let id = push { name; parent; start = now (); stop = nan } in
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        !spans.(id).stop <- now ();
        stack := List.tl !stack)
      f
  end

type agg = { mutable calls : int; mutable self_s : float }

(* Spans recorded so far: a mark to aggregate a later phase from. *)
let mark () = !used

(* Per-name aggregates over the spans recorded between two marks (all by
   default): call count and self seconds. *)
let aggregate ?(from = 0) ?(upto = !used) () =
  let child_s = Array.make upto 0.0 in
  for i = from to upto - 1 do
    let s = !spans.(i) in
    if s.parent >= from then
      child_s.(s.parent) <- child_s.(s.parent) +. (s.stop -. s.start)
  done;
  let tbl = Hashtbl.create 64 in
  for i = from to upto - 1 do
    let s = !spans.(i) in
    let a =
      match Hashtbl.find_opt tbl s.name with
      | Some a -> a
      | None ->
          let a = { calls = 0; self_s = 0.0 } in
          Hashtbl.add tbl s.name a;
          a
    in
    let dur = s.stop -. s.start in
    a.calls <- a.calls + 1;
    a.self_s <- a.self_s +. (dur -. child_s.(i))
  done;
  tbl

let find tbl name =
  match Hashtbl.find_opt tbl name with
  | Some a -> a
  | None -> { calls = 0; self_s = 0.0 }

(* Sum of self time over the spans whose name starts with one of
   [prefixes]. *)
let self_s_of tbl prefixes =
  Hashtbl.fold
    (fun name a acc ->
      if List.exists (fun p -> String.starts_with ~prefix:p name) prefixes then
        acc +. a.self_s
      else acc)
    tbl 0.0
