(* serve-mixed: a [Scheduler] over [Session]s with on-disk write-ahead
   logs, sharing one [Database] and one [Model.Store]. The only workload
   where the service layers work, writes beside reads: WAL append beside
   resume, [Database.commit] beside [Database.replay], [Store.absorb]
   beside warm start.

   Twelve tenants with mixed priorities arrive on a fixed scheduler-step
   schedule (never on wall time), so every run with one seed does
   identical work: nine distinct operators, then three late repeats of
   early, high-priority tenants, which replay from the database instead
   of searching. At [restart_at] steps the benchmark abandons the
   scheduler (closing every open session) and resumes each unfinished
   tenant from its WAL in a fresh scheduler, over a database saved and
   loaded again. The output latency is the geomean over the nine
   distinct operators. *)

module W = Tir_workloads.Workloads
module Tune = Tir_autosched.Tune
module Target = Tir_sim.Target
module Dtype = Tir_ir.Dtype
module Database = Tir_autosched.Database
module Model = Tir_autosched.Model
module Session = Tir_service.Session
module Scheduler = Tir_service.Scheduler

let trials = 128
let restart_at = 36
let repeat_arrivals = [ 60; 68; 76 ]

(* The nine distinct operators in arrival order, with their priorities:
   four arrive at once, then one every six steps. The first three have
   priority 3, finish early and come back as the late repeats. *)
let distinct () =
  let gpu = Target.gpu_tensorcore and arm = Target.arm_sdot in
  [
    ("c2d", W.c2d (), gpu, 3);
    ("gmm-arm", W.gmm ~in_dtype:Dtype.I8 ~acc_dtype:Dtype.I32 ~m:512 ~n:512 ~k:512 (), arm, 3);
    ("dep", W.dep (), gpu, 3);
    ("grp", W.grp (), gpu, 1);
    ("c3d", W.c3d (), gpu, 2);
    ("c2d-arm", W.c2d ~in_dtype:Dtype.I8 ~acc_dtype:Dtype.I32 (), arm, 1);
    ("t2d", W.t2d (), gpu, 2);
    ("gmm", W.gmm (), gpu, 1);
    ("dil", W.dil (), gpu, 2);
  ]

type tenant = {
  name : string;
  w : W.t;
  target : Target.t;
  seed : int;
  priority : int;
  arrival : int;  (** global scheduler step at which it is submitted *)
  repeat : bool;
  path : string;  (** its WAL *)
  mutable session : Session.t option;
  mutable spec : Model.spec;
  mutable submitted_at : float;
  mutable result : Tune.result option;
  mutable failed : bool;
  mutable turnaround_s : float;
}

(* The tenant plan is fixed; the seed only picks each tenant's search
   seed. *)
let plan ~dir ~seed =
  let tenant i (label, w, target, priority) ~arrival ~repeat =
    let name = Printf.sprintf "t%02d-%s" i label in
    {
      name;
      w;
      target;
      seed = Tuner.search_seed ~seed i;
      priority;
      arrival;
      repeat;
      path = Filename.concat dir (name ^ ".wal");
      session = None;
      spec = Model.Gbdt;
      submitted_at = nan;
      result = None;
      failed = false;
      turnaround_s = nan;
    }
  in
  let ops = distinct () in
  let originals =
    List.mapi
      (fun i op -> tenant i op ~arrival:(if i < 4 then 0 else 6 * (i - 3)) ~repeat:false)
      ops
  in
  let repeats =
    List.mapi
      (fun k arrival ->
        let label, w, target, _ = List.nth ops k in
        tenant (List.length ops + k) (label, w, target, 1) ~arrival ~repeat:true)
      repeat_arrivals
  in
  originals @ repeats

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* The fresh candidate keys and measured latencies a tenant's session
   logged, read back with the record grammar of [Session]: [seen|gen|key...]
   and [measure|gen|sketch|base|latency|trace], fields escaped with
   [Database.escape]. Resume compacts uncommitted records away, so the log
   holds exactly the stream an uninterrupted run produces. *)
let stream_of_wal path =
  let s = Replay.new_stream () in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          match String.split_on_char '|' (input_line ic) with
          | "seen" :: gen :: keys ->
              s.Replay.seen <- (int_of_string gen, List.map Database.unescape keys) :: s.Replay.seen
          | "measure" :: _ :: _ :: _ :: latency :: _ ->
              s.Replay.measured <- float_of_string latency :: s.Replay.measured
          | _ -> ()
        done
      with End_of_file -> ());
  s

(* Session step time inside [Engine.step], from the library's own
   [engine.step] trace spans: total engine µs. *)
let engine_step_us () =
  List.fold_left
    (fun us (e : Tir_obs.Trace.event) ->
      if e.Tir_obs.Trace.e_kind = Tir_obs.Trace.Span && e.Tir_obs.Trace.e_name = "engine.step"
      then us +. e.Tir_obs.Trace.e_dur_us
      else us)
    0.0 (Tir_obs.Trace.events ())

let setup ~pool ~seed ~dir =
  let tenants = plan ~dir ~seed in
  let db_path = Filename.concat dir "tuning.db" in
  let store_path = Filename.concat dir "model.store" in
  let db = Prof.span "db.load" (fun () -> Database.load db_path) in
  let store = Prof.span "model_store.load" (fun () -> Model.Store.load store_path) in
  fun () ->
    if !Prof.enabled then Tir_obs.Trace.enable ();
    let _, replayed0 = Database.replay_counters () in
    let db = ref db and store = ref store in
    let sch = ref (Scheduler.create ~pool ()) in
    let base_steps = ref 0 in
    let global_steps () = !base_steps + Scheduler.steps_taken !sch in
    let steps_s = ref [] and session_steps_s = ref 0.0 and session_steps = ref 0 in
    let last = ref (Prof.now ()) in
    let by_name name = List.find (fun tn -> tn.name = name) tenants in
    let on_event ev =
      let t = Prof.now () in
      let dt = t -. !last in
      session_steps_s := !session_steps_s +. dt;
      incr session_steps;
      (match ev with
      | Scheduler.Step _ -> steps_s := dt :: !steps_s
      | Scheduler.Complete { tenant; result } ->
          let tn = by_name tenant in
          tn.result <- Some result;
          tn.turnaround_s <- t -. tn.submitted_at;
          Option.iter
            (fun m ->
              store :=
                Some
                  (Prof.span "model_store.absorb" (fun () ->
                       Model.Store.absorb ~path:store_path m)))
            result.Tune.model
      | Scheduler.Fail { tenant; _ } ->
          let tn = by_name tenant in
          tn.failed <- true;
          tn.turnaround_s <- t -. tn.submitted_at);
      last := Prof.now ()
    in
    let submit tn =
      (* A session's model is pinned at creation: warm-start from whatever
         the store holds now. *)
      tn.spec <- (match !store with Some m -> Model.Warm (Model.save m) | None -> Model.Gbdt);
      let cfg =
        Tune.Config.(
          default |> with_seed tn.seed |> with_trials trials |> with_database !db
          |> with_model tn.spec)
      in
      let s =
        Prof.span "session.create" (fun () ->
            Session.create ~force:true ~path:tn.path cfg tn.w tn.target)
      in
      tn.session <- Some s;
      tn.submitted_at <- Prof.now ();
      Scheduler.submit ~priority:tn.priority !sch ~name:tn.name s
    in
    let restart () =
      let live = List.filter (fun tn -> tn.session <> None && tn.result = None && not tn.failed) tenants in
      List.iter (fun tn -> Option.iter Session.close tn.session) live;
      Prof.span "db.save" (fun () -> Database.save !db db_path);
      db := Prof.span "db.load" (fun () -> Database.load db_path);
      base_steps := global_steps ();
      sch := Scheduler.create ~pool ();
      List.iter
        (fun tn ->
          let s =
            Prof.span "session.resume" (fun () ->
                Session.resume ~workload:tn.w ~database:!db ~path:tn.path ())
          in
          tn.session <- Some s;
          Scheduler.submit ~priority:tn.priority !sch ~name:tn.name s)
        live
    in
    let drive max_steps =
      last := Prof.now ();
      Prof.span "scheduler.run" (fun () -> Scheduler.run ?max_steps ~on_event !sch)
    in
    let events =
      List.stable_sort
        (fun (a, _) (b, _) -> compare a b)
        ((restart_at, `Restart) :: List.map (fun tn -> (tn.arrival, `Arrive tn)) tenants)
    in
    let fire = function `Restart -> restart () | `Arrive tn -> submit tn in
    let t0 = Prof.now () in
    let rec loop = function
      | [] -> ignore (drive None)
      | (at, ev) :: rest as pending ->
          if at <= global_steps () then begin
            fire ev;
            loop rest
          end
          else begin
            match drive (Some (at - global_steps ())) with
            | Scheduler.Budget -> loop pending
            | Scheduler.Idle ->
                (* nothing runnable before the next arrival: it comes now *)
                fire ev;
                loop rest
          end
    in
    loop events;
    let timed_s = Prof.now () -. t0 in
    let _, replayed = Database.replay_counters () in
    let overhead =
      if !Prof.enabled then begin
        let engine_us = engine_step_us () in
        Tir_obs.Trace.disable ();
        Tir_obs.Trace.reset ();
        [
          ( "session.step_overhead_ms",
            ((!session_steps_s *. 1e6) -. engine_us) /. 1e3 /. float_of_int !session_steps,
            "ms" );
        ]
      end
      else []
    in
    let tasks =
      List.filter_map
        (fun tn ->
          Option.map
            (fun (result : Tune.result) ->
              {
                Tuner.label = tn.name;
                target = tn.target;
                workload = tn.w;
                result;
                rank_corr = nan;
                turnaround_s = tn.turnaround_s;
                replay =
                  (if !Prof.enabled && result.Tune.model <> None then
                     Some
                       {
                         Replay.label = tn.name;
                         target = tn.target;
                         workload = tn.w;
                         model = tn.spec;
                         trials;
                         stream = stream_of_wal tn.path;
                         stats = result.Tune.stats;
                       }
                   else None);
              })
            tn.result)
        tenants
    in
    {
      Tuner.attempted = List.length tenants;
      tasks;
      steps_s = !steps_s;
      timed_s;
      output_latency_us =
        Tuner.geomean
          (List.filter_map
             (fun tn -> if tn.repeat then None else Option.map Tune.latency_us tn.result)
             tenants);
      extra =
        [
          ("serve.tenants", float_of_int (List.length tenants), "count");
          ("serve.repeat_tenants", float_of_int (List.length repeat_arrivals), "count");
          ("serve.repeat_share", float_of_int (replayed - replayed0) /. float_of_int (List.length tenants), "frac");
          ("scheduler.steps", float_of_int (global_steps ()), "count");
          ( "wal.bytes",
            float_of_int (List.fold_left (fun a tn -> a + file_size tn.path) 0 tenants),
            "B" );
        ]
        @ overhead;
    }
