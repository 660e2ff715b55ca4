(* Output checks, run after the timed phase. Every task's best program
   must pass the schedule validator and the semantic analyzer, and must
   survive a database round trip (commit, save, load, replay) with the
   same program fingerprint and a bit-identical simulated latency. The
   interpreter oracle additionally runs the op-search 64x64x64 GMM's best
   program against the unscheduled program on seeded inputs. Each check
   returns the reasons a task failed, [] when it passed. *)

module W = Tir_workloads.Workloads
module Tune = Tir_autosched.Tune
module Database = Tir_autosched.Database
module Evo = Tir_autosched.Evolutionary
module Interp = Tir_exec.Interp
module Fingerprint = Tir_ir.Fingerprint
module Primfunc = Tir_ir.Primfunc

let best (t : Tuner.task) = t.Tuner.result.Tune.best

let program (m : Evo.measured) =
  (if Tir_sched.Validate.check_func m.Evo.func = [] then [] else [ "validator issues" ])
  @ if Tir_analysis.Analysis.errors m.Evo.func = [] then [] else [ "analyzer errors" ]

let round_trip ~dir (t : Tuner.task) (m : Evo.measured) =
  let path = Filename.concat dir "check.db" in
  let db = Database.create () in
  Prof.span "db.commit" (fun () -> Database.commit db t.Tuner.target t.Tuner.workload m);
  Prof.span "db.save" (fun () -> Database.save db path);
  let loaded = Prof.span "db.load" (fun () -> Database.load path) in
  Sys.remove path;
  match
    Database.find loaded ~target_name:t.Tuner.target.Tir_sim.Target.name
      ~workload_name:t.Tuner.workload.W.name
  with
  | None -> [ "database record lost in save/load" ]
  | Some r -> (
      match
        Prof.span "db.replay" (fun () ->
            Database.replay t.Tuner.target ~workload:t.Tuner.workload ~sketches:[] r)
      with
      | None -> [ "database replay failed" ]
      | Some back ->
          (if Fingerprint.equal (Fingerprint.func back.Evo.func) (Fingerprint.func m.Evo.func)
           then []
           else [ "replayed program fingerprint differs" ])
          @
          if Int64.equal
               (Int64.bits_of_float back.Evo.latency_us)
               (Int64.bits_of_float m.Evo.latency_us)
          then []
          else [ "replayed latency differs" ])

(* Best program against the unscheduled workload on identical seeded
   inputs, outputs compared with [Interp.allclose]. *)
let oracle ~seed (w : W.t) (m : Evo.measured) =
  let inputs = List.map (fun b -> Interp.random_input ~seed b) w.W.func.Primfunc.params in
  let reference = Interp.run w.W.func (List.map Array.copy inputs) in
  let candidate = Interp.run m.Evo.func (List.map Array.copy inputs) in
  if
    List.for_all2
      (fun br bc -> Interp.allclose (Interp.output reference br) (Interp.output candidate bc))
      w.W.func.Primfunc.params m.Evo.func.Primfunc.params
  then []
  else [ "interpreter output differs from the unscheduled program" ]

let task ~dir ~seed ~oracle_label (t : Tuner.task) =
  match best t with
  | None -> [ "no program found" ]
  | Some m ->
      program m @ round_trip ~dir t m
      @ if t.Tuner.label = oracle_label then oracle ~seed t.Tuner.workload m else []
