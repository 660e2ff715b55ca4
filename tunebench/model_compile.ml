(* model-compile: [Compile.compile] of ResNet-50 on the GPU and BERT-base
   on ARM at a short per-op budget. Many short, cold tasks: sketch and
   candidate generation, cold memos, an untrained model and the per-task
   growth of process-lifetime tables dominate. The seed picks each task's
   search seed. *)

module W = Tir_workloads.Workloads
module Tune = Tir_autosched.Tune
module Target = Tir_sim.Target
module Compile = Tir_graph.Compile
module Models = Tir_graph.Models

let trials = 64

let models = [ (Models.resnet50, Target.gpu_tensorcore); (Models.bert_base, Target.arm_sdot) ]

(* Heavy layers that map onto a tuning task; [Compile] tunes each
   distinct one once per process and serves repeats from its task
   cache. *)
let heavy_layers () =
  List.concat_map
    (fun ((m : Models.t), (target : Target.t)) ->
      let in_dtype, acc_dtype =
        match target.Target.kind with
        | Target.Gpu -> (Tir_ir.Dtype.F16, Tir_ir.Dtype.F32)
        | Target.Cpu -> (Tir_ir.Dtype.I8, Tir_ir.Dtype.I32)
      in
      List.filter_map
        (fun { Models.op; _ } ->
          if Tir_graph.Op.is_light op then None
          else Tir_graph.Op.workload ~in_dtype ~acc_dtype op)
        m.Models.layers)
    models

let setup ~pool ~seed =
  let layers = List.length (heavy_layers ()) in
  fun () ->
    let steps_s = ref [] and tasks = ref [] in
    let tune_op target (w : W.t) =
      let cfg =
        Tune.Config.(
          default |> with_seed (Tuner.search_seed ~seed (List.length !tasks)) |> with_trials trials)
      in
      let task =
        Tuner.tune steps_s ~pool ~label:(target.Target.name ^ ":" ^ w.W.name) cfg w target
      in
      tasks := task :: !tasks;
      Some task.Tuner.result
    in
    let sched = { (Compile.tensorir ()) with Compile.sname = "tunebench"; tune_op } in
    let t0 = Prof.now () in
    let reports =
      List.map
        (fun (m, target) -> Prof.span "graph.compile" (fun () -> Compile.compile sched target m))
        models
    in
    let timed_s = Prof.now () -. t0 in
    let tasks = List.rev !tasks in
    {
      Tuner.attempted = List.length tasks;
      tasks;
      steps_s = !steps_s;
      timed_s;
      output_latency_us =
        List.fold_left (fun a (r : Compile.model_report) -> a +. r.Compile.latency_us) 0.0 reports;
      extra =
        [
          ("graph.tasks", float_of_int (List.length tasks), "count");
          ("graph.task_cache_hits", float_of_int (layers - List.length tasks), "count");
        ];
    }
