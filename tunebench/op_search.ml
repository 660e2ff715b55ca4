(* op-search: single operators tuned long, back to back. Steady-state
   search, where the candidate pipeline, simulator, memo and model
   retrain do almost all the work; database, service and graph layers do
   none. The seed picks each operator's search seed. *)

module W = Tir_workloads.Workloads
module Tune = Tir_autosched.Tune
module Target = Tir_sim.Target
module Dtype = Tir_ir.Dtype

let trials = 256

(* The 64x64x64 GMM is small enough for the interpreter oracle. *)
let oracle_label = "gmm64-gpu"

let ops () =
  [
    ("c2d-gpu", W.c2d (), Target.gpu_tensorcore);
    ("dep-gpu", W.dep (), Target.gpu_tensorcore);
    ( "gmm-arm",
      W.gmm ~in_dtype:Dtype.I8 ~acc_dtype:Dtype.I32 ~m:512 ~n:512 ~k:512 (),
      Target.arm_sdot );
    (oracle_label, W.gmm ~m:64 ~n:64 ~k:64 (), Target.gpu_tensorcore);
  ]

let setup ~pool ~seed =
  let ops = ops () in
  fun () ->
    let steps_s = ref [] in
    let t0 = Prof.now () in
    let tasks =
      List.mapi
        (fun i (label, w, target) ->
          let cfg =
            Tune.Config.(default |> with_seed (Tuner.search_seed ~seed i) |> with_trials trials)
          in
          Tuner.tune steps_s ~pool ~label cfg w target)
        ops
    in
    {
      Tuner.attempted = List.length tasks;
      tasks;
      steps_s = !steps_s;
      timed_s = Prof.now () -. t0;
      output_latency_us = Tuner.geomean (List.map Tuner.latency_us tasks);
      extra = [];
    }
