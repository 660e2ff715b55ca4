(* Closed-loop tuning of one task through [Tune.prepare]/[Tune.step],
   shared by op-search and model-compile: the caller waits for each step
   before issuing the next, and the wall time of every search generation
   is recorded. In a traced run the engine's checkpoint hooks also record
   the candidate stream for the layer replay. *)

module W = Tir_workloads.Workloads
module Tune = Tir_autosched.Tune

type task = {
  label : string;
  target : Tir_sim.Target.t;
  workload : W.t;
  result : Tune.result;
  rank_corr : float;  (** [Engine.rank_corr] after the last generation *)
  turnaround_s : float;  (** submission to completion *)
  replay : Replay.task option;  (** traced runs only *)
}

(* Task [i]'s search seed under the workload seed. *)
let search_seed ~seed i = (seed * 7919) + i

(* Tune one task to completion, adding the wall seconds of each of its
   search generations to [steps_s]. *)
let tune steps_s ~pool ~label (cfg : Tune.Config.t) (w : W.t) target =
  let t0 = Prof.now () in
  let stream = Replay.new_stream () in
  let checkpoint = if !Prof.enabled then Some (Replay.checkpoint stream) else None in
  let d = Prof.span "tune.prepare" (fun () -> Tune.prepare ?checkpoint ~pool cfg w target) in
  let rec drive rank_corr =
    let t0 = Prof.now () in
    match Prof.span "tune.step" (fun () -> Tune.step d) with
    | Tune.Stepped { rank_corr; _ } ->
        steps_s := (Prof.now () -. t0) :: !steps_s;
        drive rank_corr
    | Tune.Finished result -> (result, rank_corr)
  in
  let result, rank_corr = drive 0.0 in
  let replay =
    Option.map
      (fun _ ->
        {
          Replay.label;
          target;
          workload = w;
          model = cfg.Tune.Config.model;
          trials = cfg.Tune.Config.trials;
          stream;
          stats = result.Tune.stats;
        })
      checkpoint
  in
  { label; target; workload = w; result; rank_corr; turnaround_s = Prof.now () -. t0; replay }

(* What one workload's timed phase produced. [extra] carries
   workload-specific per-layer figures (name, value, unit). *)
type outcome = {
  attempted : int;  (** tasks (operators or tenants) attempted *)
  tasks : task list;  (** those that produced a result *)
  steps_s : float list;
  timed_s : float;
  output_latency_us : float;
  extra : (string * float * string) list;
}

let geomean xs =
  exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

let latency_us (t : task) = Tune.latency_us t.result
