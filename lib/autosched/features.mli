(** Program feature extraction for the learned cost model (paper §4.4):
    machine-tally work/traffic/parallelism plus structural properties
    (tensorization, vectorization, thread shape), log-scaled. *)

open Tir_ir

(** Feature vector length. *)
val dim : int

(** Features of [f] from the per-nest tallies of its root-level nests
    ([Tir_sim.Machine.nest_tallies]) plus structural counts of [f]. *)
val of_tallies : Tir_sim.Target.t -> Primfunc.t -> Tir_sim.Machine.tally list -> float array

(** [of_tallies target f (Tir_sim.Machine.nest_tallies target f)]. Raises
    [Tir_sim.Machine.Unsupported] when [f] uses an intrinsic the target
    lacks. *)
val extract : Tir_sim.Target.t -> Primfunc.t -> float array
