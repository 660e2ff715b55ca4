(** Gradient-boosted regression trees, from scratch: the stand-in for the
    paper's XGBoost cost model (§4.4). Depth-limited exact-greedy trees
    under either a squared loss ([fit]) or a LambdaRank-style pairwise
    rank loss ([fit_rank]).

    A fit presorts each feature column once, then grows every tree in
    O(features × n) per level; the ensemble is bit-identical to exact
    greedy splitting with a stable per-node sort (ties keep ascending
    sample order, the earliest maximal-gain split wins). *)

type tree

type t = { trees : tree list; eta : float; base : float }

val predict : t -> float array -> float

(** Predict a whole population in one pass over the ensemble; identical
    values to mapping [predict] over the rows. *)
val predict_batch : t -> float array array -> float array

(** Fit [rounds] boosting rounds of depth-[depth] trees on (features,
    target) pairs — least-squares regression on the raw labels. *)
val fit : ?rounds:int -> ?depth:int -> ?eta:float -> float array array -> float array -> t

(** Fit a pairwise ranking ensemble: labels are compared only within a
    group ([groups.(i)] is sample [i]'s group id), each round pushes
    logistic pairwise gradients weighted by the label gap, and the next
    tree fits those pseudo-residuals. Absolute outputs are meaningless
    (base 0) — only the induced order matters. Deterministic: sample
    order and group ids fully determine the ensemble. *)
val fit_rank :
  ?rounds:int ->
  ?depth:int ->
  ?eta:float ->
  float array array ->
  float array ->
  groups:int array ->
  t

(** The number of training pairs [fit_rank] enumerates for these labels
    and groups: within-group pairs with distinct labels, so at most
    [sum_g n_g (n_g - 1) / 2] over the group sizes [n_g] — never the
    [n (n - 1) / 2] of all samples. Each boosting round costs one [exp]
    per pair. *)
val rank_pair_count : float array -> groups:int array -> int

exception Parse_error of string

(** Versioned text form of an ensemble ([%h] floats): save -> load ->
    save is bit-identical. *)
val to_string : t -> string

(** Inverse of [to_string]; raises {!Parse_error} on malformed input. *)
val of_string : string -> t
