(** Rewriting simplifier for index expressions.

    Integer expressions canonicalize into a linear form over non-affine
    atoms; floordiv/floormod by positive constants resolve with range
    information. Keeps schedule-generated arithmetic in the shape the
    iterator-map detector and validators recognize. *)

open Tir_ir

type ctx = { ranges : Bound.interval Var.Map.t }

val empty_ctx : ctx
val with_range : ctx -> Var.t -> Bound.interval -> ctx
val with_extent : ctx -> Var.t -> int -> ctx
val bound : ctx -> Expr.t -> Bound.interval option

(** Linear form: [const + sum of atom*coeff], atoms sorted canonically. *)
type linear = { const : int; terms : (Expr.t * int) list }

(** The canonical order of linear-form atoms, and the identity of terms
    (atoms comparing equal merge): by a text key, then by variable id. A
    variable's key is ["v"] and its id zero-padded to eight digits, or
    ["v99999999\x7f"] once the id reaches 10^8; any other atom's key is
    its printed form. The keys are compared without being built. Two
    variables therefore compare by id. *)
val compare_atom : Expr.t -> Expr.t -> int

val to_linear : Expr.t -> linear
val of_linear : linear -> Expr.t

(** Full recursive simplification under the context's variable ranges. *)
val simplify : ctx -> Expr.t -> Expr.t

val simplify_with_extents : (Var.t * int) list -> Expr.t -> Expr.t

(** Prove two integer expressions equal under the context. *)
val prove_equal : ctx -> Expr.t -> Expr.t -> bool

(** Prove a boolean expression true under the context. *)
val prove : ctx -> Expr.t -> bool
