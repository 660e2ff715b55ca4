(** The simplifier's linear form as it was built when atoms were sorted by
    printed keys: a variable's key is ["v"] and its id zero-padded to
    eight digits, any other atom's key its [Expr.to_string]. Kept as the
    reference that [Simplify.compare_atom] and [Simplify.to_linear] are
    checked against. *)

open Tir_ir

let atom_key (e : Expr.t) =
  match e with
  | Expr.Var v -> Printf.sprintf "v%08d" v.Var.id
  | _ -> Expr.to_string e

let add_term atom coeff terms =
  if coeff = 0 then terms
  else
    let key = atom_key atom in
    let rec go = function
      | [] -> [ (atom, coeff) ]
      | (a, c) :: rest ->
          let k = atom_key a in
          if String.equal k key then if c + coeff = 0 then rest else (a, c + coeff) :: rest
          else if String.compare key k < 0 then (atom, coeff) :: (a, c) :: rest
          else (a, c) :: go rest
    in
    go terms

let lin_add (a : Tir_arith.Simplify.linear) (b : Tir_arith.Simplify.linear) :
    Tir_arith.Simplify.linear =
  {
    const = a.const + b.const;
    terms = List.fold_left (fun acc (at, c) -> add_term at c acc) a.terms b.terms;
  }

let lin_scale k (a : Tir_arith.Simplify.linear) : Tir_arith.Simplify.linear =
  if k = 0 then { const = 0; terms = [] }
  else { const = a.const * k; terms = List.map (fun (at, c) -> (at, c * k)) a.terms }

let rec to_linear (e : Expr.t) : Tir_arith.Simplify.linear =
  match e with
  | Expr.Int i -> { const = i; terms = [] }
  | Expr.Bin (Expr.Add, a, b) -> lin_add (to_linear a) (to_linear b)
  | Expr.Bin (Expr.Sub, a, b) -> lin_add (to_linear a) (lin_scale (-1) (to_linear b))
  | Expr.Bin (Expr.Mul, a, Expr.Int k) | Expr.Bin (Expr.Mul, Expr.Int k, a) ->
      lin_scale k (to_linear a)
  | _ -> { const = 0; terms = [ (e, 1) ] }
