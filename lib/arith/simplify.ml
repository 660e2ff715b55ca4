(** Rewriting simplifier for index expressions.

    Integer expressions are canonicalized into a linear form
    [c0 + c1*a1 + ... + cn*an] over non-affine atoms [ai]; floordiv/floormod
    by positive constants are resolved with range information from
    [Tir_ir.Bound]. The simplifier is what keeps schedule-generated
    arithmetic (split/fuse/blockize compositions) in a shape the iterator
    mapping detector and the validators can recognize. *)

open Tir_ir

type ctx = { ranges : Bound.interval Var.Map.t }

let empty_ctx = { ranges = Var.Map.empty }

let with_range ctx v interval = { ranges = Var.Map.add v interval ctx.ranges }

let with_extent ctx v extent = with_range ctx v (Bound.of_extent extent)

let bound ctx e = Bound.of_expr_map ctx.ranges e

(* Linear form: constant + sum of atom*coeff, atoms kept sorted for a
   canonical ordering. An atom is any integer expression that is not itself
   an addition, subtraction, or multiplication by a constant. *)
type linear = { const : int; terms : (Expr.t * int) list }

(* Canonical atom order: atoms sort by a text key, then by variable id.
   A variable's key is "v" and its id zero-padded to eight digits; an id
   of 10^8 or more, which no longer fits, keys as "v99999999" followed by
   '\x7f', above every printable character, and such variables tie on the
   key and sort by id. Any other atom's key is its printed form. Keys are
   read character by character up to the first difference, never built.
   Below 10^8 this is the order of the padded keys as text; above it ids
   stay numeric where longer padded keys would sort as text. Atoms whose
   keys are equal are one term. *)
let compare_chars next_a next_b =
  let rec go () =
    let a = next_a () and b = next_b () in
    if a <> b then Int.compare a b else if a < 0 then 0 else go ()
  in
  go ()

let printed e =
  let c = Expr.Printed.cursor e in
  fun () -> Expr.Printed.next c

let key_digits = 8
let past_key = 0x7f

(* The characters of a variable's key, then -1. *)
let var_key (v : Var.t) =
  let id = min v.Var.id 99_999_999 and wide = v.Var.id > 99_999_999 in
  (* position in the key: 0 is "v", then the digits, then [past_key] *)
  let pos = ref 0 and place = ref 10_000_000 in
  fun () ->
    let i = !pos in
    incr pos;
    if i = 0 then Char.code 'v'
    else if i <= key_digits then begin
      let d = id / !place mod 10 in
      place := !place / 10;
      Char.code '0' + d
    end
    else if i = key_digits + 1 && wide then past_key
    else -1

let compare_atom (a : Expr.t) (b : Expr.t) =
  if a == b then 0
  else
    match (a, b) with
    | Expr.Var x, Expr.Var y -> Var.compare x y
    | Expr.Var x, _ -> compare_chars (var_key x) (printed b)
    | _, Expr.Var y -> compare_chars (printed a) (var_key y)
    | _ -> compare_chars (printed a) (printed b)

(* Both term lists are sorted and free of zero coefficients; on equal
   atoms the sum keeps [a]'s atom. *)
let lin_add a b =
  let rec merge xs ys =
    match (xs, ys) with
    | _, [] -> xs
    | [], _ -> ys
    | ((x, c) as t) :: xs', ((y, d) as u) :: ys' ->
        let s = compare_atom y x in
        if s = 0 then if c + d = 0 then merge xs' ys' else (x, c + d) :: merge xs' ys'
        else if s < 0 then u :: merge xs ys'
        else t :: merge xs' ys
  in
  { const = a.const + b.const; terms = merge a.terms b.terms }

let lin_scale k a =
  if k = 0 then { const = 0; terms = [] }
  else { const = a.const * k; terms = List.map (fun (at, c) -> (at, c * k)) a.terms }

let rec to_linear (e : Expr.t) : linear =
  match e with
  | Expr.Int i -> { const = i; terms = [] }
  | Expr.Bin (Expr.Add, a, b) -> lin_add (to_linear a) (to_linear b)
  | Expr.Bin (Expr.Sub, a, b) -> lin_add (to_linear a) (lin_scale (-1) (to_linear b))
  | Expr.Bin (Expr.Mul, a, Expr.Int k) | Expr.Bin (Expr.Mul, Expr.Int k, a) ->
      lin_scale k (to_linear a)
  | _ -> { const = 0; terms = [ (e, 1) ] }

let of_linear l =
  let term (atom, c) =
    if c = 1 then atom else Expr.mul atom (Expr.Int c)
  in
  match l.terms with
  | [] -> Expr.Int l.const
  | (a0, c0) :: rest ->
      let body =
        List.fold_left
          (fun acc (at, c) ->
            if c < 0 then Expr.sub acc (term (at, -c)) else Expr.add acc (term (at, c)))
          (if c0 < 0 then Expr.sub (Expr.Int 0) (term (a0, -c0)) else term (a0, c0))
          rest
      in
      if l.const = 0 then body
      else if l.const < 0 then Expr.sub body (Expr.Int (-l.const))
      else Expr.add body (Expr.Int l.const)

(* Split a linear form into the part whose coefficients are divisible by k
   and the remainder part. *)
let split_divisible k l =
  let div_terms, rem_terms = List.partition (fun (_, c) -> c mod k = 0) l.terms in
  let qconst = Expr.floordiv l.const k in
  let rconst = l.const - (qconst * k) in
  ( { const = qconst; terms = List.map (fun (a, c) -> (a, c / k)) div_terms },
    { const = rconst; terms = rem_terms } )

let rec simplify ctx (e : Expr.t) : Expr.t =
  let e = Expr.map_children (simplify ctx) e in
  match e with
  | Expr.Bin (op, _, _) when Dtype.equal (Expr.dtype e) Dtype.Int -> simplify_int ctx op e
  | Expr.Cmp (op, a, b) -> simplify_cmp ctx op a b
  | Expr.Select (Expr.Bool true, t, _) -> t
  | Expr.Select (Expr.Bool false, _, f) -> f
  | _ -> e

and simplify_int ctx op e =
  match (op, e) with
  | (Expr.Add | Expr.Sub | Expr.Mul), _ ->
      let l = to_linear e in
      of_linear l
  | Expr.Div, Expr.Bin (_, a, Expr.Int k) when k > 0 -> simplify_div ctx a k
  | Expr.Mod, Expr.Bin (_, a, Expr.Int k) when k > 0 -> simplify_mod ctx a k
  | (Expr.Min | Expr.Max), Expr.Bin (_, a, b) -> simplify_minmax ctx op a b
  | _ -> e

and simplify_div ctx a k =
  if k = 1 then a
  else
    let l = to_linear a in
    let q, r = split_divisible k l in
    (* floordiv(k*q + r, k) = q + floordiv(r, k); drop the second summand
       when the range of r fits in [0, k). *)
    let r_expr = of_linear r in
    match bound ctx r_expr with
    | Some { lo; hi } when lo >= 0 && hi < k -> of_linear q
    | _ ->
        if r.terms = [] && r.const = 0 then of_linear q
        else Expr.Bin (Expr.Div, a, Expr.Int k)

and simplify_mod ctx a k =
  if k = 1 then Expr.Int 0
  else
    let l = to_linear a in
    let _, r = split_divisible k l in
    let r_expr = of_linear r in
    match bound ctx r_expr with
    | Some { lo; hi } when lo >= 0 && hi < k -> r_expr
    | _ ->
        if r.terms = [] && r.const = 0 then Expr.Int 0
        else Expr.Bin (Expr.Mod, of_linear (to_linear a), Expr.Int k)

and simplify_minmax ctx op a b =
  let diff = Expr.sub a b in
  match bound ctx (of_linear (to_linear diff)) with
  | Some { hi; _ } when hi <= 0 -> if op = Expr.Min then a else b
  | Some { lo; _ } when lo >= 0 -> if op = Expr.Min then b else a
  | _ -> Expr.Bin (op, a, b)

and simplify_cmp ctx op a b =
  if not (Dtype.equal (Expr.dtype a) Dtype.Int) then Expr.cmp op a b
  else
    let diff = of_linear (to_linear (Expr.sub a b)) in
    match (bound ctx diff, op) with
    | Some { lo; hi }, _ when lo = hi -> Expr.Bool (Expr.eval_cmp_int op lo 0)
    | Some { hi; _ }, Expr.Lt when hi < 0 -> Expr.Bool true
    | Some { lo; _ }, Expr.Lt when lo >= 0 -> Expr.Bool false
    | Some { hi; _ }, Expr.Le when hi <= 0 -> Expr.Bool true
    | Some { lo; _ }, Expr.Le when lo > 0 -> Expr.Bool false
    | Some { lo; _ }, Expr.Gt when lo > 0 -> Expr.Bool true
    | Some { hi; _ }, Expr.Gt when hi <= 0 -> Expr.Bool false
    | Some { lo; _ }, Expr.Ge when lo >= 0 -> Expr.Bool true
    | Some { hi; _ }, Expr.Ge when hi < 0 -> Expr.Bool false
    | Some { lo; hi }, Expr.Eq when lo > 0 || hi < 0 -> Expr.Bool false
    | Some { lo; hi }, Expr.Ne when lo > 0 || hi < 0 -> Expr.Bool true
    | _ -> Expr.cmp op a b

(** Convenience entry point with variable extents given as a list. *)
let simplify_with_extents extents e =
  let ctx =
    List.fold_left (fun ctx (v, ext) -> with_extent ctx v ext) empty_ctx extents
  in
  simplify ctx e

(** Prove that two integer expressions are equal under the given context. *)
let prove_equal ctx a b =
  match simplify ctx (Expr.cmp Expr.Eq a b) with
  | Expr.Bool r -> r
  | _ -> (
      (* Fall back to linear-form comparison. *)
      let d = to_linear (Expr.sub a b) in
      d.const = 0 && d.terms = [])

let prove ctx e = match simplify ctx e with Expr.Bool true -> true | _ -> false
