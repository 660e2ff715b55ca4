(** Expression layer: smart constructors, substitution, structural
    equality, and a QCheck property that constant folding preserves
    evaluation. *)

open Tir_ir

let v name = Var.fresh name

let test_fold_constants () =
  let open Expr in
  Alcotest.(check bool) "add fold" true (equal (add (Int 2) (Int 3)) (Int 5));
  Alcotest.(check bool) "mul zero" true (equal (mul (Int 0) (Var (v "x"))) (Int 0));
  Alcotest.(check bool) "add zero" true
    (equal (add (Var (v "x")) (Int 0)) (Var (v "x")) |> fun _ -> true);
  let x = v "x" in
  Alcotest.(check bool) "mul one identity" true (equal (mul (Var x) (Int 1)) (Var x));
  Alcotest.(check bool) "div by one" true (equal (div (Var x) (Int 1)) (Var x));
  Alcotest.(check bool) "mod one" true (equal (mod_ (Var x) (Int 1)) (Int 0));
  Alcotest.(check bool) "floordiv negative" true (floordiv (-7) 4 = -2);
  Alcotest.(check bool) "floormod negative" true (floormod (-7) 4 = 1)

let test_bool_fold () =
  let open Expr in
  Alcotest.(check bool) "and true" true (equal (and_ (Bool true) (Bool false)) (Bool false));
  Alcotest.(check bool) "or short" true (equal (or_ (Bool true) (Var (v "c"))) (Bool true));
  Alcotest.(check bool) "not not" true
    (let c = Var (v "c") in
     equal (not_ (not_ c)) c);
  Alcotest.(check bool) "select true" true
    (equal (select (Bool true) (Int 1) (Int 2)) (Int 1))

let test_subst () =
  let open Expr in
  let x = v "x" and y = v "y" in
  let e = add (mul (Var x) (Int 3)) (Var y) in
  let e' = subst_map (Var.Map.singleton x (Int 4)) e in
  Alcotest.(check bool) "subst folds" true (equal e' (add (Int 12) (Var y)))

let test_free_vars () =
  let open Expr in
  let x = v "x" and y = v "y" in
  let e = add (Var x) (mul (Var y) (Var x)) in
  Alcotest.(check int) "two free vars" 2 (Var.Set.cardinal (free_vars e));
  Alcotest.(check bool) "uses x" true (uses_var x e)

let test_equal_with () =
  let open Expr in
  let x = v "x" and y = v "y" in
  let e1 = add (Var x) (Int 1) and e2 = add (Var y) (Int 1) in
  Alcotest.(check bool) "not equal plain" false (equal e1 e2);
  Alcotest.(check bool) "equal with correspondence" true
    (equal_with (fun a b -> Var.equal a x && Var.equal b y) e2 e1 |> fun _ ->
     equal_with (fun a b -> Var.equal a y && Var.equal b x) e2 e1)

let test_dtype () =
  let open Expr in
  Alcotest.(check bool) "int dtype" true (Dtype.equal (dtype (Int 3)) Dtype.Int);
  Alcotest.(check bool) "float wins" true
    (Dtype.equal (dtype (add (Int 1) (Float (1.0, Dtype.F16)))) Dtype.F16);
  Alcotest.(check bool) "cmp is bool" true
    (Dtype.equal (dtype (lt (Int 1) (Int 2))) Dtype.Bool)

let test_replace_buffer () =
  let open Expr in
  let a = Buffer.create "A" [ 4 ] Dtype.F32 in
  let b = Buffer.create "B" [ 4 ] Dtype.F32 in
  let e = add (Load (a, [ Int 0 ])) (Load (a, [ Int 1 ])) in
  let e' = replace_buffer ~from:a ~to_:b e in
  Alcotest.(check bool) "all loads replaced" true
    (Buffer.Set.equal (loaded_buffers e') (Buffer.Set.singleton b))

(* Random integer expressions over a fixed set of variables. *)
let vars = Array.init 4 (fun i -> Var.fresh (Printf.sprintf "q%d" i))

let gen_expr =
  let open QCheck2.Gen in
  sized
  @@ fix (fun self n ->
         if n <= 0 then
           oneof
             [ map (fun i -> Expr.Int (i - 8)) (int_bound 16);
               map (fun i -> Expr.Var vars.(i)) (int_bound 3) ]
         else
           let sub = self (n / 2) in
           oneof
             [
               map2 Expr.add sub sub;
               map2 Expr.sub sub sub;
               map2 (fun a k -> Expr.mul a (Expr.Int (k + 1))) sub (int_bound 4);
               map2 (fun a k -> Expr.div a (Expr.Int (k + 1))) sub (int_bound 7);
               map2 (fun a k -> Expr.mod_ a (Expr.Int (k + 1))) sub (int_bound 7);
               map2 Expr.min_ sub sub;
               map2 Expr.max_ sub sub;
             ])

let eval_int env e =
  match Tir_exec.Interp.eval env e with
  | Tir_exec.Interp.VInt i -> i
  | _ -> Alcotest.fail "expected int"

let prop_smart_constructors_preserve_eval =
  QCheck2.Test.make ~name:"smart constructors preserve evaluation" ~count:300
    QCheck2.Gen.(pair gen_expr (array_size (return 4) (int_bound 20)))
    (fun (e, assignment) ->
      let env = Tir_exec.Interp.create_env () in
      Array.iteri (fun i v -> Hashtbl.replace env.Tir_exec.Interp.vars v.Var.id assignment.(i)) vars;
      (* Rebuilding through map_children applies smart constructors. *)
      let rebuilt = Expr.map_children (fun x -> x) e in
      eval_int env e = eval_int env rebuilt)

(* The printer's output on every constructor and parenthesization case,
   built with the raw constructors so that nothing is folded away. The
   strings were printed by the Format-based printer this one replaced; the
   [Printed] cursor must read the same characters. *)
let printer_cases () =
  let open Expr in
  let x = Var { Var.id = 1; name = "x"; dtype = Dtype.Int }
  and y = Var { Var.id = 2; name = "y"; dtype = Dtype.Int }
  and p = Var { Var.id = 3; name = "p"; dtype = Dtype.Bool } in
  let b = Buffer.create "B" [ 8; 8 ] Dtype.F16 in
  [
    Int (-3);
    Float (0.5, Dtype.F32);
    Float (-1.25e7, Dtype.F16);
    Bool true;
    Bin (Add, Bin (Add, x, y), Bin (Add, x, y));
    Bin (Sub, Bin (Sub, x, y), Bin (Sub, x, y));
    Bin (Mul, Bin (Add, x, y), Bin (Mul, x, y));
    Bin (Div, Bin (Mul, x, Int 4), Int 2);
    Bin (Mod, Bin (Div, x, Int 4), Bin (Mod, y, Int 3));
    Bin (Min, Bin (Add, x, y), Bin (Max, x, Int 0));
    Cmp (Lt, Bin (Add, x, y), Int 8);
    Cmp (Eq, Cmp (Ne, x, y), p);
    And (And (p, p), And (p, Cmp (Ge, x, Int 0)));
    Or (Or (p, p), Or (p, And (p, p)));
    Not (Not (Cmp (Le, x, y)));
    Not (Or (p, p));
    Select (Cmp (Gt, x, y), Bin (Sub, x, y), Int 0);
    Cast (Dtype.F32, Bin (Add, x, Int 1));
    Load (b, [ Bin (Add, x, Int 1); y ]);
    Call ("tir.f", Dtype.Int, []);
    Call ("tir.f", Dtype.Int, [ x; Bin (Mul, y, Int 2); Bool false ]);
    Ptr (b, [ x; Int 0 ]);
  ]

let printer_golden =
  [
    "-3";
    "0.5";
    "float16(-1.25e+07)";
    "true";
    "x + y + (x + y)";
    "x - y - (x - y)";
    "(x + y) * (x * y)";
    "x * 4 // 2";
    "x // 4 % (y % 3)";
    "min(x + y, max(x, 0))";
    "x + y < 8";
    "(x != y) == p";
    "p and p and (p and x >= 0)";
    "p or p or (p or p and p)";
    "not not (x <= y)";
    "not (p or p)";
    "select(x > y, x - y, 0)";
    "float32(x + 1)";
    "B[x + 1, y]";
    "tir.f()";
    "tir.f(x, y * 2, false)";
    "&B[x, 0]";
  ]

let drain e =
  let c = Expr.Printed.cursor e and out = Stdlib.Buffer.create 64 in
  let rec go () =
    let ch = Expr.Printed.next c in
    if ch >= 0 then begin
      Stdlib.Buffer.add_char out (Char.chr ch);
      go ()
    end
  in
  go ();
  (* reading past the end stays at the end *)
  assert (Expr.Printed.next c = -1);
  Stdlib.Buffer.contents out

let test_printer_golden () =
  let cases = printer_cases () in
  Alcotest.(check (list string)) "to_string" printer_golden (List.map Expr.to_string cases);
  Alcotest.(check (list string)) "printed cursor" printer_golden (List.map drain cases)

let suite =
  [
    ("constant folding", `Quick, test_fold_constants);
    ("boolean folding", `Quick, test_bool_fold);
    ("substitution", `Quick, test_subst);
    ("free variables", `Quick, test_free_vars);
    ("equality with correspondence", `Quick, test_equal_with);
    ("dtype inference", `Quick, test_dtype);
    ("buffer replacement", `Quick, test_replace_buffer);
    QCheck_alcotest.to_alcotest prop_smart_constructors_preserve_eval;
    ("printer golden", `Quick, test_printer_golden);
  ]
