(** A seeded sample whose printed form depends on the simplifier's
    canonical atom order: scheduled candidates of the tuning benchmark's
    workloads (structural fingerprint and printed script of each), then
    simplified random index expressions.

    [fixtures/order_golden.txt] is [render ()] as printed by the
    simplifier that sorted atoms by their printed keys; the arith tests
    check that it is reproduced byte for byte. [candidates] and
    [random_exprs] also feed the atom-order differential test. *)

open Tir_ir
module W = Tir_workloads.Workloads
module Target = Tir_sim.Target
module Sk = Tir_autosched.Sketch
module Eval = Tir_autosched.Eval

(* The operators the op-search, model-compile and serve-mixed workloads
   tune, on their targets. *)
let cases () =
  let gpu = Target.gpu_tensorcore and arm = Target.arm_sdot in
  let i8 = Dtype.I8 and i32 = Dtype.I32 in
  [
    ("c2d-gpu", W.c2d (), gpu);
    ("dep-gpu", W.dep (), gpu);
    ("gmm-arm", W.gmm ~in_dtype:i8 ~acc_dtype:i32 ~m:512 ~n:512 ~k:512 (), arm);
    ("gmm64-gpu", W.gmm ~m:64 ~n:64 ~k:64 (), gpu);
    ("grp-gpu", W.grp (), gpu);
    ("c3d-gpu", W.c3d (), gpu);
    ("c2d-arm", W.c2d ~in_dtype:i8 ~acc_dtype:i32 (), arm);
    ("t2d-gpu", W.t2d (), gpu);
    ("dil-gpu", W.dil (), gpu);
    ("c1d-gpu", W.c1d (), gpu);
  ]

let per_sketch = 2
let draws = 40

(* [(label, target, evaluation)] for up to [per_sketch] candidates of each
   sketch that evaluate, from a fixed number of seeded draws. *)
let candidates () =
  List.concat_map
    (fun (label, w, target) ->
      let sketches =
        Sk.generate target w (Tir_autosched.Tune.target_intrinsics target)
      in
      List.concat
        (List.mapi
           (fun si (sk : Sk.t) ->
             let rng = Tir_autosched.Rng.create (1000 + si) in
             let rec draw i acc =
               if i = draws || List.length acc = per_sketch then List.rev acc
               else
                 let d = Tir_autosched.Space.random_decisions rng sk.Sk.knobs in
                 match Eval.evaluate ~target sk d with
                 | Eval.Evaluated _ as e ->
                     let name = Printf.sprintf "%s %s #%d" label sk.Sk.name i in
                     draw (i + 1) ((name, target, e) :: acc)
                 | _ -> draw (i + 1) acc
             in
             draw 0 [])
           sketches))
    (cases ())

(* Random integer index expressions over a few variables, some named like
   variable keys ("v" and digits) so that comparisons between a variable
   and a printed atom run past the first character. *)
let random_exprs ~seed n =
  let st = Random.State.make [| seed |] in
  let vars =
    Array.map (fun name -> Var.fresh name) [| "i"; "j0"; "v"; "v0"; "v00000001"; "v9"; "ax1"; "k" |]
  in
  let buf = Buffer.create "A" [ 64; 64 ] Dtype.Int in
  let rec gen depth =
    let leaf () =
      if Random.State.int st 3 = 0 then Expr.Int (Random.State.int st 17 - 8)
      else Expr.Var vars.(Random.State.int st (Array.length vars))
    in
    if depth = 0 then leaf ()
    else
      let sub () = gen (depth - 1) in
      let k () = Expr.Int (1 + Random.State.int st 8) in
      match Random.State.int st 12 with
      | 0 | 1 -> Expr.add (sub ()) (sub ())
      | 2 -> Expr.sub (sub ()) (sub ())
      | 3 -> Expr.mul (sub ()) (k ())
      | 4 -> Expr.Bin (Expr.Mul, sub (), sub ())
      | 5 -> Expr.Bin (Expr.Div, sub (), k ())
      | 6 -> Expr.Bin (Expr.Mod, sub (), k ())
      | 7 -> Expr.Bin (Expr.Min, sub (), sub ())
      | 8 -> Expr.Bin (Expr.Max, sub (), sub ())
      | 9 -> Expr.Load (buf, [ sub (); sub () ])
      | 10 -> Expr.Select (Expr.Cmp (Expr.Lt, sub (), sub ()), sub (), sub ())
      | _ -> leaf ()
  in
  (vars, List.init n (fun _ -> gen (1 + Random.State.int st 4)))

let render () =
  Eval.clear_caches ();
  Tir_sched.Apply_cache.clear ();
  let b = Stdlib.Buffer.create (1 lsl 16) in
  List.iter
    (fun (label, _, e) ->
      match e with
      | Eval.Evaluated { func; fp; _ } ->
          Printf.bprintf b "== %s\nfp %s\n%s\n" label (Fingerprint.to_hex fp)
            (Printer.func_to_script func)
      | _ -> ())
    (candidates ());
  let vars, exprs = random_exprs ~seed:7 200 in
  let ctx =
    Array.fold_left
      (fun ctx v -> Tir_arith.Simplify.with_extent ctx v 16)
      Tir_arith.Simplify.empty_ctx vars
  in
  List.iteri
    (fun i e ->
      Printf.bprintf b "== expr %d\n%s\n%s\n" i (Expr.to_string e)
        (Expr.to_string (Tir_arith.Simplify.simplify ctx e)))
    exprs;
  Stdlib.Buffer.contents b
