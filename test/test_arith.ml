(** Arithmetic substrate: the rewriting simplifier, interval analysis, and
    the quasi-affine iterator-map detector — including the paper's §3.3
    legality examples. *)

open Tir_ir
module Simplify = Tir_arith.Simplify
module Iter_map = Tir_arith.Iter_map
module Region = Tir_arith.Region

let vx = Var.fresh "x"
let vy = Var.fresh "y"

let ctx =
  Simplify.with_extent (Simplify.with_extent Simplify.empty_ctx vx 16) vy 8

let simp e = Simplify.simplify ctx e

let check_expr msg expected actual =
  if not (Expr.equal expected actual) then
    Alcotest.failf "%s: expected %a, got %a" msg Expr.pp expected Expr.pp actual

let test_linear_normalize () =
  let open Expr in
  (* (x + x) -> x*2 ; x - x -> 0 *)
  check_expr "x+x" (mul (Var vx) (Int 2)) (simp (Bin (Add, Var vx, Var vx)));
  check_expr "x-x" (Int 0) (simp (Bin (Sub, Var vx, Var vx)));
  check_expr "2x+3x" (mul (Var vx) (Int 5))
    (simp (Bin (Add, Bin (Mul, Var vx, Int 2), Bin (Mul, Var vx, Int 3))))

let test_divmod_simplify () =
  let open Expr in
  (* (x*4 + y) / 4 = x when y in [0,4) — here y in [0,8) so it should NOT
     simplify; with y bounded by 4 it should. *)
  let ctx4 = Simplify.with_extent (Simplify.with_extent Simplify.empty_ctx vx 16) vy 4 in
  let e = Bin (Div, Bin (Add, Bin (Mul, Var vx, Int 4), Var vy), Int 4) in
  check_expr "(4x+y)/4 with y<4" (Var vx) (Simplify.simplify ctx4 e);
  let e2 = Bin (Mod, Bin (Add, Bin (Mul, Var vx, Int 4), Var vy), Int 4) in
  check_expr "(4x+y)%4 with y<4" (Var vy) (Simplify.simplify ctx4 e2);
  (* (x*8)/4 = x*2 regardless of range *)
  check_expr "8x/4" (mul (Var vx) (Int 2)) (simp (Bin (Div, Bin (Mul, Var vx, Int 8), Int 4)))

let test_minmax_bounds () =
  let open Expr in
  (* x in [0,16): min(x, 20) = x, max(x, 20) = 20 *)
  check_expr "min(x,20)" (Var vx) (simp (Bin (Min, Var vx, Int 20)));
  check_expr "max(x,20)" (Int 20) (simp (Bin (Max, Var vx, Int 20)))

let test_cmp_proofs () =
  let open Expr in
  check_expr "x < 16 is true" (Bool true) (simp (lt (Var vx) (Int 16)));
  check_expr "x < 15 unknown" (lt (Var vx) (Int 15)) (simp (lt (Var vx) (Int 15)));
  check_expr "x >= 0 true" (Bool true) (simp (ge (Var vx) (Int 0)));
  Alcotest.(check bool) "prove_equal modulo linear form" true
    (Simplify.prove_equal ctx
       (Bin (Add, Var vx, Var vy))
       (Bin (Add, Var vy, Var vx)))

let test_bound_soundness () =
  (* QCheck: Bound.of_expr must contain the actual evaluation. *)
  let vars = [| vx; vy |] in
  let extents = [| 16; 8 |] in
  let ranges =
    Array.to_seq (Array.mapi (fun i v -> (v, Bound.of_extent extents.(i))) vars)
    |> Var.Map.of_seq
  in
  let gen =
    let open QCheck2.Gen in
    sized
    @@ QCheck2.Gen.fix (fun self n ->
           if n <= 0 then
             oneof
               [ map (fun i -> Expr.Int (i - 4)) (int_bound 8);
                 map (fun i -> Expr.Var vars.(i)) (int_bound 1) ]
           else
             let sub = self (n / 2) in
             oneof
               [
                 map2 Expr.add sub sub;
                 map2 Expr.sub sub sub;
                 map2 (fun a k -> Expr.mul a (Expr.Int k)) sub (int_bound 3);
                 map2 (fun a k -> Expr.div a (Expr.Int (k + 1))) sub (int_bound 6);
                 map2 (fun a k -> Expr.mod_ a (Expr.Int (k + 1))) sub (int_bound 6);
               ])
  in
  let prop =
    QCheck2.Test.make ~name:"bound contains evaluation" ~count:500
      QCheck2.Gen.(triple gen (int_bound 15) (int_bound 7))
      (fun (e, x, y) ->
        match Bound.of_expr_map ranges e with
        | None -> true
        | Some { Bound.lo; hi } ->
            let env = Tir_exec.Interp.create_env () in
            Hashtbl.replace env.Tir_exec.Interp.vars vx.Var.id x;
            Hashtbl.replace env.Tir_exec.Interp.vars vy.Var.id y;
            let v =
              match Tir_exec.Interp.eval env e with
              | Tir_exec.Interp.VInt i -> i
              | _ -> assert false
            in
            lo <= v && v <= hi)
  in
  match QCheck2.Test.check_exn prop with
  | () -> ()
  | exception e -> Alcotest.failf "bound soundness: %s" (Printexc.to_string e)

(* --- iterator map detection (paper §3.3 examples) --- *)

let detect domain bindings = Iter_map.detect ~domain ~bindings

let test_iter_map_identity () =
  let i = Var.fresh "i" in
  match detect [ (i, 32) ] [ Expr.Var i ] with
  | Ok { Iter_map.extents = [ 32 ]; _ } -> ()
  | Ok _ -> Alcotest.fail "wrong extents"
  | Error m -> Alcotest.fail m

let test_iter_map_divmod_legal () =
  (* v1 = i/4, v2 = i%4 — the paper's legal example. *)
  let i = Var.fresh "i" in
  let open Expr in
  match detect [ (i, 32) ] [ div (Var i) (Int 4); mod_ (Var i) (Int 4) ] with
  | Ok { Iter_map.extents = [ 8; 4 ]; _ } -> ()
  | Ok _ -> Alcotest.fail "wrong extents"
  | Error m -> Alcotest.fail m

let test_iter_map_overlap_illegal () =
  (* v1 = i, v2 = i*2 — the paper's illegal example (not independent). *)
  let i = Var.fresh "i" in
  let open Expr in
  match detect [ (i, 32) ] [ Var i; mul (Var i) (Int 2) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "overlapping bindings must be rejected"

let test_iter_map_fused () =
  (* v = i*8 + j over i:4, j:8 — compact fused binding of extent 32. *)
  let i = Var.fresh "i" and j = Var.fresh "j" in
  let open Expr in
  match detect [ (i, 4); (j, 8) ] [ add (mul (Var i) (Int 8)) (Var j) ] with
  | Ok { Iter_map.extents = [ 32 ]; _ } -> ()
  | Ok _ -> Alcotest.fail "wrong extents"
  | Error m -> Alcotest.fail m

let test_iter_map_noncompact_illegal () =
  (* v = i*9 + j with j:8 leaves gaps — scale chain broken. *)
  let i = Var.fresh "i" and j = Var.fresh "j" in
  let open Expr in
  match detect [ (i, 4); (j, 8) ] [ add (mul (Var i) (Int 9)) (Var j) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-compact binding must be rejected"

let test_iter_map_mark_division () =
  (* Misaligned division of a full compact sum (fuse-then-split pattern):
     f = i*24 + j (i:4, j:24 -> extent 96); bindings f/10 and f%10 are a
     bijective re-split of the composite iterator via a mark. *)
  let i = Var.fresh "i" and j = Var.fresh "j" in
  let open Expr in
  let f = add (mul (Var i) (Int 24)) (Var j) in
  match detect [ (i, 4); (j, 24) ] [ div f (Int 12); mod_ f (Int 12) ] with
  | Ok { Iter_map.extents = [ 8; 12 ]; _ } -> ()
  | Ok { Iter_map.extents; _ } ->
      Alcotest.failf "wrong extents: %s"
        (String.concat "," (List.map string_of_int extents))
  | Error m -> Alcotest.fail m

let test_iter_map_unused_ok () =
  (* A binding not using some loop is a replicated (e.g. copy) block: legal. *)
  let i = Var.fresh "i" and j = Var.fresh "j" in
  match detect [ (i, 4); (j, 8) ] [ Expr.Var j ] with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m

(* --- region utilities --- *)

let test_relax_region () =
  let buf = Buffer.create "A" [ 64; 64 ] Dtype.F32 in
  let outer = Var.fresh "o" and inner = Var.fresh "i" in
  let open Expr in
  let r =
    {
      Stmt.buffer = buf;
      region = [ (add (mul (Var outer) (Int 16)) (Var inner), 1); (Int 0, 64) ];
    }
  in
  let relaxed =
    Region.relax_region ~relaxed:(Var.Map.singleton inner (Bound.of_extent 16)) r
  in
  (match relaxed.Stmt.region with
  | [ (mn, 16); (_, 64) ] ->
      if not (Expr.equal mn (mul (Var outer) (Int 16))) then
        Alcotest.failf "wrong min %a" Expr.pp mn
  | _ -> Alcotest.fail "wrong relaxed region");
  (* hull with outer relaxed too *)
  match
    Region.hull_of_region (Var.Map.singleton outer (Bound.of_extent 4)) relaxed
  with
  | Some [ (0, 63); (0, 63) ] -> ()
  | _ -> Alcotest.fail "wrong hull"

let test_covers () =
  Alcotest.(check bool) "covers" true (Region.covers [ (0, 63) ] [ (8, 15) ]);
  Alcotest.(check bool) "not covers" false (Region.covers [ (0, 31) ] [ (8, 63) ])

(* --- canonical atom order ------------------------------------------------ *)

let sign x = compare x 0

(* Every sub-expression that [to_linear] would keep as an atom. *)
let atoms_of es =
  let acc = ref [] in
  List.iter
    (Expr.iter (fun e ->
         match e with
         | Expr.Int _ -> ()
         | Expr.Bin ((Expr.Add | Expr.Sub), _, _)
         | Expr.Bin (Expr.Mul, _, Expr.Int _)
         | Expr.Bin (Expr.Mul, Expr.Int _, _) ->
             ()
         | e when Dtype.equal (Expr.dtype e) Dtype.Int -> acc := e :: !acc
         | _ -> ()))
    es;
  List.rev !acc

(* One atom per distinct printed key, keeping at most [cap]. *)
let distinct_atoms ~cap atoms =
  let seen = Hashtbl.create 256 in
  List.filteri
    (fun _ a ->
      let k = Simplify_reference.atom_key a in
      if Hashtbl.length seen >= cap || Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    atoms

let check_order_pairs label atoms =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let want =
            sign
              (String.compare (Simplify_reference.atom_key a) (Simplify_reference.atom_key b))
          in
          let got = sign (Simplify.compare_atom a b) in
          if want <> got then
            Alcotest.failf "%s: compare_atom %a %a = %d, printed keys give %d" label Expr.pp
              a Expr.pp b got want)
        atoms)
    atoms

let check_same_linear label e =
  let want = Simplify_reference.to_linear e and got = Simplify.to_linear e in
  let same_terms =
    List.length want.terms = List.length got.terms
    && List.for_all2 (fun (a, c) (b, d) -> a == b && c = d) want.terms got.terms
  in
  if want.const <> got.const || not same_terms then
    Alcotest.failf "%s: to_linear %a differs from the string-keyed reference (%a vs %a)"
      label Expr.pp e Expr.pp (Simplify.of_linear got) Expr.pp
      (Simplify.of_linear want)

let candidate_exprs () =
  List.concat_map
    (fun (_, _, e) ->
      match e with
      | Tir_autosched.Eval.Evaluated { func; _ } ->
          let acc = ref [] in
          Stmt.iter_exprs (fun e -> acc := e :: !acc) func.Primfunc.body;
          List.rev !acc
      | _ -> [])
    (Order_sample.candidates ())

let test_order_candidates () =
  let es = candidate_exprs () in
  check_order_pairs "candidates" (distinct_atoms ~cap:400 (atoms_of es));
  List.iter
    (fun e ->
      Expr.iter
        (fun e ->
          if Dtype.equal (Expr.dtype e) Dtype.Int then check_same_linear "candidates" e)
        e)
    es

let test_order_random () =
  let _, es = Order_sample.random_exprs ~seed:3 400 in
  check_order_pairs "random" (distinct_atoms ~cap:400 (atoms_of es));
  List.iter (check_same_linear "random") es

(* [Var.counter] is process-wide, so a long-lived process passes id 10^8.
   Padded to eight digits, "v99999999" sorted after "v100000000"; ids
   compare as numbers, so a late expression orders its terms as the same
   expression built in a fresh process does. *)
let test_order_large_ids () =
  let mk id name = { Var.id; name; dtype = Dtype.Int } in
  let a = mk 99_999_999 "a" and b = mk 100_000_000 "b" and c = mk 7 "c" in
  let lt x y = Simplify.compare_atom (Expr.Var x) (Expr.Var y) < 0 in
  Alcotest.(check bool) "99999999 < 100000000" true (lt a b);
  Alcotest.(check bool) "100000000 > 99999999" false (lt b a);
  Alcotest.(check bool) "7 < 100000000" true (lt c b);
  let late = Expr.Bin (Expr.Add, Expr.Var b, Expr.mul (Expr.Var a) (Expr.Int 4)) in
  let fresh =
    let a' = mk 5 "a" and b' = mk 6 "b" in
    Expr.Bin (Expr.Add, Expr.Var b', Expr.mul (Expr.Var a') (Expr.Int 4))
  in
  Alcotest.(check string)
    "late ids order as fresh ones"
    (Expr.to_string (Simplify.simplify Simplify.empty_ctx fresh))
    (Expr.to_string (Simplify.simplify Simplify.empty_ctx late));
  Alcotest.(check string)
    "a * 4 + b" "a * 4 + b"
    (Expr.to_string (Simplify.simplify Simplify.empty_ctx late))

(* Past 10^8 the order must stay total, also against non-variable atoms
   whose printed form starts like a padded key: a variable that no longer
   fits the key sorts after every "v99999999..." text, and sums must
   cancel and group the same whichever way they are associated. *)
let test_order_large_ids_total () =
  let mk id name = Expr.Var { Var.id; name; dtype = Dtype.Int } in
  let small = mk 99_999_999 "y" and wide = mk 100_000_005 "x" and wider = mk 100_000_000 "w" in
  (* prints "v1_ // 4" and "v99999999 % 3" *)
  let split = Expr.Bin (Expr.Div, mk 3 "v1_", Expr.Int 4) in
  let near = Expr.Bin (Expr.Mod, mk 100_000_001 "v99999999", Expr.Int 3) in
  let atoms = [ split; small; wide; wider; near; mk 7 "c" ] in
  let cmp = Simplify.compare_atom in
  let expected = [ mk 7 "c"; split; small; near; wider; wide ] in
  Alcotest.(check (list string))
    "order" (List.map Expr.to_string expected)
    (List.map Expr.to_string (List.sort cmp atoms));
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if sign (cmp a b) <> -sign (cmp b a) then
            Alcotest.failf "compare_atom %a %a is not antisymmetric" Expr.pp a Expr.pp b;
          List.iter
            (fun c ->
              if cmp a b <= 0 && cmp b c <= 0 && cmp a c > 0 then
                Alcotest.failf "compare_atom is not transitive on %a, %a, %a" Expr.pp a
                  Expr.pp b Expr.pp c)
            atoms)
        atoms)
    atoms;
  let ( + ) a b = Expr.Bin (Expr.Add, a, b) and ( - ) a b = Expr.Bin (Expr.Sub, a, b) in
  let terms e =
    List.map (fun (a, c) -> Printf.sprintf "%s*%d" (Expr.to_string a) c) (Simplify.to_linear e).terms
  in
  List.iter
    (fun (a, b, c) ->
      let name = Fmt.str "%a, %a, %a" Expr.pp a Expr.pp b Expr.pp c in
      Alcotest.(check (list string)) (name ^ ": grouping") (terms (a + b + c)) (terms (a + (b + c)));
      Alcotest.(check (list string)) (name ^ ": cancels") (terms (a + b)) (terms (a + (b + c) - c)))
    [
      (split, small, wide);
      (split, wide, small);
      (small, split, wide);
      (small, wide, split);
      (wide, split, small);
      (wide, small, split);
      (near, wide, small);
      (wider, near, split);
    ]

let test_order_golden () =
  let expected =
    In_channel.with_open_bin "fixtures/order_golden.txt" In_channel.input_all
  in
  let got = Order_sample.render () in
  if not (String.equal expected got) then begin
    let el = String.split_on_char '\n' expected and gl = String.split_on_char '\n' got in
    let rec first i = function
      | x :: xs, y :: ys -> if String.equal x y then first (i + 1) (xs, ys) else (i, x, y)
      | x :: _, [] -> (i, x, "<end>")
      | [], y :: _ -> (i, "<end>", y)
      | [], [] -> (i, "", "")
    in
    let i, x, y = first 1 (el, gl) in
    Alcotest.failf "order sample differs from fixtures/order_golden.txt at line %d:\n  want %s\n  got  %s" i x y
  end

let suite =
  [
    ("linear normalization", `Quick, test_linear_normalize);
    ("div/mod simplification", `Quick, test_divmod_simplify);
  ]
  @ [
      ("min/max with bounds", `Quick, test_minmax_bounds);
      ("comparison proofs", `Quick, test_cmp_proofs);
      ("bound soundness (qcheck)", `Quick, test_bound_soundness);
      ("iter map: identity", `Quick, test_iter_map_identity);
      ("iter map: div/mod legal", `Quick, test_iter_map_divmod_legal);
      ("iter map: overlap illegal", `Quick, test_iter_map_overlap_illegal);
      ("iter map: fused binding", `Quick, test_iter_map_fused);
      ("iter map: non-compact illegal", `Quick, test_iter_map_noncompact_illegal);
      ("iter map: composite mark division", `Quick, test_iter_map_mark_division);
      ("iter map: unused loop ok", `Quick, test_iter_map_unused_ok);
      ("relax region", `Quick, test_relax_region);
      ("hull cover", `Quick, test_covers);
      ("atom order = printed keys (candidates)", `Quick, test_order_candidates);
      ("atom order = printed keys (random)", `Quick, test_order_random);
      ("atom order: ids past 10^8", `Quick, test_order_large_ids);
      ("atom order: total past 10^8", `Quick, test_order_large_ids_total);
      ("atom order: golden sample", `Quick, test_order_golden);
    ]
