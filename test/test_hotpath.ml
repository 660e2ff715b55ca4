(** Properties of the hash-consed / incremental search hot path.

    The bench's headline claim is that the optimized evaluation pipeline
    (knob pre-filter, cached schedule application, decision-key memo,
    fingerprint post-memo, per-nest tally cache) is *only* faster — never
    different. These tests pin that down:

    - interning: physical equality after [intern]/[hashcons] coincides
      with structural equality, on random expressions and on real program
      bodies;
    - the optimized pipeline classifies every decision vector exactly as
      the pre-refactor pipeline does, fingerprints and feature vectors
      included, across random mutation chains and with the apply cache
      both on and off;
    - the per-nest tally cache does not change extracted features;
    - pricing the tallies a candidate carries equals walking its program,
      latency bits and [sim.*] counters included;
    - evaluation is deterministic across domains (jobs=1 vs jobs=4). *)

open Tir_ir
module Space = Tir_autosched.Space
module Sk = Tir_autosched.Sketch
module CM = Tir_autosched.Eval
module AC = Tir_sched.Apply_cache
module Machine = Tir_sim.Machine
module Rng = Tir_autosched.Rng
module W = Tir_workloads.Workloads
module Pool = Tir_parallel.Pool

(* --- interning: physical equality iff structural equality --- *)

let vars = Array.init 4 (fun i -> Var.fresh (Printf.sprintf "hc%d" i))

let gen_expr =
  let open QCheck2.Gen in
  sized
  @@ fix (fun self n ->
         if n <= 0 then
           oneof
             [
               map (fun i -> Expr.Int (i - 8)) (int_bound 16);
               map (fun i -> Expr.Var vars.(i)) (int_bound 3);
             ]
         else
           let sub = self (n / 2) in
           oneof
             [
               map2 Expr.add sub sub;
               map2 Expr.sub sub sub;
               map2 (fun a k -> Expr.mul a (Expr.Int (k + 1))) sub (int_bound 4);
               map2 (fun a k -> Expr.div a (Expr.Int (k + 1))) sub (int_bound 7);
               map2 Expr.min_ sub sub;
               map2 Expr.max_ sub sub;
             ])

(* Fresh structural copy: rebuilds every node through the smart
   constructors, so no subtree is shared with the original. *)
let rec copy_expr e = Expr.map_children copy_expr e

let prop_intern_phys_iff_structural =
  QCheck2.Test.make ~name:"intern: physical equality iff structural equality"
    ~count:500
    QCheck2.Gen.(triple gen_expr gen_expr bool)
    (fun (a, b, use_copy) ->
      (* Random pairs are almost never equal; the [use_copy] half builds
         the positive cases from a disjoint structural copy. *)
      let b = if use_copy then copy_expr a else b in
      let ia = Expr.intern a and ib = Expr.intern b in
      Expr.equal a b = (ia == ib)
      (* idempotent: interning a canonical tree is the identity *)
      && Expr.intern ia == ia)

let test_stmt_hashcons () =
  let f = Util.matmul_relu () in
  let body = f.Primfunc.body in
  let rec copy_stmt s =
    Stmt.map_children copy_stmt (Stmt.map_exprs copy_expr s)
  in
  let copy = copy_stmt body in
  Alcotest.(check bool) "copy is structurally equal" true (Stmt.equal body copy);
  Alcotest.(check bool)
    "hashcons canonicalizes both trees to one" true
    (Stmt.hashcons body == Stmt.hashcons copy)

(* --- optimized pipeline == pre-refactor pipeline --- *)

let gpu = Tir_sim.Target.gpu_tensorcore

let sketches () =
  let w = W.gmm ~in_dtype:Dtype.F16 ~acc_dtype:Dtype.F32 () in
  let cand =
    Option.get
      (Tir_autosched.Candidate.generate w
         (Tir_intrin.Tensor_intrin.lookup "wmma.mma_16x16x16"))
  in
  [ Sk.tensorized_gpu cand; Sk.scalar_gpu w ]

let class_name = function
  | CM.Inapplicable -> "inapplicable"
  | CM.Invalid -> "invalid"
  | CM.Unsound -> "unsound"
  | CM.Unsupported -> "unsupported"
  | CM.Evaluated _ -> "evaluated"

let check_same_outcome ctx a b =
  Alcotest.(check string)
    (ctx ^ ": classification") (class_name a) (class_name b);
  match (a, b) with
  | ( CM.Evaluated { fp = fa; features = xa; trace = ta; _ },
      CM.Evaluated { fp = fb; features = xb; trace = tb; _ } ) ->
      Alcotest.(check bool)
        (ctx ^ ": fingerprint") true
        (Fingerprint.equal fa fb);
      Alcotest.(check (array (float 0.0))) (ctx ^ ": features") xa xb;
      Alcotest.(check string)
        (ctx ^ ": trace decisions")
        (Space.key_of (Tir_sched.Trace.decisions ta))
        (Space.key_of (Tir_sched.Trace.decisions tb))
  | _ -> ()

(* Random mutation chains, the shape the evolutionary search produces:
   each vector is one knob-mutation away from its predecessor, so the
   apply cache sees deep shared prefixes. Every step must classify the
   same through the naive pipeline (apply cache off) and the optimized
   one (apply cache on). *)
let test_evaluate_matches_naive () =
  let rng = Rng.create 1234 in
  List.iter
    (fun (sk : Sk.t) ->
      CM.clear_caches ();
      AC.clear ();
      let d = ref (Space.random_decisions rng sk.Sk.knobs) in
      for step = 0 to 39 do
        if step > 0 then d := Space.mutate rng sk.Sk.knobs !d;
        AC.set_enabled false;
        let naive = CM.evaluate_naive ~target:gpu sk !d in
        AC.set_enabled true;
        let opt = CM.evaluate ~target:gpu sk !d in
        check_same_outcome
          (Printf.sprintf "%s step %d" sk.Sk.name step)
          naive opt
      done)
    (sketches ())

(* The pre-filter must be exact: a rejected vector is precisely one the
   full application would have raised [Schedule_error] on. *)
let test_prefilter_exact () =
  let rng = Rng.create 99 in
  List.iter
    (fun (sk : Sk.t) ->
      for _ = 0 to 199 do
        let d = Space.random_decisions rng sk.Sk.knobs in
        if sk.Sk.rejects d then
          match sk.Sk.apply d with
          | exception Tir_sched.State.Schedule_error _ -> ()
          | _ ->
              Alcotest.failf "%s: pre-filter rejected an applicable vector %s"
                sk.Sk.name (Space.key_of d)
      done)
    (sketches ())

(* Decision-key memo: a hit returns the same outcome the miss computed,
   and the canonical key is order-insensitive over the knob assignment. *)
let test_decision_key_memo () =
  let rng = Rng.create 7 in
  List.iter
    (fun (sk : Sk.t) ->
      CM.clear_caches ();
      let prefix = CM.cache_prefix gpu ^ sk.Sk.space_id ^ "|" in
      for _ = 0 to 19 do
        let d = Space.random_decisions rng sk.Sk.knobs in
        let key = prefix ^ Space.canonical_key sk.Sk.knobs d in
        let hit1, e1 = CM.evaluate_cached ~key ~target:gpu sk d in
        let hit2, e2 = CM.evaluate_cached ~key ~target:gpu sk d in
        Alcotest.(check bool) "second probe hits" true ((not hit1) && hit2);
        check_same_outcome "memo hit vs miss" e1 e2
      done)
    (sketches ())

(* The per-nest tally cache must not change extracted features. *)
let test_nest_cache_transparent () =
  let rng = Rng.create 4242 in
  List.iter
    (fun (sk : Sk.t) ->
      let found = ref 0 in
      let tries = ref 0 in
      while !found < 8 && !tries < 200 do
        incr tries;
        let d = Space.random_decisions rng sk.Sk.knobs in
        match CM.evaluate ~target:gpu sk d with
        | CM.Evaluated { func; _ } ->
            incr found;
            Machine.set_nest_cache_enabled false;
            Machine.nest_cache_clear ();
            let cold = Tir_autosched.Features.extract gpu func in
            Machine.set_nest_cache_enabled true;
            let warm1 = Tir_autosched.Features.extract gpu func in
            let warm2 = Tir_autosched.Features.extract gpu func in
            Alcotest.(check (array (float 0.0)))
              "features: cache off vs on" cold warm1;
            Alcotest.(check (array (float 0.0)))
              "features: cache miss vs hit" warm1 warm2
        | _ -> ()
      done;
      Alcotest.(check bool)
        (sk.Sk.name ^ ": found evaluable vectors")
        true (!found > 0))
    (sketches ())

(* Evaluation is a pure function of (sketch, decisions): a 4-domain pool
   computing the same vectors must produce the fingerprints and feature
   vectors the sequential run produced. *)
let test_parallel_evaluate_deterministic () =
  let sk = List.nth (sketches ()) 1 in
  let rng = Rng.create 31 in
  let ds =
    Array.init 24 (fun _ -> Space.random_decisions rng sk.Sk.knobs)
  in
  let seq = Array.map (CM.evaluate_naive ~target:gpu sk) ds in
  let par = Array.make (Array.length ds) CM.Inapplicable in
  let pool = Pool.create ~jobs:4 () in
  Pool.parallel_iteri pool (Array.length ds) (fun i ->
      par.(i) <- CM.evaluate ~target:gpu sk ds.(i));
  Pool.shutdown pool;
  Array.iteri
    (fun i s ->
      check_same_outcome (Printf.sprintf "vector %d" i) s par.(i))
    seq

(* --- pricing from the carried tallies == walking the program --- *)

(* [f ()] and what it added to every [sim.*] counter and histogram. *)
let sim_delta f =
  let sim snap =
    ( List.filter (fun (n, _) -> String.starts_with ~prefix:"sim." n) snap.Tir_obs.Metrics.counters,
      List.filter_map
        (fun (n, (h : Tir_obs.Metrics.hist_snapshot)) ->
          if String.starts_with ~prefix:"sim." n then Some (n, h.counts) else None)
        snap.Tir_obs.Metrics.histograms )
  in
  let c0, h0 = sim (Tir_obs.Metrics.snapshot ()) in
  let r = f () in
  let c1, h1 = sim (Tir_obs.Metrics.snapshot ()) in
  let dc = List.map2 (fun (n, a) (_, b) -> (n, b - a)) c0 c1 in
  let dh = List.map2 (fun (n, a) (_, b) -> (n, Array.map2 ( - ) b a)) h0 h1 in
  (r, dc, dh)

let test_tallies_price_like_walk () =
  CM.clear_caches ();
  Machine.nest_cache_clear ();
  let n = ref 0 in
  List.iter
    (fun (label, target, e) ->
      match e with
      | CM.Evaluated { func; tallies; _ } ->
          incr n;
          let carried, dc, dh = sim_delta (fun () -> Machine.measure_tallies target tallies) in
          let walked, wc, wh = sim_delta (fun () -> Machine.measure_us target func) in
          if Int64.bits_of_float carried <> Int64.bits_of_float walked then
            Alcotest.failf "%s: carried tallies price %h, the walk %h" label carried walked;
          Alcotest.(check (list (pair string int))) (label ^ ": sim counters") wc dc;
          Alcotest.(check (list (pair string (array int)))) (label ^ ": sim histograms") wh dh;
          (match CM.measure_cached ~key:("tallies|" ^ label) ~target (CM.Tallies tallies) with
          | _, CM.Measured us when Int64.bits_of_float us = Int64.bits_of_float walked -> ()
          | _ -> Alcotest.failf "%s: measure_cached from tallies differs from the walk" label)
      | _ -> ())
    (Order_sample.candidates ());
  Alcotest.(check bool) "candidates sampled" true (!n > 20)

(* A program tensorized with an intrinsic the target lacks: evaluation
   says Unsupported (no tallies exist), and measuring the function still
   says Unsupported_target. *)
let test_unsupported_intrinsic () =
  let arm = Tir_sim.Target.arm_sdot in
  let sk = List.hd (sketches ()) in
  let rng = Rng.create 5 in
  let rec first i =
    if i = 200 then Alcotest.fail "no evaluable tensorized vector"
    else
      let d = Space.random_decisions rng sk.Sk.knobs in
      match CM.evaluate ~target:gpu sk d with
      | CM.Evaluated { func; _ } -> (d, func)
      | _ -> first (i + 1)
  in
  let d, func = first 0 in
  Alcotest.(check string) "evaluate on arm" "unsupported"
    (class_name (CM.evaluate ~target:arm sk d));
  (match CM.measure_cached ~key:"unsupported|arm" ~target:arm (CM.Func func) with
  | _, CM.Unsupported_target -> ()
  | _ -> Alcotest.fail "measuring on arm must be Unsupported_target");
  match Machine.measure_us arm func with
  | exception Machine.Unsupported _ -> ()
  | _ -> Alcotest.fail "measure_us on arm must raise Unsupported"

let suite =
  [
    QCheck_alcotest.to_alcotest prop_intern_phys_iff_structural;
    Alcotest.test_case "stmt hashcons canonicalizes structural copies" `Quick
      test_stmt_hashcons;
    Alcotest.test_case "optimized pipeline == naive pipeline on mutation chains"
      `Slow test_evaluate_matches_naive;
    Alcotest.test_case "knob pre-filter rejects exactly the inapplicable" `Slow
      test_prefilter_exact;
    Alcotest.test_case "decision-key memo hit == miss" `Quick
      test_decision_key_memo;
    Alcotest.test_case "nest tally cache is transparent" `Slow
      test_nest_cache_transparent;
    Alcotest.test_case "parallel evaluation deterministic (jobs 1 vs 4)" `Slow
      test_parallel_evaluate_deterministic;
    Alcotest.test_case "carried tallies price like the walk" `Quick
      test_tallies_price_like_walk;
    Alcotest.test_case "unsupported intrinsic classification" `Quick
      test_unsupported_intrinsic;
  ]
