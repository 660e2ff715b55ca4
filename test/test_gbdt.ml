(** The presorted tree trainer against the original list-based one
    ([Gbdt_reference]): byte-identical ensembles on seeded random
    datasets for both objectives, a committed model snapshot reproduced
    byte for byte, and rank-pair enumeration that grows with the group
    sizes rather than the total sample count. *)

module Gbdt = Tir_autosched.Gbdt
module Model = Tir_autosched.Model
module Tune = Tir_autosched.Tune
module W = Tir_workloads.Workloads
module Ref = Gbdt_reference

(* --- differential: presorted trainer = list-based reference ------------- *)

(* One seeded dataset. [levels] > 0 draws every feature from that many
   values (heavy ties, signed zeros included); 0 draws continuous values.
   Some columns are constant. Groups are interleaved at random; labels are
   continuous, from a small alphabet (ties), or all equal (no pairs). *)
type dataset = {
  xs : float array array;
  ys : float array;
  groups : int array;
  depth : int;
  rounds : int;
}

let dataset ~n ~levels ~n_groups ~labels st =
  let nfeat = 1 + Random.State.int st 6 in
  let constant = Array.init nfeat (fun _ -> Random.State.int st 4 = 0) in
  let value () =
    if levels = 0 then Random.State.float st 10.0 -. 5.0
    else
      match Random.State.int st levels with
      | 0 -> -0.0
      | 1 -> 0.0
      | k -> float_of_int (k - 1) *. 0.5
  in
  let xs =
    Array.init n (fun _ ->
        Array.init nfeat (fun f -> if constant.(f) then 1.5 else value ()))
  in
  let ys =
    Array.init n (fun _ ->
        match labels with
        | `Continuous -> Random.State.float st 1.0
        | `Ties -> float_of_int (Random.State.int st 3) /. 3.0
        | `Equal -> 0.25)
  in
  let groups = Array.init n (fun _ -> 7 * Random.State.int st n_groups) in
  { xs; ys; groups; depth = Random.State.int st 5; rounds = 1 + Random.State.int st 6 }

let check_same what d =
  let rounds = d.rounds and depth = d.depth in
  Alcotest.(check string)
    (what ^ " fit")
    (Ref.to_string (Ref.fit ~rounds ~depth d.xs d.ys))
    (Gbdt.to_string (Gbdt.fit ~rounds ~depth d.xs d.ys));
  Alcotest.(check string)
    (what ^ " fit_rank")
    (Ref.to_string (Ref.fit_rank ~rounds ~depth d.xs d.ys ~groups:d.groups))
    (Gbdt.to_string (Gbdt.fit_rank ~rounds ~depth d.xs d.ys ~groups:d.groups))

let test_differential () =
  let st = Random.State.make [| 20231 |] in
  let cases = ref 0 in
  List.iter
    (fun (n_max, levels, n_groups, labels) ->
      for _ = 1 to 40 do
        (* n from 1: root and child nodes below the 4-sample split floor. *)
        let n = 1 + Random.State.int st n_max in
        let d = dataset ~n ~levels ~n_groups ~labels st in
        incr cases;
        check_same
          (Printf.sprintf "case %d (n %d, levels %d, groups %d, depth %d)"
             !cases n levels n_groups d.depth)
          d
      done)
    [
      (7, 0, 1, `Continuous);
      (60, 0, 1, `Continuous);
      (60, 3, 1, `Ties);
      (60, 5, 3, `Continuous);
      (60, 2, 4, `Ties);
      (60, 4, 2, `Equal);
      (120, 0, 5, `Continuous);
    ];
  (* Every depth 0-4 on one mid-size multi-group dataset with ties. *)
  let d = dataset ~n:80 ~levels:6 ~n_groups:3 ~labels:`Ties st in
  for depth = 0 to 4 do
    check_same (Printf.sprintf "depth %d" depth) { d with depth; rounds = 8 }
  done

let test_no_pairs_empty () =
  let st = Random.State.make [| 5 |] in
  let d = dataset ~n:30 ~levels:3 ~n_groups:2 ~labels:`Equal st in
  let m = Gbdt.fit_rank d.xs d.ys ~groups:d.groups in
  Alcotest.(check int) "no pairs, no trees" 0 (List.length m.Gbdt.trees);
  (* One sample per group: nothing is comparable either. *)
  let m = Gbdt.fit_rank d.xs (Array.init 30 float_of_int) ~groups:(Array.init 30 Fun.id) in
  Alcotest.(check int) "singleton groups, no trees" 0 (List.length m.Gbdt.trees)

(* --- golden snapshot ---------------------------------------------------- *)

let gpu = Tir_sim.Target.gpu_tensorcore

let tune ?model ~seed w =
  Tir_autosched.Eval.clear_caches ();
  let cfg = Tune.Config.(default |> with_seed seed |> with_trials 32 |> with_jobs 1) in
  let cfg = match model with Some m -> Tune.Config.with_model m cfg | None -> cfg in
  match (Tune.run cfg w gpu).Tune.model with
  | Some m -> m
  | None -> Alcotest.fail "tuning returned no model"

(* A 32-trial GMM tune, then a 32-trial C1D tune warm-started from its
   model: the snapshot holds both tasks' samples and the two-group
   ensemble. test/fixtures/model_golden.txt was written by the list-based
   trainer; the search itself ranks with the model, so any drift in a
   tree also changes which candidates were measured. *)
let test_golden_snapshot () =
  let expected = In_channel.with_open_bin "fixtures/model_golden.txt" In_channel.input_all in
  let gmm =
    W.gmm ~in_dtype:Tir_ir.Dtype.F16 ~acc_dtype:Tir_ir.Dtype.F32 ~m:128 ~n:128 ~k:128 ()
  in
  let m1 = tune ~seed:11 gmm in
  let m2 = tune ~model:(Model.Warm (Model.save m1)) ~seed:5 (W.c1d ()) in
  Alcotest.(check int) "two groups" 2 (Model.stats m2).Model.groups;
  Alcotest.(check string) "snapshot byte-identical" expected (Model.save m2)

(* --- pair enumeration cost ---------------------------------------------- *)

(* The serve warm start: a store snapshot holding [k] tasks, then a new
   task's samples on top. Pairs must count sum_g n_g (n_g - 1) / 2 — they
   grow linearly with the number of tasks at a fixed task size, where an
   all-samples enumeration would grow quadratically. *)
let test_pairs_scale_with_groups () =
  let per_group = 40 in
  let pairs_of k =
    let store = Model.gbdt () in
    for g = 1 to k do
      for i = 1 to per_group do
        let f = Array.make Tir_autosched.Features.dim (float_of_int i) in
        Model.add store ~group:(string_of_int g) ~features:f
          ~latency_us:(float_of_int ((g * 1000) + i))
      done
    done;
    let m = Model.of_spec (Model.Warm (Model.save store)) in
    for i = 1 to per_group do
      let f = Array.make Tir_autosched.Features.dim (float_of_int (-i)) in
      Model.add m ~group:"new" ~features:f ~latency_us:(float_of_int i)
    done;
    let ids = Hashtbl.create 8 and groups = ref [] and lats = ref [] in
    Model.iter_samples m (fun ~group ~features:_ ~latency_us ->
        let id =
          match Hashtbl.find_opt ids group with
          | Some id -> id
          | None ->
              let id = Hashtbl.length ids in
              Hashtbl.add ids group id;
              id
        in
        groups := id :: !groups;
        lats := latency_us :: !lats);
    let ys = Array.of_list (List.rev_map (fun l -> 1.0 /. l) !lats) in
    let groups = Array.of_list (List.rev !groups) in
    Alcotest.(check int) "groups" (k + 1) (Hashtbl.length ids);
    Gbdt.rank_pair_count ys ~groups
  in
  let within = per_group * (per_group - 1) / 2 in
  List.iter
    (fun k ->
      Alcotest.(check int)
        (Printf.sprintf "%d stored tasks + 1 new" k)
        ((k + 1) * within) (pairs_of k))
    [ 1; 3; 7 ]

let suite =
  [
    Alcotest.test_case "presorted trainer = list reference (fit, fit_rank)" `Quick
      test_differential;
    Alcotest.test_case "no comparable pairs: empty rank ensemble" `Quick
      test_no_pairs_empty;
    Alcotest.test_case "golden model snapshot reproduced" `Quick test_golden_snapshot;
    Alcotest.test_case "rank pairs scale with group sizes" `Quick
      test_pairs_scale_with_groups;
  ]
