(** Shared test helpers: canonical workloads and semantics-preservation
    checks. *)

open Tir_ir

let () = Tir_intrin.Library.register_all ()

let matmul_relu ?(m = 64) ?(n = 64) ?(k = 64) () =
  let a = Te.placeholder "A" [ m; k ] Dtype.F32 in
  let b = Te.placeholder "B" [ k; n ] Dtype.F32 in
  let c =
    Te.reduce "C" ~shape:[ m; n ] ~rdom:[ k ] (fun sp rd ->
        match (sp, rd) with
        | [ i; j ], [ r ] -> Expr.mul (Te.get a [ i; r ]) (Te.get b [ r; j ])
        | _ -> assert false)
  in
  let d =
    Te.compute "D" [ m; n ] (fun idx -> Expr.max_ (Te.get c idx) (Expr.float 0.0))
  in
  Te.lower ~name:"matmul_relu" ~args:[ a; b; d ] [ d ]

let matmul ?(m = 32) ?(n = 32) ?(k = 32) () =
  let a = Te.placeholder "A" [ m; k ] Dtype.F32 in
  let b = Te.placeholder "B" [ k; n ] Dtype.F32 in
  let c =
    Te.reduce "C" ~shape:[ m; n ] ~rdom:[ k ] (fun sp rd ->
        match (sp, rd) with
        | [ i; j ], [ r ] -> Expr.mul (Te.get a [ i; r ]) (Te.get b [ r; j ])
        | _ -> assert false)
  in
  Te.lower ~name:"matmul" ~args:[ a; b; c ] [ c ]

let elementwise_chain ?(n = 32) () =
  let a = Te.placeholder "A" [ n; n ] Dtype.F32 in
  let b =
    Te.compute "B" [ n; n ] (fun idx -> Expr.add (Te.get a idx) (Expr.float 1.0))
  in
  let c = Te.compute "C" [ n; n ] (fun idx -> Expr.Call ("exp", Dtype.F32, [ Te.get b idx ])) in
  Te.lower ~name:"fuse_add_exp" ~args:[ a; c ] [ c ]

(** Run both functions on identical random inputs and compare outputs. *)
let same_semantics ?(seed = 42) (reference : Primfunc.t) (candidate : Primfunc.t) =
  let inputs =
    List.map (fun b -> Tir_exec.Interp.random_input ~seed b) reference.Primfunc.params
  in
  let env_ref = Tir_exec.Interp.run reference (List.map Array.copy inputs) in
  let env_can = Tir_exec.Interp.run candidate (List.map Array.copy inputs) in
  List.for_all2
    (fun (br : Buffer.t) (bc : Buffer.t) ->
      Tir_exec.Interp.allclose
        (Tir_exec.Interp.output env_ref br)
        (Tir_exec.Interp.output env_can bc))
    reference.Primfunc.params candidate.Primfunc.params

let check_same_semantics ?seed msg reference candidate =
  if not (same_semantics ?seed reference candidate) then begin
    Fmt.epr "=== reference ===@.%s@.=== candidate ===@.%s@."
      (Printer.func_to_string reference)
      (Printer.func_to_string candidate);
    Alcotest.failf "%s: semantics changed" msg
  end

let check_valid msg (f : Primfunc.t) =
  match Tir_sched.Validate.check_func f with
  | [] -> ()
  | issues ->
      Fmt.epr "%s@." (Printer.func_to_string f);
      Alcotest.failf "%s: %a" msg
        (Fmt.list ~sep:Fmt.comma Tir_sched.Validate.pp_issue)
        issues

(* Optional-argument wrapper over the Config-based tuning API, so tests
   read like their call sites did before the redesign. [journal] traces
   the run (from a fresh trace) and writes its [Journal.of_trace] export
   to that path, as [tensorir tune --journal] does. *)
let tune ?(seed = 42) ?(trials = 64) ?use_cost_model ?evolve ?sketches
    ?database ?jobs ?journal target w =
  let open Tir_autosched.Tune.Config in
  let opt f v cfg = match v with Some v -> f v cfg | None -> cfg in
  let cfg =
    default |> with_seed seed |> with_trials trials
    |> opt with_use_cost_model use_cost_model
    |> opt with_evolve evolve
    |> opt with_sketches sketches
    |> opt with_database database
    |> opt with_jobs jobs
  in
  match journal with
  | None -> Tir_autosched.Tune.run cfg w target
  | Some path ->
      let module Trace = Tir_obs.Trace in
      let module Journal = Tir_obs.Journal in
      Trace.enable ();
      Trace.reset ();
      Fun.protect
        ~finally:(fun () ->
          Trace.disable ();
          Trace.reset ())
        (fun () ->
          let r = Tir_autosched.Tune.run cfg w target in
          let jobs =
            Option.value jobs ~default:(Tir_parallel.Pool.default_jobs ())
          in
          (match Journal.of_trace ~jobs () with
          | Ok events ->
              Out_channel.with_open_text path (fun oc ->
                  List.iter
                    (fun e -> output_string oc (Journal.to_line e ^ "\n"))
                    events)
          | Error e -> Alcotest.failf "journal export: %s" (Tir_core.Error.to_string e));
          r)
