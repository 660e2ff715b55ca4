(* Host-speed probe.

   The shared host this benchmark runs on changes speed by up to twice
   over minutes, far more than a run's own noise, so wall times of runs
   made minutes apart measure the host as much as the program. The probe
   is fixed work that uses no library code (hashing, allocation and a
   large ordered map) on as many domains as the pool. Its wall time,
   taken between replicas, measures how fast the host is at that moment.
   The end-to-end times are stated for a host on which the probe takes
   [reference_s]: each is multiplied by [reference_s / probe seconds]. A
   change to the library moves them exactly as it moves wall time on a
   host of fixed speed. *)

let reference_s = 0.5

let hashing seed =
  let st = Random.State.make [| seed |] in
  let acc = ref 0.0 in
  for _ = 1 to 300 do
    let h = Hashtbl.create 4096 in
    for i = 0 to 4000 do
      let k = Random.State.int st 10_000 in
      Hashtbl.replace h k (float_of_int i :: Option.value ~default:[] (Hashtbl.find_opt h k))
    done;
    Hashtbl.iter (fun k v -> List.iter (fun x -> acc := !acc +. sqrt (x +. float_of_int k)) v) h
  done;
  !acc

module Int_map = Map.Make (Int)

let ordered_map seed =
  let st = Random.State.make [| seed |] in
  let m = ref Int_map.empty in
  for i = 0 to 150_000 do
    m := Int_map.add (Random.State.int st 100_000_000) (float_of_int i, [ i ]) !m
  done;
  Int_map.fold (fun k (f, _) a -> a +. f +. float_of_int (k land 7)) !m 0.0

let work seed = hashing seed +. ordered_map seed

(* Wall seconds of the probe's fixed work on [jobs] domains. *)
let seconds ~jobs =
  let t0 = Unix.gettimeofday () in
  let others = List.init (jobs - 1) (fun i -> Domain.spawn (fun () -> work (i + 2))) in
  let total = List.fold_left (fun acc d -> acc +. Domain.join d) (work 1) others in
  ignore (Sys.opaque_identity total);
  Unix.gettimeofday () -. t0
