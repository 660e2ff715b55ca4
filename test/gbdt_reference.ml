(** The original list-based tree trainer, kept only as a differential
    reference for [Gbdt.fit]/[Gbdt.fit_rank]: per node, every feature
    stable-sorts the node's ascending sample list; rank pairs are
    enumerated by an all-samples double loop into a list. Its
    [to_string] writes the same text form as [Gbdt.to_string], so the
    two trainers can be compared byte for byte. *)

type tree = Leaf of float | Node of { feat : int; thresh : float; left : tree; right : tree }
type t = { trees : tree list; eta : float; base : float }

let rec predict_tree tree (x : float array) =
  match tree with
  | Leaf v -> v
  | Node { feat; thresh; left; right } ->
      if x.(feat) <= thresh then predict_tree left x else predict_tree right x

let mean arr idx =
  if idx = [] then 0.0
  else
    List.fold_left (fun acc i -> acc +. arr.(i)) 0.0 idx /. float_of_int (List.length idx)

(* Best split of [idx] on squared error; returns (feat, thresh, gain). *)
let best_split (xs : float array array) (residual : float array) idx =
  let n = List.length idx in
  if n < 4 then None
  else begin
    let total = List.fold_left (fun acc i -> acc +. residual.(i)) 0.0 idx in
    let best = ref None in
    let nfeat = Array.length xs.(0) in
    for f = 0 to nfeat - 1 do
      let sorted =
        List.sort (fun a b -> Float.compare xs.(a).(f) xs.(b).(f)) idx
      in
      let left_sum = ref 0.0 and left_n = ref 0 in
      let rec go = function
        | [] | [ _ ] -> ()
        | i :: (j :: _ as rest) ->
            left_sum := !left_sum +. residual.(i);
            incr left_n;
            if xs.(i).(f) < xs.(j).(f) then begin
              let right_sum = total -. !left_sum in
              let right_n = n - !left_n in
              let gain =
                (!left_sum *. !left_sum /. float_of_int !left_n)
                +. (right_sum *. right_sum /. float_of_int right_n)
                -. (total *. total /. float_of_int n)
              in
              let thresh = (xs.(i).(f) +. xs.(j).(f)) /. 2.0 in
              match !best with
              | Some (_, _, g) when g >= gain -> ()
              | _ -> best := Some (f, thresh, gain)
            end;
            go rest
      in
      go sorted
    done;
    !best
  end

let rec fit_tree xs residual idx depth =
  if depth = 0 then Leaf (mean residual idx)
  else
    match best_split xs residual idx with
    | None -> Leaf (mean residual idx)
    | Some (feat, thresh, gain) ->
        if gain < 1e-9 then Leaf (mean residual idx)
        else
          let left, right = List.partition (fun i -> xs.(i).(feat) <= thresh) idx in
          if left = [] || right = [] then Leaf (mean residual idx)
          else
            Node
              {
                feat;
                thresh;
                left = fit_tree xs residual left (depth - 1);
                right = fit_tree xs residual right (depth - 1);
              }

let fit ?(rounds = 40) ?(depth = 3) ?(eta = 0.3) (xs : float array array)
    (ys : float array) : t =
  let n = Array.length xs in
  if n = 0 then { trees = []; eta; base = 0.0 }
  else begin
    let base = Array.fold_left ( +. ) 0.0 ys /. float_of_int n in
    let pred = Array.make n base in
    let idx = List.init n (fun i -> i) in
    let trees = ref [] in
    for _ = 1 to rounds do
      let residual = Array.init n (fun i -> ys.(i) -. pred.(i)) in
      let tree = fit_tree xs residual idx depth in
      trees := tree :: !trees;
      Array.iteri (fun i _ -> pred.(i) <- pred.(i) +. (eta *. predict_tree tree xs.(i))) pred
    done;
    { trees = List.rev !trees; eta; base }
  end

(* All ordered within-group pairs (winner, loser, label gap), newest
   first: the reverse of the i < j double-loop enumeration order. *)
let pairs (ys : float array) ~(groups : int array) =
  let n = Array.length ys in
  let pairs = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if groups.(i) = groups.(j) && ys.(i) <> ys.(j) then begin
        let hi, lo = if ys.(i) > ys.(j) then (i, j) else (j, i) in
        pairs := (hi, lo, ys.(hi) -. ys.(lo)) :: !pairs
      end
    done
  done;
  !pairs

let fit_rank ?(rounds = 40) ?(depth = 3) ?(eta = 0.3)
    (xs : float array array) (ys : float array) ~(groups : int array) : t =
  let n = Array.length xs in
  if n = 0 then { trees = []; eta; base = 0.0 }
  else begin
    let pairs = pairs ys ~groups in
    if pairs = [] then { trees = []; eta; base = 0.0 }
    else begin
      let pred = Array.make n 0.0 in
      let idx = List.init n (fun i -> i) in
      let lambda = Array.make n 0.0 in
      let trees = ref [] in
      for _ = 1 to rounds do
        Array.fill lambda 0 n 0.0;
        List.iter
          (fun (hi, lo, w) ->
            let rho = 1.0 /. (1.0 +. exp (pred.(hi) -. pred.(lo))) in
            lambda.(hi) <- lambda.(hi) +. (w *. rho);
            lambda.(lo) <- lambda.(lo) -. (w *. rho))
          pairs;
        let tree = fit_tree xs lambda idx depth in
        trees := tree :: !trees;
        Array.iteri
          (fun i _ -> pred.(i) <- pred.(i) +. (eta *. predict_tree tree xs.(i)))
          pred
      done;
      { trees = List.rev !trees; eta; base = 0.0 }
    end
  end

let rec tree_to_buf b = function
  | Leaf v -> Printf.bprintf b "(l %h)" v
  | Node { feat; thresh; left; right } ->
      Printf.bprintf b "(n %d %h " feat thresh;
      tree_to_buf b left;
      Buffer.add_char b ' ';
      tree_to_buf b right;
      Buffer.add_char b ')'

let to_string m =
  let b = Buffer.create 1024 in
  Printf.bprintf b "eta %h base %h trees %d\n" m.eta m.base (List.length m.trees);
  List.iter
    (fun t ->
      tree_to_buf b t;
      Buffer.add_char b '\n')
    m.trees;
  Buffer.contents b
