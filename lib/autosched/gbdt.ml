(** Gradient-boosted regression trees, from scratch.

    Stand-in for the XGBoost model the paper uses (§4.4): gradient
    boosting over depth-limited exact-greedy regression trees, with two
    objectives — squared-loss regression ([fit]) and a LambdaRank-style
    pairwise rank loss ([fit_rank]).

    Cost: each fit sorts every feature column once (O(features × n log n));
    each tree then costs O(features × n) per level, since a node scans its
    members in the presorted order and a split stably partitions them.
    [fit_rank] adds one [exp] per within-group pair per round. The trees
    are bit-identical to a per-node stable sort of the node's samples:
    same member order (value, then ascending sample index), same
    summation order for sums and leaf means, same tie rule (the earliest
    feature and threshold of maximal gain wins). *)

type tree = Leaf of float | Node of { feat : int; thresh : float; left : tree; right : tree }

type t = {
  trees : tree list;  (** applied in order, scaled by [eta] *)
  eta : float;
  base : float;
}

let rec predict_tree tree (x : float array) =
  match tree with
  | Leaf v -> v
  | Node { feat; thresh; left; right } ->
      if x.(feat) <= thresh then predict_tree left x else predict_tree right x

let predict model x =
  List.fold_left
    (fun acc tree -> acc +. (model.eta *. predict_tree tree x))
    model.base model.trees

(** Predict a whole population in one pass over the ensemble: the tree list
    is walked once (outer loop) with an accumulator per candidate, instead
    of one list walk per candidate. Identical results to mapping [predict]
    (same per-candidate summation order). *)
let predict_batch model (xs : float array array) : float array =
  let out = Array.make (Array.length xs) model.base in
  List.iter
    (fun tree ->
      Array.iteri (fun i x -> out.(i) <- out.(i) +. (model.eta *. predict_tree tree x)) xs)
    model.trees;
  out

(* --- the tree builder ---------------------------------------------------

   Every boosting round fits one tree to new residuals over the {e same}
   feature matrix, so the per-feature sample orders are computed once per
   fit ([presort]) and each node scans its own members in that order. A
   node owns a segment [lo, hi) of [rows] (its members, ascending sample
   index) and the same segment of every [work.(f)] (its members sorted by
   feature [f], ties by ascending index — the order a stable sort of the
   ascending member list yields). A split stably partitions all of those
   segments, so both children inherit the invariant. *)

type builder = {
  cols : float array array;  (** [cols.(f).(i)] = feature [f] of sample [i] *)
  sorted : int array array;  (** per feature: sample indices, presorted *)
  work : int array array;  (** per-tree copy of [sorted], partitioned per node *)
  rows : int array;  (** node members in ascending sample index *)
  tmp : int array;  (** partition scratch *)
  goes_left : bool array;  (** per sample: takes the current split *)
}

let presort (xs : float array array) =
  let n = Array.length xs in
  let nfeat = Array.length xs.(0) in
  let cols = Array.init nfeat (fun f -> Array.init n (fun i -> xs.(i).(f))) in
  let sorted =
    Array.map
      (fun col ->
        let order = Array.init n Fun.id in
        Array.stable_sort (fun a b -> Float.compare col.(a) col.(b)) order;
        order)
      cols
  in
  {
    cols;
    sorted;
    work = Array.map Array.copy sorted;
    rows = Array.make n 0;
    tmp = Array.make n 0;
    goes_left = Array.make n false;
  }

(* Stable partition of [a.(lo..hi-1)] by [goes_left]: members taking the
   split first, both halves keep their relative order. *)
let partition b a lo hi =
  let l = ref lo and r = ref 0 in
  for k = lo to hi - 1 do
    let i = a.(k) in
    if b.goes_left.(i) then begin
      a.(!l) <- i;
      incr l
    end
    else begin
      b.tmp.(!r) <- i;
      incr r
    end
  done;
  Array.blit b.tmp 0 a !l !r

(* Fit one depth-limited tree to [residual] by exact greedy squared-error
   splits. A node with fewer than 4 members, no split of gain >= 1e-9, or
   a split that leaves one side empty becomes a leaf holding its mean
   residual. Among equal gains the first candidate wins (features in
   index order, thresholds in ascending order). *)
let fit_tree b (residual : float array) depth =
  let n = Array.length b.rows in
  let nfeat = Array.length b.cols in
  for i = 0 to n - 1 do
    b.rows.(i) <- i
  done;
  Array.iteri (fun f s -> Array.blit s 0 b.work.(f) 0 n) b.sorted;
  let rec build lo hi depth =
    let count = hi - lo in
    let total = ref 0.0 in
    for k = lo to hi - 1 do
      total := !total +. residual.(b.rows.(k))
    done;
    let total = !total in
    let leaf () = Leaf (total /. float_of_int count) in
    if depth = 0 || count < 4 then leaf ()
    else begin
      let best_feat = ref (-1) and best_thresh = ref 0.0 and best_gain = ref 0.0 in
      let parent = total *. total /. float_of_int count in
      for f = 0 to nfeat - 1 do
        let col = b.cols.(f) and seg = b.work.(f) in
        let left_sum = ref 0.0 in
        for k = lo to hi - 2 do
          let i = seg.(k) and j = seg.(k + 1) in
          left_sum := !left_sum +. residual.(i);
          if col.(i) < col.(j) then begin
            let left_n = k - lo + 1 in
            let right_sum = total -. !left_sum in
            let right_n = count - left_n in
            let gain =
              (!left_sum *. !left_sum /. float_of_int left_n)
              +. (right_sum *. right_sum /. float_of_int right_n)
              -. parent
            in
            if !best_feat < 0 || not (!best_gain >= gain) then begin
              best_feat := f;
              best_thresh := (col.(i) +. col.(j)) /. 2.0;
              best_gain := gain
            end
          end
        done
      done;
      if !best_feat < 0 || !best_gain < 1e-9 then leaf ()
      else begin
        let feat = !best_feat and thresh = !best_thresh in
        let col = b.cols.(feat) in
        let n_left = ref 0 in
        for k = lo to hi - 1 do
          let i = b.rows.(k) in
          let go = col.(i) <= thresh in
          b.goes_left.(i) <- go;
          if go then incr n_left
        done;
        if !n_left = 0 || !n_left = count then leaf ()
        else begin
          partition b b.rows lo hi;
          Array.iter (fun seg -> partition b seg lo hi) b.work;
          let mid = lo + !n_left in
          let left = build lo mid (depth - 1) in
          let right = build mid hi (depth - 1) in
          Node { feat; thresh; left; right }
        end
      end
    end
  in
  build 0 n depth

(* Add one round's tree to the running predictions. *)
let advance pred xs eta tree =
  Array.iteri (fun i p -> pred.(i) <- p +. (eta *. predict_tree tree xs.(i))) pred

(** Fit [rounds] boosting rounds of depth-[depth] trees. *)
let fit ?(rounds = 40) ?(depth = 3) ?(eta = 0.3) (xs : float array array)
    (ys : float array) : t =
  let n = Array.length xs in
  if n = 0 then { trees = []; eta; base = 0.0 }
  else begin
    let base = Array.fold_left ( +. ) 0.0 ys /. float_of_int n in
    let pred = Array.make n base in
    let b = presort xs in
    let residual = Array.make n 0.0 in
    let trees = ref [] in
    for _ = 1 to rounds do
      Array.iteri (fun i y -> residual.(i) <- y -. pred.(i)) ys;
      let tree = fit_tree b residual depth in
      trees := tree :: !trees;
      advance pred xs eta tree
    done;
    { trees = List.rev !trees; eta; base }
  end

(* Ordered pairs [(hi, lo)] with [ys.(hi) > ys.(lo)] in one group, in flat
   arrays. Within a group the members [m_0 < m_1 < ...] are paired in
   reverse lexicographic order of [(m_a, m_b)], [a < b]: each sample
   therefore meets its partners in one fixed order, which fixes the
   summation order of its gradient. The count is the sum over groups of
   [n_g (n_g - 1) / 2] at most — groups never pair across. *)
type pairs = { hi : int array; lo : int array; w : float array; count : int }

let rank_pairs n (ys : float array) (groups : int array) =
  (* Members grouped into contiguous runs, ascending index within a run. *)
  let order = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Int.compare groups.(a) groups.(b)) order;
  let runs = ref [] and start = ref 0 in
  for k = 1 to n do
    if k = n || groups.(order.(k)) <> groups.(order.(!start)) then begin
      runs := (!start, k) :: !runs;
      start := k
    end
  done;
  let cap =
    List.fold_left (fun acc (s, e) -> acc + ((e - s) * (e - s - 1) / 2)) 0 !runs
  in
  let hi = Array.make cap 0 and lo = Array.make cap 0 and w = Array.make cap 0.0 in
  let count = ref 0 in
  List.iter
    (fun (s, e) ->
      for a = e - 1 downto s do
        for b = e - 1 downto a + 1 do
          let i = order.(a) and j = order.(b) in
          if ys.(i) <> ys.(j) then begin
            let h, l = if ys.(i) > ys.(j) then (i, j) else (j, i) in
            hi.(!count) <- h;
            lo.(!count) <- l;
            w.(!count) <- ys.(h) -. ys.(l);
            incr count
          end
        done
      done)
    !runs;
  { hi; lo; w; count = !count }

let rank_pair_count ys ~groups = (rank_pairs (Array.length ys) ys groups).count

(** Fit a LambdaRank-style pairwise ranking ensemble.

    Labels are only compared {e within} a group ([groups.(i)] is the
    sample's group id — one group per tuning task), so mixing workloads
    with incomparable latency scales in one dataset is sound: the loss
    never asks whether a c1d candidate beats a gmm candidate. Each round
    computes, per ordered pair [(hi, lo)] with [ys.(hi) > ys.(lo)] in the
    same group, the logistic pairwise gradient
    [rho = 1 / (1 + exp (s_hi - s_lo))] weighted by the label gap, pushes
    [+w*rho] on the winner and [-w*rho] on the loser, and fits the next
    tree to those pseudo-residuals. The model's absolute output is
    meaningless (base is 0); only the induced order matters, which is all
    the search consumes. Sequential and deterministic: sample order and
    group ids fully determine the ensemble. *)
let fit_rank ?(rounds = 40) ?(depth = 3) ?(eta = 0.3)
    (xs : float array array) (ys : float array) ~(groups : int array) : t =
  let n = Array.length xs in
  let p = rank_pairs n ys groups in
  if p.count = 0 then { trees = []; eta; base = 0.0 }
  else begin
    let pred = Array.make n 0.0 in
    let lambda = Array.make n 0.0 in
    let b = presort xs in
    let trees = ref [] in
    for _ = 1 to rounds do
      Array.fill lambda 0 n 0.0;
      for k = 0 to p.count - 1 do
        let hi = p.hi.(k) and lo = p.lo.(k) and w = p.w.(k) in
        let rho = 1.0 /. (1.0 +. exp (pred.(hi) -. pred.(lo))) in
        lambda.(hi) <- lambda.(hi) +. (w *. rho);
        lambda.(lo) <- lambda.(lo) -. (w *. rho)
      done;
      let tree = fit_tree b lambda depth in
      trees := tree :: !trees;
      advance pred xs eta tree
    done;
    { trees = List.rev !trees; eta; base = 0.0 }
  end

(* --- serialization ------------------------------------------------------ *)

(* Trees serialize to a parenthesized pre-order form with [%h] floats, so
   save -> load -> save is bit-identical:
     (l <value>) | (n <feat> <thresh> <left> <right>) *)

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

exception Parse_error of string

let parse_fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* Recursive-descent over the parenthesized form; tokens are separated by
   single spaces exactly as [tree_to_buf] writes them. *)
let tree_of_string line =
  let len = String.length line in
  let pos = ref 0 in
  let expect c =
    if !pos >= len || line.[!pos] <> c then
      parse_fail "gbdt tree: expected %c at %d in %S" c !pos line;
    incr pos
  in
  let token () =
    let start = !pos in
    while !pos < len && line.[!pos] <> ' ' && line.[!pos] <> ')' do
      incr pos
    done;
    if !pos = start then parse_fail "gbdt tree: empty token at %d in %S" start line;
    String.sub line start (!pos - start)
  in
  let float_tok () =
    let s = token () in
    match float_of_string_opt s with
    | Some f -> f
    | None -> parse_fail "gbdt tree: bad float %S" s
  in
  let int_tok () =
    let s = token () in
    match int_of_string_opt s with
    | Some i -> i
    | None -> parse_fail "gbdt tree: bad int %S" s
  in
  let rec node () =
    expect '(';
    let t =
      match token () with
      | "l" ->
          expect ' ';
          Leaf (float_tok ())
      | "n" ->
          expect ' ';
          let feat = int_tok () in
          expect ' ';
          let thresh = float_tok () in
          expect ' ';
          let left = node () in
          expect ' ';
          let right = node () in
          Node { feat; thresh; left; right }
      | tok -> parse_fail "gbdt tree: unknown tag %S" tok
    in
    expect ')';
    t
  in
  let t = node () in
  if !pos <> len then parse_fail "gbdt tree: trailing garbage in %S" line;
  t

let of_string s =
  match String.split_on_char '\n' s with
  | [] -> parse_fail "gbdt: empty input"
  | header :: rest -> (
      match String.split_on_char ' ' header with
      | [ "eta"; eta; "base"; base; "trees"; count ] ->
          let eta =
            match float_of_string_opt eta with
            | Some f -> f
            | None -> parse_fail "gbdt: bad eta %S" eta
          in
          let base =
            match float_of_string_opt base with
            | Some f -> f
            | None -> parse_fail "gbdt: bad base %S" base
          in
          let count =
            match int_of_string_opt count with
            | Some i -> i
            | None -> parse_fail "gbdt: bad tree count %S" count
          in
          let lines = List.filter (fun l -> l <> "") rest in
          if List.length lines <> count then
            parse_fail "gbdt: expected %d trees, got %d" count
              (List.length lines);
          { trees = List.map tree_of_string lines; eta; base }
      | _ -> parse_fail "gbdt: bad header %S" header)
