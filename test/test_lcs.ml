(* Tests for Treediff_lcs: Myers O(ND) LCS and the bit-parallel kernel vs
   the DP oracle, plus Subseq. *)

module Myers = Treediff_lcs.Myers
module Bitpar = Treediff_lcs.Bitpar
module Dp = Treediff_lcs.Dp
module Subseq = Treediff_lcs.Subseq

let ieq = Int.equal

let lcs_values a b =
  List.map (fun (i, j) -> (a.(i), b.(j))) (Myers.lcs ~equal:ieq a b)

let test_known_cases () =
  let check_len name a b expected =
    Alcotest.(check int) name expected (Myers.lcs_length ~equal:ieq a b)
  in
  check_len "identical" [| 1; 2; 3 |] [| 1; 2; 3 |] 3;
  check_len "disjoint" [| 1; 2; 3 |] [| 4; 5; 6 |] 0;
  check_len "classic" [| 1; 2; 3; 4; 5 |] [| 3; 4; 1; 2; 5 |] 3;
  check_len "empty left" [||] [| 1 |] 0;
  check_len "empty right" [| 1 |] [||] 0;
  check_len "both empty" [||] [||] 0;
  check_len "single match" [| 7 |] [| 7 |] 1;
  check_len "prefix" [| 1; 2 |] [| 1; 2; 3; 4 |] 2;
  check_len "suffix" [| 3; 4 |] [| 1; 2; 3; 4 |] 2;
  check_len "repeated" [| 1; 1; 1 |] [| 1; 1 |] 2

let test_pairs_are_matches () =
  let a = [| 1; 2; 3; 2; 1 |] and b = [| 2; 1; 2; 3 |] in
  let pairs = Myers.lcs ~equal:ieq a b in
  List.iter (fun (i, j) -> Alcotest.(check int) "values equal" a.(i) b.(j)) pairs

let test_strings () =
  let a = [| "the"; "quick"; "brown"; "fox" |] in
  let b = [| "the"; "brown"; "dog" |] in
  Alcotest.(check int) "string lcs" 2 (Myers.lcs_length ~equal:String.equal a b);
  Alcotest.(check int) "edit distance" 3 (Myers.edit_distance ~equal:String.equal a b)

let test_custom_equality () =
  (* LCS with a non-trivial equality: case-insensitive, the reason the paper
     cannot use the stock diff (needs equality-only comparisons). *)
  let equal a b = String.lowercase_ascii a = String.lowercase_ascii b in
  let a = [| "A"; "b"; "C" |] and b = [| "a"; "B"; "c" |] in
  Alcotest.(check int) "case-insensitive lcs" 3 (Myers.lcs_length ~equal a b)

let test_lcs_values () =
  (* Two optimal answers exist ([1;2] or [9;9;9]-crossing is impossible —
     it must pick one side); either way length is bounded by the oracle. *)
  let a = [| 9; 9; 9; 1; 2 |] and b = [| 1; 2; 9; 9; 9 |] in
  let vals = lcs_values a b in
  Alcotest.(check int) "interleaved length" 3 (List.length vals);
  List.iter (fun (x, y) -> Alcotest.(check int) "pair equal" x y) vals

(* Myers length equals DP-oracle length on random inputs. *)
let myers_vs_dp_prop =
  QCheck2.Test.make ~name:"myers length = dp length" ~count:1000
    QCheck2.Gen.(
      pair
        (pair (list (int_bound 5)) (list (int_bound 5)))
        (int_range 1 6))
    (fun ((la, lb), _alpha) ->
      let a = Array.of_list la and b = Array.of_list lb in
      Myers.lcs_length ~equal:ieq a b = Dp.lcs_length ~equal:ieq a b)

(* The result is a strictly increasing common subsequence. *)
let myers_increasing_prop =
  QCheck2.Test.make ~name:"myers pairs strictly increasing and valid" ~count:1000
    QCheck2.Gen.(pair (list (int_bound 4)) (list (int_bound 4)))
    (fun (la, lb) ->
      let a = Array.of_list la and b = Array.of_list lb in
      let pairs = Myers.lcs ~equal:ieq a b in
      let rec ok prev = function
        | [] -> true
        | (i, j) :: rest ->
          i >= 0 && i < Array.length a && j >= 0 && j < Array.length b
          && a.(i) = b.(j)
          && (match prev with Some (pi, pj) -> i > pi && j > pj | None -> true)
          && ok (Some (i, j)) rest
      in
      ok None pairs)

(* DP's own backtrack agrees with its table. *)
let dp_consistency_prop =
  QCheck2.Test.make ~name:"dp pairs length equals dp length" ~count:500
    QCheck2.Gen.(pair (list (int_bound 3)) (list (int_bound 3)))
    (fun (la, lb) ->
      let a = Array.of_list la and b = Array.of_list lb in
      List.length (Dp.lcs ~equal:ieq a b) = Dp.lcs_length ~equal:ieq a b)

(* ---------------------------------------------------------------- Bitpar *)

let fresh_masks n = Array.make n 0

let test_bitpar_known () =
  let masks = fresh_masks 10 in
  let check_len name a b expected =
    Alcotest.(check int) name expected (Bitpar.lcs_length ~masks a b);
    Alcotest.(check bool) (name ^ ": scratch zeroed") true
      (Array.for_all (( = ) 0) masks)
  in
  check_len "identical" [| 1; 2; 3 |] [| 1; 2; 3 |] 3;
  check_len "disjoint" [| 1; 2; 3 |] [| 4; 5; 6 |] 0;
  check_len "classic" [| 1; 2; 3; 4; 5 |] [| 3; 4; 1; 2; 5 |] 3;
  check_len "empty left" [||] [| 1 |] 0;
  check_len "empty right" [| 1 |] [||] 0;
  check_len "both empty" [||] [||] 0;
  check_len "repeated" [| 1; 1; 1 |] [| 1; 1 |] 2;
  check_len "longer side first" [| 0; 9; 1; 9; 2 |] [| 0; 1; 2 |] 3;
  (* the shorter side at exactly max_len fills every bit below the sign *)
  let full = Array.init Bitpar.max_len (fun i -> i mod 7) in
  check_len "max_len identical" full full Bitpar.max_len;
  check_len "max_len vs longer" full (Array.append [| 9 |] full) Bitpar.max_len

let test_bitpar_rejects () =
  let long = Array.make (Bitpar.max_len + 1) 0 in
  Alcotest.check_raises "both sides over max_len"
    (Invalid_argument "Bitpar.lcs_length: both sides exceed max_len") (fun () ->
      ignore (Bitpar.lcs_length ~masks:(fresh_masks 1) long long))

(* Lengths 0–130 on each side, with the edges of the kernel's range drawn
   often: m = 0, 1, 61, 62 and the first length past it. *)
let len_gen =
  QCheck2.Gen.(
    frequency
      [
        (3, int_range 0 130);
        (2, oneofl [ 0; 1; Bitpar.max_len - 1; Bitpar.max_len; Bitpar.max_len + 1 ]);
      ])

(* Small alphabets (1–6 symbols) so repeats are heavy and the LCS long. *)
let tokens_gen =
  QCheck2.Gen.(
    int_range 1 6 >>= fun alpha ->
    pair len_gen len_gen >>= fun (na, nb) ->
    pair (array_size (return na) (int_bound (alpha - 1)))
      (array_size (return nb) (int_bound (alpha - 1))))

let print_tokens =
  let arr a = String.concat ";" (Array.to_list (Array.map string_of_int a)) in
  fun (a, b) -> Printf.sprintf "[|%s|] [|%s|]" (arr a) (arr b)

(* Where the kernel applies it equals both reference algorithms and leaves
   the scratch zeroed; past max_len on both sides it refuses, and the
   caller's fallback (Myers) still equals the DP oracle. *)
let bitpar_vs_references_prop =
  QCheck2.Test.make ~name:"bitpar length = dp length = myers length" ~count:1000
    ~print:print_tokens tokens_gen (fun (a, b) ->
      let dp = Dp.lcs_length ~equal:ieq a b in
      let myers = Myers.lcs_length ~equal:ieq a b in
      let masks = fresh_masks 6 in
      if min (Array.length a) (Array.length b) <= Bitpar.max_len then
        Bitpar.lcs_length ~masks a b = dp
        && myers = dp
        && Array.for_all (( = ) 0) masks
      else
        myers = dp
        && match Bitpar.lcs_length ~masks a b with
           | _ -> false
           | exception Invalid_argument _ -> true)

(* ---------------------------------------------------------------- Subseq *)

let test_subseq_known () =
  let items = Subseq.diff ~equal:ieq [| 1; 2; 3 |] [| 2; 3; 4 |] in
  Alcotest.(check bool) "starts with del" true
    (match items with Subseq.Del 0 :: _ -> true | _ -> false);
  let k, d, i = Subseq.counts items in
  Alcotest.(check (list int)) "counts" [ 2; 1; 1 ] [ k; d; i ]

(* Every index of both arrays appears exactly once, in order. *)
let subseq_coverage_prop =
  QCheck2.Test.make ~name:"subseq covers all indices in order" ~count:500
    QCheck2.Gen.(pair (list (int_bound 4)) (list (int_bound 4)))
    (fun (la, lb) ->
      let a = Array.of_list la and b = Array.of_list lb in
      let items = Subseq.diff ~equal:ieq a b in
      let ai = ref 0 and bi = ref 0 and ok = ref true in
      List.iter
        (fun item ->
          match item with
          | Subseq.Keep (i, j) ->
            if i <> !ai || j <> !bi then ok := false;
            incr ai;
            incr bi
          | Subseq.Del i ->
            if i <> !ai then ok := false;
            incr ai
          | Subseq.Ins j ->
            if j <> !bi then ok := false;
            incr bi)
        items;
      !ok && !ai = Array.length a && !bi = Array.length b)

(* Keeps in a Subseq.diff = LCS length. *)
let subseq_keeps_prop =
  QCheck2.Test.make ~name:"subseq keeps equal lcs length" ~count:500
    QCheck2.Gen.(pair (list (int_bound 4)) (list (int_bound 4)))
    (fun (la, lb) ->
      let a = Array.of_list la and b = Array.of_list lb in
      let k, _, _ = Subseq.counts (Subseq.diff ~equal:ieq a b) in
      k = Myers.lcs_length ~equal:ieq a b)

let () =
  Alcotest.run "lcs"
    [
      ( "myers",
        [
          Alcotest.test_case "known cases" `Quick test_known_cases;
          Alcotest.test_case "pairs are matches" `Quick test_pairs_are_matches;
          Alcotest.test_case "strings" `Quick test_strings;
          Alcotest.test_case "custom equality" `Quick test_custom_equality;
          Alcotest.test_case "lcs values" `Quick test_lcs_values;
          QCheck_alcotest.to_alcotest myers_vs_dp_prop;
          QCheck_alcotest.to_alcotest myers_increasing_prop;
          QCheck_alcotest.to_alcotest dp_consistency_prop;
        ] );
      ( "bitpar",
        [
          Alcotest.test_case "known cases" `Quick test_bitpar_known;
          Alcotest.test_case "rejects long pairs" `Quick test_bitpar_rejects;
          QCheck_alcotest.to_alcotest bitpar_vs_references_prop;
        ] );
      ( "subseq",
        [
          Alcotest.test_case "known diff" `Quick test_subseq_known;
          QCheck_alcotest.to_alcotest subseq_coverage_prop;
          QCheck_alcotest.to_alcotest subseq_keeps_prop;
        ] );
    ]
