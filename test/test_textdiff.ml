(* Tests for Treediff_textdiff: the word-LCS sentence compare (§7) and the
   flat line differ (§2 baseline). *)

module W = Treediff_textdiff.Word_compare
module L = Treediff_textdiff.Line_diff
module Lev = Treediff_textdiff.Levenshtein
module P = Treediff_util.Prng

(* ---------------------------------------------------------- word compare *)

let test_words () =
  Alcotest.(check (array string)) "tokenize"
    [| "the"; "cat"; "the"; "hat" |]
    (W.words "The cat, the hat!");
  Alcotest.(check (array string)) "punctuation stripped"
    [| "don't"; "re-do"; "x" |]
    (W.words "(don't) re-do: x.");
  Alcotest.(check (array string)) "empty" [||] (W.words "   ");
  Alcotest.(check (array string)) "numbers kept" [| "42"; "items" |] (W.words "42 items");
  (* multibyte words stay whole (UTF-8 bytes are word characters) *)
  Alcotest.(check int) "utf-8 words" 2 (Array.length (W.words "caf\xc3\xa9 d\xc3\xa9j\xc3\xa0"));
  Alcotest.(check (float 1e-9)) "utf-8 identical" 0.0
    (W.distance "caf\xc3\xa9 au lait" "caf\xc3\xa9 au lait")

let test_distance_identity () =
  Alcotest.(check (float 1e-9)) "identical" 0.0 (W.distance "a b c" "a b c");
  Alcotest.(check (float 1e-9)) "case-insensitive" 0.0 (W.distance "A B" "a b");
  Alcotest.(check (float 1e-9)) "both empty" 0.0 (W.distance "" "")

let test_distance_range () =
  Alcotest.(check (float 1e-9)) "disjoint same length" 2.0 (W.distance "a b" "x y");
  (* one word in common out of 2 vs 2: (2+2-2)/2 = 1 *)
  Alcotest.(check (float 1e-9)) "half common" 1.0 (W.distance "a b" "a y");
  (* empty vs non-empty: (0+2-0)/2 = 1 *)
  Alcotest.(check (float 1e-9)) "empty vs words" 1.0 (W.distance "" "x y")

let test_paper_semantics () =
  (* "LCS of the words … count the words not in the LCS": order matters. *)
  Alcotest.(check bool) "reorder is not free" true (W.distance "a b c" "c b a" > 0.0);
  Alcotest.(check bool) "small edit below threshold" true
    (W.similar "the quick brown fox jumps" "the quick brown fox leaps");
  Alcotest.(check bool) "rewrite above threshold" false
    (W.similar "the quick brown fox" "an entirely different phrase")

let distance_properties =
  QCheck2.Test.make ~name:"distance: symmetric, in [0,2], zero iff equal words"
    ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_bound 8) (string_size ~gen:(char_range 'a' 'e') (int_range 1 3)))
        (list_size (int_bound 8) (string_size ~gen:(char_range 'a' 'e') (int_range 1 3))))
    (fun (ws1, ws2) ->
      let s1 = String.concat " " ws1 and s2 = String.concat " " ws2 in
      let d = W.distance s1 s2 in
      d >= 0.0 && d <= 2.0
      && Float.abs (d -. W.distance s2 s1) < 1e-9
      && (d > 0.0 || W.words s1 = W.words s2))

let reference_distance = Test_support.myers_word_distance

(* Sentences of 0–150 words over a small vocabulary (heavy repeats, ASCII
   case and punctuation variants, multibyte UTF-8 words), so pairs cross
   the kernel's 62-word limit on one side, both sides or neither. *)
let sentence_gen =
  let vocab =
    [| "the"; "The"; "cat,"; "hat"; "caf\xc3\xa9"; "d\xc3\xa9j\xc3\xa0"; "\xe2\x82\xac5";
       "re-do"; "don't"; "x"; "42"; "(sat)"; "on"; "mat." |]
  in
  QCheck2.Gen.(
    int_range 1 (Array.length vocab) >>= fun alpha ->
    let word =
      frequency
        [
          (9, map (fun i -> vocab.(i)) (int_bound (alpha - 1)));
          (1, map (Printf.sprintf "w%d") (int_bound 5000));
        ]
    in
    map (String.concat " ")
      (list_size (frequency [ (3, int_bound 20); (2, int_range 55 70); (1, int_bound 150) ]) word))

(* A one-entry cache flushes on every call, so word ids are reassigned
   under the kernel's scratch table between calls; a long-lived cache grows
   its scratch with the vocabulary (the rare "wN" words).  Distances must
   not notice either, bit for bit.  Token arrays prepared once under a
   long-lived vocabulary, or a fresh one per pair, must give the same. *)
let distance_with_matches_reference =
  let flushing = W.Cache.create ~cap:1 () and kept = W.Cache.create () in
  let vocab = W.Vocab.create () in
  let on_tokens v a b =
    W.distance_tokens v (W.Vocab.tokenize v a) (W.Vocab.tokenize v b)
  in
  QCheck2.Test.make ~name:"distance_with = words + Myers reference" ~count:1000
    ~print:QCheck2.Print.(pair string string)
    QCheck2.Gen.(pair sentence_gen sentence_gen)
    (fun (a, b) ->
      let want = reference_distance a b in
      Float.equal (W.distance_with flushing a b) want
      && Float.equal (W.distance_with flushing b a) (reference_distance b a)
      && Float.equal (W.distance_with kept a b) want (* cold *)
      && Float.equal (W.distance_with kept a b) want (* memoized *)
      && Float.equal (W.distance a b) want
      && Float.equal (on_tokens vocab a b) want
      && Float.equal (on_tokens (W.Vocab.create ()) a b) want)

(* The reference tokenizer: [words], then each word interned in order of
   first appearance.  [Vocab.tokenize] hashes and looks each word up where
   it stands in the input, and must give the same ids. *)
let reference_tokenize tbl s =
  Array.map
    (fun w ->
      match Hashtbl.find_opt tbl w with
      | Some i -> i
      | None ->
        let i = Hashtbl.length tbl in
        Hashtbl.replace tbl w i;
        i)
    (W.words s)

(* Texts over every byte class the tokenizer distinguishes: lower and
   upper case, digits, the in-word ['] and [-], UTF-8 lead and
   continuation bytes, separators; plus empty and punctuation-only texts. *)
let token_text_gen =
  let open QCheck2.Gen in
  let separator = oneofl [ ' '; ','; '.'; '!'; '?'; '('; ')'; ';'; '"'; '\t'; '\n' ] in
  let byte =
    frequency
      [
        (6, char_range 'a' 'z');
        (3, char_range 'A' 'Z');
        (2, char_range '0' '9');
        (1, oneofl [ '\''; '-' ]);
        (1, oneofl [ '\xc3'; '\xe2'; '\xf0' ]);
        (1, char_range '\x80' '\xbf');
        (4, separator);
      ]
  in
  frequency
    [
      (1, return "");
      (1, string_size ~gen:separator (int_bound 10));
      (8, string_size ~gen:byte (int_bound 60));
    ]

let tokenize_matches_reference =
  QCheck2.Test.make ~name:"Vocab.tokenize = intern over words, shared vocabulary"
    ~count:500 ~print:QCheck2.Print.(list string)
    QCheck2.Gen.(list_size (int_bound 40) token_text_gen)
    (fun texts ->
      let v = W.Vocab.create () and tbl = Hashtbl.create 16 in
      List.for_all (fun s -> W.Vocab.tokenize v s = reference_tokenize tbl s) texts
      && W.Vocab.size v = Hashtbl.length tbl)

(* Thousands of distinct words in mixed case: the interner grows its table
   several times and keeps every id. *)
let test_tokenize_growth () =
  let v = W.Vocab.create () and tbl = Hashtbl.create 16 in
  for i = 0 to 1999 do
    let s =
      Printf.sprintf "W%d w%d x%d-Y %d X%d-y" i (i / 2) (i * 7919 mod 3001) i (i / 3)
    in
    Alcotest.(check (array int)) s (reference_tokenize tbl s) (W.Vocab.tokenize v s)
  done;
  Alcotest.(check int) "same vocabulary size" (Hashtbl.length tbl) (W.Vocab.size v)

(* Token-array pairs for the signature bound: over [k] words of ids
   [0 .. k-1] (k up to 200, so ids at and above 62 share signature bits
   with smaller ones), of lengths 0-12 (empty arrays and heavy repeats) or
   55-90 (both sides past 62 words: the Myers kernel); the second array is
   either drawn afresh or edited from the first, so that both answers of
   the threshold test occur. *)
let bound_pair_gen =
  let open QCheck2.Gen in
  let* k = oneof [ int_range 1 6; int_range 60 200 ] in
  let word = int_bound (k - 1) in
  let* a = list_size (oneof [ int_bound 12; int_range 55 90 ]) word in
  let edited =
    flatten_l
      (List.map
         (fun w ->
           frequency
             [ (6, return [ w ]); (1, return []); (1, map (fun v -> [ v ]) word);
               (1, map (fun v -> [ w; v ]) word) ])
         a)
    >|= List.concat
  in
  let+ b = frequency [ (1, list_size (oneof [ int_bound 12; int_range 55 90 ]) word); (2, edited) ] in
  (k, a, b)

(* Reference bound, on lists: the signature bits a side holds and the
   other lacks, counted as distinct residues mod 62. *)
let reference_bound a b =
  let residues l = List.sort_uniq compare (List.map (fun id -> id mod 62) l) in
  let ra = residues a and rb = residues b in
  let only x y = List.length (List.filter (fun r -> not (List.mem r y)) x) in
  min (List.length a - only ra rb) (List.length b - only rb ra)

let within_matches_distance =
  QCheck2.Test.make
    ~name:"signature bound admissible, exact, same answer"
    ~count:600
    ~print:QCheck2.Print.(triple int (list int) (list int))
    bound_pair_gen
    (fun (k, a, b) ->
      (* word "wI" gets id I: interned in order before the pair *)
      let v = W.Vocab.create () in
      ignore (W.Vocab.tokenize v (String.concat " " (List.init k (Printf.sprintf "w%d"))));
      let tok l = W.Vocab.tokenize v (String.concat " " (List.map (Printf.sprintf "w%d") l)) in
      let wa = tok a and wb = tok b in
      let sa = W.signature wa and sb = W.signature wb in
      let bound = W.lcs_bound wa sa wb sb in
      wa = Array.of_list a
      && bound = reference_bound a b
      && bound >= Treediff_lcs.Dp.lcs_length ~equal:Int.equal wa wb
      && List.for_all
           (fun limit ->
             Bool.equal (W.within v ~limit wa sa wb sb)
               (W.distance_tokens v wa wb <= limit))
           [ 0.0; 0.25; 0.5; 0.75; 1.0 ])

(* ------------------------------------------------------------ levenshtein *)

let test_levenshtein_known () =
  Alcotest.(check int) "identical" 0 (Lev.distance "kitten" "kitten");
  Alcotest.(check int) "classic" 3 (Lev.distance "kitten" "sitting");
  Alcotest.(check int) "empty left" 3 (Lev.distance "" "abc");
  Alcotest.(check int) "empty right" 3 (Lev.distance "abc" "");
  Alcotest.(check int) "single sub" 1 (Lev.distance "gravity" "grovity");
  Alcotest.(check int) "append" 1 (Lev.distance "gravity" "gravity2")

let test_levenshtein_normalized () =
  Alcotest.(check (float 1e-9)) "equal is 0" 0.0 (Lev.normalized "x" "x");
  Alcotest.(check (float 1e-9)) "both empty" 0.0 (Lev.normalized "" "");
  Alcotest.(check (float 1e-9)) "disjoint same length is 2" 2.0 (Lev.normalized "ab" "cd");
  Alcotest.(check bool) "rename is similar" true (Lev.similar "gravity" "gravity2");
  Alcotest.(check bool) "unrelated is not" false (Lev.similar "base" "offset")

(* Metric-ish sanity: symmetry, identity, triangle inequality. *)
let levenshtein_metric_prop =
  QCheck2.Test.make ~name:"levenshtein is a metric" ~count:300
    QCheck2.Gen.(
      triple
        (string_size ~gen:(char_range 'a' 'd') (int_bound 8))
        (string_size ~gen:(char_range 'a' 'd') (int_bound 8))
        (string_size ~gen:(char_range 'a' 'd') (int_bound 8)))
    (fun (a, b, c) ->
      let d = Lev.distance in
      d a b = d b a
      && (d a b = 0) = (a = b)
      && d a c <= d a b + d b c
      && d a b <= max (String.length a) (String.length b))

(* ------------------------------------------------------------- line diff *)

let test_lines () =
  Alcotest.(check (array string)) "split" [| "a"; "b" |] (L.lines "a\nb\n");
  Alcotest.(check (array string)) "no trailing newline" [| "a"; "b" |] (L.lines "a\nb");
  Alcotest.(check (array string)) "keeps interior empties" [| "a"; ""; "b" |]
    (L.lines "a\n\nb")

let test_line_diff_basic () =
  let hunks = L.diff "a\nb\nc\n" "a\nx\nc\n" in
  (match hunks with
  | [ L.Equal [| "a" |]; L.Replace ([| "b" |], [| "x" |]); L.Equal [| "c" |] ] -> ()
  | _ -> Alcotest.fail "unexpected hunk structure");
  let d, i = L.stats hunks in
  Alcotest.(check (pair int int)) "stats" (1, 1) (d, i)

let test_line_diff_move_is_del_plus_ins () =
  (* the §2 claim: flat diff reports a moved block as delete + insert *)
  let old_text = "p1-line1\np1-line2\nmid\np2-line1\n" in
  let new_text = "mid\np2-line1\np1-line1\np1-line2\n" in
  let d, i = L.stats (L.diff old_text new_text) in
  Alcotest.(check bool) "deletes reported" true (d >= 2);
  Alcotest.(check bool) "inserts reported" true (i >= 2)

let test_render () =
  let out = L.render (L.diff "a\nb\n" "a\nc\n") in
  Alcotest.(check string) "classic rendering" "  a\n- b\n+ c\n" out

(* Reconstruct both sides from the hunks. *)
let line_diff_reconstruction_prop =
  QCheck2.Test.make ~name:"hunks reconstruct both inputs" ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_bound 12) (string_size ~gen:(char_range 'a' 'c') (int_bound 2)))
        (list_size (int_bound 12) (string_size ~gen:(char_range 'a' 'c') (int_bound 2))))
    (fun (l1, l2) ->
      let old_text = String.concat "\n" l1 and new_text = String.concat "\n" l2 in
      let hunks = L.diff old_text new_text in
      let olds = ref [] and news = ref [] in
      List.iter
        (fun h ->
          match h with
          | L.Equal a ->
            olds := Array.to_list a @ !olds;
            news := Array.to_list a @ !news
          | L.Delete a -> olds := Array.to_list a @ !olds
          | L.Insert a -> news := Array.to_list a @ !news
          | L.Replace (a, b) ->
            olds := Array.to_list a @ !olds;
            news := Array.to_list b @ !news)
        (List.rev hunks);
      !olds = Array.to_list (L.lines old_text) && !news = Array.to_list (L.lines new_text))

let () =
  Alcotest.run "textdiff"
    [
      ( "word-compare",
        [
          Alcotest.test_case "tokenization" `Quick test_words;
          Alcotest.test_case "identity" `Quick test_distance_identity;
          Alcotest.test_case "range" `Quick test_distance_range;
          Alcotest.test_case "paper semantics" `Quick test_paper_semantics;
          QCheck_alcotest.to_alcotest distance_properties;
          QCheck_alcotest.to_alcotest distance_with_matches_reference;
          QCheck_alcotest.to_alcotest tokenize_matches_reference;
          Alcotest.test_case "tokenize, growing vocabulary" `Quick test_tokenize_growth;
          QCheck_alcotest.to_alcotest within_matches_distance;
        ] );
      ( "levenshtein",
        [
          Alcotest.test_case "known distances" `Quick test_levenshtein_known;
          Alcotest.test_case "normalized" `Quick test_levenshtein_normalized;
          QCheck_alcotest.to_alcotest levenshtein_metric_prop;
        ] );
      ( "line-diff",
        [
          Alcotest.test_case "lines" `Quick test_lines;
          Alcotest.test_case "basic hunks" `Quick test_line_diff_basic;
          Alcotest.test_case "moves become del+ins" `Quick
            test_line_diff_move_is_del_plus_ins;
          Alcotest.test_case "render" `Quick test_render;
          QCheck_alcotest.to_alcotest line_diff_reconstruction_prop;
        ] );
    ]
