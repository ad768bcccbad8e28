(* Tests for Treediff_util: Vec, Prng, Stats, Table. *)

module Vec = Treediff_util.Vec
module Prng = Treediff_util.Prng
module Stats = Treediff_util.Stats
module Table = Treediff_util.Table
module Clock = Treediff_util.Clock
module Budget = Treediff_util.Budget

let check = Alcotest.(check int)

(* ------------------------------------------------------------------- Vec *)

let test_vec_basic () =
  let v = Vec.create () in
  Alcotest.(check bool) "fresh is empty" true (Vec.is_empty v);
  Vec.push v 1;
  Vec.push v 2;
  Vec.push v 3;
  check "length" 3 (Vec.length v);
  check "get 0" 1 (Vec.get v 0);
  check "get 2" 3 (Vec.get v 2);
  Vec.set v 1 20;
  check "set" 20 (Vec.get v 1)

let test_vec_insert_remove () =
  let v = Vec.of_list [ 1; 2; 3; 4 ] in
  Vec.insert v 0 0;
  Alcotest.(check (list int)) "insert front" [ 0; 1; 2; 3; 4 ] (Vec.to_list v);
  Vec.insert v 5 99;
  Alcotest.(check (list int)) "insert end" [ 0; 1; 2; 3; 4; 99 ] (Vec.to_list v);
  Vec.insert v 3 33;
  Alcotest.(check (list int)) "insert middle" [ 0; 1; 2; 33; 3; 4; 99 ] (Vec.to_list v);
  let x = Vec.remove v 3 in
  check "removed element" 33 x;
  Alcotest.(check (list int)) "after remove" [ 0; 1; 2; 3; 4; 99 ] (Vec.to_list v);
  let first = Vec.remove v 0 in
  check "remove front" 0 first;
  let last = Vec.remove v (Vec.length v - 1) in
  check "remove back" 99 last;
  Alcotest.(check (list int)) "final" [ 1; 2; 3; 4 ] (Vec.to_list v)

let test_vec_bounds () =
  let v = Vec.of_list [ 1 ] in
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Vec: index 1 out of bounds (length 1)") (fun () ->
      ignore (Vec.get v 1));
  Alcotest.check_raises "negative index"
    (Invalid_argument "Vec: index -1 out of bounds (length 1)") (fun () ->
      ignore (Vec.get v (-1)));
  Alcotest.check_raises "insert out of bounds"
    (Invalid_argument "Vec.insert: index 3 out of bounds (length 1)") (fun () ->
      Vec.insert v 3 9)

let test_vec_iterators () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  check "fold sum" 6 (Vec.fold ( + ) 0 v);
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 2) v);
  Alcotest.(check bool) "not exists" false (Vec.exists (fun x -> x = 9) v);
  Alcotest.(check bool) "for_all" true (Vec.for_all (fun x -> x > 0) v);
  Alcotest.(check (option int)) "index" (Some 1) (Vec.index (fun x -> x = 2) v);
  Alcotest.(check (option int)) "index missing" None (Vec.index (fun x -> x = 9) v);
  let c = Vec.copy v in
  Vec.push c 4;
  check "copy is independent" 3 (Vec.length v)

(* Model-based property: a Vec behaves like the list it models under a
   random sequence of push/insert/remove. *)
let vec_model_prop =
  QCheck2.Test.make ~name:"vec behaves like list model" ~count:500
    QCheck2.Gen.(list (pair (int_range 0 2) small_nat))
    (fun cmds ->
      let v = Vec.create () in
      let model = ref [] in
      List.iter
        (fun (cmd, arg) ->
          match cmd with
          | 0 ->
            Vec.push v arg;
            model := !model @ [ arg ]
          | 1 ->
            let i = if !model = [] then 0 else arg mod (List.length !model + 1) in
            Vec.insert v i arg;
            let rec ins k = function
              | rest when k = 0 -> arg :: rest
              | [] -> [ arg ]
              | x :: rest -> x :: ins (k - 1) rest
            in
            model := ins i !model
          | _ ->
            if !model <> [] then begin
              let i = arg mod List.length !model in
              ignore (Vec.remove v i);
              model := List.filteri (fun j _ -> j <> i) !model
            end)
        cmds;
      Vec.to_list v = !model)

(* ------------------------------------------------------------------ Prng *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done;
  let c = Prng.create 43 in
  let differs = ref false in
  let a = Prng.create 42 in
  for _ = 1 to 20 do
    if Prng.int a 1_000_000 <> Prng.int c 1_000_000 then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_prng_bounds () =
  let g = Prng.create 7 in
  for _ = 1 to 1000 do
    let x = Prng.int g 10 in
    Alcotest.(check bool) "in [0,10)" true (x >= 0 && x < 10);
    let y = Prng.int_in g (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (y >= -5 && y <= 5);
    let f = Prng.float g in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

let test_prng_shuffle_permutes () =
  let g = Prng.create 9 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 (fun i -> i)) sorted

let test_prng_copy_and_split () =
  let g = Prng.create 5 in
  ignore (Prng.int g 100);
  let h = Prng.copy g in
  check "copy continues identically" (Prng.int g 1000) (Prng.int h 1000);
  let s1 = Prng.split g in
  let s2 = Prng.split g in
  Alcotest.(check bool) "splits differ" true (Prng.int s1 1_000_000 <> Prng.int s2 1_000_000)

let test_prng_chance_extremes () =
  let g = Prng.create 11 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always true" true (Prng.chance g 1.0);
    Alcotest.(check bool) "p=0 always false" false (Prng.chance g 0.0)
  done

(* ----------------------------------------------------------------- Stats *)

let test_stats () =
  let s = Stats.create () in
  s.Stats.leaf_compares <- 3;
  s.Stats.partner_checks <- 4;
  check "total" 7 (Stats.total s);
  let acc = Stats.create () in
  Stats.add acc s;
  Stats.add acc s;
  check "accumulate" 14 (Stats.total acc);
  Stats.reset s;
  check "reset" 0 (Stats.total s)

(* ----------------------------------------------------------------- Table *)

let test_table_render () =
  let t = Table.create ~headers:[ "name"; "count" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let out = Table.render t in
  Alcotest.(check bool) "contains header" true
    (String.length out > 0 && String.sub out 0 4 = "name");
  (* all lines equal width of longest row *)
  let lines = String.split_on_char '\n' (String.trim out) in
  check "line count" 4 (List.length lines)

let test_table_row_mismatch () =
  let t = Table.create ~headers:[ "a"; "b" ] in
  Alcotest.check_raises "wrong width"
    (Invalid_argument "Table.add_row: expected 2 cells, got 1") (fun () ->
      Table.add_row t [ "only" ])

let test_table_cells () =
  Alcotest.(check string) "int" "42" (Table.cell_int 42);
  Alcotest.(check string) "float" "3.14" (Table.cell_float 3.14159);
  Alcotest.(check string) "float decimals" "3.1416" (Table.cell_float ~decimals:4 3.14159);
  Alcotest.(check string) "pct" "50.0%" (Table.cell_pct 0.5)

(* ----------------------------------------------------------------- clock *)

(* Deadlines read the monotonic clock: it never steps back, it advances
   across a sleep, and a budget's remaining allowance follows it. *)
let test_clock_monotonic () =
  let t0 = Clock.now () in
  let prev = ref t0 in
  for _ = 1 to 10_000 do
    let t = Clock.now () in
    if t < !prev then Alcotest.failf "clock stepped back: %f < %f" t !prev;
    prev := t
  done;
  Unix.sleepf 0.02;
  Alcotest.(check bool) "advances across a sleep" true (Clock.now () -. t0 >= 0.019);
  let b = Budget.make ~deadline_ms:60_000. () in
  let left = Budget.remaining_ms b in
  Alcotest.(check bool) "remaining within the allowance" true
    (left <= 60_000. && left > 59_000.)

let () =
  Alcotest.run "util"
    [
      ( "vec",
        [
          Alcotest.test_case "basic" `Quick test_vec_basic;
          Alcotest.test_case "insert/remove" `Quick test_vec_insert_remove;
          Alcotest.test_case "bounds errors" `Quick test_vec_bounds;
          Alcotest.test_case "iterators" `Quick test_vec_iterators;
          QCheck_alcotest.to_alcotest vec_model_prop;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
          Alcotest.test_case "copy and split" `Quick test_prng_copy_and_split;
          Alcotest.test_case "chance extremes" `Quick test_prng_chance_extremes;
        ] );
      ("stats", [ Alcotest.test_case "counters" `Quick test_stats ]);
      ("clock", [ Alcotest.test_case "monotonic" `Quick test_clock_monotonic ]);
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "row width mismatch" `Quick test_table_row_mismatch;
          Alcotest.test_case "cell formatting" `Quick test_table_cells;
        ] );
    ]
