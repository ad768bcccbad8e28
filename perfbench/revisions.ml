(* The [revisions] scenario: the paper's own use.  Unique revision pairs of
   generated documents, rendered to text in five formats, are diffed one at
   a time in a closed loop exactly as [treediff diff] does it: parse both
   sides, [Diff.diff_result] with word-LCS criteria in a fresh context,
   [Diff.check], render the script. *)

open Bu
module Doc_format = Treediff_doc.Format
module Docgen = Treediff_workload.Docgen
module Mutate = Treediff_workload.Mutate
module Prng = Treediff_util.Prng
module Exec = Treediff_util.Exec
module Tree = Treediff_tree.Tree
module Node = Treediff_tree.Node
module Diff = Treediff.Diff
module Criteria = Treediff_matching.Criteria
module Matching = Treediff_matching.Matching
module Fast_match = Treediff_matching.Fast_match
module Label_order = Treediff_matching.Label_order
module Postprocess = Treediff_matching.Postprocess
module Script = Treediff_edit.Script
module Script_io = Treediff_edit.Script_io

(* The defaults of [treediff diff]: word-LCS leaf compare, f = 0.5, t = 0.6. *)
let criteria =
  Criteria.make ~leaf_f:0.5 ~internal_t:0.6
    ~compare:Treediff_textdiff.Word_compare.distance ()

let config = Treediff.Config.with_criteria criteria

type pair = { fmt : Doc_format.t; old_src : string; new_src : string }

let formats =
  Doc_format.[| latex; markdown; xml; json; sexp |]

(* Edit classes: a few edits, many edits, and a slice whose documents carry
   near-duplicate sentences, so Matching Criterion 3 fails and FastMatch's
   straggler scan and the postprocess pass have work to do. *)
type edits = Few | Many | Dup

(* Nine strata (size x edits) against five formats: coprime, so every 45
   consecutive pairs hold each (stratum, format) combination once. *)
let strata =
  [|
    (Docgen.small, Few, (1, 3)); (Docgen.small, Many, (6, 10));
    (Docgen.small, Dup, (3, 6)); (Docgen.medium, Few, (2, 5));
    (Docgen.medium, Many, (12, 20)); (Docgen.medium, Dup, (6, 10));
    (Docgen.large, Few, (3, 8)); (Docgen.large, Many, (25, 40));
    (Docgen.large, Dup, (10, 16));
  |]

let block = Array.length strata * Array.length formats

(* The JSON printer only takes JSON-shaped trees, so a document is written
   as nested one-key objects: {"Section": [{"Paragraph": ["...", ...]}]}. *)
let rec json_of_doc (n : Node.t) =
  if Node.is_leaf n then json_string n.Node.value
  else
    Printf.sprintf "{%s: [%s]}" (json_string n.Node.label)
      (String.concat ", "
         (List.rev (Node.fold_children (fun acc c -> json_of_doc c :: acc) [] n)))

let render (fmt : Doc_format.t) doc =
  if fmt == Doc_format.json then json_of_doc doc else fmt.Doc_format.render doc

let make_pair ~small g i =
  let profile, edits, (lo, hi) = strata.(i mod Array.length strata) in
  let profile = if small then Docgen.small else profile in
  let profile =
    match edits with
    | Dup -> { profile with Docgen.duplicate_rate = 0.2 }
    | Few | Many -> profile
  in
  let fmt = formats.(i mod Array.length formats) in
  let gen = Tree.gen () in
  let doc = Docgen.generate g gen profile in
  let doc', _ = Mutate.mutate g gen doc ~actions:(Prng.int_in g lo hi) in
  { fmt; old_src = render fmt doc; new_src = render fmt doc' }

type state = {
  pairs : pair array;
  inputs_digest : string;
  input_bytes : int;
}

(* Pairs for one window: sized to outlast it on a 2-core x86 host, so the
   loop only wraps around (re-diffing a pair) on a much faster machine. *)
let pool_size opts =
  if opts.small then block
  else block * max 2 (int_of_float (Float.ceil (opts.seconds *. 100. /. float_of_int block)))

(* Pairs every run completes whatever the window, so [edit_cost] and the
   script digest cover the same pairs on every run of a seed. *)
let fixed_pairs opts = if opts.small then block else 6 * block

let setup opts =
  let g = prng opts 1 in
  let pairs = Array.init (pool_size opts) (fun i -> make_pair ~small:opts.small (Prng.split g) i) in
  let d = Digester.create () in
  let bytes = ref 0 in
  Array.iter
    (fun p ->
      Digester.add d p.fmt.Doc_format.name;
      Digester.add d p.old_src;
      Digester.add d p.new_src;
      bytes := !bytes + String.length p.old_src + String.length p.new_src)
    pairs;
  { pairs; inputs_digest = Digester.hex d; input_bytes = !bytes }

let parse_pair p =
  let gen = Tree.gen () in
  match
    ( p.fmt.Doc_format.parse_result ~lenient:false gen p.old_src,
      p.fmt.Doc_format.parse_result ~lenient:false gen p.new_src )
  with
  | Ok (t1, _), Ok (t2, _) -> Ok (t1, t2)
  | Error e, _ | _, Error e -> Error ("parse: " ^ e)

(* One pair through the whole [treediff diff] path.  [Ok (cost, script)]
   on a full-quality, checked result. *)
let diff_pair p =
  match parse_pair p with
  | Error _ as e -> e
  | Ok (t1, t2) -> (
    let exec = Exec.create () in
    match Diff.diff_result ~config ~exec t1 t2 with
    | Error f ->
      Error
        (String.concat "; "
           (List.map (fun (a, r) -> a ^ ": " ^ r) f.Diff.attempts))
    | Ok r -> (
      match r.Diff.degraded with
      | Some rung -> Error ("degraded to " ^ Diff.rung_name rung)
      | None -> (
        match Diff.check r ~t1 ~t2 with
        | Error e -> Error ("check: " ^ e)
        | Ok () ->
          Ok (Script.unweighted r.Diff.measure, Script_io.to_string r.Diff.script))))

(* ------------------------------------------------------------- tracing *)

(* Layer rows of the traced pipeline, in pipeline order. *)
let layers =
  [|
    "format.parse_ms"; "index.build_ms"; "fast_match.leaf_ms";
    "fast_match.internal_ms"; "postprocess.ms"; "edit_gen.ms"; "delta.ms";
    "diff.check_ms"; "render.ms";
  |]

type trace_acc = {
  spans : Samples.t array;  (* per layer, seconds *)
  traced_total : Samples.t;
  mutable leaf_compares : int;
  mutable partner_checks : int;
  mutable fixes : int;
  mutable ops : int;
  mutable pairs_traced : int;
}

let dummy_rooted dummy t1 =
  match dummy with
  | None -> Tree.copy t1
  | Some (d1, _) ->
    let d = Node.make ~id:d1 ~label:"@@root" () in
    Node.append_child d (Tree.copy t1);
    d

(* The pipeline of [Diff.diff_result] rebuilt from its public layers, one
   timed span per layer.  Returns the rendered script. *)
let traced_pair acc p =
  let span k f =
    let r, dt = timed f in
    Samples.add acc.spans.(k) dt;
    r
  in
  let t_start = now () in
  match span 0 (fun () -> parse_pair p) with
  | Error _ as e -> e
  | Ok (t1, t2) -> (
    let exec = Exec.create () in
    let ctx = span 1 (fun () -> Criteria.ctx ~exec criteria ~t1 ~t2) in
    let idx1 = Criteria.index1 ctx and idx2 = Criteria.index2 ctx in
    let m = Matching.create () in
    span 2 (fun () ->
        List.iter
          (fun l -> Fast_match.match_label ctx m l ~leaf:true)
          (Label_order.leaf_labels_of_indexes idx1 idx2));
    span 3 (fun () ->
        List.iter
          (fun l -> Fast_match.match_label ctx m l ~leaf:false)
          (Label_order.internal_labels_of_indexes idx1 idx2));
    let stats = Exec.stats exec in
    acc.leaf_compares <- acc.leaf_compares + stats.Treediff_util.Stats.leaf_compares;
    acc.partner_checks <- acc.partner_checks + stats.Treediff_util.Stats.partner_checks;
    let fixes = span 4 (fun () -> Postprocess.run ctx m) in
    acc.fixes <- acc.fixes + fixes;
    let gen, measure =
      span 5 (fun () ->
          let gen = Treediff.Edit_gen.generate ~exec ~matching:m t1 t2 in
          let base = dummy_rooted gen.Treediff.Edit_gen.dummy t1 in
          ( gen,
            Script.measure ~model:config.Treediff.Config.cost base
              gen.Treediff.Edit_gen.script ))
    in
    let script = gen.Treediff.Edit_gen.script in
    acc.ops <- acc.ops + List.length script;
    let delta =
      span 6 (fun () ->
          Treediff.Delta.build ~exec ~t1 ~t2 ~total:gen.Treediff.Edit_gen.total
            ~script ())
    in
    let result =
      {
        Diff.matching = m;
        total = gen.Treediff.Edit_gen.total;
        script;
        delta;
        dummy = gen.Treediff.Edit_gen.dummy;
        measure;
        stats;
        postprocess_fixes = fixes;
        degraded = None;
      }
    in
    match span 7 (fun () -> Diff.check result ~t1 ~t2) with
    | Error e -> Error ("traced check: " ^ e)
    | Ok () ->
      let text = span 8 (fun () -> Script_io.to_string script) in
      Samples.add acc.traced_total (now () -. t_start);
      acc.pairs_traced <- acc.pairs_traced + 1;
      Ok text)

(* ----------------------------------------------------------------- run *)

let sizes_json st opts =
  json_obj
    [
      ("pairs_generated", string_of_int (Array.length st.pairs));
      ("fixed_pairs", string_of_int (fixed_pairs opts));
      ("input_bytes", string_of_int st.input_bytes);
      ("formats", "\"latex,markdown,xml,json,sexp\"");
    ]

(* One scenario run, advanced in slices by [step] so the benchmark can
   interleave it with the other scenarios, and closed by [finish]. *)
type run = {
  opts : opts;
  st : state;
  lat : Samples.t;
  mutable cost : int;
  scripts : Digester.t;
  acc : trace_acc;
  mutable busy : float;
  mutable i : int;  (* pairs attempted *)
}

let start opts st =
  {
    opts;
    st;
    lat = Samples.create ();
    cost = 0;
    scripts = Digester.create ();
    acc =
      {
        spans = Array.map (fun _ -> Samples.create ()) layers;
        traced_total = Samples.create ();
        leaf_compares = 0;
        partner_checks = 0;
        fixes = 0;
        ops = 0;
        pairs_traced = 0;
      };
    busy = 0.;
    i = 0;
  }

let one_pair r =
  let i = r.i in
  let p = r.st.pairs.(i mod Array.length r.st.pairs) in
  Pace.tick ();
  incr attempted;
  let untraced () =
    let res, dt = timed (fun () -> diff_pair p) in
    Samples.add r.lat dt;
    r.busy <- r.busy +. dt;
    res
  in
  (* In a traced run both paths see every pair; which goes first
     alternates, so neither always inherits the other's warm caches. *)
  let result, traced =
    if not r.opts.trace then (untraced (), None)
    else if i mod 2 = 0 then
      let res = untraced () in
      (res, Some (traced_pair r.acc p))
    else
      let t = traced_pair r.acc p in
      (untraced (), Some t)
  in
  (match result with
  | Error e -> mismatch "revisions pair %d (%s): %s" i p.fmt.Doc_format.name e
  | Ok (c, text) -> (
    if i < fixed_pairs r.opts then begin
      r.cost <- r.cost + c;
      Digester.add r.scripts text
    end;
    match traced with
    | None -> ()
    | Some (Ok text') when String.equal text text' -> ()
    | Some (Ok _) -> mismatch "revisions pair %d: traced pipeline script differs" i
    | Some (Error e) -> mismatch "revisions pair %d traced: %s" i e));
  r.i <- i + 1

let step r seconds =
  let stop = now () +. seconds in
  while now () < stop do
    one_pair r
  done

let finish r =
  (* the fixed pairs behind [edit_cost] and the digest are always done *)
  while r.i < fixed_pairs r.opts do
    one_pair r
  done;
  let acc = r.acc and lat = r.lat in
  note "revisions"
    (json_obj
       [
         ("inputs_digest", json_string r.st.inputs_digest);
         ("scripts_digest", json_string (Digester.hex r.scripts));
         ("pairs_completed", string_of_int r.i);
         ("wrapped", if r.i > Array.length r.st.pairs then "true" else "false");
         ("sizes", sizes_json r.st r.opts);
       ]);
  if not r.opts.trace then begin
    let paced = Pace.scaled lat in
    emit "pairs_per_s" "1/s" (float_of_int paced.Samples.n /. Samples.sum paced);
    emit "diff_p50_ms" "ms" (1e3 *. pct paced 0.50);
    (* p95, not p99: large documents take four fifths of the diffing time
       and their cost per pair varies with a coefficient of variation near
       0.7, so over the 750-1500 pairs of one run a p99 rests on a handful
       of them.  Resampling the pairs of single runs put the quartile spread
       of ten p99s at 15-19% from the inputs alone, of ten p95s at 8-11%. *)
    emit "diff_p95_ms" "ms" (1e3 *. pct paced 0.95);
    emit "edit_cost" "ops" (float_of_int r.cost /. float_of_int (fixed_pairs r.opts))
  end
  else begin
    let per_pair x = float_of_int x /. float_of_int (max 1 acc.pairs_traced) in
    let layer_sum = ref 0. in
    Array.iteri
      (fun k name ->
        let ms = 1e3 *. Samples.mean acc.spans.(k) in
        layer_sum := !layer_sum +. ms;
        emit name "ms" ms)
      layers;
    emit "fast_match.leaf_compares" "count" (per_pair acc.leaf_compares);
    emit "fast_match.partner_checks" "count" (per_pair acc.partner_checks);
    emit "postprocess.fixes" "count" (per_pair acc.fixes);
    emit "edit_gen.ops" "count" (per_pair acc.ops);
    let untraced_ms = 1e3 *. Samples.mean lat in
    emit "revisions.untraced_ms" "ms" untraced_ms;
    emit "revisions.residual_ms" "ms" (untraced_ms -. !layer_sum);
    emit "revisions.trace_overhead" "ratio"
      (Samples.mean acc.traced_total /. Samples.mean lat)
  end
