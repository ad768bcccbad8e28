module Tree = Treediff_tree.Tree
module Node = Treediff_tree.Node
module Json = Treediff_util.Json

(* Labels of the JSON tree shape.  Lower-case on purpose: the document
   schema's labels are capitalized, so the two vocabularies cannot be
   confused by the matcher. *)
let l_obj = "obj"
let l_arr = "arr"
let l_member = "member"
let l_str = "str"
let l_num = "num"
let l_bool = "bool"
let l_null = "null"

(* Ids are allocated in post-order — a member's value, then the member,
   then its object — so scripts that name JSON-document ids stay stable. *)
let rec to_tree gen = function
  | Json.Obj members ->
    Tree.node gen l_obj
      (List.map
         (fun (key, v) ->
           let value = to_tree gen v in
           Tree.node gen l_member ~value:key [ value ])
         members)
  | Json.Arr items -> Tree.node gen l_arr (List.map (to_tree gen) items)
  | Json.Str s -> Tree.leaf gen l_str s
  | Json.Num lit -> Tree.leaf gen l_num lit
  | Json.Bool b -> Tree.leaf gen l_bool (if b then "true" else "false")
  | Json.Null -> Tree.node gen l_null []

let parse_result ?lenient gen src =
  Result.map
    (fun (v, warnings) -> (to_tree gen v, warnings))
    (Json.parse_result ?lenient src)

(* ----------------------------------------------------------------- print *)

let print t =
  let buf = Buffer.create 256 in
  let pad depth = String.make (2 * depth) ' ' in
  let rec value depth (n : Node.t) =
    let l = n.Node.label in
    if String.equal l l_str then Json.escape buf n.Node.value
    else if String.equal l l_num || String.equal l l_bool then
      Buffer.add_string buf n.Node.value
    else if String.equal l l_null then Buffer.add_string buf "null"
    else if String.equal l l_arr then container depth '[' ']' (value (depth + 1)) n
    else if String.equal l l_obj then container depth '{' '}' (member (depth + 1)) n
    else
      invalid_arg
        (Printf.sprintf "Json_parser.print: unexpected label %S" l)
  and container depth open_ close render (n : Node.t) =
    if Node.child_count n = 0 then begin
      Buffer.add_char buf open_;
      Buffer.add_char buf close
    end
    else begin
      Buffer.add_char buf open_;
      Buffer.add_char buf '\n';
      List.iteri
        (fun i c ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (pad (depth + 1));
          render c)
        (Node.children n);
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad depth);
      Buffer.add_char buf close
    end
  and member depth (n : Node.t) =
    if not (String.equal n.Node.label l_member) then
      invalid_arg
        (Printf.sprintf "Json_parser.print: expected a member, got %S"
           n.Node.label);
    if Node.child_count n <> 1 then
      invalid_arg "Json_parser.print: a member must have exactly one child";
    Json.escape buf n.Node.value;
    Buffer.add_string buf ": ";
    value depth (Node.child n 0)
  in
  value 0 t;
  Buffer.add_char buf '\n';
  Buffer.contents buf
