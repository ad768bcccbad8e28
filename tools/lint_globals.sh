#!/bin/sh
# Source hygiene lints over lib/.  Each @lint rule greps for a forbidden
# pattern; hits are filtered through `tools/lint_globals.allow` (one
# literal line fragment per entry, `#` comments allowed) before failing.
set -eu
root=${1:-.}
allow="$root/tools/lint_globals.allow"
status=0

filter_allowed() {
  hits=$1
  if [ -f "$allow" ]; then
    while IFS= read -r pat; do
      case $pat in ''|'#'*) continue ;; esac
      hits=$(printf '%s\n' "$hits" | grep -v -F "$pat" || true)
    done < "$allow"
  fi
  printf '%s\n' "$hits" | sed '/^$/d'
}

# @lint no-module-level-mutable-state
# A top-level `let x = ref ...` or `let x = Hashtbl.create ...` is ambient
# per-process state: it breaks re-entrancy and domain-parallel batch runs.
# All such state now lives in Treediff_util.Exec contexts.  Function-local
# mutable state (indented) is fine and not matched.
bad=$(grep -rn -E '^let [^=]*= *(ref |ref$|Hashtbl\.create)' "$root/lib" --include='*.ml' || true)
bad=$(filter_allowed "$bad")
if [ -n "$bad" ]; then
  echo 'lint_globals: module-level mutable state in lib/ (thread a Treediff_util.Exec instead):' >&2
  printf '%s\n' "$bad" >&2
  status=1
fi

# @lint no-catch-all-handlers
# A `try ... with _ ->` handler swallows Budget.Exceeded, Fault.Injected
# and Diag.Failed alike, silently converting typed degradation and
# injected faults into wrong answers.  Catch the specific exceptions the
# expression can raise; a genuine catch-all belongs behind an allow entry
# with a justification comment next to it.
bad=$(grep -rn -E 'with[[:space:]]+_[[:space:]]*(->|$)' "$root/lib" --include='*.ml' || true)
bad=$(filter_allowed "$bad")
if [ -n "$bad" ]; then
  echo 'lint_globals: catch-all "try ... with _ ->" handler in lib/ (match the specific exceptions instead):' >&2
  printf '%s\n' "$bad" >&2
  status=1
fi

# @lint no-direct-parser-calls
# Every parse must resolve through the Treediff_doc.Format registry so the
# supported set, unknown-format errors and lenient behaviour stay identical
# across the CLI, ladiff, the serve daemon and the store ingest path.
# Calling an individual parser's parse/parse_result directly (outside
# lib/doc, where the registry itself lives) reintroduces the per-entry-point
# drift the registry exists to prevent.
bad=$(grep -rn -E '(Xml|Latex|Html|Json|Markdown)_parser\.parse' \
        "$root/lib" "$root/bin" "$root/examples" --include='*.ml' \
      | grep -v '/lib/doc/' || true)
bad=$(filter_allowed "$bad")
if [ -n "$bad" ]; then
  echo 'lint_globals: direct parser call outside lib/doc (resolve the format through Treediff_doc.Format instead):' >&2
  printf '%s\n' "$bad" >&2
  status=1
fi

# @lint one-json-codec
# The repository has one JSON lexer/printer, Treediff_util.Json
# (lib/util/json.ml); the daemon's frames and the JSON document front end
# both read through it.  A second copy drifts — unpaired-surrogate
# handling was once fixed in one lexer only — so the fingerprints of JSON
# string coding, \u%04x escape emission and the surrogate-range
# constants, may appear nowhere else in lib/ or bin/.
bad=$(grep -rn -i -E 'u%04x|0xD800|0xDC00' "$root/lib" "$root/bin" \
        --include='*.ml' --include='*.mli' \
      | grep -v '/lib/util/json\.ml:' || true)
bad=$(filter_allowed "$bad")
if [ -n "$bad" ]; then
  echo 'lint_globals: JSON string coding outside lib/util/json.ml (use Treediff_util.Json):' >&2
  printf '%s\n' "$bad" >&2
  status=1
fi

# @lint one-verb-layer
# The verbs treediff and the daemon share (diff, batch, check and the store
# verbs) run through one typed executor, Treediff_serve.Verb
# (lib/serve/verb.ml): it alone builds the diff configuration, resolves
# output modes and runs batches.  When the front ends built their own, the
# copies drifted (batch diffed with the wrong leaf compare; the daemon's
# batch parsed NEW before OLD), so the front ends may not do it again.
bad=$(grep -n -H -E \
        'Criteria\.make|Config\.with_criteria|Doc_tree\.config_with|Render_diff\.mode_of_name|Batch\.run' \
        "$root/bin/treediff_cli.ml" "$root/lib/serve/handler.ml" || true)
bad=$(filter_allowed "$bad")
if [ -n "$bad" ]; then
  echo 'lint_globals: diff config, output mode or batch built outside lib/serve/verb.ml (go through Treediff_serve.Verb):' >&2
  printf '%s\n' "$bad" >&2
  status=1
fi

# @lint no-allocating-prefix-test
# The text front ends and the word tokenizer run at every byte of every
# input, so a prefix test there must compare bytes in place
# (Treediff_doc.Scan.prefix_at / find_from).  `String.sub s i n = p`
# copies n bytes to answer a yes/no question; in a scan loop it allocated
# at every offset and made the LaTeX and XML front ends 5x slower than the
# JSON one.
bad=$(grep -rn -E \
        'String\.sub[^=;]*[^<>=:!]=[^=>]|String\.sub[^=;]*<>|String\.equal \(String\.sub' \
        "$root/lib/doc" "$root/lib/textdiff" --include='*.ml' || true)
bad=$(filter_allowed "$bad")
if [ -n "$bad" ]; then
  echo 'lint_globals: allocating prefix test in lib/doc or lib/textdiff (compare in place, see Treediff_doc.Scan):' >&2
  printf '%s\n' "$bad" >&2
  status=1
fi

# @lint one-id-table
# Node ids map to nodes through one table, Treediff_tree.Id_table: open
# addressing whose memory follows the node count and whose lookups
# allocate nothing.  An id-keyed Hashtbl of nodes (the old
# Tree.index_by_id, a `(int, Node.t) Hashtbl.t`, or a Hashtbl filled with
# `x.id x`) costs a block per node, and Script, Edit_gen and Delta each
# rebuilt one per diff.  Tests may keep a Hashtbl as an independent oracle.
bad=$(grep -rn -E \
        'index_by_id|\(int, *([A-Za-z_]+\.)*Node\.t\) *Hashtbl\.t|Hashtbl\.(add|replace) [A-Za-z0-9_.]+ \(?([a-z_][A-Za-z0-9_]*)\.(Node\.)?id\)? \3([^A-Za-z0-9_.]|$)' \
        "$root/lib" --include='*.ml' --include='*.mli' || true)
bad=$(filter_allowed "$bad")
if [ -n "$bad" ]; then
  echo 'lint_globals: id-keyed node Hashtbl in lib/ (use Treediff_tree.Id_table):' >&2
  printf '%s\n' "$bad" >&2
  status=1
fi

if [ "$status" -ne 0 ]; then exit "$status"; fi
echo 'lint_globals: ok'
