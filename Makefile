.PHONY: all build lint check test test-force bench bench-timing clean examples fault-tests store-tests par-tests bench-parallel bench-compare analyze-tests bench-check serve-tests bench-serve bench-store bench-store-scale ci ci-bench-compare ci-serve-compare ci-store-scale-compare perfbench-test

all: build

build:
	dune build @all

lint:
	dune build @lint

# Static gate: build everything (check layer is warnings-as-errors), then run
# the verifier end-to-end over every example pair, and ship each pair's
# script the way a user would: diff -m script, apply it to OLD, and check
# the stored script against OLD and NEW.
check: lint
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for p in examples/pairs/*.old.*; do \
	  ext=$${p##*.}; \
	  case "$$ext" in \
	    sexp) fmt=sexp ;; json) fmt=json ;; md) fmt=markdown ;; \
	    xml) fmt=xml ;; tex) fmt=latex ;; html) fmt=html ;; \
	    *) continue ;; \
	  esac; \
	  new="$${p%.old.$$ext}.new.$$ext"; \
	  echo "== treediff check -f $$fmt $$p"; \
	  dune exec bin/treediff_cli.exe -- check -f "$$fmt" "$$p" "$$new" || exit 1; \
	  echo "== treediff diff -m script | apply | check --script -f $$fmt $$p"; \
	  dune exec bin/treediff_cli.exe -- diff -f "$$fmt" -m script "$$p" "$$new" -o "$$tmp/script" || exit 1; \
	  dune exec bin/treediff_cli.exe -- apply -f "$$fmt" "$$p" "$$tmp/script" -o "$$tmp/applied" || exit 1; \
	  dune exec bin/treediff_cli.exe -- check -f "$$fmt" --script "$$tmp/script" "$$p" "$$new" || exit 1; \
	done

# The suite runs with the always-on sanitizer enabled: every Diff.diff in any
# test raises on error-severity findings.
test:
	TREEDIFF_CHECK=1 dune runtest

test-force:
	TREEDIFF_CHECK=1 dune runtest --force --no-buffer

# Fault-injection sweep: run the resilience suite unarmed, then re-run it
# with TREEDIFF_FAULT armed at representative points (the suite switches to
# its env-sweep mode and asserts every outcome is a verified result or a
# typed error — never an uncaught exception).
FAULT_SPECS = \
  fast_match.chain:raise \
  fast_match.lcs:deadline \
  fast_match.scan:raise \
  simple_match.node:overflow \
  keyed.match:raise \
  postprocess.run:raise \
  postprocess.scan:deadline \
  edit_gen.visit:raise \
  edit_gen.align:deadline \
  edit_gen.delete:overflow \
  delta.build:raise \
  fast_match.chain:raise,keyed.match:raise

fault-tests:
	dune build test/test_fault.exe
	dune exec test/test_fault.exe -- -c
	@for spec in $(FAULT_SPECS); do \
	  echo "== TREEDIFF_FAULT=$$spec"; \
	  TREEDIFF_FAULT=$$spec dune exec test/test_fault.exe -- -c || exit 1; \
	done

# Archive suites: algebra properties, one-document archive round-trips,
# pruning, legacy migration and the CLI (test_store), and multi-document
# corpora, ingest and the record index (test_corpus), unarmed; then the
# crash sweep — with TREEDIFF_FAULT armed at the store's points, both
# switch to env-sweep mode: commit under fire, reopen, and verify every
# surviving version against its stored hash, through the write-ahead
# manifest and the per-shard commit locks.  test_store's sweep also runs
# `store migrate` of the legacy fixture under each fault and asserts the
# document landed whole or not at all.
STORE_FAULT_SPECS = \
  store.commit:raise@3 \
  store.append:raise@2 \
  store.append:deadline@2 \
  store.replay:raise@4 \
  store.manifest:raise@2 \
  store.manifest:deadline@2 \
  store.shard_lock:raise@2

store-tests:
	dune build test/test_store.exe test/test_corpus.exe bin/treediff_cli.exe \
	  test/fixtures/legacy_pruned.tdst
	dune exec test/test_store.exe -- -c
	dune exec test/test_corpus.exe -- -c
	@for spec in $(STORE_FAULT_SPECS); do \
	  echo "== TREEDIFF_FAULT=$$spec"; \
	  TREEDIFF_FAULT=$$spec dune exec test/test_store.exe -- -c || exit 1; \
	  TREEDIFF_FAULT=$$spec dune exec test/test_corpus.exe -- -c || exit 1; \
	done

# Parallelism suite: pool unit tests, the jobs:1 vs jobs:4 byte-identity
# property (with per-pair budgets and armed faults), crash isolation, and
# parallel replay from pool domains through one archive handle.
par-tests:
	dune build test/test_batch.exe
	dune exec test/test_batch.exe -- -c

# Interference-analyzer suite (TD5xx/TD6xx): dependence-graph pair
# classification, the canonical-form and parallel-apply properties, and the
# minimality oracle's agreement with Edit_gen on tiny pairs — plus the
# analyzer's two fault points, armed via the environment.
analyze-tests:
	dune build test/test_analyze.exe test/test_fault.exe
	dune exec test/test_analyze.exe -- -c
	@for spec in check.depgraph:raise check.oracle:raise; do \
	  echo "== TREEDIFF_FAULT=$$spec"; \
	  TREEDIFF_FAULT=$$spec dune exec test/test_fault.exe -- -c || exit 1; \
	done

# Service-layer suite: protocol codec properties, admission/deadline/crash
# paths, drain-on-signal and backoff determinism unarmed, then the sweep —
# with TREEDIFF_FAULT armed at the serve.* points the suite switches to its
# env-sweep mode: hammer a live daemon under fire and assert every outcome
# is a typed answer or a clean transport error, never a hang or an uncaught
# exception.
SERVE_FAULT_SPECS = \
  serve.accept:raise@2 \
  serve.decode:raise@2 \
  serve.cache:raise \
  serve.drain:raise

serve-tests:
	dune build test/test_serve.exe bin/treediff_cli.exe \
	  test/fixtures/legacy_pruned.tdst
	dune exec test/test_serve.exe -- -c
	@for spec in $(SERVE_FAULT_SPECS); do \
	  echo "== TREEDIFF_FAULT=$$spec"; \
	  TREEDIFF_FAULT=$$spec dune exec test/test_serve.exe -- -c || exit 1; \
	done

bench:
	dune exec bench/main.exe

bench-store:
	dune exec bench/main.exe -- store

# Sharded corpus store at scale: the committed BENCH_store_scale.json
# trajectory is the full synthetic corpus (10k docs x 100 versions = 1M),
# measuring commits/s, bytes/version, cold-cache materialize p99 and ingest
# scaling across jobs with a byte-identity check.  Takes a few minutes.
bench-store-scale:
	dune exec bench/main.exe -- store-scale --json BENCH_store_scale.json

# Domain-parallel batch diffing over the fig13 corpora at jobs 1/2/4, with a
# cross-jobs output-identity check; writes BENCH_parallel.json.  Speedup
# tracks the core count of the host (a 1-core container stays around 1x).
bench-parallel:
	dune exec bench/main.exe -- batch --json BENCH_parallel.json

# Gate on a benchmark trajectory: compare two BENCH_*.json files by shared
# benchmark name and fail on >10% ns/run regressions, e.g.
#   make bench-compare OLD=BENCH_check.json NEW=BENCH_check_new.json
OLD = BENCH_baseline.json
NEW = BENCH_indexed.json
MAX_REGRESS = 10
bench-compare:
	tools/bench_compare.sh $(OLD) $(NEW) --max-regress $(MAX_REGRESS)

# Interference analyzer ns/op, the minimality oracle's node-budget cost
# curve, and oracle-audited minimality rates; writes BENCH_check.json (the
# committed trajectory behind EXPERIMENTS.md's minimality table).
bench-check:
	dune exec bench/main.exe -- check --json BENCH_check.json

# Open-loop load against an in-process daemon at 0.5x/1x/2x the calibrated
# saturation rate, a strict-admission overload probe, and a crash-isolation
# segment; writes BENCH_serve.json (the committed record that at 2x the
# daemon answers with typed `overloaded` and p99 stays inside the deadline).
bench-serve:
	dune exec bench/main.exe -- serve --json BENCH_serve.json

bench-timing:
	dune exec bench/main.exe -- --bechamel

# Full local CI umbrella: build + the whole suite under the sanitizer +
# lint + the example-pair check + every fault sweep + a bench trajectory gate against the committed
# BENCH_check.json.  The bench gate re-measures on this host, so the
# regression threshold is generous — it catches complexity cliffs, not
# noise.
ci: build test lint check fault-tests store-tests par-tests analyze-tests serve-tests ci-bench-compare ci-serve-compare ci-store-scale-compare perfbench-test
	@echo "ci: all gates passed"

# The repository benchmark's own self-tests at reduced sizes (about a
# minute): every declared metric printed with its unit, outputs correct,
# same-seed digests repeat, and the traced run prints every layer row.
perfbench-test:
	python3 perfbench/test.py

ci-bench-compare:
	dune exec bench/main.exe -- check --json $(or $(TMPDIR),/tmp)/BENCH_check_ci.json
	tools/bench_compare.sh BENCH_check.json $(or $(TMPDIR),/tmp)/BENCH_check_ci.json --max-regress 100

# The store-scale gate re-runs the smoke corpus (100 docs; the committed
# trajectory is the full 1M-version run) and compares the store_scale/ rows
# only.  CI re-measures on an arbitrary host AND a 100x smaller corpus, so
# the threshold is deliberately loose: it exists to catch complexity
# cliffs in the commit/materialize paths and any loss of the cross-jobs
# byte-identity property (which fails the bench outright), not noise.
STORE_SCALE_MAX_REGRESS = 400
ci-store-scale-compare:
	dune exec bench/main.exe -- store-scale --smoke --json $(or $(TMPDIR),/tmp)/BENCH_store_scale_ci.json
	tools/bench_compare.sh BENCH_store_scale.json $(or $(TMPDIR),/tmp)/BENCH_store_scale_ci.json --only 'store_scale/(commit-mean|ingest-jobs-)' --max-regress $(STORE_SCALE_MAX_REGRESS)

# The serve gate re-runs the load generator and compares tail latency only
# (--only 'serve/.*-p99'): p50/throughput rows are dominated by scheduler
# noise under open-loop load, p99 is what the deadline promise is about.
# Same-host trajectory comparisons use SERVE_MAX_REGRESS=10; CI re-measures
# on whatever host it lands on, so the in-tree default stays generous.
SERVE_MAX_REGRESS = 100
ci-serve-compare:
	dune exec bench/main.exe -- serve --json $(or $(TMPDIR),/tmp)/BENCH_serve_ci.json
	tools/bench_compare.sh BENCH_serve.json $(or $(TMPDIR),/tmp)/BENCH_serve_ci.json --only 'serve/.*-p99' --max-regress $(SERVE_MAX_REGRESS)

examples:
	dune exec examples/quickstart.exe
	dune exec examples/document_diff.exe
	dune exec examples/config_management.exe
	dune exec examples/web_monitor.exe
	dune exec examples/ast_diff.exe
	dune exec examples/active_rules.exe

clean:
	dune clean
