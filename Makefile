# Radical (SOSP '25) reproduction.

.PHONY: all build test bench examples quick check chaos analyze certify batch propagate shard lease radbench radbench-compare fmt fmt-check clean

all: build

build:
	dune build @all

test:
	dune runtest --force

# Every table and figure of the paper, at the paper's request volume.
bench:
	dune exec bench/main.exe

# Quick 2k-request variant of the evaluation.
quick:
	dune exec bench/main.exe -- --scale 1

# Whole-catalog static analysis: golden-file check of `radical_cli
# analyze` (classifications, conflict matrices, lock-order hazards,
# manual f^rw checks), then the analyzer evaluation bench (predict-cost
# raw vs. optimized, read-only fast-path latency ablation).
analyze:
	dune build @analyze
	dune exec bench/main.exe -- --scale 1 analyze

# Bytecode effect certification: golden-file check of `radical_cli
# certify` — the whole catalog's compiled modules re-analyzed by the
# bytecode abstract interpreter and checked, shape by shape, against
# the registered f^rw (see DESIGN.md "Bytecode effect certification").
certify:
	dune build @certify

# Batching load sweep (`Experiments.Sweeps.batch`, run by
# `Experiments.Sweep`): open-loop load against the replicated LVI
# server with group commit / lock-record flush / conflict-aware
# admission / followup coalescing toggled per variant; prints the
# batched-vs-unbatched acceptance verdict. `make check` runs it with
# every other BENCH target and diffs BENCH_batch.json.
batch:
	dune exec bench/main.exe -- batch

# Cache-update propagation sweep (`Experiments.Sweeps.propagate`):
# multi-site shared-key workload with propagation off / Nagle window
# sweep / invalidate-only; prints the on-vs-off acceptance verdict
# (speculation success up, median latency down). `make check` diffs
# BENCH_propagate.json.
propagate:
	dune exec bench/main.exe -- propagate

# Shard scaling sweep (`Experiments.Sweeps.shard`): prefix-disjoint
# key families over 1/2/4 LVI shards, peak sustainable throughput per
# shard count, a cross-shard transfer mix at 4 shards, and the
# one-round-trip / >=3x scaling acceptance verdicts; each distinct
# cell runs once. `make check` diffs BENCH_shard.json.
shard:
	dune exec bench/main.exe -- shard

# Read-lease sweep (`Experiments.Sweeps.lease`): read-heavy zipf mix
# with leases off / on (revocation) / on (expiry-wait only); prints the
# >=40% read-only median reduction acceptance verdict and writes
# BENCH_lease.json. `make check` diffs BENCH_lease.json.
lease:
	dune exec bench/main.exe -- --json lease

# radbench, the two-clock benchmark (benchmark/README.md): every
# workload in a fresh process, each result saved under $(OUT) for
# radbench-compare. Run it on both commits, alternating which goes
# first, then compare the two directories metric by metric.
SEED ?= 42
OUT ?= radbench-results

radbench:
	dune exec --root . ./benchmark/radbench.exe -- run --workload all --seed $(SEED) --save $(OUT)

radbench-compare:
	dune exec --root . ./benchmark/radbench.exe -- compare $(BASE) $(NEW)

# CI gate: full build (the dev profile's -warn-error +a makes any
# compiler warning fail the build), the formatting check (skipped when
# ocamlformat is absent), full test suite, the analyzer golden + bench
# run, the bytecode-certification golden run, then all 18 measurement
# targets of bench/main.exe (the paper's tables and figures, then the
# feature experiments) at bench scale with --json: every
# BENCH_<target>.json must match the checked-in file exactly, each
# number and each `accept` verdict flag included (a change that moves
# them commits the regenerated files), and so must the step's stdout
# (every table, note and verdict line), which it writes over
# bench/stdout.expected. Then three 20-seed chaos smoke
# campaigns, each named by its --deployment (see Radical.Deployment):
# `batched,propagating` (every batching knob and cache-update
# propagation on), `sharded=4` (the LVI service hash-sharded 4 ways, so
# the shard-chaos template attacks the cross-shard commit under the
# cross-atomicity oracle) and `leased` (read leases on, so the
# lease-chaos template attacks the revocation channel). Every cell of
# each grid also runs on a Raft-replicated server; `radical_cli chaos
# --help` lists the flags. Each campaign is deterministic and writes
# its stdout over bench/chaos-<deployment>.expected (`,` and `=` in the
# deployment spelled `-`); the closing
# `git diff --exit-code` fails if any BENCH file, the bench stdout or a
# campaign's stdout changed.
# The BENCH step and each chaos cell run under $(TIMED), which prints
# their wall time to stderr and leaves their stdout untouched.
check:
	dune build @all
	$(MAKE) fmt-check
	dune runtest --force
	$(MAKE) analyze
	$(MAKE) certify
	$(TIMED) dune exec bench/main.exe -- --json fig1 table1 table2 fig4 fig5 fig6 \
	  repl cost sensitivity skew throughput bootstrap ablation phases \
	  batch propagate lease shard > bench/stdout.expected
	$(TIMED) dune exec bin/radical_cli.exe -- chaos --seeds 20 \
	  --deployment batched,propagating > bench/chaos-batched-propagating.expected
	$(TIMED) dune exec bin/radical_cli.exe -- chaos --seeds 20 \
	  --deployment sharded=4 > bench/chaos-sharded-4.expected
	$(TIMED) dune exec bin/radical_cli.exe -- chaos --seeds 20 \
	  --deployment leased > bench/chaos-leased.expected
	git diff --exit-code -- 'BENCH_*.json' bench/stdout.expected \
	  'bench/chaos-*.expected'

# Run a command, then print "wall <seconds> s: <command>" to stderr and
# exit with the command's status.
TIMED = sh -c 's=$$(date +%s%N); "$$@"; r=$$?; \
  ms=$$(( ($$(date +%s%N) - s) / 1000000 )); \
  printf "wall %d.%03d s: %s\n" $$((ms / 1000)) $$((ms % 1000)) "$$*" >&2; \
  exit $$r' timed

# Full 50-seeds-per-cell chaos campaign (~200 sweep runs) plus the
# protocol-mutation demo; the acceptance run behind EXPERIMENTS.md.
chaos:
	dune exec bin/radical_cli.exe -- chaos --seeds 50

# Reformat the tree in place per .ocamlformat. Gated on the tool being
# installed: the pinned container image ships the compiler toolchain
# only, so formatting is advisory there and authoritative in dev
# environments that have ocamlformat.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt --auto-promote; \
	else \
	  echo "fmt: ocamlformat not installed; skipping"; \
	fi

# Formatting check (no writes): fails if any file diverges from
# .ocamlformat. Skips with a notice when the tool is absent so `make
# check` stays runnable in the bare container.
fmt-check:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "fmt-check: ocamlformat not installed; skipping"; \
	fi

examples:
	dune exec examples/quickstart.exe
	dune exec examples/social_media.exe
	dune exec examples/hotel_booking.exe
	dune exec examples/failure_drill.exe
	dune exec examples/external_payments.exe

clean:
	dune clean
