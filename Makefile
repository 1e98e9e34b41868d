# Convenience wrappers around dune.  `make check` is the tier-1 gate:
# full build, test suite, and static verification of the example
# kernels (examples/kernels/dune).

.PHONY: all build test check fuzz-smoke serve-smoke search-smoke reuse-smoke bench-json perf-guard corpus-smoke corpus-bench corpus-guard exec-smoke exec-bench exec-guard inlbench-smoke clean

all: build

build:
	dune build

test:
	dune runtest

check:
	dune build @check

# Deterministic differential-fuzzing smoke run (the same campaign the
# test/fuzz.t cram test pins down): fixed seed, 50 cases, per-case
# watchdog; findings are shrunk and quarantined under corpus/ and the
# summary line is persisted as corpus/summary.  Exits nonzero if the
# three judges (legality, static validation, interpreter) disagree on
# any case.
fuzz-smoke:
	dune build bin/inltool.exe
	rm -rf corpus
	./_build/default/bin/inltool.exe fuzz --seed 42 --cases 50 --timeout-ms 5000 --corpus corpus

# Serve-daemon acceptance drill (the same one the dune runtest rule
# runs): a 56-request mixed batch including malformed JSON, injected
# solver blowups, a hung request under a deadline and an oversized
# line; then a SIGKILL mid-session and a restart that must come up warm
# from the killed daemon's crash-safe snapshot.
serve-smoke:
	dune build bin/inltool.exe
	sh test/serve_smoke.sh ./_build/default/bin/inltool.exe

# Autotuner smoke run (the same tiny fixed-seed search the dune runtest
# rule and the test/search.t cram test pin down): exits nonzero if the
# winner recipe drifts or jobs=1 and jobs=2 outputs differ by a byte.
search-smoke:
	dune build bench/bench_search.exe
	./_build/default/bench/bench_search.exe --smoke --jobs 2

# Static reuse-analysis smoke (the same drill the dune runtest rule
# runs): `inltool analyze --reuse` on the paper's kji Cholesky must
# report the pinned findings (U101/U102), scores, and typed degradation
# codes (U901 singular, U902 budget), byte-reproducibly.
reuse-smoke:
	dune build bin/inltool.exe
	sh test/reuse_smoke.sh ./_build/default/bin/inltool.exe

# Solver-core benchmark: full-Cholesky analyze + legality + completion +
# codegen + verify under (cache off/on) x (jobs 1/4); writes
# BENCH_solver.json with per-config wall time, solver calls, cache hit
# rate and the baseline-vs-best speedup.  Fails if any configuration's
# rendered output differs by a byte from the sequential uncached run.
# Then the autotuner benchmark: a default-budget `Search.optimize` on
# kji Cholesky at jobs 1 vs 4; writes BENCH_search.json with wall time,
# candidates/sec, the winner recipe and its simulated miss count.
bench-json:
	dune build bench/bench_solver.exe bench/bench_search.exe
	./_build/default/bench/bench_solver.exe -o BENCH_solver.json
	cat BENCH_solver.json
	./_build/default/bench/bench_search.exe -o BENCH_search.json
	cat BENCH_search.json

# Perf regression guard (also the opt-in `dune build @perf-guard`
# alias): re-runs the default autotuner workload and exits nonzero if
# candidates/sec drops below 50% of the committed BENCH_search.json, or
# if the pinned winner recipe / simulated miss count changes.
perf-guard:
	dune build bench/bench_search.exe
	./_build/default/bench/bench_search.exe --guard BENCH_search.json -o /dev/null

# Execution-runtime smoke (the same drill the dune runtest rule runs):
# every workload row's outcome label — plan and differential verdict,
# never wall time — is pinned, with all timings masked in the report.
exec-smoke:
	dune build bench/bench_exec.exe
	./_build/default/bench/bench_exec.exe --smoke --jobs 2

# Regenerate BENCH_exec.json: real (domain-parallel) execution of the
# workload kernels, sequential vs parallel wall clock min-of-N, with
# the honest core count next to the requested worker count.  On a
# single-core box the parallel rows are a determinism check, not a
# speedup claim.
exec-bench:
	dune build bench/bench_exec.exe
	./_build/default/bench/bench_exec.exe -o BENCH_exec.json
	cat BENCH_exec.json

# Execution drift guard (also the opt-in `dune build @exec-guard`
# alias): re-runs the workload and exits nonzero if any row's outcome
# label, plan or DOALL count drifts from the committed BENCH_exec.json;
# wall-clock fields are never compared.
exec-guard:
	dune build bench/bench_exec.exe
	./_build/default/bench/bench_exec.exe --guard BENCH_exec.json -o /dev/null

# Corpus-runner acceptance drill (the same one the dune runtest rule
# runs): a 4-kernel mini-manifest with a poisoned kernel that must be
# quarantined, a SIGINT drill (exit 130, checkpoint flushed) and a
# SIGKILL drill, both resumed to a report byte-identical to the
# uninterrupted reference.
corpus-smoke:
	dune build bin/inltool.exe
	sh test/corpus_smoke.sh ./_build/default/bin/inltool.exe

# Regenerate BENCH_corpus.json from the committed manifest.  The
# manifest deliberately includes one poisoned kernel (injected hang
# under a tight deadline) so every run exercises the retry ladder and
# the quarantine path — the runner therefore exits 1, which is the
# expected outcome, not a failure of the target.
corpus-bench:
	dune build bin/inltool.exe
	-./_build/default/bin/inltool.exe corpus examples/kernels/corpus.manifest -o BENCH_corpus.json
	cat BENCH_corpus.json

# Corpus drift guard (also the opt-in `dune build @corpus-guard`
# alias): re-runs the committed manifest fresh and untimed, and exits
# nonzero if any kernel's status, winner recipe, miss counts or
# degradation tags drift from the committed BENCH_corpus.json.
corpus-guard:
	dune build @corpus-guard

# End-to-end benchmark smoke (inlbench/README.md): one short pass of
# every workload, failing if the deterministic digest — winners, miss
# counts, solver calls, plans, DOALL counts — drifts from the pinned
# inlbench/smoke.digest.
inlbench-smoke:
	bash inlbench/run.sh --smoke

clean:
	dune clean
