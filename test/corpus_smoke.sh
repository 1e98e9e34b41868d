#!/bin/sh
# Acceptance drill for `inltool corpus` (wired into `dune runtest` and
# exposed as `make corpus-smoke`):
#
#   phase 1  a reference run over a 4-kernel mini-manifest — two clean
#            kernels with pinned winners, one heavier LU nest, and one
#            poisoned kernel (injected hang under a tight deadline).
#            The poisoned kernel must be quarantined as a replayable
#            finding, the healthy kernels must complete, exit 1.
#
#   phase 2  a fresh run is SIGINTed mid-batch: exit 130, checkpoint
#            flushed; rerunning resumes, skips the recorded kernels and
#            produces a report byte-identical to phase 1's.
#
#   phase 3  a fresh run is SIGKILLed mid-batch — the crash-safety
#            worst case; rerunning resumes from the checkpoint and the
#            report is again byte-identical to phase 1's.
#
# All runs use --no-timings (wall_ms pinned to 0), the same seed and
# the same --jobs, so "byte-identical" is exact: cmp(1), not a fuzzy
# field comparison.
#
# Usage: corpus_smoke.sh [path-to-inltool]
set -u

INLTOOL=${1:-./_build/default/bin/inltool.exe}
DIR=$(mktemp -d "${TMPDIR:-/tmp}/corpus-smoke.XXXXXX") || exit 1
trap 'rm -rf "$DIR"' EXIT

fail() {
  echo "corpus-smoke: FAIL: $*" >&2
  exit 1
}

# ---- the mini-corpus ---------------------------------------------------
cat > "$DIR/trisolve.loop" << 'EOF'
params N
do I = 1..N
  S1: X(I) = B(I) / L(I,I)
  do J = I+1..N
    S2: B(J) = B(J) - L(J,I) * X(I)
  enddo
enddo
EOF

cat > "$DIR/lu.loop" << 'EOF'
params N
do K = 1..N
  do I = K+1..N
    S1: A(I,K) = A(I,K) / A(K,K)
    do J = K+1..N
      S2: A(I,J) = A(I,J) - A(I,K) * A(K,J)
    enddo
  enddo
enddo
EOF

cat > "$DIR/dp.loop" << 'EOF'
params N
do I = 1..N
  S1: C(I) = B(I)
  do J = 1..I-1
    S2: C(I) = C(I) + C(J) * W(I,J)
  enddo
enddo
EOF

cat > "$DIR/mini.manifest" << 'EOF'
kernel trisolve trisolve.loop
kernel lu       lu.loop
kernel dp       dp.loop
kernel poisoned lu.loop  faults=hang=3 timeout_ms=300
EOF

run_corpus() { # $1 = state dir, $2 = output json, then extra args
  state=$1
  out=$2
  shift 2
  "$INLTOOL" corpus "$DIR/mini.manifest" --state "$state" --no-timings -o "$out" "$@"
}

# Backgrounded variant: exec so $! is inltool itself, not a subshell —
# the drills signal the pid directly.
run_corpus_bg() { # $1 = state dir, $2 = output json, $3 = stdout, $4 = stderr
  (exec "$INLTOOL" corpus "$DIR/mini.manifest" --state "$1" --no-timings -o "$2" > "$3" 2> "$4") &
}

# ---- phase 1: reference run with a poisoned kernel ---------------------
run_corpus "$DIR/s1" "$DIR/B1.json" > "$DIR/p1.out" 2> "$DIR/p1.err"
code=$?
[ "$code" -eq 1 ] || fail "phase 1 exit $code, wanted 1 (quarantined kernel); stderr: $(cat "$DIR/p1.err")"
[ -f "$DIR/B1.json" ] || fail "phase 1: no report written"

grep -q '"name": "trisolve", "status": "clean", .*"winner": "complete row=\[0,0,0,1\]"' "$DIR/B1.json" \
  || fail "phase 1: trisolve winner not the pinned completion"
grep -q '"name": "lu", "status": "clean", .*"winner": "complete row=\[0,1,0,0,0\]"' "$DIR/B1.json" \
  || fail "phase 1: lu winner not the pinned completion"
grep -q '"name": "poisoned", "status": "quarantined", "signature": "timeout"' "$DIR/B1.json" \
  || fail "phase 1: poisoned kernel not quarantined as a timeout"
grep -q '"quarantined": 1, "failed": 0' "$DIR/B1.json" || fail "phase 1: totals wrong"
grep -q 'K706' "$DIR/p1.out" || fail "phase 1: no K706 quarantine tag on stdout"
for f in finding-poisoned-timeout.inl finding-poisoned-timeout.tf finding-poisoned-timeout-detail.txt; do
  [ -f "$DIR/s1/$f" ] || fail "phase 1: quarantine artifact $f missing"
done
grep -q 'replay:' "$DIR/s1/finding-poisoned-timeout-detail.txt" \
  || fail "phase 1: quarantined finding is not replayable"
[ -f "$DIR/s1/checkpoint" ] || fail "phase 1: no checkpoint"

# ---- phase 2: SIGINT mid-batch, then resume ----------------------------
run_corpus_bg "$DIR/s2" "$DIR/B2.json" "$DIR/p2.out" "$DIR/p2.err"
pid=$!
tries=0
while [ "$(grep -c '^corpus: trisolve:' "$DIR/p2.out" 2> /dev/null)" -lt 1 ]; do
  tries=$((tries + 1))
  [ $tries -gt 200 ] && fail "phase 2: first kernel never completed"
  sleep 0.01
done
kill -INT "$pid" 2> /dev/null
wait "$pid"
code=$?
if [ "$code" -ne 130 ]; then
  # The batch may legitimately have finished before the signal landed;
  # that voids the drill, it does not fail it — but it must not happen
  # on a manifest where three kernels follow the first.
  fail "phase 2: exit $code after SIGINT, wanted 130; stdout: $(cat "$DIR/p2.out")"
fi
grep -q 'interrupted after' "$DIR/p2.out" || fail "phase 2: no interruption notice"
[ -f "$DIR/s2/checkpoint" ] || fail "phase 2: no checkpoint after SIGINT"
[ -f "$DIR/B2.json" ] && fail "phase 2: interrupted run wrote a report"

run_corpus "$DIR/s2" "$DIR/B2.json" > "$DIR/p2r.out" 2> "$DIR/p2r.err"
code=$?
[ "$code" -eq 1 ] || fail "phase 2 resume exit $code, wanted 1; stderr: $(cat "$DIR/p2r.err")"
grep -q 'corpus: resuming;' "$DIR/p2r.out" || fail "phase 2: resume did not announce restored records"
cmp -s "$DIR/B1.json" "$DIR/B2.json" || fail "phase 2: resumed report differs from the reference"

# ---- phase 3: SIGKILL mid-batch, then resume ---------------------------
run_corpus_bg "$DIR/s3" "$DIR/B3.json" "$DIR/p3.out" "$DIR/p3.err"
pid=$!
tries=0
while [ "$(grep -c '^corpus: trisolve:' "$DIR/p3.out" 2> /dev/null)" -lt 1 ]; do
  tries=$((tries + 1))
  [ $tries -gt 200 ] && fail "phase 3: first kernel never completed"
  sleep 0.01
done
kill -9 "$pid" 2> /dev/null
wait "$pid" 2> /dev/null
[ -f "$DIR/s3/checkpoint" ] || fail "phase 3: no checkpoint survived SIGKILL"

run_corpus "$DIR/s3" "$DIR/B3.json" > "$DIR/p3r.out" 2> "$DIR/p3r.err"
code=$?
[ "$code" -eq 1 ] || fail "phase 3 resume exit $code, wanted 1; stderr: $(cat "$DIR/p3r.err")"
resumed=$(sed -n 's/^corpus: resuming; \([0-9]*\) of .*/\1/p' "$DIR/p3r.out")
[ -n "$resumed" ] && [ "$resumed" -ge 1 ] || fail "phase 3: nothing restored from the checkpoint"
cmp -s "$DIR/B1.json" "$DIR/B3.json" || fail "phase 3: post-SIGKILL report differs from the reference"

echo "corpus-smoke: OK (poisoned kernel quarantined; SIGINT + SIGKILL drills byte-identical, $resumed record(s) restored after SIGKILL)"
