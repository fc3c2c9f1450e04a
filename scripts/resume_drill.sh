#!/bin/sh
# resume_drill.sh — almatch's Ctrl-C resume, end to end: train a cora
# model once uninterrupted as the reference, train it again with
# -checkpoint and send SIGINT (Ctrl-C) once the progress stream shows
# iteration 10, resume that run with -resume, and assert the resumed
# run saves a model byte-identical to the reference's. Flaky labeling
# (10% transient faults behind retries) keeps the run inside a labeling
# round long enough for the interrupt to land mid-round.
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
pid=
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM
fail() {
    echo "resume-drill: $*" >&2
    exit 1
}

echo "resume-drill: building almatch"
$GO build -o "$tmp/almatch" ./cmd/almatch
set -- -mode train -dataset cora -scale 0.3 -learner svm -selector margin \
    -maxlabels 300 -flaky 0.1

echo "resume-drill: reference run"
"$tmp/almatch" "$@" -model "$tmp/ref.json" >"$tmp/ref.out" 2>&1 ||
    { cat "$tmp/ref.out" >&2; fail "reference run failed"; }

echo "resume-drill: checkpointed run, interrupted at iteration 10"
"$tmp/almatch" "$@" -checkpoint "$tmp/run.ckpt" -progress \
    -model "$tmp/victim.json" >"$tmp/victim.out" 2>"$tmp/victim.log" &
pid=$!
i=0
until grep -q '^iter  10:' "$tmp/victim.log"; do
    kill -0 "$pid" 2>/dev/null || { cat "$tmp/victim.log" >&2; fail "run ended before iteration 10"; }
    i=$((i + 1))
    [ $i -lt 1200 ] || fail "no iteration 10 within 120 s"
    sleep 0.1
done
kill -INT "$pid"
wait "$pid" || { cat "$tmp/victim.log" >&2; fail "interrupted run exited non-zero"; }
pid=
grep -q '(cancelled)' "$tmp/victim.out" ||
    { cat "$tmp/victim.out" >&2; fail "interrupt did not cancel the run"; }

echo "resume-drill: resuming"
"$tmp/almatch" "$@" -checkpoint "$tmp/run.ckpt" -resume \
    -model "$tmp/victim.json" >"$tmp/resume.out" 2>"$tmp/resume.log" ||
    { cat "$tmp/resume.log" >&2; fail "resumed run failed"; }
sed -n 's/^resuming from [^:]*: /resume-drill: resumed from /p' "$tmp/resume.log"

cmp "$tmp/ref.json" "$tmp/victim.json" ||
    fail "the resumed model differs from the uninterrupted run's"
echo "resume-drill: resumed model is byte-identical to the uninterrupted run's"
