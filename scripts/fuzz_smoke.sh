#!/bin/sh
# Fuzz smoke: run every fuzz target for a short budget so `make check`
# exercises the corpora AND gives the mutator a brief shot at each
# parser, at the similarity metrics, at the fused character kernels and
# at the serving routes' request bodies.
# Go's fuzzer accepts one target per invocation, so targets run
# sequentially; any crash fails the script with the reproducer path the
# fuzzer prints.
set -eu

GO="${GO:-go}"
FUZZTIME="${FUZZTIME:-10s}"

run_target() {
    pkg="$1"
    target="$2"
    echo "fuzz: $pkg $target ($FUZZTIME)"
    "$GO" test "$pkg" -run '^$' -fuzz "^${target}\$" -fuzztime "$FUZZTIME"
}

run_target ./internal/model FuzzLoadModel
run_target ./internal/resilience FuzzScanWAL
run_target ./internal/dataset FuzzReadCSV
run_target ./internal/textsim FuzzMetrics
run_target ./internal/textsim FuzzCharKernels
run_target ./internal/serve FuzzMatchRequest
run_target ./internal/serve FuzzScoreRequest

echo "fuzz smoke passed"
