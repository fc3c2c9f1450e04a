# Development targets. `make check` is the full pre-merge gate: gofmt,
# static vetting (native and for arm64), a clean build of every
# package, the test suite under the race detector (the Session engine's
# cancellation paths are concurrent), the coverage ratchet, and a short
# fuzz smoke over every parser target.

GO ?= go

# Coverage ratchet for the engine package. Raise after a PR that durably
# lifts internal/core coverage; never lower it to absorb a regression.
COVER_FLOOR_CORE ?= 91.5

.PHONY: check fmt vet build test race cover fuzz bench bench-json bench-ratchet bench-e2e harness chaos serve-smoke resume-drill equiv

check: fmt vet build race equiv bench-ratchet cover fuzz chaos serve-smoke resume-drill harness

# Fails, listing them, when any Go file outside the benchmark's build
# state (.bench_build/) is not formatted by the toolchain's own gofmt.
fmt:
	@unformatted=$$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs "$$($(GO) env GOROOT)/bin/gofmt" -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

# Vets the tree as built here and as built for arm64, so the portable
# fallback of every amd64 assembly kernel keeps compiling.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

# Per-package coverage plus the internal/core floor (see scripts/cover.sh).
cover:
	GO="$(GO)" COVER_FLOOR_CORE="$(COVER_FLOOR_CORE)" sh scripts/cover.sh

# 10s-per-target fuzz smoke over the artifact loader, WAL recovery, CSV
# import, the similarity metrics' range and symmetry, the tokenizers
# (FuzzTokenizers) and Soundex codes (FuzzSoundex), the fused character
# kernels' and the interned token-set metrics' (FuzzTokenSetMetrics)
# bit-equality with each metric's Compare, the candidate index against
# the Cartesian reference (FuzzCandidateIndex), and the /v1/match and
# /v1/score request bodies
# (see scripts/fuzz_smoke.sh; FUZZTIME=1m for longer runs).
fuzz:
	GO="$(GO)" sh scripts/fuzz_smoke.sh

# Bit-identity gates, under the race detector: every paper selector
# against its frozen pre-refactor implementation, with and without a
# session's pool values, the bounded top-k pickers against the full
# sorts they replaced, sessions whose selectors read evaluation's pool
# values against the same sessions sweeping the pool, plus the
# serial-vs-parallel pins, the batched-oracle-vs-per-pair pins and the
# active-ensemble golden recorded from the pre-Session ensemble loop
# (internal/core), the one-pair-per-call pins of the BatchOracle
# contract for the per-pair adapter (internal/oracle) and for the fault
# injector and the Retrier (internal/resilience), the sorted-sweep tree split search against the frozen
# rescan and the forest's DecisionValues against its votes
# (internal/tree), the blocked neural-net Train and Margin against the
# frozen per-unit trainer and Margin, and DecisionValues against Margin
# (internal/neural), the fused linear-SVM Train and the four-row
# DecisionValues against the frozen trainer and DecisionValue
# (internal/linear), the rule model's and naive Bayes' DecisionValues
# against Predict and frozen copies of their per-row Predict and Margin
# (internal/rules, internal/bayes), ScoreAll, Decide and Matcher.Match
# against frozen copies of the per-row Score and Predict-then-Score loop
# they replaced (internal/match), and the
# indexed candidate generator against the
# brute-force blocking reference, including worker-count sweeps and
# re-Builds cancelled at every poll (internal/blocking), the fused
# character kernels against each metric's Compare and the alignment
# pass's SIMD lane path against its row path, plus batched
# featurization, float and
# Boolean, against per-pair Extract on generated pools (internal/textsim,
# internal/feature), and the fan-out's own chunk, block and poll
# contract (internal/par). `race` already covers these;
# the dedicated target keeps the refactor contracts visible and quick to
# re-run on their own.
equiv:
	$(GO) test -race -count=1 -run 'CompositionEquivalence|SerialParallelEquivalent|WorkerInvariant|BatchOracleEquivalence|EnsembleLoopEquivalence|PickersMatchLegacySort|PoolValues' ./internal/core/
	$(GO) test -race -count=1 -run 'OnePairPerCall' ./internal/oracle/ ./internal/resilience/
	$(GO) test -race -count=1 -run 'GrowMatchesLegacy|ForestDecisionValuesMatchVotes' ./internal/tree/
	$(GO) test -race -count=1 -run 'TrainMatchesLegacy|NetDecisionValuesMatchMargin' ./internal/neural/
	$(GO) test -race -count=1 -run 'SVMTrainMatchesLegacy|DecisionValuesMatchDecisionValue' ./internal/linear/
	$(GO) test -race -count=1 -run 'ModelDecisionValuesMatchPredict|NaiveBayesDecisionValuesMatchPredict' ./internal/rules/ ./internal/bayes/
	$(GO) test -race -count=1 -run 'DecideMatchesLegacyScore|MatchMatchesLegacyLoop' ./internal/match/
	$(GO) test -race -count=1 -run 'IndexEquivalence|BruteForce|HotTokenRecall|ThresholdBoundary|RebuildOverChangedTable' ./internal/blocking/
	$(GO) test -race -count=1 -run 'CharKernelsMatchCompare|AlignKernelsAgree|ExtractPairsMatchesExtract' ./internal/textsim/ ./internal/feature/
	$(GO) test -race -count=1 ./internal/par/

bench:
	$(GO) test -bench . -benchtime 1x .

# Zero-alloc hot-path ratchets, run under plain `go test` (they skip
# under -race, so the `race` target alone never exercises them): the
# per-metric Compare and extractor/scoring allocs/op budgets, the
# string-vs-interned 30% reduction floor, the warmed Candidates budget,
# the constant-allocs training fit and the featurization retention
# budget (nothing of an ExtractPairs call outlives it) — plus the
# bit-identity pins the ratchets rely on, and a -benchtime=1x smoke over
# the paired scoring benchmarks, the batched featurization benchmark,
# the fused character kernels and both alignment paths, the forest, neural-net and linear-SVM training benchmarks, the forest
# and SVM DecisionValues and neural-net Margin sweeps, the QBC selection
# pair and candidate enumeration (synthetic and dblp-scholar) so a
# broken benchmark fails `make check` rather than the next BENCH run.
bench-ratchet:
	$(GO) test -count=1 -run 'AllocRatchet|AllocReduction|AllocSteadyState|AllocsConstantPerFit|RetainsNothing|QGramLowerOnce|TokenSetMetricEquivalence|TFIDFTokenSetEquivalence|TFIDFCosineDeterministic|InternQGramsMatchesTokens|SoundexCodeEquivalence|CharKernelsMatchCompare|AlignKernelsAgree|ExtractPairsMatchesExtract|ScoreAllInternedMatchesString|TrainMatchesLegacy|LowerJoinKeyEquivalence|SortedNeighborhoodDeterministic' \
		./internal/textsim/ ./internal/feature/ ./internal/match/ ./internal/blocking/ ./internal/neural/
	$(GO) test -count=1 -run '^$$' -bench 'MatcherScoreAll' -benchtime=1x -benchmem ./internal/match/
	$(GO) test -count=1 -run '^$$' -bench 'ExtractPairs' -benchtime=1x -benchmem ./internal/feature/
	$(GO) test -count=1 -run '^$$' -bench '^BenchmarkCharKernels$$' -benchtime=1x -benchmem ./internal/textsim/
	$(GO) test -count=1 -run '^$$' -bench 'ForestTrain|ForestPredict|NeuralNetTrain|NeuralNetMargin|SVMTrain|SVMDecisionValues' -benchtime=1x -benchmem .
	$(GO) test -count=1 -run '^$$' -bench '^BenchmarkQBCSelect$$' -benchtime=1x -benchmem ./internal/core/
	$(GO) test -count=1 -run '^$$' -bench '^BenchmarkCandidates$$' -benchtime=1x -benchmem ./internal/blocking/

# Selector serial/parallel pairs, blocking naive/indexed pairs and the
# matcher string/interned pairs → BENCH_9.json (ns/op, allocs/op,
# per-path speedups at this machine's GOMAXPROCS, the algorithmic
# indexed-vs-naive speedup, and the interned-path alloc reductions with
# their 30% ratchet). Requires an effective GOMAXPROCS of at least 2.
bench-json:
	GO="$(GO)" sh scripts/bench_json.sh BENCH_9.json

# Ten alternating pairs of the end-to-end benchmark's al-large workload
# at seed 1, the last commit against its parent, each side built once in
# its own checkout under .bench_build/pairs/ (see scripts/bench_pairs.sh;
# call the script directly for other commits, workloads, seeds or pair
# counts). About ten minutes on a 2-CPU host.
bench-e2e:
	bash scripts/bench_pairs.sh HEAD~1 HEAD al-large 1 10

# The end-to-end benchmark harness's own tests. e2ebench/ is a module of
# its own, so `go test ./...` does not reach them; they run with the
# build environment e2ebench/run.sh sets (build state under
# .bench_build/e2ebench, no toolchain download, no module fetch). Among
# other things they check that a traced round learns exactly the curves
# an untraced one does.
harness:
	@out="$$(pwd)/.bench_build/e2ebench"; \
	mkdir -p "$$out/gocache" "$$out/gotmp" "$$out/gomodcache" "$$out/config"; \
	GOCACHE="$$out/gocache" GOTMPDIR="$$out/gotmp" GOMODCACHE="$$out/gomodcache" \
	XDG_CONFIG_HOME="$$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
	GOFLAGS=-mod=mod CGO_ENABLED=0 $(GO) -C e2ebench test -count=1 .

# Seeded fault-injection suite: kill/resume bit-identity (active-ensemble
# runs included, resumed from every step boundary), oracle stall
# termination, panic containment, breaker lifecycle, hot model swaps
# under load, corrupt-artifact swap rejection, per-tenant admission
# isolation — all deterministic (seeded faults, gated learners).
chaos:
	$(GO) test -race -run Chaos ./...

# End-to-end train → save → serve → hot-swap loop: builds almatch +
# almserve + almload, trains two small models, serves one on a random
# port, hits /healthz and /v1/match, swaps to the second mid-traffic
# asserting zero non-2xx, and asserts SIGTERM drains cleanly.
serve-smoke:
	GO="$(GO)" sh scripts/serve_smoke.sh

# Ctrl-C resume drill: trains a cora model uninterrupted, trains it again
# with -checkpoint and SIGINT at iteration 10 (mid-round under flaky
# labeling), resumes with -resume -workers 1 and asserts the two saved
# models are byte-identical, so the resume path is also checked across
# worker counts (see scripts/resume_drill.sh). About 15 s.
resume-drill:
	GO="$(GO)" sh scripts/resume_drill.sh
