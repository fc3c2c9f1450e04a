#!/usr/bin/env bash
# bench_pairs.sh — alternating paired runs of the end-to-end benchmark
# (e2ebench) between two commits.
#
# Usage: bash scripts/bench_pairs.sh BASE HEAD WORKLOAD SEED N
#
#   BASE, HEAD  commits (anything `git rev-parse` resolves)
#   WORKLOAD    an e2ebench workload: al-large, al-small-priced, serve-mixed
#   SEED        the --seed every run uses
#   N           number of pairs
#
# Each side gets its own checkout of its commit (`git archive`) under
# .bench_build/pairs/, and its e2ebench binary is built there once, with
# the environment e2ebench/run.sh sets. The two sides are separate
# checkouts and builds even when BASE and HEAD name one commit, so
# `BASE = HEAD` measures how far two builds of the same source differ.
# The script then runs N pairs at `--seconds 15 --trace 0` (the
# benchmark's run length), base first in odd pairs and head first in
# even ones, and keeps every run's output under
# .bench_build/pairs/runs/.
#
# It prints one line per run (CPU steal share and every end-to-end
# metric), whether the first-round curve digests of all runs agree (AL
# workloads), and per metric: each side's median and IQR (first and
# third quartile, linear interpolation), HEAD's change of the median,
# that change as a multiple of BASE's IQR, and the pairs in which HEAD
# was better. Metric names and directions come from BENCHMARK.json. It
# exits non-zero as soon as a run fails or reports a failed output.
#
# It also writes the set as JSON to summary.json in the runs directory:
# the BASE and HEAD commits, the workload, the seed and N; per run its
# pair, side, order within the pair (1 or 2), digest, e2ebench host
# object (commit, source_sha256, cpu_steal_frac, gomaxprocs, ...),
# failed and attempted counts and end-to-end metrics; per metric its
# direction, each side's median, Q1 and Q3, change_frac ((head median -
# base median) / base median), gap_base_iqrs, head_wins and ties; and
# digests_agree (null when the workload reports no curve digests).

set -euo pipefail

if [ $# -ne 5 ]; then
    echo "usage: bash scripts/bench_pairs.sh BASE HEAD WORKLOAD SEED N" >&2
    exit 2
fi
WORKLOAD=$3 SEED=$4 N=$5
case $N in '' | *[!0-9]* | 0)
    echo "bench_pairs: N must be a positive integer, got '$N'" >&2
    exit 2
    ;;
esac

cd "$(dirname "$0")/.."
root=$(pwd)
base_sha=$(git rev-parse --verify "$1^{commit}")
head_sha=$(git rev-parse --verify "$2^{commit}")
pairs="$root/.bench_build/pairs"
runs="$pairs/runs/$WORKLOAD-seed$SEED-$(date -u +%Y%m%dT%H%M%SZ)"
mkdir -p "$runs"

# e2ebench/run.sh's environment: build state inside the checkout, no
# toolchain download, no module fetch.
bench_env() {
    local out="$1/.bench_build/e2ebench"
    mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config"
    export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
    export XDG_CONFIG_HOME="$out/config"
    export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod CGO_ENABLED=0
}

# checkout SIDE SHA prints the side's checkout, extracting it and
# building its binary on first use.
checkout() {
    local src="$pairs/$1-$2"
    if [ ! -x "$src/.bench_build/e2ebench/e2ebench" ]; then
        rm -rf "$src"
        mkdir -p "$src"
        git archive "$2" | tar -x -C "$src"
        (bench_env "$src" && go -C "$src/e2ebench" build -o "$src/.bench_build/e2ebench/e2ebench" .) >&2
    fi
    echo "$src"
}

echo "bench_pairs: building base $base_sha and head $head_sha" >&2
base_src=$(checkout base "$base_sha")
head_src=$(checkout head "$head_sha")

# run SIDE PAIR runs one side once; its result line is the last line of
# its .out file.
run() {
    local src=$base_src
    [ "$1" = head ] && src=$head_src
    local out="$runs/$1-$2.out" err="$runs/$1-$2.err"
    if ! (cd "$src" && bench_env "$src" &&
        exec "$src/.bench_build/e2ebench/e2ebench" -root "$src" \
            --workload "$WORKLOAD" --seed "$SEED" --seconds 15 --trace 0) >"$out" 2>"$err"; then
        echo "bench_pairs: $1 run of pair $2 failed (exit status or output checks):" >&2
        tail -n 20 "$err" >&2
        exit 1
    fi
    if ! tail -n 1 "$out" | grep -q '"failed":0,'; then
        echo "bench_pairs: $1 run of pair $2 reports failed operations:" >&2
        tail -n 1 "$out" >&2
        exit 1
    fi
}

for i in $(seq 1 "$N"); do
    if [ $((i % 2)) -eq 1 ]; then
        run base "$i"
        run head "$i"
    else
        run head "$i"
        run base "$i"
    fi
    echo "bench_pairs: pair $i of $N done" >&2
done

# Metric names and directions, in BENCHMARK.json order.
metrics=$(awk '
    /"end_to_end"/ { on = 1 }
    /"per_layer"/ { on = 0 }
    on && /"name"/ { name = $0; sub(/.*"name": *"/, "", name); sub(/".*/, "", name) }
    on && /"better"/ { b = $0; sub(/.*"better": *"/, "", b); sub(/".*/, "", b); print name, b }
' BENCHMARK.json)

echo
echo "bench_pairs: $WORKLOAD seed $SEED, $N pairs, base $base_sha, head $head_sha"
echo "bench_pairs: runs kept in $runs"
# One tab-separated RUN line per run (side, pair, order, steal, digest,
# host object, result line), then one METRIC line per metric.
{
    for i in $(seq 1 "$N"); do
        for side in base head; do
            first=base
            [ $((i % 2)) -eq 0 ] && first=head
            host=$(tail -n 2 "$runs/$side-$i.out" | head -n 1)
            steal=$(printf '%s' "$host" | grep -o '"cpu_steal_frac":[^,}]*' | cut -d: -f2 || true)
            digest=$(grep -o 'first-round digests .*' "$runs/$side-$i.out" | head -n 1 || true)
            if [ -n "$digest" ]; then
                digest=$(printf '%s' "$digest" | cksum | cut -d' ' -f1)
            fi
            host=${host#'{"host":'}
            printf 'RUN\t%s\t%d\t%s\t%s\t%s\t%s\t%s\n' "$side" "$i" \
                "$([ "$side" = "$first" ] && echo 1 || echo 2)" "${steal:-nan}" "${digest:-none}" \
                "${host%'}'}" "$(tail -n 1 "$runs/$side-$i.out")"
        done
    done
    printf '%s\n' "$metrics" | sed 's/^/METRIC /' | tr ' ' '\t'
} | awk -F'\t' -v npairs="$N" -v summary="$runs/summary.json" \
    -v base_sha="$base_sha" -v head_sha="$head_sha" -v workload="$WORKLOAD" -v seed="$SEED" '
function q(arr, n, p,    h, lo) {
    h = (n - 1) * p
    lo = int(h)
    if (lo + 1 >= n) return arr[n - 1]
    return arr[lo] + (h - lo) * (arr[lo + 1] - arr[lo])
}
function sortn(arr, n,    i, j, t) {
    for (i = 1; i < n; i++)
        for (j = i; j > 0 && arr[j - 1] > arr[j]; j--) { t = arr[j]; arr[j] = arr[j - 1]; arr[j - 1] = t }
}
function num(v) { return (v == "nan" || v == "") ? "null" : sprintf("%.10g", v) }
$1 == "RUN" {
    nl++
    side[nl] = $2; pair[nl] = $3; order[nl] = $4; steal[nl] = $5; digest[nl] = $6
    host[nl] = $7; res[nl] = $8
    digests[$6] = 1
    next
}
$1 == "METRIC" { names[++nm] = $2; better[$2] = $3 }
END {
    nd = 0
    for (d in digests) nd++
    for (l = 1; l <= nl; l++) {
        out = sprintf("pair %2d %s (%s) steal=%.3f", pair[l], side[l], order[l] == 1 ? "1st" : "2nd", steal[l])
        mj = ""
        for (m = 1; m <= nm; m++) {
            v = value(res[l], names[m])
            val[side[l], pair[l], names[m]] = v
            out = out sprintf(" %s=%.6g", names[m], v)
            mj = mj sprintf("%s\"%s\": %s", m > 1 ? ", " : "", names[m], num(v))
        }
        print out
        runs_json = runs_json sprintf("%s\n    {\"pair\": %d, \"side\": \"%s\", \"order\": %d, \"digest\": \"%s\", \"host\": %s, \"failed\": %s, \"attempted\": %s, \"metrics\": {%s}}",
            l > 1 ? "," : "", pair[l], side[l], order[l], digest[l], host[l], field(res[l], "failed"), field(res[l], "attempted"), mj)
    }
    print ""
    agree = (nd == 1) ? (("none" in digests) ? "null" : "true") : "false"
    if (("none" in digests) && nd == 1) print "first-round curve digests: none (not an AL workload)"
    else if (nd == 1) print "first-round curve digests: all " nl " runs agree"
    else print "first-round curve digests: DIFFER (" nd " distinct values over " nl " runs)"
    print ""
    printf "%-18s %-6s %-34s %-34s %8s %8s %s\n", "metric", "better", "base median [Q1, Q3]", "head median [Q1, Q3]", "change", "/baseIQR", "head wins"
    for (m = 1; m <= nm; m++) {
        name = names[m]
        for (p = 1; p <= npairs; p++) { b[p - 1] = val["base", p, name] + 0; h[p - 1] = val["head", p, name] + 0 }
        wins = 0; ties = 0
        for (p = 0; p < npairs; p++) {
            if (h[p] == b[p]) ties++
            else if ((better[name] == "lower") == (h[p] < b[p])) wins++
        }
        sortn(b, npairs); sortn(h, npairs)
        bm = q(b, npairs, 0.5); hm = q(h, npairs, 0.5)
        bq1 = q(b, npairs, 0.25); bq3 = q(b, npairs, 0.75)
        hq1 = q(h, npairs, 0.25); hq3 = q(h, npairs, 0.75)
        biqr = bq3 - bq1
        change = (bm != 0) ? sprintf("%+.1f%%", 100 * (hm - bm) / bm) : "n/a"
        gap = (biqr > 0) ? sprintf("%.1fx", (hm > bm ? hm - bm : bm - hm) / biqr) : "n/a"
        printf "%-18s %-6s %-34s %-34s %8s %8s %d/%d (ties %d)\n", name, better[name],
            sprintf("%.6g [%.6g, %.6g]", bm, bq1, bq3),
            sprintf("%.6g [%.6g, %.6g]", hm, hq1, hq3),
            change, gap, wins, npairs, ties
        metrics_json = metrics_json sprintf("%s\n    {\"name\": \"%s\", \"better\": \"%s\", \"base\": {\"median\": %s, \"q1\": %s, \"q3\": %s}, \"head\": {\"median\": %s, \"q1\": %s, \"q3\": %s}, \"change_frac\": %s, \"gap_base_iqrs\": %s, \"head_wins\": %d, \"ties\": %d}",
            m > 1 ? "," : "", name, better[name], num(bm), num(bq1), num(bq3), num(hm), num(hq1), num(hq3),
            (bm != 0) ? num((hm - bm) / bm) : "null",
            (biqr > 0) ? num((hm > bm ? hm - bm : bm - hm) / biqr) : "null", wins, ties)
    }
    printf "{\n  \"base\": \"%s\",\n  \"head\": \"%s\",\n  \"workload\": \"%s\",\n  \"seed\": %d,\n  \"pairs\": %d,\n  \"digests_agree\": %s,\n  \"runs\": [%s\n  ],\n  \"metrics\": [%s\n  ]\n}\n",
        base_sha, head_sha, workload, seed, npairs, agree, runs_json, metrics_json > summary
    close(summary)
    print ""
    print "bench_pairs: summary written to " summary
}
function value(line, name,    s) {
    if (!match(line, "\"" name "\":\\{\"value\":[^,}]*")) return "nan"
    s = substr(line, RSTART, RLENGTH)
    sub(/.*"value":/, "", s)
    return s
}
function field(line, name,    s) {
    if (!match(line, "\"" name "\":[0-9]+")) return "null"
    s = substr(line, RSTART, RLENGTH)
    sub(/.*:/, "", s)
    return s
}'
