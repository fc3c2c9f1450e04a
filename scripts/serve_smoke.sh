#!/bin/sh
# serve_smoke.sh — the train → save → serve → hot-swap loop, end to end:
# build the CLIs, train two small models, start almserve with the admin
# API on a random port, hit /healthz and /v1/match, then drive sustained
# /v1/score traffic with almload while publishing and activating the
# second model mid-run — asserting zero non-2xx responses across the
# swap — and finally SIGTERM and assert a clean drain.
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
srv_pid=
cleanup() {
    [ -n "$srv_pid" ] && kill "$srv_pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "serve-smoke: building almatch + almserve + almload"
$GO build -o "$tmp/almatch" ./cmd/almatch
$GO build -o "$tmp/almserve" ./cmd/almserve
$GO build -o "$tmp/almload" ./cmd/almload

echo "serve-smoke: training two small beer models"
"$tmp/almatch" -mode train -dataset beer -scale 0.5 -trees 5 -maxlabels 60 \
    -model "$tmp/model.json" >/dev/null
"$tmp/almatch" -mode train -dataset beer -scale 0.5 -trees 7 -maxlabels 60 \
    -model "$tmp/model2.json" >/dev/null

# -shed-watermark 0 turns overload shedding off: this smoke asserts the
# hot swap itself loses nothing, so a slow CI box must not inject 429s.
# The log exists before almserve starts: the poll below may read it
# before the backgrounded redirection has opened it.
: >"$tmp/serve.log"
"$tmp/almserve" -model "$tmp/model.json" -addr 127.0.0.1:0 -admin \
    -shed-watermark 0 -log 2>"$tmp/serve.log" &
srv_pid=$!

# almserve prints "listening on <addr>" once the listener is bound.
addr=
i=0
while [ $i -lt 100 ]; do
    addr=$(sed -n 's/.*listening on //p' "$tmp/serve.log" | head -n 1)
    [ -n "$addr" ] && break
    kill -0 "$srv_pid" 2>/dev/null || { echo "serve-smoke: almserve died at startup" >&2; cat "$tmp/serve.log" >&2; exit 1; }
    i=$((i + 1))
    sleep 0.1
done
[ -n "$addr" ] || { echo "serve-smoke: almserve never reported its address" >&2; cat "$tmp/serve.log" >&2; exit 1; }
echo "serve-smoke: almserve up on $addr"

health=$(curl -fsS "http://$addr/healthz")
case "$health" in
*'"status":"ok"'*) ;;
*) echo "serve-smoke: unexpected /healthz body: $health" >&2; exit 1 ;;
esac

# One /v1/match round trip: identical single-row tables guarantee the
# pair survives blocking at any threshold; we assert the request is
# served, not the prediction.
cat >"$tmp/match.json" <<'JSON'
{
  "left": {
    "schema": ["beer_name", "brew_factory_name", "style", "ABV"],
    "rows": [{"id": "l0", "values": ["golden trail ipa", "cascade brewing", "ipa", "6.2"]}]
  },
  "right": {
    "schema": ["beer_name", "brew_factory_name", "style", "ABV"],
    "rows": [{"id": "r0", "values": ["golden trail ipa", "cascade brewing", "ipa", "6.2"]}]
  }
}
JSON
match=$(curl -fsS -X POST -H 'Content-Type: application/json' \
    --data @"$tmp/match.json" "http://$addr/v1/match")
case "$match" in
*'"candidates":1'*) ;;
*) echo "serve-smoke: unexpected /v1/match body: $match" >&2; exit 1 ;;
esac
echo "serve-smoke: /v1/match ok"

# Hot swap under load: almload drives /v1/score while we publish and
# activate the second model mid-run. -fail-non2xx makes any dropped or
# shed request fail the smoke.
echo "serve-smoke: starting almload, swapping to v2 mid-traffic"
"$tmp/almload" -addr "http://$addr" -qps 100 -duration 4s -concurrency 4 \
    -vectors 8 -tenants alpha,beta -fail-non2xx >"$tmp/load.out" 2>&1 &
load_pid=$!
sleep 1
swap=$(curl -fsS -X POST -H 'Content-Type: application/json' \
    --data-binary @"$tmp/model2.json" \
    "http://$addr/v1/models?id=v2&activate=true")
case "$swap" in
*'"activated":true'*) ;;
*) echo "serve-smoke: unexpected publish response: $swap" >&2; exit 1 ;;
esac
wait "$load_pid" && load_status=0 || load_status=$?
cat "$tmp/load.out"
[ "$load_status" -eq 0 ] || { echo "serve-smoke: almload saw non-2xx responses across the swap" >&2; exit 1; }
grep -q 'non2xx=0' "$tmp/load.out" || { echo "serve-smoke: missing non2xx=0 in almload report" >&2; exit 1; }

health=$(curl -fsS "http://$addr/healthz")
case "$health" in
*'"status":"ok"'*) ;;
*) echo "serve-smoke: /healthz not ok after swap: $health" >&2; exit 1 ;;
esac
case "$health" in
*'"active":"v2"'*) ;;
*) echo "serve-smoke: v2 not active after swap: $health" >&2; exit 1 ;;
esac
echo "serve-smoke: hot swap under load ok (zero non-2xx, v2 active)"

kill -TERM "$srv_pid"
i=0
while kill -0 "$srv_pid" 2>/dev/null; do
    i=$((i + 1))
    [ $i -gt 100 ] && { echo "serve-smoke: almserve did not drain within 10s" >&2; exit 1; }
    sleep 0.1
done
wait "$srv_pid" 2>/dev/null && status=0 || status=$?
srv_pid=
[ "$status" -eq 0 ] || { echo "serve-smoke: almserve exited $status on SIGTERM" >&2; cat "$tmp/serve.log" >&2; exit 1; }
grep -q 'serve stop' "$tmp/serve.log" || { echo "serve-smoke: no drain trace in event log" >&2; cat "$tmp/serve.log" >&2; exit 1; }
echo "serve-smoke: clean shutdown"
