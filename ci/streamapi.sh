#!/bin/sh
# streamapi: end-to-end smoke of the /v1/stream evolution API over a
# real socket.  Packs a quick 98-day timeline pair (full SAN plus the
# -observed crawl view), starts sanserve on the pair, and asserts
# (1) a full NDJSON stream serves one row per day plus a terminal done
# record with the right row count, (2) a from=20&to=75 walk is exactly
# lines 20-75 of the full walk plus {"done":true,"rows":56}, (3) the
# summaries-only walk is the metrics walk with each row's "metrics"
# object stripped, (4) /v1/snapshots/stats?days=1-N&source=view serves
# one record per day whose node and link totals equal the summaries
# walk's, and /v1/snapshots/N/stats?source=view equals its last record,
# (5) killing the client mid-stream is noticed by the server and
# counted in sanserve_streams_canceled_total.  Concurrent
# full walks on a single-file mount, each ending in its done record,
# are checked by TestConcurrentStreamWalks in cmd/sanserve (the
# load-smoke CI job).
#
# Run from the repository root: sh ci/streamapi.sh
set -eu

SCALE=${SCALE:-40}
PORT=${PORT:-18766}
BASE="http://127.0.0.1:$PORT"

tmp=$(mktemp -d)
SRV_PID=""
cleanup() {
  [ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

fail() {
  echo "streamapi: FAIL: $1" >&2
  exit 1
}

echo "streamapi: packing a scale-$SCALE timeline pair"
go run ./cmd/sanstore pack -out "$tmp/gplus.tl" -scale "$SCALE" -seed 7 >/dev/null
go run ./cmd/sanstore pack -out "$tmp/view.tl" -scale "$SCALE" -seed 7 -observed >/dev/null

echo "streamapi: building and starting sanserve on :$PORT"
go build -o "$tmp/sanserve" ./cmd/sanserve
"$tmp/sanserve" -mount "gplus=$tmp/gplus.tl,$tmp/view.tl" -addr "127.0.0.1:$PORT" >"$tmp/srv.log" 2>&1 &
SRV_PID=$!

i=0
until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
  i=$((i + 1))
  [ "$i" -gt 100 ] && { cat "$tmp/srv.log" >&2; fail "server never became healthy"; }
  sleep 0.1
done

DAYS=$(curl -fsS "$BASE/v1/timelines" | sed -n 's/.*"days":\([0-9]*\).*/\1/p')
[ -n "$DAYS" ] || fail "could not read day count from /v1/timelines"
echo "streamapi: streaming all $DAYS days as NDJSON (with folded metrics)"
curl -fsSN "$BASE/v1/stream/gplus?metrics=cc,recip" >"$tmp/stream.ndjson"

rows=$(grep -c '^{"day"' "$tmp/stream.ndjson" || true)
[ "$rows" = "$DAYS" ] || fail "streamed $rows rows, want $DAYS"
grep -q "\"done\":true,\"rows\":$DAYS" "$tmp/stream.ndjson" || fail "terminal done record missing or wrong row count"
grep -q '"metrics":{.*"cc":' "$tmp/stream.ndjson" || fail "rows carry no folded cc metric"

echo "streamapi: checking a ranged walk and the summaries-only walk against the full walk"
curl -fsSN "$BASE/v1/stream/gplus" >"$tmp/summaries.ndjson"
curl -fsSN "$BASE/v1/stream/gplus?from=20&to=75" >"$tmp/ranged.ndjson"
{ sed -n '20,75p' "$tmp/summaries.ndjson"; echo '{"done":true,"rows":56}'; } >"$tmp/ranged.want"
cmp -s "$tmp/ranged.ndjson" "$tmp/ranged.want" || fail "from=20&to=75 walk is not lines 20-75 of the full walk plus done"
# A heartbeat can land while the metrics walk waits on the mount's build.
sed -e '/"heartbeat":true/d' -e 's/,"metrics":{[^}]*}//' "$tmp/stream.ndjson" >"$tmp/stripped.ndjson"
cmp -s "$tmp/summaries.ndjson" "$tmp/stripped.ndjson" || fail "summaries-only walk differs from the metrics walk with metrics stripped"

echo "streamapi: checking view snapshot stats against the summaries walk"
# totals prints "day social_nodes social_links attr_nodes attr_links"
# for every record of its input that carries them.
totals() {
  sed -n 's/.*"day":\([0-9]*\),.*"social_nodes":\([0-9]*\),"social_links":\([0-9]*\),"attr_nodes":\([0-9]*\),"attr_links":\([0-9]*\).*/\1 \2 \3 \4 \5/p' "$1"
}
curl -fsS "$BASE/v1/snapshots/stats?days=1-$DAYS&source=view" |
  sed -e 's/^{"stats":\[//' -e 's/\]}$//' -e 's/},{/}\
{/g' >"$tmp/snapstats.ndjson"
rows=$(grep -c '^{"timeline"' "$tmp/snapstats.ndjson" || true)
[ "$rows" = "$DAYS" ] || fail "snapshot stats sweep served $rows records, want $DAYS"
totals "$tmp/snapstats.ndjson" >"$tmp/snapstats.totals"
totals "$tmp/summaries.ndjson" >"$tmp/summaries.totals"
[ "$(wc -l <"$tmp/snapstats.totals")" -eq "$DAYS" ] || fail "could not read node and link totals from the snapshot stats records"
cmp -s "$tmp/snapstats.totals" "$tmp/summaries.totals" || fail "snapshot stats totals differ from the summaries walk"
curl -fsS "$BASE/v1/snapshots/$DAYS/stats?source=view" >"$tmp/lastday.json"
tail -n 1 "$tmp/snapstats.ndjson" | cmp -s - "$tmp/lastday.json" || fail "/v1/snapshots/$DAYS/stats differs from the sweep's last record"

echo "streamapi: killing a client mid-stream (paced walk)"
curl -fsSN "$BASE/v1/stream/gplus?pace=200" >"$tmp/partial.ndjson" 2>/dev/null &
CURL_PID=$!
sleep 1
kill "$CURL_PID" 2>/dev/null || true
wait "$CURL_PID" 2>/dev/null || true

# The server notices the dead socket at its next row write; poll the
# cancellation counter rather than racing it.
i=0
until curl -fsS "$BASE/metrics" | grep -Eq '^sanserve_streams_canceled_total [1-9]'; do
  i=$((i + 1))
  [ "$i" -gt 50 ] && {
    curl -fsS "$BASE/metrics" | grep '^sanserve_streams' >&2 || true
    fail "sanserve_streams_canceled_total never became positive after client kill"
  }
  sleep 0.2
done
curl -fsS "$BASE/metrics" >"$tmp/metrics.txt"
grep -Eq '^sanserve_streams_total [1-9]' "$tmp/metrics.txt" || fail "sanserve_streams_total not positive"
grep -Eq '^sanserve_stream_rows_total [1-9]' "$tmp/metrics.txt" || fail "sanserve_stream_rows_total not positive"
grep -q '^sanserve_streams_active 0' "$tmp/metrics.txt" || fail "canceled stream still counted active"

echo "streamapi: OK"
