#!/bin/sh
# streamsmoke: the bounded-RSS streaming smoke at CI scale.
#
# Runs the slow-tagged crawl-scale acceptance test
# (TestStreamCrawlScaleBoundedRSS in cmd/sangen) with the scale knobs
# dialed down so it finishes in CI minutes instead of hours: a streamed
# `sangen -stream-out` run, an interrupted twin resumed from its
# checkpoint (must be bitwise-identical), and a peak-RSS budget that a
# full-timeline-in-memory regression would blow through.
#
#   sh ci/streamsmoke.sh
#
# The full-scale run (DailyBase 150000 -> ~5.1M users, default budget
# 24 GiB) is the same test with the env knobs left unset:
#
#   go test -tags slow -run TestStreamCrawlScaleBoundedRSS -timeout 12h ./cmd/sangen
set -eu

: "${SAN_STREAM_DAILY:=4000}"
: "${SAN_STREAM_RSS_MB:=2048}"
export SAN_STREAM_DAILY SAN_STREAM_RSS_MB

echo "streamsmoke: DailyBase $SAN_STREAM_DAILY, RSS budget ${SAN_STREAM_RSS_MB} MiB"
go test -tags slow -run 'TestStreamCrawlScaleBoundedRSS$' -count=1 -v -timeout 30m ./cmd/sangen
echo "streamsmoke: OK"
