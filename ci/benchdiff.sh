#!/bin/sh
# benchdiff: regression gate for the simulator/snapstore/sanserve hot
# paths.
#
# Runs the gated benchmarks (BENCHDIFF_COUNT times each, keeping the
# fastest run to filter scheduler noise) and compares ns/op against the
# committed BENCH_baseline.json.  A benchmark more than
# BENCHDIFF_THRESHOLD percent slower than its baseline fails the gate;
# new benchmarks missing from the baseline fail too, so the baseline
# cannot silently rot.  Comparisons are best-of-BENCHDIFF_ATTEMPTS:
# when the gate fails, only the still-failing benchmarks are re-run
# (folding in new minima) before the verdict, so one noisy scheduling
# window on a shared runner does not flake CI.
#
#   sh ci/benchdiff.sh            compare against BENCH_baseline.json
#   sh ci/benchdiff.sh -update    rewrite BENCH_baseline.json
#
# The run starts with a host-stamp line (nproc, go version, CPU model
# and the -cpu setting) and warns, without failing, when the host has
# fewer cores than -cpu.
#
# The committed baseline is recorded on one machine; when CI hardware
# differs materially, loosen the gate with BENCHDIFF_THRESHOLD instead
# of re-baselining from a noisy runner.
set -eu

THRESHOLD=${BENCHDIFF_THRESHOLD:-20}
COUNT=${BENCHDIFF_COUNT:-5}
ATTEMPTS=${BENCHDIFF_ATTEMPTS:-3}
BENCHTIME=${BENCHDIFF_BENCHTIME:-1s}
BASELINE=BENCH_baseline.json
CPUS=4

SNAPSTORE_BENCHES='^(BenchmarkTimelineLoad|BenchmarkTimelineMap)$'
SANSERVE_BENCHES='^(BenchmarkCachedFigureRequest|BenchmarkCachedCompareRequest|BenchmarkSnapshotStats|BenchmarkStreamRows)$'
# The incremental dataset build (the first-touch cost of a sanserve
# mount) and the simulator core (BenchmarkSimulate: quick-scale
# RunTimelines with its allocation ceiling; BenchmarkStreamPack: the
# same simulation streamed through a StreamWriter to a finalized
# on-disk timeline, the `sangen -stream-out` kernel; BenchmarkSweep:
# the parallel scenario sweep).  The recompute twin is benchmarked too
# so the committed baseline documents the fold's speedup ratio and a
# regression in either path trips the gate.  StreamPackBoth is the
# full+view stream (simulate, crawl view, two delta encodes).
ROOT_BENCHES='^(BenchmarkDatasetBuild|BenchmarkDatasetBuildRecompute|BenchmarkSimulate|BenchmarkStreamPack|BenchmarkStreamPackBoth|BenchmarkSweep)$'

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

# collect folds the accumulated raw `go test -bench` output into
# "name min_ns" pairs: strip the -cpu suffix and keep the fastest of
# all runs so far (including retry attempts).
collect() {
  awk '/^Benchmark/ && / ns\/op/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = $3
    if (!(name in best) || ns + 0 < best[name] + 0) best[name] = ns
  }
  END { for (n in best) print n, best[n] }' "$raw" | sort
}

# Host stamp: the numbers below mean something only next to the host
# they were taken on.  Fewer cores than -cpu oversubscribes the host,
# which the gate tolerates but the reader should know about.
ncpu=$(nproc)
model=$(awk -F': *' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)
echo "benchdiff: host nproc=$ncpu go=$(go env GOVERSION) cpu=\"${model:-unknown}\" -cpu $CPUS"
if [ "$ncpu" -lt "$CPUS" ]; then
  echo "benchdiff: warning: nproc $ncpu < $CPUS: -cpu $CPUS oversubscribes this host; timings are not comparable to a $CPUS-core host" >&2
fi

echo "benchdiff: running hot-path benchmarks ($COUNT x $BENCHTIME each, -cpu $CPUS)"
go test -run '^$' -bench "$SNAPSTORE_BENCHES" -benchtime "$BENCHTIME" -count "$COUNT" -cpu "$CPUS" ./internal/snapstore >>"$raw"
go test -run '^$' -bench "$SANSERVE_BENCHES" -benchtime "$BENCHTIME" -count "$COUNT" -cpu "$CPUS" ./internal/sanserve >>"$raw"
go test -run '^$' -bench "$ROOT_BENCHES" -benchtime "$BENCHTIME" -count "$COUNT" -cpu "$CPUS" . >>"$raw"

current=$(collect)

if [ -z "$current" ]; then
  echo "benchdiff: no benchmark output parsed"
  exit 1
fi

if [ "${1:-}" = "-update" ]; then
  {
    echo '{'
    echo "$current" | awk 'NR > 1 { printf ",\n" } { printf "  \"%s\": %s", $1, $2 }'
    printf '\n}\n'
  } >"$BASELINE"
  echo "benchdiff: wrote $BASELINE"
  echo "$current" | awk '{ printf "  %-34s %12.0f ns/op\n", $1, $2 }'
  exit 0
fi

if [ ! -f "$BASELINE" ]; then
  echo "benchdiff: missing $BASELINE (create with: sh ci/benchdiff.sh -update)"
  exit 1
fi

# compare prints the verdict table for $current and emits the names of
# benchmarks over threshold (missing baseline entries fail immediately
# and are not retried — re-running cannot fix a stale baseline).
compare() {
  for name in $(echo "$current" | awk '{ print $1 }'); do
    now=$(echo "$current" | awk -v n="$name" '$1 == n { print $2 }')
    base=$(awk -v n="\"$name\"" '$0 ~ n { gsub(/[",:]/, " "); print $2 }' "$BASELINE")
    if [ -z "$base" ]; then
      echo "benchdiff: $name has no baseline entry (re-run: sh ci/benchdiff.sh -update)" >&2
      echo "MISSING"
      continue
    fi
    verdict=$(awk -v now="$now" -v base="$base" -v thr="$THRESHOLD" 'BEGIN {
      delta = (now - base) / base * 100
      printf "%+.1f%%", delta
      exit (delta > thr) ? 1 : 0
    }') && ok=1 || ok=0
    printf "  %-34s %12.0f ns/op  baseline %12.0f  (%s)\n" "$name" "$now" "$base" "$verdict" >&2
    if [ "$ok" -eq 0 ]; then
      echo "$name"
    fi
  done
}

attempt=1
failing=$(compare)
while [ -n "$failing" ] && ! echo "$failing" | grep -q MISSING && [ "$attempt" -lt "$ATTEMPTS" ]; do
  attempt=$((attempt + 1))
  regex="^($(echo "$failing" | paste -sd'|' -))$"
  echo "benchdiff: retrying over-threshold benchmarks (attempt $attempt/$ATTEMPTS): $regex"
  go test -run '^$' -bench "$regex" -benchtime "$BENCHTIME" -count "$COUNT" -cpu "$CPUS" ./internal/snapstore ./internal/sanserve . >>"$raw" 2>/dev/null || true
  current=$(collect)
  failing=$(compare)
done

if [ -n "$failing" ]; then
  for name in $failing; do
    [ "$name" = MISSING ] || echo "benchdiff: $name regressed more than ${THRESHOLD}% over baseline (best of $attempt attempts)"
  done
  echo "benchdiff: FAILED"
  exit 1
fi

echo "benchdiff: OK (threshold ${THRESHOLD}%, best of $attempt attempt(s))"
