#!/bin/sh
# docscheck: fail if README.md or DESIGN.md reference a package,
# binary, CLI flag, test or benchmark that no longer exists in the tree.
#
# Four checks:
#   1. every internal/<pkg>, cmd/<bin>, examples/<name> path mentioned
#      in the docs must be a directory;
#   2. every `-flag` token on a doc line that names a cmd/ binary must
#      be defined (as a quoted flag name) in that binary's source;
#   3. every backtick-quoted `-flag` must be defined by some cmd/ binary;
#   4. every Test*, Benchmark* or Fuzz* name must be defined by some
#      _test.go file.
#
# Run from the repository root: sh ci/docscheck.sh
set -u

fail=0
docs="README.md DESIGN.md"

for doc in $docs; do
  [ -f "$doc" ] || { echo "docscheck: missing $doc"; fail=1; }
done

# --- 1: package / binary / example paths --------------------------
for path in $(grep -ohE '(internal|cmd|examples)/[a-z_]+' $docs | sort -u); do
  if [ ! -d "$path" ]; then
    echo "docscheck: docs mention $path but no such directory exists"
    fail=1
  fi
done

# --- 2: CLI flags on lines naming a binary ------------------------
for dir in cmd/*/; do
  bin=$(basename "$dir")
  # Tokens like ` -flag` or `` `-flag `` on lines mentioning the
  # binary, including multi-word names like -max-builds; a letter
  # before the dash (as in "delta-encoded") does not match, so prose
  # hyphens are ignored.
  flags=$(grep -h "$bin" $docs | grep -oE '(^|[ `(])-[a-z][a-z0-9]*(-[a-z0-9]+)*' | tr -d ' `(' | sort -u)
  for flagtok in $flags; do
    name=${flagtok#-}
    if ! grep -qE "\"$name\"" "$dir"*.go; then
      echo "docscheck: docs mention $bin flag -$name but $dir defines no such flag"
      fail=1
    fi
  done
done

# --- 3: backtick-quoted flags anywhere in the docs ----------------
# `-flag` spans are flag references even on lines that do not name
# their binary; each must be defined by at least one cmd/ binary.
for flagtok in $(grep -ohE '`-[a-z][a-z0-9]*(-[a-z0-9]+)*`' $docs | tr -d '`' | sort -u); do
  name=${flagtok#-}
  if ! grep -qE "\"$name\"" cmd/*/*.go; then
    echo "docscheck: docs mention flag -$name but no cmd/ binary defines it"
    fail=1
  fi
done

# --- 4: test, benchmark and fuzz target names ---------------------
for name in $(grep -ohE '\b(Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9_]*' $docs | sort -u); do
  if ! grep -rqE "^func $name\(" --include='*_test.go' --exclude-dir=.bench_build .; then
    echo "docscheck: docs mention $name but no _test.go file defines it"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "docscheck: FAILED"
  exit 1
fi
echo "docscheck: OK"
