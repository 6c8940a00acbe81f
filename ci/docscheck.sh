#!/bin/sh
# docscheck: fail if README.md or DESIGN.md reference a package,
# binary, CLI flag, test or benchmark that no longer exists in the tree.
#
# Six checks:
#   1. every internal/<pkg>, cmd/<bin>, examples/<name> path mentioned
#      in the docs must be a directory;
#   2. every `-flag` token on a doc line that names a cmd/ binary must
#      be defined (as a quoted flag name) in that binary's source;
#   3. every backtick-quoted `-flag` must be defined by some cmd/ binary;
#   4. every Test*, Benchmark* or Fuzz* name must be defined by some
#      _test.go file;
#   5. every backtick-quoted `pkg.Ident` whose pkg is a directory under
#      internal/ must name a func, method, type, var or const declared
#      in that package's non-test files;
#   6. every backtick-quoted `Type.Ident` whose Type is an exported
#      type declared under internal/ must name a method, struct field
#      or interface method of that type in non-test files.
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

# --- 5: package-qualified identifiers -----------------------------
# decls lists the top-level names a package's non-test files declare:
# funcs and methods (by name), and types, vars and consts, both single
# and inside grouped ( ... ) blocks.
decls() {
  for f in "internal/$1"/*.go; do
    case $f in *_test.go) continue ;; esac
    cat "$f"
  done | awk '
    /^func / { s = $0; sub(/^func (\([^)]*\) )?/, "", s); sub(/[^A-Za-z0-9_].*/, "", s); print s; next }
    /^(type|var|const) \(/ { grouped = 1; next }
    grouped && /^\)/ { grouped = 0; next }
    grouped && /^\t[A-Za-z_]/ { s = $0; sub(/^\t/, "", s); sub(/[^A-Za-z0-9_].*/, "", s); print s; next }
    /^(type|var|const) [A-Za-z_]/ { s = $0; sub(/^(type|var|const) /, "", s); sub(/[^A-Za-z0-9_].*/, "", s); print s }
  ' | sort -u
}
# A pkg.Ident token inside a backtick span; a preceding / or . (a
# file path, a deeper selector) disqualifies the match.
for ref in $(grep -ohE '`[^`]+`' $docs |
  grep -oE '(^|[^A-Za-z0-9_./])[a-z][a-z0-9]*\.[A-Za-z_][A-Za-z0-9_]*' |
  sed -E 's/^[^a-z]//' | sort -u); do
  pkg=${ref%%.*}
  ident=${ref#*.}
  [ -d "internal/$pkg" ] || continue
  if ! decls "$pkg" | grep -qx "$ident"; then
    echo "docscheck: docs mention $ref but internal/$pkg declares no $ident"
    fail=1
  fi
done

# --- 6: type-qualified members ------------------------------------
# internal_src concatenates every non-test Go file under internal/.
internal_src() {
  for f in internal/*/*.go; do
    case $f in *_test.go) continue ;; esac
    cat "$f"
  done
}
# The exported types declared under internal/.
types=$(internal_src | awk '/^type [A-Z]/ { print $2 }' | sort -u)
# members lists Type.Member for every method of an exported type and
# every field (or interface method) in its declaration body; a type
# name declared by two packages gets the union of their members.
members=$(internal_src | awk '
  /^func \([A-Za-z_]* ?\*?[A-Z][A-Za-z0-9_]*(\[[^]]*\])?\) [A-Za-z_]/ {
    s = $0; sub(/^func \([A-Za-z_]* ?\*?/, "", s)
    t = s; sub(/[^A-Za-z0-9_].*/, "", t)
    m = s; sub(/^[^)]*\) /, "", m); sub(/[^A-Za-z0-9_].*/, "", m)
    print t "." m; next
  }
  /^type [A-Z][A-Za-z0-9_]* (struct|interface) \{$/ { t = $2; body = 1; next }
  body && /^}/ { body = 0; next }
  body && /^\t[*A-Za-z_]/ {
    s = $0; sub(/^\t\*?/, "", s); sub(/[ \t(].*/, "", s); sub(/,$/, "", s)
    sub(/^[a-z]+\./, "", s) # embedded pkg.Type: the field is Type
    print t "." s
    rest = $0; sub(/^\t/, "", rest)
    while (match(rest, /^[A-Za-z_][A-Za-z0-9_]*, */)) { # a, b T
      rest = substr(rest, RLENGTH + 1)
      n = rest; sub(/[^A-Za-z0-9_].*/, "", n); print t "." n
    }
  }
' | sort -u)
# A Type.Ident token inside a backtick span, optionally qualified by a
# package (pkg.Type.Ident); a qualifier that is not an internal/
# package (http.Server.Shutdown) disqualifies the match.
for ref in $(grep -ohE '`[^`]+`' $docs |
  grep -oE '(^|[^A-Za-z0-9_./])([a-z][a-z0-9]*\.)?[A-Z][A-Za-z0-9_]*\.[A-Za-z_][A-Za-z0-9_]*' |
  sed -E 's/^[^a-zA-Z]//' | sort -u); do
  case $ref in
  [a-z]*) pkg=${ref%%.*}; [ -d "internal/$pkg" ] || continue; ref=${ref#*.} ;;
  esac
  echo "$types" | grep -qx "${ref%%.*}" || continue
  if ! echo "$members" | grep -qx "$ref"; then
    echo "docscheck: docs mention $ref but no internal/ type ${ref%%.*} declares ${ref#*.}"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "docscheck: FAILED"
  exit 1
fi
echo "docscheck: OK"
