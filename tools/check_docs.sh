#!/usr/bin/env bash
# Doc hygiene gate, run by the CI docs job (and runnable locally from the
# repo root). Four checks over the markdown set:
#
#   1. every relative markdown link resolves to a file/dir in the tree;
#   2. every source-tree path a doc mentions (src/..., tests/..., ...)
#      exists — as written, or with a source extension appended (so
#      "examples/dos_defense" matching examples/dos_defense.cpp is fine);
#   3. every backticked code symbol (`Foo::bar`, `CamelCase`) appears
#      somewhere in the source tree — stale identifiers fail the build;
#   4. every `ProtocolConfig` field in src/peace/messages.hpp is named in
#      docs/PROTOCOL.md — an undocumented protocol knob fails the build.
#
# Fenced code blocks are ignored (their contents are illustrative, not
# references). Exits nonzero listing every failure.
set -u

cd "$(dirname "$0")/.."

DOCS=(README.md DESIGN.md EXPERIMENTS.md ROADMAP.md docs/*.md)
SRC_DIRS=(src tests bench examples tools docs)
fails=0

fail() {
  echo "check_docs: $1" >&2
  fails=$((fails + 1))
}

# Markdown with fenced code blocks stripped, for reference scanning.
strip_fences() {
  awk '/^[[:space:]]*```/ { fence = !fence; next } !fence' "$1"
}

# --- 1. relative markdown links ----------------------------------------
for doc in "${DOCS[@]}"; do
  dir=$(dirname "$doc")
  while IFS= read -r link; do
    case "$link" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    target="${link%%#*}"
    [ -n "$target" ] || continue
    if [ ! -e "$dir/$target" ] && [ ! -e "$target" ]; then
      fail "$doc: broken relative link ($link)"
    fi
  done < <(strip_fences "$doc" | grep -oE '\]\([^)[:space:]]+\)' | sed 's/^](//; s/)$//')
done

# --- 2. source-tree paths mentioned in prose ---------------------------
path_exists() {
  local p=$1
  [ -e "$p" ] && return 0
  for ext in .cpp .hpp .h .sh .md; do
    [ -e "$p$ext" ] && return 0
  done
  return 1
}

for doc in "${DOCS[@]}"; do
  while IFS= read -r p; do
    p="${p%%.}"      # trim sentence-ending dot
    p="${p%/}"       # trailing slash: directory reference
    path_exists "$p" || fail "$doc: stale path reference ($p)"
  done < <(strip_fences "$doc" \
           | sed 's|[A-Za-z0-9_./-]*build/[A-Za-z0-9_./-]*||g' \
           | grep -oE '(src|tests|bench|examples|tools|docs)/[A-Za-z0-9_./-]+' \
           | sort -u)
done

# --- 3. backticked code symbols ----------------------------------------
# `Ns::name` chains: the final identifier must exist in the tree.
# `CamelCase` single tokens: the word must exist in the tree.
symbol_exists() {
  grep -rqw --include='*.cpp' --include='*.hpp' --include='*.h' \
    -e "$1" "${SRC_DIRS[@]:0:4}"
}

for doc in "${DOCS[@]}"; do
  while IFS= read -r sym; do
    leaf="${sym##*::}"
    symbol_exists "$leaf" || fail "$doc: stale symbol reference ($sym)"
  done < <(strip_fences "$doc" \
           | grep -oE '`[A-Za-z_][A-Za-z0-9_]*(::~?[A-Za-z_][A-Za-z0-9_]*)+`?' \
           | tr -d '`' | sort -u)

  while IFS= read -r sym; do
    symbol_exists "$sym" || fail "$doc: stale symbol reference ($sym)"
  done < <(strip_fences "$doc" \
           | grep -oE '`[A-Z][A-Za-z0-9]*`' | tr -d '`' \
           | grep -E '[a-z]' | grep -vE '::' | sort -u)
done

# --- 4. every ProtocolConfig field is documented --------------------------
config_fields=$(awk '/^struct ProtocolConfig \{/ { in_struct = 1; next }
                     in_struct && /^\};/ { exit }
                     in_struct' src/peace/messages.hpp \
  | grep -oE '^[[:space:]]+[A-Za-z_:<>0-9]+[[:space:]]+[a-z_0-9]+[[:space:]]*=' \
  | awk '{ print $2 }')
[ -n "$config_fields" ] || fail "src/peace/messages.hpp: no ProtocolConfig fields found"
for field in $config_fields; do
  grep -qw -e "$field" docs/PROTOCOL.md ||
    fail "docs/PROTOCOL.md: ProtocolConfig field not documented ($field)"
done

if [ "$fails" -gt 0 ]; then
  echo "check_docs: $fails failure(s)" >&2
  exit 1
fi
echo "check_docs: OK (${#DOCS[@]} docs checked)"
