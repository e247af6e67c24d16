#!/usr/bin/env sh
# Checks scripts/design_refs.sh on a throwaway tree: every citation of
# an existing section passes, wrapped ones included, and a planted
# citation of a missing section 99 fails with its file and line.
#
#   scripts/design_refs_test.sh    # run from anywhere inside the repository
set -eu
check="$(cd "$(dirname "$0")" && pwd)/design_refs.sh"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/src" "$tmp/scripts" "$tmp/tests" "$tmp/crates/lint/fixtures"
printf '# Notes\n\n## 1. One\n\n## 2. Two\n\n### 2.1 Two, first\n' > "$tmp/DESIGN.md"
doc=DESIGN.md
cat > "$tmp/src/lib.rs" <<RUST
//! See $doc §1, \`$doc\` §2.1 and $doc §2.
//! Wrapped ($doc
//! §2.1) and (\`$doc\`
/// §2); $doc alone, $doc §x, §3 without the name.
RUST
printf '# %s §1\n' "$doc" > "$tmp/scripts/tool.sh"
printf 'A fixture may cite %s §7.\n' "$doc" > "$tmp/crates/lint/fixtures/x.rs"
printf 'Prose citing `%s` §2.1.\n' "$doc" > "$tmp/README.md"
printf '//! The proof (%s §2).\n' "$doc" > "$tmp/tests/e2e.rs"

if ! out=$("$check" "$tmp" 2>&1); then
    echo "design_refs_test: a tree of valid citations failed:" >&2
    echo "$out" >&2
    exit 1
fi
printf '# %s\n# §%s.4 wraps, and %s §%s does not\n' "$doc" 99 "$doc" 99 > "$tmp/scripts/tool.sh"
printf '//! The proof (%s §%s).\n' "$doc" 99 > "$tmp/tests/e2e.rs"
if out=$("$check" "$tmp" 2>&1); then
    echo "design_refs_test: a planted citation of a missing section passed" >&2
    exit 1
fi
for want in "scripts/tool.sh:2: $doc §99.4 names no heading" "scripts/tool.sh:2: $doc §99 names no heading" \
    "tests/e2e.rs:1: $doc §99 names no heading"; do
    if ! echo "$out" | grep -qF "$want"; then
        echo "design_refs_test: expected '$want' in:" >&2
        echo "$out" >&2
        exit 1
    fi
done
echo "design_refs_test: ok"
