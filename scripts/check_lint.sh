#!/usr/bin/env bash
# Runs bufq-lint (tools/bufq_lint) over the tree: the project-contract
# static analyzer enforcing the determinism, hot-path and hygiene rules
# (see tools/bufq_lint/lint.h for the rule list).  Exits non-zero on any
# finding not forgiven by tools/bufq_lint/baseline.txt.
#
# Usage: scripts/check_lint.sh [build-dir]   (default: build)
#
# Uses the already-built linter from <build-dir> when present, otherwise
# compiles it directly — the check must run even where CMake has not,
# so CI can never silently skip it.
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-build}"
case "$build_dir" in
  /*) ;;
  *) build_dir="$repo_root/$build_dir" ;;
esac

lint="$build_dir/tools/bufq_lint/bufq_lint"
if [ ! -x "$lint" ]; then
  tmpdir="$(mktemp -d)"
  trap 'rm -rf "$tmpdir"' EXIT
  cxx="${CXX:-c++}"
  echo "check_lint: no built linter at $lint; compiling with $cxx"
  if ! "$cxx" -std=c++20 -O1 -I "$repo_root/tools" \
      "$repo_root"/tools/bufq_lint/lexer.cpp \
      "$repo_root"/tools/bufq_lint/rules.cpp \
      "$repo_root"/tools/bufq_lint/lint.cpp \
      "$repo_root"/tools/bufq_lint/main.cpp \
      -o "$tmpdir/bufq_lint"; then
    echo "check_lint: failed to compile the linter" >&2
    exit 2
  fi
  lint="$tmpdir/bufq_lint"
fi

args=("--root=$repo_root" "--baseline=$repo_root/tools/bufq_lint/baseline.txt")
if [ -f "$build_dir/compile_commands.json" ]; then
  args+=("--compdb=$build_dir/compile_commands.json")
fi

"$lint" "${args[@]}"
status=$?
if [ "$status" -ne 0 ]; then
  echo "check_lint: findings above must be fixed or BUFQ_LINT_SUPPRESS'ed" \
       "with a reason (see src/util/annotations.h)" >&2
  exit "$status"
fi

echo "check_lint: tree is clean."
