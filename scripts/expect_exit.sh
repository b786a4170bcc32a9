#!/usr/bin/env bash
# Runs a command that must be refused, and checks how it ends:
#
#   scripts/expect_exit.sh STATUS REGEX COMMAND [ARGS...]
#
# Passes when COMMAND exits with exactly STATUS and its stderr matches the
# extended regex REGEX.  A death by signal shows as status 128+N, so it
# never passes.  The hostile-flag ctest cases use this.
set -u

want="$1"
pattern="$2"
shift 2
err="$("$@" 2>&1 >/dev/null)"
got=$?
if [[ "${got}" -ne "${want}" ]]; then
  echo "FAIL: exit status ${got}, expected ${want}: $*" >&2
  echo "${err}" >&2
  exit 1
fi
if ! grep -qE -- "${pattern}" <<<"${err}"; then
  echo "FAIL: stderr does not match '${pattern}': $*" >&2
  echo "${err}" >&2
  exit 1
fi
echo "ok: exit ${got}, stderr matches '${pattern}'"
