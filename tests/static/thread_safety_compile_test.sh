#!/bin/sh
# Proves the -Wthread-safety gate has teeth:
#   1. thread_safety_ok.cc (correct locking) must compile clean, and
#   2. thread_safety_bad.cc (unguarded write to a GUARDED_BY field)
#      must be rejected with a thread-safety diagnostic.
# Clang-only analysis, so on machines without clang++ this exits 77 —
# ctest's SKIP_RETURN_CODE — instead of failing.
#
# Usage: thread_safety_compile_test.sh <repo-root>
set -u

repo_root="${1:?usage: $0 <repo-root>}"
here="$repo_root/tests/static"

cxx=""
for candidate in clang++ clang++-21 clang++-20 clang++-19 clang++-18 \
                 clang++-17 clang++-16 clang++-15 clang++-14; do
  if command -v "$candidate" >/dev/null 2>&1; then
    cxx="$candidate"
    break
  fi
done
if [ -z "$cxx" ]; then
  echo "SKIP: no clang++ on PATH; thread-safety analysis needs clang" >&2
  exit 77
fi

# util/mutex.h requires the lock-rank ABI define; either value works
# for a syntax-only check.
flags="-std=c++20 -fsyntax-only -Wthread-safety -Werror=thread-safety"
flags="$flags -DCTXPREF_LOCK_RANK_CHECKS=1"
err_log="$(mktemp)"
trap 'rm -f "$err_log"' EXIT

# Positive control first: if correct code does not compile, a rejection
# of the bad snippet would prove nothing.
if ! $cxx $flags -I "$repo_root/src" "$here/thread_safety_ok.cc" \
    2>"$err_log"; then
  echo "FAIL: positive control thread_safety_ok.cc was rejected:" >&2
  cat "$err_log" >&2
  exit 1
fi

if $cxx $flags -I "$repo_root/src" "$here/thread_safety_bad.cc" \
    2>"$err_log"; then
  echo "FAIL: thread_safety_bad.cc compiled — -Werror=thread-safety is" \
       "not rejecting unguarded access to a GUARDED_BY field" >&2
  exit 1
fi

# Rejection must come from the analysis, not some unrelated error.
if ! grep -q "thread-safety" "$err_log"; then
  echo "FAIL: thread_safety_bad.cc failed for a reason other than" \
       "thread-safety analysis:" >&2
  cat "$err_log" >&2
  exit 1
fi

echo "OK: -Werror=thread-safety rejects the unguarded access ($cxx)"
exit 0
