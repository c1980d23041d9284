#!/usr/bin/env bash
# Layering guard, run by the `reference_layering_check` ctest: the
# reference implementations under tests/reference/ (autodiff tape, tape
# trainer, raw-string metrics and featurization, naive rule scan) are test
# and bench code, so nothing in src/ or erbench/src may include them.
#
# Usage: tools/check_reference_layering.sh [repo-root]  (default: cwd)
set -u

root="${1:-.}"
for dir in "$root/src" "$root/erbench/src"; do
  if [ ! -d "$dir" ]; then
    echo "missing source directory: $dir"
    exit 1
  fi
done

hits=$(grep -rnF --include='*.h' --include='*.cc' --include='*.cpp' \
  '#include "reference/' "$root/src" "$root/erbench/src")
if [ -n "$hits" ]; then
  echo "src/ or erbench/src includes a tests/reference/ header:"
  echo "$hits"
  exit 1
fi
echo "reference layering OK"
