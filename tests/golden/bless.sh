#!/bin/sh
# Re-record every golden in this directory from an existing build:
#
#   tests/golden/bless.sh [build-dir]      (default: build)
#
# Each golden is one `mg_add_golden_test` in tests/CMakeLists.txt; this runs
# them all (`ctest -L golden`) with MG_BLESS=1, which rewrites the files
# instead of comparing. Review the diff, and say in CHANGES.md why each
# changed golden changed.
set -e
root=$(cd "$(dirname "$0")/../.." && pwd)
MG_BLESS=1 ctest --test-dir "${1:-$root/build}" -L golden --output-on-failure
