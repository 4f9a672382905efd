#!/usr/bin/env bash
# src/ holds only functions a product reaches. Lists every prcost:: text
# symbol defined in a src/ static library (libprcost_*.a) that no product
# executable keeps, and fails if any is left after the allow-list below.
#
# The build directories must be configured so that the linker drops what
# nothing calls and the compiler keeps every call out of line:
#
#   flags=(-DCMAKE_BUILD_TYPE=None
#          "-DCMAKE_CXX_FLAGS=-O0 -fno-inline -ffunction-sections -fdata-sections"
#          -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)
#   cmake -S . -B build/sym "${flags[@]}" -DPRCOST_BUILD_TESTS=OFF
#   cmake -S perfbench -B build/sym-perfbench "${flags[@]}"
#   cmake --build build/sym -j
#   cmake --build build/sym-perfbench --target prbench -j
#   tools/src_symbols_check.sh build/sym build/sym-perfbench
#
# Products are the executables in the given trees outside tests/ and
# CMakeFiles/: the CLI, bench_report, the bench/ and examples/ programs and
# the perfbench harness. Header-only code has no symbol of its own here;
# the file-level include walk (tools/src_reachability_test.cmake) covers it.
#
# Usage: tools/src_symbols_check.sh <build-dir>...
set -euo pipefail
export LC_ALL=C

if [[ $# -eq 0 ]]; then
  echo "usage: $0 <build-dir>..." >&2
  exit 2
fi

# Deliberate test seams: src/ functions only tests call, each kept for the
# reason given. A line is a demangled qualified name; it matches the
# function and every overload of it.
allowed() {
  cat <<'EOF'
# Pins the CRC kernel so tests cover the sliced path on SSE4.2 hosts.
prcost::set_crc_impl
# Small caches make the eviction tests reach their eviction paths.
prcost::set_plan_cache_capacity
prcost::set_bitstream_cache_capacity
prcost::ShardedCache::set_capacity
# Metrics are process-wide; tests zero them to assert exact deltas.
prcost::obs::Counter::reset
prcost::obs::Gauge::reset
prcost::obs::Histogram::reset
prcost::obs::Registry::reset
# Lets the pool tests see that a nested parallel_for runs inline.
prcost::in_parallel_region
# Lets the serve tests half-close a connection the way a client may.
prcost::serve::Client::shutdown_write
# Cross-checks the annealer's incremental indexes against its layout.
prcost::opt::Layout::consistent
# Read back the configuration memory the replayed bitstreams wrote.
prcost::ConfigMemory::frame
prcost::ConfigMemory::row_column_touched
EOF
}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Demangled names of the defined text symbols (T/t/W/w) of each file.
text_symbols() {
  nm --defined-only -C "$@" 2>/dev/null |
    sed -n 's/^[0-9a-f]* [TtWw] //p'
}

archives=()
products=()
for dir in "$@"; do
  if [[ ! -d $dir ]]; then
    echo "$0: '$dir' is not a directory" >&2
    exit 2
  fi
  while IFS= read -r -d '' file; do
    archives+=("$file")
  done < <(find "$dir" -name 'libprcost_*.a' -not -path '*/tests/*' -print0)
  while IFS= read -r -d '' file; do
    # Executables only: skip scripts and anything else nm cannot read.
    if [[ $(head -c 4 "$file" | od -An -c | tr -d ' ') == 177ELF ]]; then
      products+=("$file")
    fi
  done < <(find "$dir" -type f -perm -u+x -not -path '*/CMakeFiles/*' \
             -not -path '*/tests/*' -not -name '*.a' -print0)
done
if [[ ${#archives[@]} -eq 0 || ${#products[@]} -eq 0 ]]; then
  echo "$0: found ${#archives[@]} src/ archives and ${#products[@]}" \
       "products; build the trees first" >&2
  exit 2
fi

text_symbols "${archives[@]}" | grep '^prcost::' | sort -u > "$work/defined"
for product in "${products[@]}"; do text_symbols "$product"; done |
  grep '^prcost::' | sort -u > "$work/kept"
# An entry matches its name followed by the parameter list, with or
# without template arguments on any of its components.
allowed |
  sed '/^#/d; s/[][\.*^$]/\\&/g; s/::/(<.*>)?::/g; s/^/^/; s/$/(<.*>)?\\(/' \
  > "$work/allowed"

comm -23 "$work/defined" "$work/kept" |
  grep -Ev -f "$work/allowed" > "$work/dead" || true

if [[ -s $work/dead ]]; then
  echo "src/ functions no product reaches" \
       "($(wc -l < "$work/dead") symbols):" >&2
  sed 's/^/  /' "$work/dead" >&2
  echo "Delete them, move test oracles to tests/support/, or allow-list" \
       "a deliberate test seam in $0." >&2
  exit 1
fi
echo "every prcost:: function in ${#archives[@]} src/ archives is kept by" \
     "one of ${#products[@]} products"
