#!/usr/bin/env bash
# Regenerates every reproduced figure/experiment (see EXPERIMENTS.md) and
# checks the benchmark gates of bench/gates.txt: builds, runs the test
# suite, runs every bench binary once (text and JSON together), checks the
# gates, then the lint/audit checks, the fault-injected passes, the
# examples and a ThreadSanitizer pass. Outputs land under results/.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja -DCMAKE_BUILD_TYPE=Release
cmake --build build

mkdir -p results
rm -f results/BENCH_*.json

# The whole tier-1 suite, every labelled suite included. The fuzz soak
# knobs are unset so this always runs the pinned baseline workload.
env -u DYNVIEW_FUZZ_ITERS -u DYNVIEW_FUZZ_SEED -u DYNVIEW_FUZZ_REPRO \
  ctest --test-dir build --output-on-failure 2>&1 | tee results/tests.txt

# Every bench once, its text and JSON together. Binaries named in the gate
# table run 20 short repetitions in random order: the comparator reads
# medians, and many interleaved samples keep host drift from landing on one
# side of a ratio.
gated="$(awk '!/^#/ && NF { print $1 }' bench/gates.txt | sort -u)"
for b in build/bench/bench_*; do
  name="$(basename "$b")"
  reps=(--benchmark_repetitions=1)
  if grep -qx "$name" <<<"$gated"; then
    reps=(--benchmark_repetitions=20 --benchmark_min_time=0.1
          --benchmark_enable_random_interleaving=true)
  fi
  echo "=== $name ==="
  "$b" "${reps[@]}" \
    --benchmark_out="results/BENCH_${name#bench_}.json" \
    --benchmark_out_format=json 2>&1 | tee "results/${name}.txt"
done
# A failing gate fails the script, but only at the end: the correctness
# passes below run either way.
set +e
python3 scripts/check_gates.py bench/gates.txt results/BENCH_*.json |
  tee results/gates.txt
gates_status=${PIPESTATUS[0]}
set -e

# Lint gate: dynview-lint exits 1 on any error diagnostic over the workload
# catalogs (warnings like DV003 pivot-multiplicity are expected), and its
# JSON must be byte-stable across thread counts. Then the C++ lint
# (clang-tidy when installed).
for wl in stock hotel tickets; do
  echo "=== dynview-lint: ${wl} ==="
  for t in 1 8; do
    build/examples/dynview_lint "examples/lint/${wl}.ssql" \
      --workload="${wl}" --format=json --threads="$t" \
      > "results/lint_${wl}_t${t}.json"
  done
  cat "results/lint_${wl}_t1.json"
  cmp "results/lint_${wl}_t1.json" "results/lint_${wl}_t8.json" || {
    echo "FAIL: dynview-lint output differs across thread counts (${wl})"
    exit 1
  }
done
scripts/run_lint.sh build 2>&1 | tee results/lint_cxx.txt

# Audit gate: dynview-audit reports ZERO findings over the workload
# catalogs (the shipped workloads carry no redundancy), and its JSON is
# byte-stable across thread counts.
for wl in stock hotel tickets; do
  echo "=== dynview-audit: ${wl} ==="
  for t in 1 8; do
    build/examples/dynview_audit "examples/lint/${wl}.ssql" \
      --workload="${wl}" --format=json --threads="$t" \
      > "results/audit_${wl}_t${t}.json"
  done
  cat "results/audit_${wl}_t1.json"
  cmp "results/audit_${wl}_t1.json" "results/audit_${wl}_t8.json" || {
    echo "FAIL: dynview-audit output differs across thread counts (${wl})"
    exit 1
  }
  grep -q '"findings": \[\]' "results/audit_${wl}_t1.json" || {
    echo "FAIL: audit finding(s) on the shipped ${wl} workload"
    exit 1
  }
done

# Fault-injected passes: a latency failpoint on every catalog resolution
# must be inert for correctness — under the chaos suite's query/mutator
# races and on the engine/integration-facing suites.
DYNVIEW_FAILPOINTS="catalog.resolve=latency(1)" \
  ctest --test-dir build --output-on-failure -L chaos 2>&1 |
  tee results/tests_chaos.txt
DYNVIEW_FAILPOINTS="catalog.resolve=latency(1)" \
  ctest --test-dir build --output-on-failure \
  -R 'EngineTest|IntegrationTest|GuardTest' 2>&1 |
  tee results/tests_failpoints.txt

# Nightly soak hook: DYNVIEW_FUZZ_ITERS=<n> scales the seeded fuzz run to n
# scenarios (optionally reseeded via DYNVIEW_FUZZ_SEED); on an oracle
# mismatch the fuzzer delta-minimizes the DDL stream and dumps a
# self-contained repro under results/fuzz_repro/.
if [[ -n "${DYNVIEW_FUZZ_ITERS:-}" ]]; then
  mkdir -p results/fuzz_repro
  DYNVIEW_FUZZ_REPRO="$PWD/results/fuzz_repro" \
    ctest --test-dir build --output-on-failure \
    -R 'FuzzTest.SeededRunIsCleanAndCoversAllDdlKinds' 2>&1 |
    tee results/tests_fuzz_soak.txt
fi

for e in quickstart stock_integration hotel_publishing ticket_indexing \
         warehouse_cube; do
  echo "=== example: $e ==="
  "./build/examples/$e" 2>&1 | tee "results/example_${e}.txt"
done

# ThreadSanitizer over the label sets of CI's tsan job, read from the
# workflow so the two lists cannot drift (the fuzz suite among them: its
# oracle drives 8-thread executors, across commits too). The chaos suite
# runs with a latency failpoint armed on every catalog resolution, which
# widens its race windows.
# DYNVIEW_SANITIZE=1 adds AddressSanitizer and UndefinedBehaviorSanitizer
# lanes over the FULL tier-1 suite — memory and UB bugs hide anywhere.
mapfile -t tsan_labels < <(sed -n '/^  tsan:/,/^  [a-z_-]*:$/p' \
  .github/workflows/ci.yml | grep -o -- '-L [a-z]*' | cut -d' ' -f2)
if ! printf '%s\n' "${tsan_labels[@]}" | grep -qx chaos; then
  echo "FAIL: no '-L chaos' among the ctest labels of ci.yml's tsan job" \
       "(read: ${tsan_labels[*]:-none})"
  exit 1
fi
sans=(thread)
if [[ "${DYNVIEW_SANITIZE:-0}" == "1" ]]; then sans+=(address undefined); fi
for san in "${sans[@]}"; do
  dir="build-${san}san"
  cmake -B "$dir" -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDYNVIEW_SANITIZE="$san"
  cmake --build "$dir"
  if [[ "$san" == "thread" ]]; then
    for label in "${tsan_labels[@]}"; do
      failpoints=""
      if [[ "$label" == "chaos" ]]; then
        failpoints="catalog.resolve=latency(1)"
      fi
      env -u DYNVIEW_FUZZ_ITERS -u DYNVIEW_FUZZ_SEED -u DYNVIEW_FUZZ_REPRO \
        DYNVIEW_FAILPOINTS="$failpoints" \
        ctest --test-dir "$dir" --output-on-failure -L "$label" 2>&1 |
        tee "results/tests_${label}_${san}san.txt"
    done
  else
    ctest --test-dir "$dir" --output-on-failure -j \
      2>&1 | tee "results/tests_${san}san.txt"
  fi
done

echo "All outputs collected under results/."
exit "$gates_status"
