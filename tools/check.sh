#!/usr/bin/env bash
# Tier-1 verification, run in three configurations: the default toolchain
# flags, AddressSanitizer + UndefinedBehaviorSanitizer, and ThreadSanitizer.
# The asan pass exists chiefly for src/store — mmap'd zero-copy pointer casts
# and the binary decoder must be provably clean, not just test-green. The
# tsan pass covers the parallel pipeline/study: it forces LOCKDOWN_THREADS=8
# so the sharded passes actually run multi-threaded (a single-core machine
# would otherwise fall back to serial) and runs the thread-pool, pipeline,
# and the thread-identity tests of both figure-engine policies, then the
# EXPERIMENTS.md diff against the instrumented experiments binary.
# After its ctest run, the default pass diffs EXPERIMENTS.md's
# ```experiments blocks against the stdout of build/bench/experiments, so
# every measured number in the document is the one the code prints; the
# asan pass repeats that diff with the instrumented binary, which drives the
# exact figure pass through the full 1200-student campus under ASan/UBSan.
#
# A fourth, CLI-level fault tier exercises the ingest robustness surface
# end-to-end: it exports a small campus, corrupts the snapshot and the TSV
# logs with the deterministic FaultInjector (seeds {1,2,3} x rates
# {0.1%, 1%}), and asserts tolerant ingest completes (exit 0) where strict
# ingest fails with the documented exit codes (3 = over error budget,
# 4 = corrupt snapshot without fallback), also for a compressed snapshot
# whose resealed flow counts claim more flows than its columns can hold.
# The clean export converted to CRLF line ends must pass strict ingest with
# the same analyze output.
# Malformed numeric flag values (NaN rates, trailing garbage, an over-cap
# --threads) must exit 1.
#
# The stream tier (--stream-only) is the `figures` ctest label on the asan
# tree: the figure engine's tests under both aggregator policies (tests/
# stream), including the FaultInjector leg that re-ingests a
# deterministically corrupted export. The asan pass's full ctest already
# runs them, so `all` does not repeat the tier.
#
# The obs tier exercises the observability surface end-to-end: it runs the
# CLI with --metrics-out/--trace-out plus an analyze/snapshot flow (so the
# ingest and store instrumentation actually fires) and validates both JSON
# documents' shapes with python3. The asan tier automatically covers the
# column-codec fuzz and compressed byte-sweep tests
# (tests/store/codec_test.cc) since it runs the full suite.
#
# The crash tier (--crash-only) is the `crash` ctest label on the asan tree:
# the kill-at-every-crash-point harness (DESIGN.md §12), which forks the
# real CLI at every registered IO crash point (src/io/crash_points.h) across
# several seeds and proves the snapshot target is never torn — bit-identical
# to the old valid snapshot before the rename, to the new one after — with
# the orphaned tmp file attributed, swept, and the next save recovering
# bit-exactly. The asan pass's full ctest already runs it, so `all` does not
# repeat the tier.
#
# The lint tier is the static-analysis gate (DESIGN.md §11): it runs
# lockdown_lint (the project contract checker) over src/ + tools/ and proves
# the fixture corpus still catches every registered rule, then — when a clang
# toolchain is present — builds the tree under clang -Wthread-safety (the
# util/mutex.h annotations) and runs clang-tidy with the curated .clang-tidy
# set over the compilation database. The clang passes degrade to a loud
# warning when clang/clang-tidy are not installed; the lockdown_lint passes
# always run.
#
# Usage: tools/check.sh [--default-only | --asan-only | --tsan-only |
#                        --fault-only | --stream-only | --obs-only |
#                        --crash-only | --lint-only | lint]
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc)
mode="${1:-all}"

run_pass() {
  local label="$1" dir="$2"
  shift 2
  echo "=== ${label}: configure (${dir}) ==="
  cmake -B "${dir}" -S . "$@"
  echo "=== ${label}: build ==="
  cmake --build "${dir}" -j "${jobs}"
  echo "=== ${label}: ctest ==="
  (cd "${dir}" && ctest --output-on-failure -j "${jobs}")
  echo "=== ${label}: OK ==="
}

# check_experiments LABEL DIR: EXPERIMENTS.md's ```experiments blocks,
# concatenated in order, are DIR/bench/experiments' stdout byte for byte,
# and the binary exits 0 (a sanitizer that reports and carries on, as TSan
# does, still fails its exit status).
check_experiments() {
  local label="$1" dir="$2" out
  echo "=== ${label}: EXPERIMENTS.md vs ${dir}/bench/experiments ==="
  out=$(mktemp)
  if ! "${dir}/bench/experiments" >"${out}"; then
    rm -f "${out}"
    echo "FAIL: ${dir}/bench/experiments exited non-zero" >&2
    exit 1
  fi
  if ! diff <(awk '/^```experiments$/ {on = 1; next} /^```$/ {on = 0} on' EXPERIMENTS.md) \
            "${out}"; then
    rm -f "${out}"
    echo "FAIL: EXPERIMENTS.md is stale; paste build/bench/experiments output" \
         "into its experiments blocks" >&2
    exit 1
  fi
  rm -f "${out}"
  echo "=== ${label}: EXPERIMENTS.md OK ==="
}

# GCC's -fsanitize=undefined leaves out float-cast-overflow; the simulator
# and the flow records cast doubles to integers, so name it explicitly.
asan_flags=(
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined,float-cast-overflow -fno-sanitize-recover=all"
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined,float-cast-overflow")

if [[ "${mode}" == "all" || "${mode}" == "--default-only" ]]; then
  run_pass "default" build
  check_experiments "default" build
fi

if [[ "${mode}" == "all" || "${mode}" == "--asan-only" ]]; then
  run_pass "asan+ubsan" build-asan "${asan_flags[@]}"
  check_experiments "asan+ubsan" build-asan
fi

if [[ "${mode}" == "--stream-only" ]]; then
  # The figure-engine tests under asan+ubsan (reuses / creates the asan
  # tree): a label filter over the suite the asan pass runs in full.
  dir=build-asan
  echo "=== stream: configure (${dir}) ==="
  cmake -B "${dir}" -S . "${asan_flags[@]}" >/dev/null
  echo "=== stream: build ==="
  cmake --build "${dir}" -j "${jobs}" --target stream_test
  echo "=== stream: ctest -L figures (asan+ubsan) ==="
  (cd "${dir}" && ctest --output-on-failure -j "${jobs}" -L figures)
  echo "=== stream: OK ==="
fi

if [[ "${mode}" == "all" || "${mode}" == "--tsan-only" ]]; then
  # Only the concurrency-bearing binaries: a full-suite tsan run costs ~10x
  # and the serial subsystems have nothing for tsan to find.
  dir=build-tsan
  echo "=== tsan: configure (${dir}) ==="
  cmake -B "${dir}" -S . \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  echo "=== tsan: build ==="
  cmake --build "${dir}" -j "${jobs}" \
    --target util_test core_test stream_test obs_test experiments
  echo "=== tsan: parallel tests (LOCKDOWN_THREADS=8) ==="
  LOCKDOWN_THREADS=8 "${dir}/tests/util_test" --gtest_filter='ThreadPool*'
  # Lock-free metric shards: concurrent counter/histogram updates from
  # ParallelFor lanes must merge to exact totals without races.
  LOCKDOWN_THREADS=8 "${dir}/tests/obs_test" --gtest_filter='MetricsRegistry.*'
  LOCKDOWN_THREADS=8 "${dir}/tests/core_test" \
    --gtest_filter='ParallelEquivalence.*:Pipeline*:GoldenFigures.*'
  # The figure pass under both policies: per-chunk offers folded in chunk
  # order (exact) and per-device offers applied to shared sketches under one
  # mutex, each device's domain bytes tallied in its chunk's scratch first
  # (sketched), must be race-free, not just deterministic.
  LOCKDOWN_THREADS=8 "${dir}/tests/stream_test" \
    --gtest_filter='FiguresDifferentialTest.*:StreamingStudy.BitIdenticalAcrossThreadCounts:StreamingStudy.CountMinFeedMatchesPerRunReference'
  # The full 1200-student campus through every parallel pass at once.
  LOCKDOWN_THREADS=8 check_experiments "tsan" "${dir}"
  echo "=== tsan: OK ==="
fi

if [[ "${mode}" == "all" || "${mode}" == "--fault-only" ]]; then
  echo "=== fault: build lockdown_cli ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j "${jobs}" --target lockdown_cli >/dev/null
  cli=build/tools/lockdown_cli
  work=$(mktemp -d)
  trap 'rm -rf "${work}"' EXIT

  # expect_exit CODE cmd...: run cmd, require the documented exit code.
  expect_exit() {
    local want="$1"
    shift
    local got=0
    "$@" >/dev/null 2>&1 || got=$?
    if [[ "${got}" != "${want}" ]]; then
      echo "FAIL: expected exit ${want}, got ${got}: $*" >&2
      exit 1
    fi
  }

  echo "=== fault: clean export + snapshot ==="
  "${cli}" simulate --out "${work}/clean" --students 60 --seed 11 >/dev/null
  "${cli}" snapshot save --out "${work}/clean/dataset.lds" \
    --logs "${work}/clean" --students 60 --seed 11 >/dev/null

  echo "=== fault: corrupt snapshot -> tolerant falls back, strict exits 4 ==="
  cp -r "${work}/clean" "${work}/badsnap"
  # Flip one byte in the middle of the snapshot payload.
  size=$(stat -c %s "${work}/badsnap/dataset.lds")
  printf '\xff' | dd of="${work}/badsnap/dataset.lds" bs=1 \
    seek=$((size / 2)) conv=notrunc status=none
  expect_exit 4 "${cli}" analyze --logs "${work}/badsnap" --students 60 --seed 11
  expect_exit 0 "${cli}" analyze --logs "${work}/badsnap" --students 60 --seed 11 \
    --ingest-mode tolerant
  rm "${work}/badsnap/dataset.lds"
  rm "${work}/clean/dataset.lds"

  # craft MODE FILE: patches a count in an LDS snapshot and reseals every
  # CRC, so only the reader's count checks stand between the file and an
  # allocation sized by the count. MODE `flows`: the meta and column flow
  # counts of a --compress file claim 2^62 flows. MODE `uas`: device 0's
  # user-agent count (after its u64 id, u32 OUI and u8 flags) claims
  # 0xFFFFFFFF 4-byte refs, ~128 GiB. MODE `devices` (a v1-v5 file): the meta
  # device count claims 2^64 - 1 and the device-offsets section is emptied,
  # so a reader that added one to the count would see it wrap to a match.
  craft() {
    python3 - "$1" "$2" <<'PY'
import struct, sys

def crc32c(data):
    table = []
    for i in range(256):
        c = i
        for _ in range(8):
            c = (c >> 1) ^ 0x82F63B78 if c & 1 else c >> 1
        table.append(c)
    crc = 0xFFFFFFFF
    for b in data:
        crc = table[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF

mode, path = sys.argv[1], sys.argv[2]
data = bytearray(open(path, "rb").read())
count = 1 << 62
# Section kind -> decoded bytes per flow of its raw-size prefix (0: meta).
raw_bytes = {1: 0, 8: 4, 9: 4, 10: 31}
devices_kind = 5
offsets_kind = 3
patched = False
(num_sections,) = struct.unpack_from("<I", data, 20)
for i in range(num_sections):
    desc = 64 + 32 * i
    kind, _, offset, size = struct.unpack_from("<IIQQ", data, desc)
    if mode == "flows" and kind in raw_bytes:
        if kind == 1:
            struct.pack_into("<Q", data, offset, count)  # meta num_flows
        else:
            struct.pack_into("<QQ", data, offset,
                             (count * raw_bytes[kind]) % (1 << 64), count)
    elif mode == "uas" and kind == devices_kind:
        struct.pack_into("<I", data, offset + 8 + 4 + 1, 0xFFFFFFFF)
    elif mode == "devices" and kind == 1:
        struct.pack_into("<Q", data, offset + 8, (1 << 64) - 1)  # num_devices
    elif mode == "devices" and kind == offsets_kind:
        size = 0
        struct.pack_into("<Q", data, desc + 16, size)
    else:
        continue
    patched = True
    struct.pack_into("<I", data, desc + 24, crc32c(data[offset:offset + size]))
if not patched:
    sys.exit("craft: nothing to patch in " + path)
table_end = 64 + 32 * num_sections
struct.pack_into("<I", data, len(data) - 8, crc32c(data[:table_end]))
open(path, "wb").write(data)
PY
  }

  echo "=== fault: crafted flow counts -> tolerant falls back, strict exits 4 ==="
  # The column decoders must reject the count before allocating for it.
  cp -r "${work}/clean" "${work}/badcount"
  "${cli}" snapshot save --out "${work}/badcount/dataset.lds" --compress \
    --logs "${work}/clean" --students 60 --seed 11 >/dev/null
  craft flows "${work}/badcount/dataset.lds"
  expect_exit 4 "${cli}" analyze --logs "${work}/badcount" --students 60 --seed 11
  expect_exit 0 "${cli}" analyze --logs "${work}/badcount" --students 60 --seed 11 \
    --ingest-mode tolerant
  rm -r "${work}/badcount"

  echo "=== fault: crafted user-agent count -> tolerant falls back, strict exits 4 ==="
  # The device decode must reject the count before reserving for it.
  cp -r "${work}/clean" "${work}/baduas"
  "${cli}" snapshot save --out "${work}/baduas/dataset.lds" \
    --logs "${work}/clean" --students 60 --seed 11 >/dev/null
  craft uas "${work}/baduas/dataset.lds"
  expect_exit 4 "${cli}" analyze --logs "${work}/baduas" --students 60 --seed 11
  expect_exit 0 "${cli}" analyze --logs "${work}/baduas" --students 60 --seed 11 \
    --ingest-mode tolerant
  rm -r "${work}/baduas"

  echo "=== fault: crafted structure-time counts -> snapshot info and verify exit 4 ==="
  # A count the file's bytes cannot hold fails when the file is opened, so
  # info, which reads only the structure, rejects it too.
  mkdir "${work}/structure"
  "${cli}" snapshot save --out "${work}/structure/flows.lds" --compress \
    --logs "${work}/clean" --students 60 --seed 11 >/dev/null
  craft flows "${work}/structure/flows.lds"
  cp tests/store/legacy/v5_raw.lds "${work}/structure/devices.lds"
  craft devices "${work}/structure/devices.lds"
  # The error must name the file, whichever decoder caught the count.
  for crafted in flows devices; do
    file="${work}/structure/${crafted}.lds"
    for cmd in info verify; do
      expect_exit 4 "${cli}" snapshot "${cmd}" "${file}"
      err=$("${cli}" snapshot "${cmd}" "${file}" 2>&1 >/dev/null || true)
      if [[ "${err}" != *"${file}"* ]]; then
        echo "FAIL: snapshot ${cmd} stderr does not name ${file}: ${err}" >&2
        exit 1
      fi
    done
  done
  rm -r "${work}/structure"

  echo "=== fault: CRLF logs -> strict analyze exits 0 with the LF figures ==="
  # A trailing \r puts every conn.log row outside the parser's common shape,
  # so this leg runs the general row parser end to end. Only the first line
  # (the input directory) may differ.
  mkdir "${work}/crlf"
  for log in "${work}"/clean/*.log; do
    sed 's/$/\r/' "${log}" > "${work}/crlf/$(basename "${log}")"
  done
  "${cli}" analyze --logs "${work}/clean" --students 60 --seed 11 > "${work}/lf.out"
  got=0
  "${cli}" analyze --logs "${work}/crlf" --students 60 --seed 11 \
    > "${work}/crlf.out" || got=$?
  if [[ "${got}" != 0 ]]; then
    echo "FAIL: strict analyze of the CRLF logs exited ${got}" >&2
    exit 1
  fi
  if ! diff <(tail -n +2 "${work}/lf.out") <(tail -n +2 "${work}/crlf.out") >&2; then
    echo "FAIL: the CRLF logs changed analyze's output" >&2
    exit 1
  fi

  echo "=== fault: dirty TSV logs, seeds {1,2,3} x rates {0.001,0.01} ==="
  for seed in 1 2 3; do
    for rate in 0.001 0.01; do
      dirty="${work}/dirty-${seed}-${rate}"
      "${cli}" fault --logs "${work}/clean" --out "${dirty}" \
        --seed "${seed}" --rate "${rate}" --kind mixed >/dev/null
      expect_exit 0 "${cli}" analyze --logs "${dirty}" --students 60 --seed 11 \
        --ingest-mode tolerant --max-error-rate 0.05 \
        --quarantine-dir "${dirty}/quarantine"
      expect_exit 3 "${cli}" analyze --logs "${dirty}" --students 60 --seed 11
      test -s "${dirty}/quarantine/conn.log.rej" || {
        echo "FAIL: no quarantined lines for seed ${seed} rate ${rate}" >&2
        exit 1
      }
    done
  done

  echo "=== fault: malformed numeric flags exit 1 ==="
  # catalog builds no thread pool, so even the over-cap --threads value is
  # rejected without asking the OS for a thread.
  for bad in "--threads 100000" "--threads 4x" "--seed abc" "--students 20x" \
             "--rate nan"; do
    # shellcheck disable=SC2086  # split "--flag value" into two words
    expect_exit 1 "${cli}" catalog ${bad}
  done
  expect_exit 1 "${cli}" analyze --logs "${work}/dirty-1-0.01" --students 60 \
    --seed 11 --ingest-mode tolerant --max-error-rate nan
  echo "=== fault: OK ==="
fi

if [[ "${mode}" == "all" || "${mode}" == "--obs-only" ]]; then
  echo "=== obs: build lockdown_cli ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j "${jobs}" --target lockdown_cli >/dev/null
  cli=build/tools/lockdown_cli
  obs_work=$(mktemp -d)
  # ${work:-} also covers the fault tier's directory when both tiers run.
  trap 'rm -rf "${work:-}" "${obs_work}"' EXIT

  echo "=== obs: study with --metrics-out/--trace-out ==="
  "${cli}" study --students 60 --seed 11 --streaming \
    --metrics-out "${obs_work}/m.json" --trace-out "${obs_work}/t.json" >/dev/null

  echo "=== obs: analyze + snapshot flow (ingest/store coverage) ==="
  "${cli}" simulate --out "${obs_work}/logs" --students 60 --seed 11 >/dev/null
  "${cli}" snapshot save --out "${obs_work}/logs/dataset.lds" \
    --logs "${obs_work}/logs" --students 60 --seed 11 \
    --metrics-out "${obs_work}/m_ingest.json" >/dev/null
  LOCKDOWN_METRICS="${obs_work}/m_store.json" \
    "${cli}" analyze --logs "${obs_work}/logs" --students 60 --seed 11 >/dev/null

  echo "=== obs: validate JSON shapes ==="
  python3 - "${obs_work}/m.json" "${obs_work}/t.json" "${obs_work}/m_ingest.json" \
    "${obs_work}/m_store.json" "${obs_work}/logs" <<'PY'
import json, os, sys
m_path, t_path, ingest_path, store_path, logs_dir = sys.argv[1:6]

def names(doc):
    return {entry["name"]
            for section in ("counters", "gauges", "histograms")
            for entry in doc[section]}

m = json.load(open(m_path))
for section in ("counters", "gauges", "histograms"):
    assert isinstance(m[section], list), f"missing {section}"
for h in m["histograms"]:
    assert len(h["buckets"]) >= 2, f"{h['name']}: too few buckets"
    assert h["buckets"][-1]["le"] is None, f"{h['name']}: no overflow bucket"
    assert sum(b["count"] for b in h["buckets"]) == h["count"], h["name"]
subsystems = {n.split("/")[0] for n in names(m)}
want = {"pipeline", "study", "stream", "sketch", "thread_pool", "process"}
missing = want - subsystems
assert not missing, f"metrics missing subsystems: {missing} (got {subsystems})"

ing = json.load(open(ingest_path))
assert any(n.startswith("ingest/") for n in names(ing)), "no ingest metrics"

# The ingest counters against the files themselves: every byte of the four
# logs read exactly once, and every data row (non-blank, header excluded)
# kept by the strict read.
logs = [os.path.join(logs_dir, f)
        for f in ("conn.log", "dhcp.log", "dns.log", "ua.log")]
ic = {e["name"]: e["value"] for e in ing["counters"] if e["name"].startswith("ingest/")}
want_bytes = sum(os.path.getsize(f) for f in logs)
assert ic["ingest/bytes_read"] == want_bytes, \
    f"ingest/bytes_read {ic['ingest/bytes_read']} != {want_bytes} bytes of logs"
want_rows = 0
for f in logs:
    with open(f, "rb") as fh:
        want_rows += sum(1 for line in fh if line.strip()) - 1
assert ic["ingest/lines_kept"] == want_rows, \
    f"ingest/lines_kept {ic['ingest/lines_kept']} != {want_rows} data rows"

# The paper's data funnel: every raw flow lands in exactly one of kept,
# visitor-filtered and unattributed, and retention only removes devices.
for path, doc in ((m_path, m), (ingest_path, ing)):
    c = {e["name"]: e["value"] for e in doc["counters"]
         if e["name"].startswith("pipeline/")}
    assert c["pipeline/raw_flows"] == (c["pipeline/kept_flows"]
                                       + c["pipeline/visitor_flows"]
                                       + c["pipeline/unattributed_flows"]), \
        f"{path}: flow funnel does not add up: {c}"
    assert c["pipeline/devices_retained"] <= c["pipeline/devices_observed"], \
        f"{path}: more devices retained than observed: {c}"
st = json.load(open(store_path))
assert any(n.startswith("store/") for n in names(st)), "no store metrics"

t = json.load(open(t_path))
events = [e for e in t["traceEvents"] if e["ph"] == "X"]
assert len(events) >= 10, f"only {len(events)} trace events"
for e in events:
    for key in ("name", "pid", "tid", "ts", "dur"):
        assert key in e, f"trace event missing {key}"
assert max(e["args"]["depth"] for e in events) >= 1, "no nested spans"
print(f"ok: {len(names(m))} metrics across {sorted(subsystems)}, "
      f"{len(events)} trace events")
PY
  echo "=== obs: OK ==="
fi

if [[ "${mode}" == "--crash-only" ]]; then
  # The kill-at-every-crash-point harness under asan+ubsan (reuses / creates
  # the asan tree): a label filter over the suite the asan pass runs in full.
  dir=build-asan
  echo "=== crash: configure (${dir}) ==="
  cmake -B "${dir}" -S . "${asan_flags[@]}" >/dev/null
  echo "=== crash: build ==="
  cmake --build "${dir}" -j "${jobs}" --target lockdown_cli crash_harness_test
  echo "=== crash: ctest -L crash (asan+ubsan) ==="
  (cd "${dir}" && ctest --output-on-failure -j "${jobs}" -L crash)
  echo "=== crash: OK ==="
fi

if [[ "${mode}" == "all" || "${mode}" == "--lint-only" || "${mode}" == "lint" ]]; then
  echo "=== lint: build lockdown_lint ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j "${jobs}" --target lockdown_lint >/dev/null
  lint=build/tools/lint/lockdown_lint

  echo "=== lint: lockdown_lint over src/ + tools/ ==="
  "${lint}" --root .

  echo "=== lint: fixture corpus covers every registered rule ==="
  fixtures=tests/tools/lint_fixtures
  while read -r rule _; do
    if [[ ! -f "${fixtures}/${rule}/bad/expected.txt" ]]; then
      echo "FAIL: rule ${rule} has no bad fixture under ${fixtures}/${rule}" >&2
      exit 1
    fi
    if "${lint}" --root "${fixtures}/${rule}/bad" >/dev/null 2>&1; then
      echo "FAIL: ${rule} bad fixture is not caught" >&2
      exit 1
    fi
    if ! "${lint}" --root "${fixtures}/${rule}/good" >/dev/null 2>&1; then
      echo "FAIL: ${rule} good fixture is not clean" >&2
      exit 1
    fi
  done < <("${lint}" --list-rules)
  for dir in "${fixtures}"/*/; do
    rule=$(basename "${dir}")
    if ! "${lint}" --list-rules | grep -q "^${rule} "; then
      echo "FAIL: fixture directory ${dir} names no registered rule" >&2
      exit 1
    fi
  done

  if command -v clang++ >/dev/null 2>&1; then
    echo "=== lint: clang -Wthread-safety build (build-tsa) ==="
    cmake -B build-tsa -S . -DCMAKE_CXX_COMPILER=clang++ >/dev/null
    cmake --build build-tsa -j "${jobs}"
  else
    echo "=== lint: WARNING: clang++ not found; skipping the" \
         "-Wthread-safety annotation proof (install clang to run it) ==="
  fi

  if command -v clang-tidy >/dev/null 2>&1; then
    echo "=== lint: clang-tidy (curated .clang-tidy set) ==="
    cmake -B build -S . >/dev/null  # refresh compile_commands.json
    find src tools -name '*.cc' -print0 |
      xargs -0 -n 4 -P "${jobs}" clang-tidy -p build --quiet --warnings-as-errors=''
  else
    echo "=== lint: WARNING: clang-tidy not found; skipping the" \
         "bugprone/concurrency/performance pass (install clang-tidy to run it) ==="
  fi
  echo "=== lint: OK ==="
fi

echo "all requested passes green"
