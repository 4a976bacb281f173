#!/usr/bin/env bash
# Tier-1 verification, three times over:
#   1. Release       — the configuration the benches and users run,
#      built with -Werror so a new warning fails the lane;
#   2. Debug + ASan/UBSan (-DPIPESCHED_SANITIZE=address,undefined) — the
#      configuration that catches lifetime and UB bugs the optimizer hides;
#   3. Debug + TSan (-DPIPESCHED_SANITIZE=thread), focused on the
#      concurrency surface — the thread pool that runs corpus blocks, the
#      per-thread slots under the trace collector and the metrics
#      registry, the sampling profiler, the HTTP exporter and the corpus
#      runner whose workers fill the per-block records.
#      TSan cannot be combined with ASan, hence the separate lane; it
#      builds only the concurrency-relevant tests to keep the lane fast.
# Then a short perfbench run per workload, smoke lanes over the built
# binaries, and the bench regression gates.
#
# Usage: tools/ci.sh [jobs]   (defaults to nproc)
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="${1:-$(nproc)}"

run_suite() {
  local dir="$1"; shift
  echo "==== configuring ${dir} ($*) ===="
  cmake -B "${dir}" -S . "$@"
  echo "==== building ${dir} ===="
  cmake --build "${dir}" -j "${jobs}"
  echo "==== testing ${dir} ===="
  ctest --test-dir "${dir}" --output-on-failure -j "${jobs}"
}

run_suite build-ci-release -DCMAKE_BUILD_TYPE=Release -DPIPESCHED_WERROR=ON

run_suite build-ci-sanitize \
  -DCMAKE_BUILD_TYPE=Debug \
  -DPIPESCHED_SANITIZE=address,undefined

# TSan lane: data races between corpus workers, scrapers and the sampler
# do not reproduce deterministically — only TSan sees them reliably.
echo "==== configuring build-ci-tsan (thread sanitizer) ===="
cmake -B build-ci-tsan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DPIPESCHED_SANITIZE=thread
echo "==== building build-ci-tsan (concurrency tests) ===="
cmake --build build-ci-tsan -j "${jobs}" \
  --target test_util test_trace test_metrics test_profiler \
  test_http_exporter test_corpus_runner
echo "==== TSan: thread pool ===="
./build-ci-tsan/tests/test_util --gtest_filter='ThreadPool.*'
echo "==== TSan: trace collector (per-thread buffers from pool workers) ===="
./build-ci-tsan/tests/test_trace
echo "==== TSan: metrics registry (per-thread cells, concurrent readers) ===="
./build-ci-tsan/tests/test_metrics
echo "==== TSan: sampling profiler (sampler racing annotated workers) ===="
./build-ci-tsan/tests/test_profiler
echo "==== TSan: HTTP exporter (concurrent scrapes racing a live search) ===="
./build-ci-tsan/tests/test_http_exporter
echo "==== TSan: corpus runner (pool workers writing per-block records) ===="
./build-ci-tsan/tests/test_corpus_runner

# perfbench correctness smoke: a short run of each workload must pass
# perfbench's own gate — every schedule checked by the simulator, the
# interpreter and the register verifier, the CP cross-check, and an
# exact-count fingerprint that repeats in every pass — and that
# fingerprint must equal the workload's committed line in
# tools/perfbench_fingerprints.txt, so a change that moves the search on
# every pass fails too. Each workload runs at the default seed and at
# --seed 7, whose line is keyed "W --seed 7". A non-zero exit is a failed
# check, not a slow run: timing is not gated here.
for workload in corpus large_blocks regs_tight; do
  for seed_args in "" "--seed 7"; do
    key="${workload}${seed_args:+ ${seed_args}}"
    echo "==== perfbench smoke: ${key} ===="
    report="$(mktemp)"
    # shellcheck disable=SC2086  # seed_args is empty or two words
    python3 perfbench/run.py --workload "${workload}" ${seed_args} \
      --seconds 3 --trace 0 | tee "${report}"
    if ! diff <(grep "^${key}: " tools/perfbench_fingerprints.txt) \
        <(sed -n "s/^fingerprint (identical in every pass): /${key}: /p" \
          "${report}"); then
      echo "perfbench ${key}: fingerprint differs from" \
        "tools/perfbench_fingerprints.txt" >&2
      exit 1
    fi
    rm -f "${report}"
  done
done

# Traced corpus smoke, in BOTH configurations: a small corpus run with
# PS_TRACE must produce well-formed Chrome trace-event JSON (validated
# with python's strict parser) carrying the per-block spans and the
# search heartbeat counters, and psc --trace must do the same for a
# single-block compile.
traced_smoke() {
  local build="$1"
  echo "==== traced corpus smoke (${build}) ===="
  local dir
  dir="$(mktemp -d)"
  (cd "${dir}" && \
    PS_CORPUS_RUNS=200 PS_TRACE="${dir}/corpus_trace.json" \
    "${OLDPWD}/${build}/bench/bench_paper" > /dev/null)
  python3 -m json.tool "${dir}/corpus_trace.json" > /dev/null
  grep -q '"corpus_block"' "${dir}/corpus_trace.json"
  grep -q '"search/nodes_expanded"' "${dir}/corpus_trace.json"
  echo "x = a * b + c; y = x / d;" | \
    "./${build}/tools/psc" --trace "${dir}/psc_trace.json" > /dev/null 2>&1
  python3 -m json.tool "${dir}/psc_trace.json" > /dev/null
  grep -q '"compile_block"' "${dir}/psc_trace.json"
  rm -rf "${dir}"
}

traced_smoke build-ci-release
traced_smoke build-ci-sanitize

# Metrics-enabled corpus smoke, in BOTH configurations: a small corpus
# run with PS_METRICS must export a non-empty snapshot in each format —
# the .prom output must carry well-formed TYPE lines and the search/
# corpus families, the .json output must satisfy python's strict parser —
# and psc --metrics must do the same for a single-block compile.
metrics_smoke() {
  local build="$1"
  echo "==== metrics corpus smoke (${build}) ===="
  local dir
  dir="$(mktemp -d)"
  (cd "${dir}" && \
    PS_CORPUS_RUNS=200 PS_METRICS="${dir}/corpus_metrics.prom" \
    "${OLDPWD}/${build}/bench/bench_paper" > /dev/null)
  grep -q '^# TYPE ps_search_nodes_expanded_total counter' \
    "${dir}/corpus_metrics.prom"
  # bench_paper runs the corpus once per Table 7 row into one snapshot,
  # so assert non-zero cumulative totals, not exact counts.
  grep -Eq '^ps_corpus_blocks_total\{status="ok"\} [1-9][0-9]*$' \
    "${dir}/corpus_metrics.prom"
  grep -Eq '^ps_search_seconds_bucket\{le="\+Inf"\} [1-9][0-9]*$' \
    "${dir}/corpus_metrics.prom"
  (cd "${dir}" && \
    PS_CORPUS_RUNS=200 PS_METRICS="${dir}/corpus_metrics.json" \
    "${OLDPWD}/${build}/bench/bench_paper" > /dev/null)
  python3 -m json.tool "${dir}/corpus_metrics.json" > /dev/null
  grep -q '"ps_search_runs_total"' "${dir}/corpus_metrics.json"
  echo "x = a * b + c; y = x / d;" | \
    "./${build}/tools/psc" --metrics "${dir}/psc_metrics.json" \
    > /dev/null 2>&1
  python3 -m json.tool "${dir}/psc_metrics.json" > /dev/null
  grep -q '"ps_compile_stage_seconds"' "${dir}/psc_metrics.json"
  rm -rf "${dir}"
}

metrics_smoke build-ci-release
metrics_smoke build-ci-sanitize

# Profiled corpus smoke, in BOTH configurations: a small corpus run with
# PS_PROFILE must produce a non-empty collapsed-stack file in which every
# line is "phase[;subphase...] count" (the format flamegraph.pl consumes)
# with the annotated top-level phases present, and psc --profile /
# --watchdog-seconds must run a compile end to end and write the profile
# file (a sub-millisecond compile may legitimately collect zero samples —
# the file just ends up empty).
profiled_smoke() {
  local build="$1"
  echo "==== profiled corpus smoke (${build}) ===="
  local dir
  dir="$(mktemp -d)"
  (cd "${dir}" && \
    PS_CORPUS_RUNS=200 PS_PROFILE="${dir}/corpus.folded" \
    PS_WATCHDOG=60 \
    "${OLDPWD}/${build}/bench/bench_paper" > /dev/null)
  test -s "${dir}/corpus.folded"
  if grep -Evq '^[A-Za-z0-9_;]+ [0-9]+$' "${dir}/corpus.folded"; then
    echo "FAIL: malformed collapsed-stack line in corpus.folded:" >&2
    grep -Ev '^[A-Za-z0-9_;]+ [0-9]+$' "${dir}/corpus.folded" >&2
    exit 1
  fi
  grep -q '^corpus_block' "${dir}/corpus.folded"
  echo "x = a * b + c; y = x / d;" | \
    "./${build}/tools/psc" --profile "${dir}/psc.folded" \
    --watchdog-seconds 60 --stats > /dev/null 2> "${dir}/psc_stats.log"
  test -f "${dir}/psc.folded"
  grep -q '; profile: ' "${dir}/psc_stats.log"
  rm -rf "${dir}"
}

profiled_smoke build-ci-release
profiled_smoke build-ci-sanitize

# Served corpus smoke, in BOTH configurations: a corpus run with PS_SERVE=0
# must bind an ephemeral port, print it on stderr, and answer live scrapes
# mid-run — /healthz, /readyz, /metrics (well-formed exposition carrying
# the build-info and self-observation families), /metrics.json and /status
# (both must satisfy python's strict JSON parser), an on-demand
# /profile?seconds=1, and a 404 for unknown paths — then shut the server
# down cleanly and exit 0 when the corpus completes.
serve_smoke() {
  local build="$1" runs="$2"
  echo "==== served corpus smoke (${build}) ===="
  local dir pid port rc
  dir="$(mktemp -d)"
  # Pre-create the log: the port-polling sed below can race the
  # backgrounded subshell's redirection opening the file.
  : > "${dir}/serve.log"
  (cd "${dir}" && PS_CORPUS_RUNS="${runs}" PS_SERVE=0 \
    exec "${OLDPWD}/${build}/bench/bench_paper" \
    > /dev/null 2> "${dir}/serve.log") &
  pid=$!
  port=""
  for _ in $(seq 1 100); do
    port="$(sed -n \
      's#.*serving observability endpoints on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' \
      "${dir}/serve.log")"
    [[ -n "${port}" ]] && break
    sleep 0.1
  done
  if [[ -z "${port}" ]]; then
    echo "FAIL: served bench never printed its port:" >&2
    cat "${dir}/serve.log" >&2
    exit 1
  fi
  local url="http://127.0.0.1:${port}"
  [[ "$(curl -fsS "${url}/healthz")" == "ok" ]]
  [[ "$(curl -fsS "${url}/readyz")" == "ready" ]]
  curl -fsS "${url}/metrics" > "${dir}/scrape.prom"
  grep -q '^# TYPE ps_build_info gauge' "${dir}/scrape.prom"
  curl -fsS "${url}/metrics.json" | python3 -m json.tool > /dev/null
  curl -fsS "${url}/status" > "${dir}/status.json"
  python3 -m json.tool "${dir}/status.json" > /dev/null
  grep -q '"progress"' "${dir}/status.json"
  curl -fsS "${url}/profile?seconds=1" > "${dir}/live.folded"
  test -s "${dir}/live.folded"
  rc="$(curl -s -o /dev/null -w '%{http_code}' "${url}/no-such-endpoint")"
  if [[ "${rc}" != "404" ]]; then
    echo "FAIL: unknown path answered ${rc}, expected 404" >&2
    exit 1
  fi
  # By now (after the 1 s profile window) corpus blocks have completed and
  # the self-observation counters must have registered the scrapes above.
  curl -fsS "${url}/metrics" > "${dir}/scrape2.prom"
  grep -Eq '^ps_corpus_blocks_total\{status="ok"\} [1-9]' "${dir}/scrape2.prom"
  grep -Eq '^ps_http_requests_total\{code="200",endpoint="/healthz"\} [1-9]' \
    "${dir}/scrape2.prom"
  rc=0
  wait "${pid}" || rc=$?
  if [[ "${rc}" -ne 0 ]]; then
    echo "FAIL: served bench exited ${rc} after scrapes:" >&2
    cat "${dir}/serve.log" >&2
    exit 1
  fi
  rm -rf "${dir}"
}

# The run must outlive the scrapes and the 1 s profile window: the Release
# build runs the four Table 7 rows over 16,000 blocks in about 6 s on a
# 4-core host.
serve_smoke build-ci-release 16000
serve_smoke build-ci-sanitize 2000

# Graceful-interrupt smoke: SIGINT mid-run must stop the server, finish
# the progress line, flush the PS_METRICS snapshot, and exit 130
# (128 + SIGINT) — not die with a half-written file. The `exec` above and
# here matters: it makes $! the bench binary's own PID (a plain compound
# command backgrounds a subshell, and signaling that proves nothing).
echo "==== graceful SIGINT smoke (build-ci-release) ===="
int_dir="$(mktemp -d)"
: > "${int_dir}/serve.log"
(cd "${int_dir}" && PS_CORPUS_RUNS=100000 PS_SERVE=0 \
  PS_METRICS="${int_dir}/flushed.prom" \
  exec "${OLDPWD}/build-ci-release/bench/bench_paper" \
  > /dev/null 2> "${int_dir}/serve.log") &
int_pid=$!
for _ in $(seq 1 100); do
  grep -q 'serving observability endpoints' "${int_dir}/serve.log" && break
  sleep 0.1
done
sleep 0.5
kill -INT "${int_pid}"
rc=0
wait "${int_pid}" || rc=$?
if [[ "${rc}" -ne 130 ]]; then
  echo "FAIL: interrupted bench exited ${rc}, expected 130" >&2
  cat "${int_dir}/serve.log" >&2
  exit 1
fi
grep -q 'interrupted (SIGINT)' "${int_dir}/serve.log"
grep -q '^# TYPE ps_corpus_blocks_total counter' "${int_dir}/flushed.prom"
rm -rf "${int_dir}"

# Stall-dump smoke: the watchdog test's stalled fake search writes its
# flight-recorder dump where PS_TEST_STALL_JSON points; the file must
# survive python's strict JSON parser and carry the ring + phase stacks.
echo "==== watchdog stall JSON smoke (build-ci-release) ===="
stall_dir="$(mktemp -d)"
PS_TEST_STALL_JSON="${stall_dir}/stall.json" \
  ./build-ci-release/tests/test_profiler \
  --gtest_filter='ProfilerTest.WatchdogDumpsStalledSearchOnceAndSparesProgress'
python3 -m json.tool "${stall_dir}/stall.json" > /dev/null
grep -q '"ring"' "${stall_dir}/stall.json"
grep -q '"phase_stacks"' "${stall_dir}/stall.json"
rm -rf "${stall_dir}"

# CLI argument validation smoke: malformed numeric flag values must be
# rejected with a diagnostic and exit code 2 — never crash with an
# uncaught std::invalid_argument (the pre-fix behavior) and never be
# silently misparsed.
cli_flag_smoke() {
  local build="$1"
  echo "==== psc flag validation smoke (${build}) ===="
  local rc out
  for bad in "--deadline bogus" "--lambda -3" "--lambda 4x" \
             "--registers 1e3" "--split --lambda"; do
    rc=0
    # shellcheck disable=SC2086  # intentional word-splitting of flag+value
    out="$(echo "x = a;" | "./${build}/tools/psc" ${bad} 2>&1)" || rc=$?
    if [[ "${rc}" -ne 2 ]]; then
      echo "FAIL: psc ${bad} exited ${rc}, expected 2" >&2
      exit 1
    fi
    if ! grep -q "psc: invalid value for" <<< "${out}"; then
      echo "FAIL: psc ${bad} did not print the invalid-value diagnostic:" >&2
      echo "${out}" >&2
      exit 1
    fi
  done
  # A well-formed invocation must still succeed.
  echo "x = a * b;" | "./${build}/tools/psc" --lambda 100 > /dev/null
}

cli_flag_smoke build-ci-release
cli_flag_smoke build-ci-sanitize

# Bench regression gate: re-run the committed baseline's corpus
# configuration (PS_CORPUS_RUNS must match BENCH_corpus.json, see
# EXPERIMENTS.md) and diff the fresh roll-up against the committed one.
# Correctness fields compare exactly; timing fields get a generous CI
# allowance (shared runners are noisy) on top of the default noise
# policy. The self-diff guards the gate itself: identical inputs must
# always exit 0.
echo "==== bench regression gate (build-ci-release) ===="
./build-ci-release/tools/bench_diff BENCH_corpus.json BENCH_corpus.json
gate_dir="$(mktemp -d)"
(cd "${gate_dir}" && \
  PS_CORPUS_RUNS=300 "${OLDPWD}/build-ci-release/bench/bench_paper" \
  > /dev/null)
./build-ci-release/tools/bench_diff --rel-tol 1.0 \
  BENCH_corpus.json "${gate_dir}/BENCH_corpus.json"
rm -rf "${gate_dir}"

# Section 5.3 smoke: paper_protocol() at bench_lambda's curtail point of
# 20,000 must leave some searches truncated, or the lambda x10/x50
# re-runs measure nothing.
echo "==== lambda convergence smoke (build-ci-release) ===="
lambda_dir="$(mktemp -d)"
(cd "${lambda_dir}" && \
  PS_CORPUS_RUNS=1000 "${OLDPWD}/build-ci-release/bench/bench_lambda" \
  > bench_lambda.log)
if ! grep -Eq 'truncated searches: [1-9][0-9]*$' \
    "${lambda_dir}/bench_lambda.log"; then
  echo "FAIL: bench_lambda truncated no search:" >&2
  cat "${lambda_dir}/bench_lambda.log" >&2
  exit 1
fi
rm -rf "${lambda_dir}"

# Corpus smoke under the sanitizers: the wall-clock deadline and the
# per-block fault/reproducer paths are timing- and exception-heavy, so
# exercise them explicitly beyond their unit tests — first the focused
# tests, then a real (small) corpus run with a deadline tight enough that
# some searches curtail on the clock.
echo "==== corpus smoke (sanitized): deadline + fault-injection paths ===="
./build-ci-sanitize/tests/test_corpus_runner \
  --gtest_filter='Deadline.*:CorpusRunner.FaultInjectionKeepsOtherRecords:CorpusRunner.ExportsAndRollupSurviveFaultAndDeadline'
smoke_dir="$(mktemp -d)"
(cd "${smoke_dir}" && \
  PS_CORPUS_RUNS=300 PS_DEADLINE=0.0005 \
  "${OLDPWD}/build-ci-sanitize/bench/bench_paper" > bench_paper_smoke.log)
grep -q "Curtailed (deadline)" "${smoke_dir}/bench_paper_smoke.log"
test -s "${smoke_dir}/BENCH_corpus.json"
test -s "${smoke_dir}/corpus_records.jsonl"
rm -rf "${smoke_dir}"

echo "==== CI OK: Release, ASan/UBSan, TSan and perfbench lanes all green ===="
