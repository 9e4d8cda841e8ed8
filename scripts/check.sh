#!/usr/bin/env bash
# Sanitizer sweep: configure (and by default build + test) the tree
# under the requested sanitizer. With no --sanitizer flag the full
# sweep runs BOTH modes: the classic ASan+UBSan pass over the whole
# suite, then a TSan pass that exercises the parallel engine and the
# result cache with AW_THREADS=4.
#
# The address pass finishes with two extra legs: a chaos leg (the
# resilience suites re-run in the ASan tree with AW_FAULTS set to the
# documented example rates and a fixed seed, so the retry/abort/fallback
# paths execute under fire with leak and UB checking on, and any failure
# replays exactly) and a powerscope leg (the validation suite re-runs
# with AW_POWERSCOPE set and every emitted artifact is validated).
#
# The default sweep ends with a perf-gate leg: a plain (unsanitized)
# build of the PerfLab harness runs every bench that has a committed
# baseline under results/baselines and fails on a median regression
# past the baseline's per-bench tolerance; a negative control with
# AW_BENCH_SLOWDOWN=2 proves the gate can actually fail.
#
# The default sweep also runs a simpar leg: the sharded-simulator
# determinism suite (test_sim_parallel) re-runs in the TSan tree with
# AW_SIM_THREADS=4, then the plain build runs the sim_scaling bench at
# 1 and 8 simulator threads and fails if the 8-thread watts checksum
# diverges from the 1-thread one.
#
# Usage:
#   scripts/check.sh [--configure-only] [--build-dir DIR]
#                    [--sanitizer address|thread]
#                    [--perf-gate] [--update-baselines] [--simpar]
#                    [--service] [--service-obs]
#
#   --configure-only        stop after the CMake configure step (this is
#                           what the `lint` CTest label runs, so plain
#                           `ctest` stays fast)
#   --build-dir DIR         sanitizer build tree [build-asan / build-tsan]
#   --sanitizer MODE        run only one mode: address (ASan+UBSan) or
#                           thread (TSan) [both]
#   --perf-gate             run only the perf-regression gate (plain
#                           build, no sanitizers)
#   --update-baselines      rewrite results/baselines from a fresh run
#                           on this machine instead of gating against it
#   --simpar                run only the sharded-simulator determinism
#                           leg (TSan test + cross-thread checksum)
#   --service               run only the awd daemon leg (smoke client,
#                           chaos client under AW_FAULTS, clean SIGTERM
#                           drain)
#   --service-obs           run only the awd observability leg (daemon
#                           under load with spans + flight recorder on,
#                           SIGUSR1 dump + drain-time trace validated,
#                           TSan pass of the service suite, and the
#                           service_obs overhead gate)
#
# The test step excludes the lint label itself (-LE lint) so the check
# does not recurse into another configure of the same tree.
set -euo pipefail

cd "$(dirname "$0")/.."

build_dir=
configure_only=0
sanitizer=both
perf_gate_only=0
update_baselines=0
simpar_only=0
service_only=0
service_obs_only=0

while [[ $# -gt 0 ]]; do
    case "$1" in
      --configure-only)
        configure_only=1
        shift
        ;;
      --perf-gate)
        perf_gate_only=1
        shift
        ;;
      --update-baselines)
        perf_gate_only=1
        update_baselines=1
        shift
        ;;
      --simpar)
        simpar_only=1
        shift
        ;;
      --service)
        service_only=1
        shift
        ;;
      --service-obs)
        service_obs_only=1
        shift
        ;;
      --build-dir)
        [[ $# -ge 2 ]] || { echo "error: --build-dir needs a value" >&2; exit 2; }
        build_dir=$2
        shift 2
        ;;
      --sanitizer)
        [[ $# -ge 2 ]] || { echo "error: --sanitizer needs a value" >&2; exit 2; }
        sanitizer=$2
        case "${sanitizer}" in
          address|thread) ;;
          *) echo "error: --sanitizer must be 'address' or 'thread'" >&2; exit 2 ;;
        esac
        shift 2
        ;;
      -h|--help)
        sed -n '2,45p' "$0"
        exit 0
        ;;
      *)
        echo "error: unknown option '$1' (see --help)" >&2
        exit 2
        ;;
    esac
done

# One sweep: configure, and unless --configure-only, build + test.
#   $1 = sanitizer mode (address | thread)
#   $2 = build dir
#   $3 = extra ctest args (optional, e.g. a -R filter)
sweep() {
    local mode=$1 dir=$2 filter=${3:-}
    local cmake_value=ON
    [[ ${mode} == thread ]] && cmake_value=thread

    echo "== configure (AW_SANITIZE=${cmake_value}) -> ${dir}"
    cmake -B "${dir}" -S . -DAW_SANITIZE="${cmake_value}" >/dev/null

    if [[ ${configure_only} -eq 1 ]]; then
        echo "== configure OK (${mode} sanitizer flags accepted)"
        return 0
    fi

    echo "== build (${mode})"
    cmake --build "${dir}" -j

    echo "== test (${mode}, excluding the lint label)"
    # AW_THREADS=4 forces the task pool to spin up real workers even on
    # small machines, so TSan actually sees the concurrent paths.
    # shellcheck disable=SC2086
    AW_THREADS=4 ctest --test-dir "${dir}" --output-on-failure \
        -j "$(nproc)" -LE lint ${filter}
}

# The fault-model example rates (see DESIGN.md "Fault model"), pinned to
# a fixed seed: a failing chaos run reproduces bit-for-bit.
chaos_spec="nvml_dropout:0.05,stale_sample:0.02,driver_reset:0.005"
chaos_spec+=",counter_mux_noise:0.03,thermal_runaway:0.01"
chaos_spec+=",cache_corrupt:0.01,seed:1234"

# Chaos pass: rerun the resilience-aware suites in an existing build
# tree with fault injection live. test_fault_injection pins its own
# configs (and so proves the harness under an ambient AW_FAULTS);
# test_smoke drives full measurement campaigns through the injected
# NVML/Nsight/cache faults and must still land inside its bounds.
#   $1 = build dir (already built by a sweep)
chaos() {
    local dir=$1
    echo "== chaos (AW_FAULTS=${chaos_spec}) -> ${dir}"
    AW_FAULTS="${chaos_spec}" AW_THREADS=4 ctest --test-dir "${dir}" \
        --output-on-failure -j "$(nproc)" -LE lint \
        -R "test_fault_injection|test_smoke"
}

# PowerScope leg: run the Volta validation suite in an existing build
# tree with the powerscope sink live, then validate every emitted
# artifact — both JSON documents through the CLI's strict parser and a
# complete (non-truncated) HTML dashboard.
#   $1 = build dir (already built by a sweep)
powerscope() {
    local dir=$1
    local base="${dir}/powerscope_check"
    echo "== powerscope (AW_POWERSCOPE=${base}) -> ${dir}"
    rm -f "${base}.json" "${base}.trace.json" "${base}.html"
    AW_POWERSCOPE="${base}" AW_THREADS=4 \
        "${dir}/bench/fig07_volta_validation" >/dev/null
    for artifact in "${base}.json" "${base}.trace.json"; do
        "${dir}/examples/accelwattch_cli" --validate-json "${artifact}"
    done
    grep -q "</html>" "${base}.html"
    echo "== powerscope artifacts validated (${base}.{json,trace.json,html})"
}

# Perf-regression gate: a plain build (sanitizers would swamp the
# timings) of the PerfLab harness, gated median-vs-median against the
# committed baselines. Each baseline carries its own tolerance_pct, so
# noisy benches can be given more headroom without loosening the rest.
# Ends with a negative control: a synthetic 2x slowdown on a cheap bench
# MUST trip the gate, proving the failure path works before we trust
# the pass.
perfgate() {
    local dir=build-perf
    echo "== perf gate: configure + build (plain) -> ${dir}"
    cmake -B "${dir}" -S . >/dev/null
    cmake --build "${dir}" -j --target aw_bench accelwattch_cli >/dev/null

    if [[ ${update_baselines} -eq 1 ]]; then
        echo "== perf gate: rewriting results/baselines"
        "${dir}/bench/aw_bench" --baseline-dir results/baselines \
            --update-baselines --out-dir "${dir}/perf-gate-results"
        echo "== baselines updated (commit results/baselines/*.json)"
        return 0
    fi

    echo "== perf gate: run benches with committed baselines"
    "${dir}/bench/aw_bench" --baseline-dir results/baselines \
        --out-dir "${dir}/perf-gate-results"

    echo "== perf gate: validate artifact schema"
    local artifact
    artifact=$(ls "${dir}"/perf-gate-results/BENCH_*.json | head -1)
    "${dir}/examples/accelwattch_cli" --validate-json "${artifact}"

    echo "== perf gate: negative control (2x synthetic slowdown must fail)"
    if AW_BENCH_SLOWDOWN=2 "${dir}/bench/aw_bench" \
        --baseline-dir results/baselines --filter solver_polyfit \
        --out-dir "${dir}/perf-gate-negative" >/dev/null 2>&1; then
        echo "error: perf gate passed under a 2x synthetic slowdown" >&2
        return 1
    fi
    echo "== perf gate passed (and the negative control failed as required)"
}

# awd service leg: plain build of the daemon + client, exercised over a
# real loopback socket. A smoke run must answer every request, a chaos
# run (the documented service fault rates on a fixed seed, injected into
# the client's own traffic) must leave the daemon alive and answering a
# clean final ping, and SIGTERM must drain cleanly (daemon exit 0).
service_chaos_spec="slow_loris:0.3,malformed_frame:0.2,disconnect:0.2,seed:11"
service_leg() {
    local dir=build-perf
    echo "== service: configure + build (plain) -> ${dir}"
    cmake -B "${dir}" -S . >/dev/null
    cmake --build "${dir}" -j --target awd awd_client >/dev/null

    local portfile="${dir}/awd.port"
    rm -f "${portfile}"
    echo "== service: start awd (ephemeral port -> ${portfile})"
    "${dir}/examples/awd" --port-file "${portfile}" --threads 2 &
    local awd_pid=$!
    # Never leave a daemon behind, whatever fails below.
    trap 'kill "${awd_pid}" 2>/dev/null || true' RETURN

    echo "== service: smoke client (8 mixed requests, all must succeed)"
    "${dir}/examples/awd_client" --port-file "${portfile}" --count 8 --ids

    echo "== service: chaos client (AW_FAULTS=${service_chaos_spec})"
    AW_FAULTS="${service_chaos_spec}" "${dir}/examples/awd_client" \
        --port-file "${portfile}" --count 20 --chaos

    echo "== service: SIGTERM -> clean drain"
    kill -TERM "${awd_pid}"
    local rc=0
    wait "${awd_pid}" || rc=$?
    if [[ ${rc} -ne 0 ]]; then
        echo "error: awd drain exited ${rc} (expected clean 0)" >&2
        return 1
    fi

    # Duplicate-work eliminator under chaos: two daemons share one
    # cross-process memo directory. Daemon B must answer the kernels A
    # published from the shared memo alone, without admitting a job.
    # Then the same seeded fault traffic hits both, and both must
    # survive it, drain cleanly on SIGTERM exactly like the
    # plain-config daemon, and leave nothing in the memo directory but
    # published entries.
    echo "== service: eliminator leg (coalescing + shared memo, 2 daemons)"
    local memodir="${dir}/awd.shared-memo"
    local port_a="${dir}/awd-a.port" port_b="${dir}/awd-b.port"
    rm -rf "${memodir}"
    rm -f "${port_a}" "${port_b}"
    AW_SERVICE_SHARED_MEMO_DIR="${memodir}" \
        "${dir}/examples/awd" --port-file "${port_a}" --threads 2 &
    local pid_a=$!
    AW_SERVICE_SHARED_MEMO_DIR="${memodir}" \
        "${dir}/examples/awd" --port-file "${port_b}" --threads 2 &
    local pid_b=$!
    trap 'kill "${pid_a}" "${pid_b}" 2>/dev/null || true' RETURN

    "${dir}/examples/awd_client" --port-file "${port_a}" --count 8 --ids
    AW_FAULTS="${service_chaos_spec}" "${dir}/examples/awd_client" \
        --port-file "${port_a}" --count 20 --chaos
    # awd_client cycles through 4 kernels, and A's smoke run published
    # all of them: a clean pass over them on B is 4 shared-memo hits.
    "${dir}/examples/awd_client" --port-file "${port_b}" --count 4
    local counters
    counters=$("${dir}/examples/awd_client" --port-file "${port_b}" \
        --stats --scope counters)
    if ! grep -q '"shared_memo_hits":4[,}]' <<<"${counters}" ||
        ! grep -q '"admitted":0[,}]' <<<"${counters}"; then
        echo "error: daemon B did not serve A's published kernels from" \
             "the shared memo alone (want shared_memo_hits 4, admitted 0):" \
             "${counters}" >&2
        return 1
    fi
    AW_FAULTS="${service_chaos_spec}" "${dir}/examples/awd_client" \
        --port-file "${port_b}" --count 20 --chaos

    echo "== service: SIGTERM -> clean drain (both daemons)"
    kill -TERM "${pid_a}" "${pid_b}"
    local rc_a=0 rc_b=0
    wait "${pid_a}" || rc_a=$?
    wait "${pid_b}" || rc_b=$?
    if [[ ${rc_a} -ne 0 || ${rc_b} -ne 0 ]]; then
        echo "error: eliminator-leg drains exited ${rc_a}/${rc_b}" \
             "(expected clean 0/0)" >&2
        return 1
    fi
    # Every store either published <hash>.json or removed its own lock:
    # any other name (a `.lock` or a `.tmp*` file) is a leaked store.
    local stray
    stray=$(ls -A "${memodir}" | grep -Ev '^[0-9a-f]{16}\.json$' || true)
    if [[ -n "${stray}" ]]; then
        echo "error: shared memo holds leftovers of a store:" \
             "${stray//$'\n'/ }" >&2
        return 1
    fi
    rm -rf "${memodir}"
    echo "== service leg passed (daemons survived chaos, drained cleanly)"
}

# awd observability leg: the daemon runs under load with every ISSUE 10
# knob on (span trace, flight recorder, slow-request log), the live
# introspection surfaces (--watch, --stats scopes) must answer, a
# SIGUSR1 must land a valid aw.awd_flight.v1 dump without pausing
# service, and the drain must export a parseable span trace. Then the
# service suite re-runs under TSan (spans cross reactor/worker threads)
# and the service_obs bench gates obs-on throughput within 3% of off
# against the committed baseline.
service_obs_leg() {
    local dir=build-perf
    echo "== service-obs: configure + build (plain) -> ${dir}"
    cmake -B "${dir}" -S . >/dev/null
    cmake --build "${dir}" -j \
        --target awd awd_client accelwattch_cli aw_bench >/dev/null

    local portfile="${dir}/awd-obs.port"
    local tracefile="${dir}/awd-obs-trace.json"
    local dumpfile="${dir}/awd-obs-flight.json"
    rm -f "${portfile}" "${tracefile}" "${dumpfile}"
    echo "== service-obs: start awd (trace + flight recorder + slow log)"
    AW_SERVICE_TRACE="${tracefile}" AW_SERVICE_FLIGHT_N=256 \
        AW_SERVICE_SLOW_MS=30000 AW_SERVICE_FLIGHT_DUMP="${dumpfile}" \
        "${dir}/examples/awd" --port-file "${portfile}" --threads 2 &
    local awd_pid=$!
    trap 'kill "${awd_pid}" 2>/dev/null || true' RETURN

    echo "== service-obs: load (16 mixed requests) + live introspection"
    "${dir}/examples/awd_client" --port-file "${portfile}" --count 16 --ids
    "${dir}/examples/awd_client" --port-file "${portfile}" --watch 2
    "${dir}/examples/awd_client" --port-file "${portfile}" --stats \
        --scope counters | grep -q '"served"'
    "${dir}/examples/awd_client" --port-file "${portfile}" --stats \
        --scope flight | grep -q '"aw.awd_flight.v1"'

    echo "== service-obs: SIGUSR1 -> flight-recorder dump"
    kill -USR1 "${awd_pid}"
    local tries=0
    while [[ ! -s "${dumpfile}" && ${tries} -lt 100 ]]; do
        sleep 0.05
        tries=$((tries + 1))
    done
    if [[ ! -s "${dumpfile}" ]]; then
        echo "error: SIGUSR1 produced no flight dump at ${dumpfile}" >&2
        return 1
    fi
    "${dir}/examples/accelwattch_cli" --validate-json "${dumpfile}"
    grep -q '"aw.awd_flight.v1"' "${dumpfile}"
    # The dump must not have paused the daemon.
    "${dir}/examples/awd_client" --port-file "${portfile}" --ping

    echo "== service-obs: SIGTERM -> clean drain + span-trace export"
    kill -TERM "${awd_pid}"
    local rc=0
    wait "${awd_pid}" || rc=$?
    if [[ ${rc} -ne 0 ]]; then
        echo "error: awd drain exited ${rc} (expected clean 0)" >&2
        return 1
    fi
    if [[ ! -s "${tracefile}" ]]; then
        echo "error: drain exported no span trace at ${tracefile}" >&2
        return 1
    fi
    "${dir}/examples/accelwattch_cli" --validate-json "${tracefile}"
    grep -q 'awd/request' "${tracefile}"

    # Spans cross the reactor, a worker, and the reactor again; the
    # observability suites under TSan race those handoffs for real. The
    # shared-memo suite races the result cache's entry reads on the
    # reactor against workers' stores. (Only those suites: the wider
    # service suite carries wall-clock bounds that TSan's slowdown trips
    # on a 1-CPU box.)
    echo "== service-obs: observability and shared-memo suites under TSan"
    local tsan_dir=build-tsan
    cmake -B "${tsan_dir}" -S . -DAW_SANITIZE=thread >/dev/null
    cmake --build "${tsan_dir}" -j --target test_service >/dev/null
    "${tsan_dir}/tests/test_service" \
        --gtest_filter='ServiceObservability.*:ServiceStats.*:ServiceSharedMemo.*'

    echo "== service-obs: overhead gate (obs-on within 3% of obs-off)"
    "${dir}/bench/aw_bench" --filter service_obs \
        --baseline-dir results/baselines \
        --out-dir "${dir}/service-obs-results"
    echo "== service-obs leg passed"
}

# Sharded-simulator determinism leg.
#   $1 = TSan build dir holding test_sim_parallel (built here if absent)
# Part 1 re-runs the determinism suite under TSan with AW_SIM_THREADS=4
# so the epoch loop's cross-thread handoffs are raced for real; part 2
# runs the sim_scaling bench in the plain tree at 1 and 8 simulator
# threads and fails when the watts checksums differ — the end-to-end
# proof that thread count cannot reach the power numbers.
simpar() {
    local tsan_dir=$1
    local dir=build-perf
    if [[ ! -x "${tsan_dir}/tests/test_sim_parallel" ]]; then
        echo "== simpar: configure + build (AW_SANITIZE=thread) -> ${tsan_dir}"
        cmake -B "${tsan_dir}" -S . -DAW_SANITIZE=thread >/dev/null
        cmake --build "${tsan_dir}" -j --target test_sim_parallel >/dev/null
    fi
    echo "== simpar: determinism suite under TSan (AW_SIM_THREADS=4)"
    AW_SIM_THREADS=4 ctest --test-dir "${tsan_dir}" --output-on-failure \
        -R test_sim_parallel

    echo "== simpar: sim_scaling at 1 and 8 simulator threads -> ${dir}"
    cmake -B "${dir}" -S . >/dev/null
    cmake --build "${dir}" -j --target aw_bench >/dev/null
    AW_SIM_THREADS=1 "${dir}/bench/aw_bench" --filter sim_scaling \
        --out-dir "${dir}/simpar-t1"
    AW_SIM_THREADS=8 "${dir}/bench/aw_bench" --filter sim_scaling \
        --out-dir "${dir}/simpar-t8"
    local c1 c8
    c1=$(grep -o '"watts_checksum": [^,}]*' \
        "${dir}/simpar-t1/BENCH_sim_scaling.json" | head -1)
    c8=$(grep -o '"watts_checksum": [^,}]*' \
        "${dir}/simpar-t8/BENCH_sim_scaling.json" | head -1)
    if [[ -z "${c1}" || "${c1}" != "${c8}" ]]; then
        echo "error: sim_scaling watts checksum diverges across" \
             "AW_SIM_THREADS (t1: '${c1}', t8: '${c8}')" >&2
        return 1
    fi
    echo "== simpar passed (1- and 8-thread checksums identical: ${c1})"
}

if [[ ${simpar_only} -eq 1 ]]; then
    simpar "${build_dir:-build-tsan}"
    exit 0
fi

if [[ ${service_only} -eq 1 ]]; then
    service_leg
    exit 0
fi

if [[ ${service_obs_only} -eq 1 ]]; then
    service_obs_leg
    exit 0
fi

if [[ ${perf_gate_only} -eq 1 ]]; then
    perfgate
    exit 0
fi

case "${sanitizer}" in
  address)
    sweep address "${build_dir:-build-asan}"
    if [[ ${configure_only} -eq 0 ]]; then
        chaos "${build_dir:-build-asan}"
        powerscope "${build_dir:-build-asan}"
    fi
    ;;
  thread)
    sweep thread "${build_dir:-build-tsan}"
    ;;
  both)
    sweep address "${build_dir:-build-asan}"
    if [[ ${configure_only} -eq 0 ]]; then
        chaos "${build_dir:-build-asan}"
        powerscope "${build_dir:-build-asan}"
    fi
    # The TSan pass targets the suites that drive the parallel engine
    # and the cache; the rest of the tree is serial and already covered
    # by the address pass.
    tsan_dir=${build_dir:+${build_dir}-tsan}
    sweep thread "${tsan_dir:-build-tsan}" \
        "-R test_parallel|test_sim_parallel|test_result_cache|test_calibration|test_integration"
    if [[ ${configure_only} -eq 0 ]]; then
        simpar "${tsan_dir:-build-tsan}"
        perfgate
        service_leg
        service_obs_leg
    fi
    ;;
esac

echo "== sanitizer sweep passed"
