/**
 * @file
 * perfbench_runner — one benchmark run of one workload.
 *
 *   perfbench_runner --workload W --seed N --seconds S --trace 0|1
 *                    --workdir DIR
 *   perfbench_runner --probe-cores SEC | --selftest DIR
 *
 * A run prints `PERFBENCH_RECORD {...}` (context: exact work counts,
 * digests, failed checks) and, last, `PERFBENCH_RESULT {...}` with the
 * metrics it measured: end-to-end ones when untraced, per-layer ones
 * when traced. run.py checks them against BENCHMARK.json, reads a
 * per-layer metric the workload did not measure as 0, and wraps the
 * result into the benchmark's result line.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"

namespace perfbench {
namespace {

/** CPU-s / wall-s of a fixed spin on every hardware thread: how many
 *  cores the host actually gives this process right now. */
double
probeEffectiveCores(double seconds)
{
    const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
    const double t0 = nowSec(), cpu0 = processCpuSec();
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < threads; ++i)
        pool.emplace_back([seconds, t0] {
            volatile double x = 1;
            while (nowSec() - t0 < seconds)
                for (int k = 0; k < 10000; ++k)
                    x = x * 1.0000001 + 1e-9;
        });
    for (auto &t : pool)
        t.join();
    return (processCpuSec() - cpu0) / (nowSec() - t0);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload W --seed N --seconds S "
                 "--trace 0|1 --workdir DIR\n"
                 "       perfbench_runner --probe-cores SEC | --selftest DIR\n");
    return 2;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const char *v = i + 1 < argc ? argv[i + 1] : nullptr;
        if (a == "--probe-cores" && v) {
            std::printf("%.4f\n", probeEffectiveCores(std::atof(v)));
            return 0;
        }
        if (a == "--selftest" && v)
            return runSelftests(v) == 0 ? 0 : 1;
        if (!v)
            return usage();
        if (a == "--workload")
            opts.workload = v;
        else if (a == "--seed")
            opts.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            opts.seconds = std::atof(v);
        else if (a == "--trace")
            opts.trace = std::string(v) == "1";
        else if (a == "--workdir")
            opts.workdir = v;
        else
            return usage();
        ++i;
    }
    if (opts.workdir.empty())
        return usage();

    Report report;
    int rc;
    if (opts.workload == "campaign_cold" || opts.workload == "campaign_warm")
        rc = runCampaign(opts, report);
    else if (opts.workload == "awd_mixed")
        rc = runAwdMixed(opts, report);
    else
        return usage();
    if (rc != 0)
        report.fail("workload aborted");

    if (opts.trace)
        report.set("fail_pct",
                   report.attempted
                       ? 100.0 * static_cast<double>(report.failed) /
                             static_cast<double>(report.attempted)
                       : 0,
                   "%");
    for (const auto &[name, vu] : report.metrics)
        std::printf("%-30s %.6g %s\n", name.c_str(), vu.first,
                    vu.second.c_str());
    std::printf("PERFBENCH_RECORD %s\n", report.recordJson().c_str());
    std::printf("PERFBENCH_RESULT %s\n", report.resultJson().c_str());
    std::fflush(stdout);
    return 0;
}
