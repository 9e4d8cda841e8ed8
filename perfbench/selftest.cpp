/**
 * @file
 * Self-tests of the benchmark's own machinery (run.py --selftest runs
 * these, then its own checks of the metrics against BENCHMARK.json).
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>

#include "harness.hpp"

namespace perfbench {

namespace {

int failures = 0;

void
check(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    failures += !ok;
}

/** Nearest-rank percentile straight off a full sort. */
double
sortedPercentile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    const auto k = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::max<size_t>(k, 1) - 1];
}

void
testPercentile()
{
    std::mt19937_64 gen(7);
    std::lognormal_distribution<double> dist(0, 1);
    bool allMatch = true;
    for (size_t n : {20, 21, 57, 200, 999, 1000, 1001, 5000}) {
        std::vector<double> v(n);
        for (double &x : v)
            x = dist(gen);
        for (double p : {50.0, 90.0, 99.0}) {
            double got = 0;
            const auto k = static_cast<size_t>(
                std::ceil(p / 100.0 * static_cast<double>(n)));
            const bool reportable = n - k >= kMinTailSamples;
            const bool ok = percentile(v, p, got);
            allMatch &= ok == reportable;
            if (ok)
                allMatch &= got == sortedPercentile(v, p);
        }
    }
    check(allMatch, "percentile matches an exact sort on random samples");

    std::vector<double> v(1000);
    for (size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<double>(v.size() - i);
    double x = 0;
    check(percentile(v, 99, x) && x == 990,
          "p99 of 1..1000 is 990 with exactly ten samples beyond it");
    v.pop_back();
    check(!percentile(v, 99, x), "p99 of 999 samples is refused");
    check(!percentile(std::vector<double>(19, 1.0), 50, x),
          "p50 of 19 samples is refused");
    check(percentile(std::vector<double>(20, 1.0), 50, x),
          "p50 of 20 samples is reported");
    check(median({3, 1, 2}) == 2 && median({4, 1, 2, 3}) == 2.5,
          "median of odd and even counts");
}

void
testSchedule()
{
    check(awdScheduleDigest(42, 3000) == awdScheduleDigest(42, 3000),
          "same seed gives an identical schedule and kernel stream");
    check(awdScheduleDigest(42, 3000) != awdScheduleDigest(43, 3000),
          "another seed gives another schedule");
}

void
testTracedCampaign(const std::string &workdir)
{
    // One untraced + one traced cold campaign; the run itself fails on
    // differing outputs or work counts (sim.kernels,
    // hw.nvml.measurements, cache.writes).
    Options opts;
    opts.workload = "campaign_cold";
    opts.trace = true;
    opts.seconds = 0;
    opts.workdir = workdir + "/selftest_campaign";
    Report report;
    runCampaign(opts, report);
    removeDirectory(opts.workdir);
    for (const std::string &p : report.problems)
        std::printf("     %s\n", p.c_str());
    check(report.correct,
          "traced campaign reproduces the library outputs and work counts");
}

} // namespace

int
runSelftests(const std::string &workdir)
{
    testPercentile();
    testSchedule();
    testTracedCampaign(workdir);
    return failures;
}

} // namespace perfbench
