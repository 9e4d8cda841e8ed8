/**
 * @file
 * Tests of the profiling-zone collector and the run-telemetry sink:
 * zone nesting, per-thread buffers, per-zone tallies and their
 * exclusive-time rule, tally-only zones in the simulator, Chrome
 * trace-event export, and the telemetry JSON/CSV documents (all
 * round-tripped through the strict JSON parser).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/table.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/powerscope.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sim/gpusim.hpp"
#include "trace/workload.hpp"

using namespace aw;
using namespace aw::obs;

namespace {

class ProfilerTest : public testing::Test
{
  protected:
    void SetUp() override
    {
        Profiler::instance().clear();
        Profiler::instance().setEnabled(true);
    }
    void TearDown() override
    {
        Profiler::instance().setEnabled(false);
        Profiler::instance().clear();
    }
};

/** Zone tallies by name; a name that never closed reads all zeros. */
ZoneStat
zoneStat(const std::string &name)
{
    for (ZoneStat &z : Profiler::instance().zoneStats())
        if (z.name == name)
            return z;
    return ZoneStat{name};
}

void
spinFor(double sec)
{
    auto t0 = std::chrono::steady_clock::now();
    volatile double sink = 0;
    while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
               .count() < sec)
        sink = sink + 1.0;
}

/** A kernel whose memory instructions open the `sim/memory` zone. */
KernelDescriptor
memoryKernel(int iterations)
{
    KernelDescriptor k = makeKernel("zone_memory",
                                    {{OpClass::FpFma, 0.5},
                                     {OpClass::LdGlobal, 0.5}},
                                    16, 4);
    k.memFootprintKb = 256;
    k.iterations = iterations;
    return k;
}

TEST_F(ProfilerTest, DisabledProfilerRecordsNothing)
{
    Profiler::instance().setEnabled(false);
    {
        AW_PROF_SCOPE("off/zone");
    }
    EXPECT_TRUE(Profiler::instance().events().empty());
    EXPECT_TRUE(Profiler::instance().zoneStats().empty());
}

TEST_F(ProfilerTest, NestedScopesAttributeExclusiveTime)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point outerStart = Clock::now();
    {
        AW_PROF_SCOPE("sim/wave");
        spinFor(0.02);
        {
            AW_PROF_SCOPE("sim/memory", ZoneKind::TallyOnly);
            spinFor(0.02);
        }
        spinFor(0.02);
    }
    const double outer =
        std::chrono::duration<double>(Clock::now() - outerStart).count();

    const ZoneStat issue = zoneStat("sim/wave");
    const ZoneStat memory = zoneStat("sim/memory");
    EXPECT_EQ(issue.count, 1u);
    EXPECT_EQ(memory.count, 1u);
    // Exclusive attribution: the parent keeps its own wall time minus
    // the child's, however long a loaded host stretches either. The
    // outer clock reads bracket the zone's own, so they differ only by
    // the zone's bookkeeping.
    const double issueSec = issue.selfUs * 1e-6;
    const double memorySec = memory.selfUs * 1e-6;
    EXPECT_GE(memorySec, 0.02); // the child spun for at least 20 ms
    // The parent's own two spins lie inside its zone and outside the
    // child's, so no charge of parent time to the child can pass this.
    EXPECT_GE(issueSec, 0.04);
    EXPECT_NEAR(issueSec, outer - memorySec, 1e-3);
    EXPECT_GE(outer - issueSec, 0.02) << "the child was not subtracted";
    double selfSec = 0;
    for (const ZoneStat &z : Profiler::instance().zoneStats())
        selfSec += z.selfUs * 1e-6;
    EXPECT_NEAR(selfSec, issueSec + memorySec, 1e-12);
    // The tally-only child nests and tallies but adds no trace event.
    ASSERT_EQ(Profiler::instance().events().size(), 1u);
    EXPECT_EQ(Profiler::instance().events()[0].name, "sim/wave");
}

TEST_F(ProfilerTest, SelfTimesSumToOutermostInclusiveTime)
{
    {
        AW_PROF_SCOPE("test/outer");
        GpuSimulator sim(voltaGV100());
        (void)sim.runSass(memoryKernel(8));
        (void)sim.runPtx(memoryKernel(8));
    }
    const std::vector<ZoneStat> zones = Profiler::instance().zoneStats();
    double selfUs = 0;
    for (const ZoneStat &z : zones) {
        EXPECT_GE(z.selfUs, 0.0) << z.name;
        EXPECT_LE(z.selfUs, z.totalUs) << z.name;
        selfUs += z.selfUs;
    }
    const ZoneStat outer = zoneStat("test/outer");
    ASSERT_EQ(outer.count, 1u);
    EXPECT_GT(zoneStat("sim/memory").count, 0u);
    EXPECT_EQ(zoneStat("sim/wave").count, 2u);
    EXPECT_NEAR(selfUs, outer.totalUs, 1e-9 * outer.totalUs);
}

TEST_F(ProfilerTest, TallyOnlyZonesAddNoTraceEventsPerInstruction)
{
    auto profiledRun = [](int iterations, uint64_t &memoryZones) {
        Profiler::instance().clear();
        GpuSimulator sim(voltaGV100());
        (void)sim.runSass(memoryKernel(iterations));
        memoryZones = zoneStat("sim/memory").count;
        return Profiler::instance().events().size();
    };
    uint64_t shortZones = 0, longZones = 0;
    const size_t shortEvents = profiledRun(4, shortZones);
    const size_t longEvents = profiledRun(32, longZones);
    EXPECT_EQ(shortEvents, longEvents);
    EXPECT_GT(shortZones, 0u);
    EXPECT_GT(longZones, shortZones);
}

TEST_F(ProfilerTest, SimulatorOutputBitIdenticalWithLayerToggled)
{
    KernelDescriptor k = makeKernel("phase_identity",
                                    {{OpClass::FpFma, 0.5},
                                     {OpClass::LdGlobal, 0.5}},
                                    16, 4);
    k.memFootprintKb = 256;

    Profiler::instance().setEnabled(false);
    GpuSimulator simOff(voltaGV100());
    KernelActivity off = simOff.runSass(k);

    Profiler::instance().setEnabled(true);
    GpuSimulator simOn(voltaGV100());
    KernelActivity on = simOn.runSass(k);
    EXPECT_GT(zoneStat("sim/memory").count, 0u);

    ASSERT_EQ(off.samples.size(), on.samples.size());
    EXPECT_EQ(off.totalCycles, on.totalCycles);
    EXPECT_EQ(off.elapsedSec, on.elapsedSec);
    auto aggOff = off.aggregate();
    auto aggOn = on.aggregate();
    EXPECT_EQ(aggOff.cycles, aggOn.cycles);
    for (size_t c = 0; c < aggOff.accesses.size(); ++c)
        EXPECT_EQ(aggOff.accesses[c], aggOn.accesses[c]);
}

TEST_F(ProfilerTest, ZoneStatsReadableWhileShardsRecord)
{
    // Shard workers close zones on pool threads while this thread reads
    // the tallies: the TSan leg races the two for real.
    std::atomic<bool> done{false};
    std::thread runner([&done] {
        GpuSimulator sim(voltaGV100());
        SimOptions opts;
        opts.detailSms = 8;
        opts.simThreads = 4;
        (void)sim.runSass(memoryKernel(64), opts);
        done.store(true, std::memory_order_release);
    });
    bool selfWithinTotal = true;
    do {
        for (const ZoneStat &z : Profiler::instance().zoneStats())
            selfWithinTotal &= z.selfUs <= z.totalUs + 1e-6;
    } while (!done.load(std::memory_order_acquire));
    runner.join();
    EXPECT_TRUE(selfWithinTotal);
    EXPECT_EQ(zoneStat("sim/wave").count, 8u);
    EXPECT_EQ(zoneStat("sim/kernel").count, 1u);
    EXPECT_GT(zoneStat("sim/memory").count, 0u);
}

TEST_F(ProfilerTest, EmittedEventsAppearInZoneStats)
{
    Profiler::instance().emit({"awd/request hit", 10.0, 250.0, 900, 0});
    {
        AW_PROF_SCOPE("awd/zone");
    }
    const ZoneStat span = zoneStat("awd/request hit");
    EXPECT_EQ(span.count, 1u);
    EXPECT_DOUBLE_EQ(span.totalUs, 250.0);
    EXPECT_DOUBLE_EQ(span.selfUs, 250.0);
    EXPECT_EQ(zoneStat("awd/zone").count, 1u);
}

TEST_F(ProfilerTest, ZonesNestWithDepthAndContainment)
{
    {
        AW_PROF_SCOPE("outer");
        {
            AW_PROF_SCOPE("inner");
        }
        {
            AW_PROF_SCOPE("inner");
        }
    }
    auto events = Profiler::instance().events();
    ASSERT_EQ(events.size(), 3u);

    // events() is start-time ordered: outer first, then the two inners.
    EXPECT_EQ(events[0].name, "outer");
    EXPECT_EQ(events[0].depth, 0u);
    EXPECT_EQ(events[1].name, "inner");
    EXPECT_EQ(events[1].depth, 1u);
    EXPECT_EQ(events[2].name, "inner");
    EXPECT_EQ(events[2].depth, 1u);

    // Children start after the parent and finish within it.
    for (int i : {1, 2}) {
        EXPECT_GE(events[i].tsUs, events[0].tsUs);
        EXPECT_LE(events[i].tsUs + events[i].durUs,
                  events[0].tsUs + events[0].durUs + 1e-3);
    }
}

TEST_F(ProfilerTest, ThreadsGetDistinctTids)
{
    {
        AW_PROF_SCOPE("main/zone");
    }
    std::thread worker([] { AW_PROF_SCOPE("worker/zone"); });
    worker.join();

    auto events = Profiler::instance().events();
    ASSERT_EQ(events.size(), 2u);
    std::set<uint32_t> tids;
    for (const auto &e : events)
        tids.insert(e.tid);
    EXPECT_EQ(tids.size(), 2u);
}

TEST_F(ProfilerTest, ZoneStatsAggregateByName)
{
    for (int i = 0; i < 3; ++i) {
        AW_PROF_SCOPE("repeat");
    }
    {
        AW_PROF_SCOPE("once");
    }
    auto stats = Profiler::instance().zoneStats();
    ASSERT_EQ(stats.size(), 2u); // name order: "once", "repeat"
    EXPECT_EQ(stats[0].name, "once");
    EXPECT_EQ(stats[0].count, 1u);
    EXPECT_EQ(stats[1].name, "repeat");
    EXPECT_EQ(stats[1].count, 3u);
    EXPECT_GE(stats[1].totalUs, 0.0);
}

TEST_F(ProfilerTest, UnbalancedEndIsHarmless)
{
    Profiler::instance().end(); // nothing open: must not crash
    {
        AW_PROF_SCOPE("ok");
    }
    EXPECT_EQ(Profiler::instance().events().size(), 1u);
}

TEST_F(ProfilerTest, ChromeTraceJsonIsWellFormed)
{
    {
        AW_PROF_SCOPE("sim/kernel");
        {
            AW_PROF_SCOPE("sim/wave");
        }
    }
    JsonValue doc = parseJson(Profiler::instance().chromeTraceJson());
    ASSERT_TRUE(doc.isObject());
    const JsonValue &events = doc.at("traceEvents");
    ASSERT_TRUE(events.isArray());
    ASSERT_EQ(events.array.size(), 2u);
    for (const JsonValue &e : events.array) {
        EXPECT_EQ(e.at("ph").asString(), "X"); // complete events
        EXPECT_EQ(e.at("cat").asString(), "aw");
        EXPECT_GE(e.at("ts").asNumber(), 0.0);
        EXPECT_GE(e.at("dur").asNumber(), 0.0);
        EXPECT_GE(e.at("tid").asNumber(), 1.0);
        EXPECT_EQ(e.at("pid").asNumber(), 1.0);
    }
    EXPECT_EQ(events.array[0].at("name").asString(), "sim/kernel");
    EXPECT_EQ(events.array[1].at("name").asString(), "sim/wave");
    EXPECT_DOUBLE_EQ(
        events.array[1].at("args").at("depth").asNumber(), 1.0);
}

TEST_F(ProfilerTest, ClearDropsEventsButKeepsEnabledState)
{
    {
        AW_PROF_SCOPE("gone");
    }
    Profiler::instance().clear();
    EXPECT_TRUE(Profiler::instance().events().empty());
    EXPECT_TRUE(Profiler::instance().enabled());
    {
        AW_PROF_SCOPE("fresh");
    }
    EXPECT_EQ(Profiler::instance().events().size(), 1u);
}

TEST(TelemetryTest, JsonDocumentHasAllSections)
{
    Telemetry::instance().clear();
    Profiler::instance().clear();
    metrics().counter("telemetry_test.events").add(4);
    Telemetry::instance().recordKernel(
        {"k1", "validate", 1000.0, 1e-6, 150.0, 140.0});
    Telemetry::instance().recordKernel(
        {"k2", "simulate", 2000.0, 2e-6, 80.0, 0.0});

    JsonValue doc = parseJson(Telemetry::instance().toJson());
    EXPECT_EQ(doc.at("schema").asString(), "aw.telemetry.v1");
    EXPECT_DOUBLE_EQ(
        doc.at("metrics").at("telemetry_test.events").at("value")
            .asNumber(),
        4.0);
    EXPECT_TRUE(doc.at("zones").isArray());

    const JsonValue &kernels = doc.at("kernels");
    ASSERT_EQ(kernels.array.size(), 2u);
    EXPECT_EQ(kernels.array[0].at("name").asString(), "k1");
    EXPECT_EQ(kernels.array[0].at("phase").asString(), "validate");
    EXPECT_DOUBLE_EQ(kernels.array[0].at("cycles").asNumber(), 1000.0);
    EXPECT_DOUBLE_EQ(kernels.array[0].at("modeled_w").asNumber(), 150.0);
    EXPECT_DOUBLE_EQ(kernels.array[1].at("measured_w").asNumber(), 0.0);

    Telemetry::instance().clear();
    EXPECT_TRUE(Telemetry::instance().kernels().empty());
}

TEST(TelemetryTest, CsvHasMetricsAndKernelSections)
{
    Telemetry::instance().clear();
    metrics().counter("telemetry_test.csv").add(1);
    Telemetry::instance().recordKernel(
        {"csv_kernel", "tune", 10.0, 1e-5, 55.0, 54.0});
    std::string csv = Telemetry::instance().toCsv();
    EXPECT_NE(csv.find("name,kind,count,value"), std::string::npos);
    EXPECT_NE(csv.find("kernel,phase,cycles,elapsed_sec"),
              std::string::npos);
    EXPECT_NE(csv.find("csv_kernel,tune,"), std::string::npos);
    Telemetry::instance().clear();
}

// --- file sinks: atomic publication and strict round-trips ---------------

namespace fs = std::filesystem;

class SinkFileTest : public testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("aw_sink_test_" + std::to_string(::getpid()));
        fs::remove_all(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    std::string path(const std::string &leaf) const
    {
        return (dir_ / leaf).string();
    }

    static std::string slurp(const std::string &p)
    {
        std::ifstream in(p);
        EXPECT_TRUE(in) << p;
        std::ostringstream buf;
        buf << in.rdbuf();
        return buf.str();
    }

    /** Atomic publication: no half-written temp files left beside the
     *  artifact. */
    void expectNoTempFiles() const
    {
        for (const auto &e : fs::recursive_directory_iterator(dir_))
            EXPECT_EQ(e.path().string().find(".tmp."), std::string::npos)
                << e.path();
    }

    fs::path dir_;
};

TEST_F(SinkFileTest, WriteFileAtomicCreatesParentsAndPublishes)
{
    std::string p = path("deep/nested/out.txt");
    writeFileAtomic(p, "payload");
    EXPECT_EQ(slurp(p), "payload");
    expectNoTempFiles();
    // Overwrite through the same path: the rename replaces atomically.
    writeFileAtomic(p, "payload2");
    EXPECT_EQ(slurp(p), "payload2");
    expectNoTempFiles();
}

TEST_F(SinkFileTest, MetricsAndTraceSinksRoundTripThroughStrictParser)
{
    metrics().counter("sink_file_test.count").add(2);
    Profiler::instance().clear();
    Profiler::instance().setEnabled(true);
    {
        AW_PROF_SCOPE("sink/zone");
    }

    std::string mp = path("results/metrics.json");
    std::string tp = path("results/trace.json");
    writeMetricsJson(mp);
    writeTraceJson(tp);
    Profiler::instance().setEnabled(false);
    Profiler::instance().clear();

    expectNoTempFiles();
    JsonValue m = parseJson(slurp(mp));
    EXPECT_EQ(m.at("schema").asString(), "aw.telemetry.v1");
    EXPECT_TRUE(m.at("metrics").find("sink_file_test.count") != nullptr);
    ASSERT_EQ(m.at("zones").array.size(), 1u);
    EXPECT_TRUE(m.at("zones").array[0].find("self_us") != nullptr);
    JsonValue t = parseJson(slurp(tp));
    EXPECT_TRUE(t.at("traceEvents").isArray());
}

TEST_F(SinkFileTest, PowerScopeArtifactsRoundTripThroughStrictParser)
{
    PowerScope::instance().clear();
    PowerScope::instance().setEnabled(true);
    PowerScopeRun run;
    run.name = "sink_kernel";
    run.phase = "test";
    run.components = {"const", "alu"};
    ScopeInterval iv;
    iv.durSec = 1;
    iv.totalW = 75;
    iv.componentW = {50, 25};
    run.intervals.push_back(iv);
    run.modeledEnergyJ = run.componentEnergyJ = 75;
    run.measured = {{0.5, 80}};
    run.measuredAvgW = 80;
    PowerScope::instance().record(run);

    std::string base = path("results/powerscope");
    writePowerScope(base);
    PowerScope::instance().setEnabled(false);
    PowerScope::instance().clear();
    expectNoTempFiles();

    // Every emitted artifact parses strictly; the two JSON documents
    // carry their expected top-level shapes, the dashboard is complete.
    JsonValue report = parseJson(slurp(base + ".json"));
    EXPECT_EQ(report.at("schema").asString(), "aw.powerscope.v1");
    EXPECT_EQ(report.at("runs").array.size(), 1u);
    JsonValue trace = parseJson(slurp(base + ".trace.json"));
    EXPECT_TRUE(trace.at("traceEvents").isArray());
    EXPECT_GT(trace.at("traceEvents").array.size(), 2u);
    std::string html = slurp(base + ".html");
    EXPECT_NE(html.find("</html>"), std::string::npos);
    EXPECT_NE(html.find("sink_kernel"), std::string::npos);
}

} // namespace
