/**
 * @file
 * Tests for the persistent content-addressed result cache: key
 * stability, hit/miss/corrupt-file behaviour, bit-exact round-trips,
 * and end-to-end determinism of the cached measurement helpers across
 * thread counts and cold/warm cache states.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cfloat>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "common/parallel.hpp"
#include "core/result_cache.hpp"
#include "hw/silicon_model.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "trace/workload.hpp"

using namespace aw;
namespace fs = std::filesystem;

namespace {

/** Fixture: point the process-wide cache at a private scratch dir. */
class ResultCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = "result_cache_test_dir";
        fs::remove_all(dir_);
        auto &cache = ResultCache::instance();
        savedDir_ = cache.directory();
        savedEnabled_ = cache.enabled();
        cache.configure(dir_);
        cache.setEnabled(true);
    }

    void TearDown() override
    {
        auto &cache = ResultCache::instance();
        cache.configure(savedDir_);
        cache.setEnabled(savedEnabled_);
        fs::remove_all(dir_);
    }

    std::string dir_;
    std::string savedDir_;
    bool savedEnabled_ = true;
};

KernelDescriptor
cheapKernel(const std::string &name)
{
    auto k = makeKernel(name, {{OpClass::IntMul, 1.0}}, 160, 8, 32);
    k.bodyInsts = 64;
    k.iterations = 16;
    return k;
}

KernelActivity
sampleActivity()
{
    KernelActivity a;
    a.kernelName = "roundtrip";
    a.totalCycles = 123456.75;
    a.elapsedSec = 8.7654321e-5;
    for (int s = 0; s < 3; ++s) {
        ActivitySample sample;
        sample.cycles = 500.0 + s;
        sample.freqGhz = 1.417;
        sample.voltage = 1.0012345678901234;
        for (size_t i = 0; i < sample.accesses.size(); ++i)
            sample.accesses[i] = 0.1 * static_cast<double>(i) + s;
        sample.avgActiveSms = 79.25;
        sample.avgActiveLanesPerWarp = 31.875;
        for (size_t i = 0; i < sample.unitInsts.size(); ++i)
            sample.unitInsts[i] = 17.0 / (1.0 + static_cast<double>(i));
        sample.intAddInsts = 1e9 / 3.0;
        sample.intMulInsts = 7.0;
        a.samples.push_back(sample);
    }
    return a;
}

/** Sorted names of every file under `dir`, at any depth. */
std::vector<std::string>
fileNames(const std::string &dir)
{
    std::vector<std::string> names;
    for (const auto &e : fs::recursive_directory_iterator(dir))
        names.push_back(e.path().filename().string());
    std::sort(names.begin(), names.end());
    return names;
}

std::string
readBytes(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeBytes(const fs::path &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

/**
 * Write each damaged variant of a stored entry over it, and expect the
 * fetch to miss, count one cache.corrupt and remove the file. `fetch`
 * returns whether it hit; a hit must also return the stored bits, which
 * the caller checks. Warnings are silenced: each case prints one.
 */
void
expectEveryDamageConvicted(const fs::path &path,
                           const std::vector<std::string> &damaged,
                           const std::function<bool()> &fetch)
{
    obs::Counter &corrupt = obs::metrics().counter("cache.corrupt");
    const LogLevel level = logLevel();
    setLogLevel(LogLevel::Fatal);
    size_t bad = 0;
    std::string firstBad;
    for (const std::string &bytes : damaged) {
        writeBytes(path, bytes);
        const double before = corrupt.value();
        const bool hit = fetch();
        if (hit || corrupt.value() != before + 1 || fs::exists(path)) {
            if (bad++ == 0)
                firstBad = bytes;
        }
    }
    setLogLevel(level);
    EXPECT_EQ(bad, 0u) << "first undetected damage: " << firstBad;
}

/** Every prefix of `entry` short of the entry minus its final newline. */
std::vector<std::string>
everyCut(const std::string &entry)
{
    std::vector<std::string> out;
    for (size_t n = 0; n + 1 < entry.size(); ++n)
        out.push_back(entry.substr(0, n));
    return out;
}

/** `entry` with each byte of its value changed, two ways per byte: a
 *  low-bit flip (digit to digit, ',' to '-', 'e' to 'd') and a flip of
 *  0x10 (digits to punctuation such as '"' and ' '). */
std::vector<std::string>
everyValueByteChanged(const std::string &entry)
{
    const std::string marker = ",\"value\":";
    const size_t begin = entry.find(marker) + marker.size();
    const size_t end = entry.size() - 2; // before the closing "}\n"
    std::vector<std::string> out;
    for (size_t i = begin; i < end; ++i)
        for (char mask : {'\x01', '\x10'}) {
            std::string bytes = entry;
            bytes[i] = static_cast<char>(bytes[i] ^ mask);
            out.push_back(std::move(bytes));
        }
    return out;
}

uint64_t
bitsOf(double v)
{
    uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/** True when every field of `a` and `b` holds the same bits. */
bool
sameBits(const KernelActivity &a, const KernelActivity &b)
{
    return a.kernelName == b.kernelName &&
           bitsOf(a.totalCycles) == bitsOf(b.totalCycles) &&
           bitsOf(a.elapsedSec) == bitsOf(b.elapsedSec) &&
           a.samples.size() == b.samples.size() &&
           std::memcmp(a.samples.data(), b.samples.data(),
                       a.samples.size() * sizeof(ActivitySample)) == 0;
}

/** Samples at the edges of what a double holds. */
KernelActivity
edgeActivity()
{
    KernelActivity a = sampleActivity();
    a.kernelName = "edge \"quoted\"\tname";
    a.totalCycles = 9007199254740993.0 * 64; // above 2^53
    a.elapsedSec = DBL_TRUE_MIN;             // smallest subnormal
    ActivitySample &s = a.samples[0];
    s.cycles = 0.0;
    s.freqGhz = -0.0;
    s.voltage = DBL_MAX;
    s.accesses[0] = -DBL_MAX;
    s.accesses[1] = DBL_MIN / 3; // a subnormal
    s.accesses[2] = -DBL_TRUE_MIN;
    s.accesses[3] = 18446744073709551615.0; // 2^64
    s.accesses[4] = 9007199254740993.0;     // 2^53 + 1 (rounds to 2^53)
    s.accesses[5] = 1e300;
    s.unitInsts[0] = -0.0;
    s.intAddInsts = 123456789012345678.0;
    return a;
}

} // namespace

TEST(ResultCacheKeys, Fnv1aReferenceVectors)
{
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(ResultCacheKeys, KeysCoverKernelContentNotJustName)
{
    SiliconOracle card(voltaGV100(), voltaSiliconTruth());
    auto k1 = cheapKernel("same_name");
    auto k2 = cheapKernel("same_name");
    k2.ilpDegree += 1;
    EXPECT_NE(powerMeasurementKey(card, k1, 0, 5),
              powerMeasurementKey(card, k2, 0, 5));
    EXPECT_NE(powerMeasurementKey(card, k1, 0, 5),
              powerMeasurementKey(card, k1, 1.2, 5));
    EXPECT_NE(powerMeasurementKey(card, k1, 0, 5),
              powerMeasurementKey(card, k1, 0, 7));
}

TEST(ResultCacheKeys, HiddenCardIdentityEntersTheKey)
{
    // Two cards with the same public config but different hidden truth
    // or hardware seed measure different power: their keys must differ.
    SiliconOracle a(voltaGV100(), voltaSiliconTruth(), 0x51C0ULL);
    SiliconOracle b(voltaGV100(), voltaSiliconTruth(), 0xBEEFULL);
    SiliconOracle c(voltaGV100(), pascalSiliconTruth(), 0x51C0ULL);
    auto k = cheapKernel("card_identity");
    EXPECT_NE(powerMeasurementKey(a, k, 0, 5),
              powerMeasurementKey(b, k, 0, 5));
    EXPECT_NE(powerMeasurementKey(a, k, 0, 5),
              powerMeasurementKey(c, k, 0, 5));
    EXPECT_EQ(powerMeasurementKey(a, k, 0, 5),
              powerMeasurementKey(a, k, 0, 5));
}

TEST_F(ResultCacheTest, PowerMissThenHitBitExact)
{
    auto &cache = ResultCache::instance();
    const std::string key = "power-test-key";
    double out = 0;
    EXPECT_FALSE(cache.fetchPower(key, out));
    const double stored = 0.1 + 0.2; // not exactly representable as 0.3
    cache.storePower(key, stored);
    ASSERT_TRUE(cache.fetchPower(key, out));
    EXPECT_EQ(out, stored); // bit-exact, not just near
}

TEST_F(ResultCacheTest, ActivityRoundTripsBitExact)
{
    auto &cache = ResultCache::instance();
    const std::string key = "activity-test-key";
    KernelActivity original = sampleActivity();
    KernelActivity out;
    EXPECT_FALSE(cache.fetchActivity(key, out));
    cache.storeActivity(key, original);
    ASSERT_TRUE(cache.fetchActivity(key, out));
    EXPECT_EQ(out.kernelName, original.kernelName);
    EXPECT_EQ(out.totalCycles, original.totalCycles);
    EXPECT_EQ(out.elapsedSec, original.elapsedSec);
    ASSERT_EQ(out.samples.size(), original.samples.size());
    for (size_t s = 0; s < out.samples.size(); ++s) {
        const auto &got = out.samples[s];
        const auto &want = original.samples[s];
        EXPECT_EQ(got.cycles, want.cycles);
        EXPECT_EQ(got.freqGhz, want.freqGhz);
        EXPECT_EQ(got.voltage, want.voltage);
        for (size_t i = 0; i < want.accesses.size(); ++i)
            EXPECT_EQ(got.accesses[i], want.accesses[i]);
        EXPECT_EQ(got.avgActiveSms, want.avgActiveSms);
        EXPECT_EQ(got.avgActiveLanesPerWarp, want.avgActiveLanesPerWarp);
        for (size_t i = 0; i < want.unitInsts.size(); ++i)
            EXPECT_EQ(got.unitInsts[i], want.unitInsts[i]);
        EXPECT_EQ(got.intAddInsts, want.intAddInsts);
        EXPECT_EQ(got.intMulInsts, want.intMulInsts);
    }
}

TEST_F(ResultCacheTest, PowerEntryBytesAreGolden)
{
    // Bytes written by earlier builds: a change to the entry format,
    // the file name or the key hash would turn every existing cache
    // into misses.
    ResultCache::instance().storePower("golden-key", 0.1 + 0.2);
    ASSERT_EQ(fileNames(dir_),
              std::vector<std::string>{"d58077b959132f52.json"});
    EXPECT_EQ(readBytes(fs::path(dir_) / "d58077b959132f52.json"),
              "{\"schema\":2,\"kind\":\"power\",\"key\":\"golden-key\","
              "\"vcrc\":\"6d3cb2ceaf9352cc\","
              "\"value\":0.30000000000000004}\n");
}

TEST_F(ResultCacheTest, ActivityEntryBytesAreGolden)
{
    ResultCache::instance().storeActivity("golden-activity-key",
                                          sampleActivity());
    ASSERT_EQ(fileNames(dir_),
              std::vector<std::string>{"068d3ab9f3413224.json"});
    EXPECT_EQ(
        readBytes(fs::path(dir_) / "068d3ab9f3413224.json"),
        "{\"schema\":2,\"kind\":\"activity\",\"key\":\"golden-activity-key\""
        ",\"vcrc\":\"c0692b530ff41f10\""
        ",\"value\":{\"kernelName\":\"roundtrip\",\"totalCycles\":123456.75"
        ",\"elapsedSec\":8.7654321e-05,\"samples\":[{\"cycles\":500"
        ",\"freqGhz\":1.417,\"voltage\":1.0012345678901233"
        ",\"accesses\":[0,0.1,0.2,0.30000000000000004,0.4,0.5"
        ",0.60000000000000009,0.70000000000000007,0.8,0.9,1,1.1"
        ",1.2000000000000002,1.3,1.4000000000000001,1.5,1.6"
        ",1.7000000000000002,1.8,1.9000000000000001,2,2.1]"
        ",\"avgActiveSms\":79.25,\"avgActiveLanesPerWarp\":31.875"
        ",\"unitInsts\":[17,8.5,5.666666666666667,4.25,3.4"
        ",2.8333333333333335,2.4285714285714284,2.125]"
        ",\"intAddInsts\":333333333.33333331,\"intMulInsts\":7}"
        ",{\"cycles\":501,\"freqGhz\":1.417"
        ",\"voltage\":1.0012345678901233,\"accesses\":[1,1.1,1.2,1.3"
        ",1.4,1.5,1.6,1.7000000000000002,1.8,1.9,2,2.1,2.2,2.3"
        ",2.4000000000000004,2.5,2.6,2.7,2.8,2.9000000000000004,3"
        ",3.1],\"avgActiveSms\":79.25,\"avgActiveLanesPerWarp\":31.875"
        ",\"unitInsts\":[17,8.5,5.666666666666667,4.25,3.4"
        ",2.8333333333333335,2.4285714285714284,2.125]"
        ",\"intAddInsts\":333333333.33333331,\"intMulInsts\":7}"
        ",{\"cycles\":502,\"freqGhz\":1.417"
        ",\"voltage\":1.0012345678901233,\"accesses\":[2,2.1,2.2,2.3"
        ",2.4,2.5,2.6,2.7,2.8,2.9,3,3.1,3.2,3.3,3.4000000000000004"
        ",3.5,3.6,3.7,3.8,3.9000000000000004,4,4.1]"
        ",\"avgActiveSms\":79.25,\"avgActiveLanesPerWarp\":31.875"
        ",\"unitInsts\":[17,8.5,5.666666666666667,4.25,3.4"
        ",2.8333333333333335,2.4285714285714284,2.125]"
        ",\"intAddInsts\":333333333.33333331,\"intMulInsts\":7}]}}\n");
}

TEST_F(ResultCacheTest, EveryCutOfAPowerEntryIsCorrupt)
{
    auto &cache = ResultCache::instance();
    const std::string key = "golden-key";
    const double stored = 0.1 + 0.2;
    cache.storePower(key, stored);
    const std::string entry = readBytes(cache.pathFor(key));
    expectEveryDamageConvicted(cache.pathFor(key), everyCut(entry), [&] {
        double out = 0;
        const bool hit = cache.fetchPower(key, out);
        if (hit) {
            EXPECT_EQ(bitsOf(out), bitsOf(stored));
        }
        return hit;
    });
}

TEST_F(ResultCacheTest, EveryChangedValueByteOfAPowerEntryIsCorrupt)
{
    auto &cache = ResultCache::instance();
    const std::string key = "golden-key";
    const double stored = 0.1 + 0.2;
    cache.storePower(key, stored);
    const std::string entry = readBytes(cache.pathFor(key));
    expectEveryDamageConvicted(
        cache.pathFor(key), everyValueByteChanged(entry), [&] {
            double out = 0;
            const bool hit = cache.fetchPower(key, out);
            if (hit) {
                EXPECT_EQ(bitsOf(out), bitsOf(stored));
            }
            return hit;
        });
}

TEST_F(ResultCacheTest, EveryCutOfAnActivityEntryIsCorrupt)
{
    auto &cache = ResultCache::instance();
    const std::string key = "golden-activity-key";
    const KernelActivity stored = sampleActivity();
    cache.storeActivity(key, stored);
    const std::string entry = readBytes(cache.pathFor(key));
    expectEveryDamageConvicted(cache.pathFor(key), everyCut(entry), [&] {
        KernelActivity out;
        const bool hit = cache.fetchActivity(key, out);
        if (hit) {
            EXPECT_TRUE(sameBits(out, stored));
        }
        return hit;
    });
}

TEST_F(ResultCacheTest, EveryChangedValueByteOfAnActivityEntryIsCorrupt)
{
    auto &cache = ResultCache::instance();
    const std::string key = "golden-activity-key";
    const KernelActivity stored = sampleActivity();
    cache.storeActivity(key, stored);
    const std::string entry = readBytes(cache.pathFor(key));
    expectEveryDamageConvicted(
        cache.pathFor(key), everyValueByteChanged(entry), [&] {
            KernelActivity out;
            const bool hit = cache.fetchActivity(key, out);
            if (hit) {
                EXPECT_TRUE(sameBits(out, stored));
            }
            return hit;
        });
}

TEST(ActivityCodec, TextAndTreeDecodersAgreeBitForBit)
{
    GpuSimulator sim(voltaGV100());
    const std::vector<KernelActivity> inputs = {
        sampleActivity(), sim.runSass(cheapKernel("decoder_agreement")),
        edgeActivity()};
    for (const KernelActivity &a : inputs) {
        const std::string text = activityToJson(a);
        KernelActivity fromText, fromTree;
        ASSERT_TRUE(activityFromJson(std::string_view(text), fromText))
            << a.kernelName;
        obs::JsonValue tree;
        ASSERT_TRUE(obs::tryParseJson(text, tree)) << a.kernelName;
        ASSERT_TRUE(activityFromJson(tree, fromTree)) << a.kernelName;
        EXPECT_TRUE(sameBits(fromText, fromTree)) << a.kernelName;
        EXPECT_TRUE(sameBits(fromText, a)) << a.kernelName;
    }
}

TEST(ActivityCodec, TextDecoderRejectsAnythingActivityToJsonDoesNotWrite)
{
    const std::string text = activityToJson(sampleActivity());
    auto replaced = [&](const std::string &from, const std::string &to) {
        const size_t at = text.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        std::string out = text;
        out.replace(at, from.size(), to);
        return out;
    };
    const std::string totalCycles = ",\"totalCycles\":123456.75";
    const std::string elapsedSec = ",\"elapsedSec\":8.7654321e-05";
    const std::vector<std::pair<const char *, std::string>> cases = {
        {"reordered members",
         replaced(totalCycles + elapsedSec, elapsedSec + totalCycles)},
        {"missing member", replaced(",\"voltage\":1.0012345678901233", "")},
        {"short accesses array", replaced(",2.1],\"avgActiveSms\"",
                                          "],\"avgActiveSms\"")},
        {"long unitInsts array", replaced(",2.125],\"intAddInsts\"",
                                          ",2.125,1],\"intAddInsts\"")},
        {"trailing newline", text + "\n"},
        {"trailing bytes", text + "{}"},
        {"whitespace", replaced(",\"samples\":[", ", \"samples\":[")},
        {"a string for a number",
         replaced("\"totalCycles\":123456.75", "\"totalCycles\":\"1\"")},
        {"nan", replaced("\"totalCycles\":123456.75", "\"totalCycles\":nan")},
        {"-inf",
         replaced("\"totalCycles\":123456.75", "\"totalCycles\":-inf")},
    };
    for (const auto &[what, bytes] : cases) {
        KernelActivity out = sampleActivity();
        out.kernelName = "untouched";
        EXPECT_FALSE(activityFromJson(std::string_view(bytes), out)) << what;
        EXPECT_EQ(out.kernelName, "untouched") << what;
    }
    // The tree decoder, which the wire uses, takes members in any order.
    obs::JsonValue tree;
    KernelActivity out;
    ASSERT_TRUE(obs::tryParseJson(cases[0].second, tree));
    EXPECT_TRUE(activityFromJson(tree, out));
}

TEST_F(ResultCacheTest, EnabledFlipsWhilePoolThreadsFetchAndStore)
{
    // The switch is read by every fetch and store; a bench flips it
    // while awd workers run. Under TSan this must report no race.
    auto &cache = ResultCache::instance();
    std::atomic<bool> stop{false};
    std::thread flipper([&] {
        bool on = false;
        while (!stop.load()) {
            cache.setEnabled(on);
            on = !on;
        }
    });
    setParallelThreadCount(4);
    parallelFor(200, [&](size_t i) {
        const std::string key = "flip-key-" + std::to_string(i % 8);
        const double value = 0.5 * static_cast<double>(i % 8);
        cache.storePower(key, value);
        double out = -1;
        if (cache.fetchPower(key, out)) {
            EXPECT_EQ(out, value);
        }
    });
    setParallelThreadCount(0);
    stop.store(true);
    flipper.join();
    cache.setEnabled(true);
    EXPECT_TRUE(cache.enabled());
}

TEST_F(ResultCacheTest, CorruptEntryIsRemovedAndTreatedAsMiss)
{
    auto &cache = ResultCache::instance();
    const std::string key = "corrupt-test-key";
    cache.storePower(key, 42.5);
    // Simulate a torn write / disk corruption.
    {
        std::ofstream f(cache.pathFor(key), std::ios::trunc);
        f << "{\"schema\":1,\"kind\":\"power";
    }
    double out = 0;
    EXPECT_FALSE(cache.fetchPower(key, out));
    EXPECT_FALSE(fs::exists(cache.pathFor(key)));
    // The slot is usable again.
    cache.storePower(key, 43.25);
    ASSERT_TRUE(cache.fetchPower(key, out));
    EXPECT_EQ(out, 43.25);
}

TEST_F(ResultCacheTest, StaleSchemaIsDiscarded)
{
    auto &cache = ResultCache::instance();
    const std::string key = "schema-test-key";
    cache.storePower(key, 10.0);
    {
        std::ofstream f(cache.pathFor(key), std::ios::trunc);
        f << "{\"schema\":999,\"kind\":\"power\",\"key\":\"" << key
          << "\",\"value\":10}";
    }
    double out = 0;
    EXPECT_FALSE(cache.fetchPower(key, out));
    EXPECT_FALSE(fs::exists(cache.pathFor(key)));
}

TEST_F(ResultCacheTest, HashCollisionIsDetectedNotTrusted)
{
    auto &cache = ResultCache::instance();
    const std::string key = "collision-test-key";
    // A file at this key's path whose stored key disagrees: the full
    // key string is compared, so this must read as a miss and the
    // foreign entry must survive.
    fs::create_directories(cache.directory());
    {
        std::ofstream f(cache.pathFor(key), std::ios::trunc);
        f << "{\"schema\":" << kResultCacheSchemaVersion
          << ",\"kind\":\"power\",\"key\":\"some-other-key\","
             "\"value\":1}";
    }
    double out = 0;
    EXPECT_FALSE(cache.fetchPower(key, out));
    EXPECT_TRUE(fs::exists(cache.pathFor(key)));
}

TEST_F(ResultCacheTest, DisabledCacheNeverStoresOrFetches)
{
    auto &cache = ResultCache::instance();
    cache.setEnabled(false);
    const std::string key = "disabled-test-key";
    cache.storePower(key, 1.0);
    EXPECT_FALSE(fs::exists(cache.pathFor(key)));
    double out = 0;
    EXPECT_FALSE(cache.fetchPower(key, out));
    cache.setEnabled(true);
}

TEST_F(ResultCacheTest, MeasurePowerColdVsWarmBitIdentical)
{
    SiliconOracle card(voltaGV100(), voltaSiliconTruth());
    auto k = cheapKernel("cold_warm");
    double cold = measurePowerCached(card, k);
    ASSERT_TRUE(
        fs::exists(ResultCache::instance().pathFor(
            powerMeasurementKey(card, k, 0, 5))));
    double warm = measurePowerCached(card, k);
    EXPECT_EQ(cold, warm);
    EXPECT_GT(cold, 0.0);
}

TEST_F(ResultCacheTest, MeasurementsBitIdenticalAcrossThreadCounts)
{
    SiliconOracle card(voltaGV100(), voltaSiliconTruth());
    std::vector<KernelDescriptor> kernels;
    for (int i = 0; i < 6; ++i)
        kernels.push_back(
            cheapKernel("threads_kernel_" + std::to_string(i)));

    // Serial, no cache: the reference result.
    ResultCache::instance().setEnabled(false);
    setParallelThreadCount(1);
    auto serial = parallelMap<double>(kernels.size(), [&](size_t i) {
        return measurePowerCached(card, kernels[i]);
    });
    // Parallel, still no cache: per-task seeding must make this
    // bit-identical regardless of scheduling.
    setParallelThreadCount(4);
    auto parallel4 = parallelMap<double>(kernels.size(), [&](size_t i) {
        return measurePowerCached(card, kernels[i]);
    });
    // Parallel with a cold cache, then a warm pass.
    ResultCache::instance().setEnabled(true);
    auto coldPass = parallelMap<double>(kernels.size(), [&](size_t i) {
        return measurePowerCached(card, kernels[i]);
    });
    auto warmPass = parallelMap<double>(kernels.size(), [&](size_t i) {
        return measurePowerCached(card, kernels[i]);
    });
    setParallelThreadCount(0);

    for (size_t i = 0; i < kernels.size(); ++i) {
        EXPECT_EQ(serial[i], parallel4[i]) << "kernel " << i;
        EXPECT_EQ(serial[i], coldPass[i]) << "kernel " << i;
        EXPECT_EQ(serial[i], warmPass[i]) << "kernel " << i;
    }
}

TEST_F(ResultCacheTest, CollectActivityColdVsWarmBitIdentical)
{
    GpuSimulator sim(voltaGV100());
    ActivityProvider provider(Variant::SassSim, sim, nullptr);
    auto k = cheapKernel("activity_cold_warm");
    KernelActivity cold = collectActivityCached(provider, k);
    KernelActivity warm = collectActivityCached(provider, k);
    ASSERT_EQ(cold.samples.size(), warm.samples.size());
    EXPECT_EQ(cold.totalCycles, warm.totalCycles);
    EXPECT_EQ(cold.elapsedSec, warm.elapsedSec);
    for (size_t s = 0; s < cold.samples.size(); ++s) {
        EXPECT_EQ(cold.samples[s].cycles, warm.samples[s].cycles);
        for (size_t i = 0; i < cold.samples[s].accesses.size(); ++i)
            EXPECT_EQ(cold.samples[s].accesses[i],
                      warm.samples[s].accesses[i]);
    }
}

TEST_F(ResultCacheTest, ConcurrentSameKeyWritersNeverCorruptAnEntry)
{
    // Regression test for the multi-process write hazard: two writers
    // publishing the same key used to race their renames over a shared
    // temp name. With the per-entry .lock file one writer publishes and
    // the loser skips (same content either way); readers must only ever
    // observe a miss or a complete, bit-exact entry — never a torn one.
    auto &cache = ResultCache::instance();
    const std::string key = "hammer/same-key";
    const KernelActivity golden = sampleActivity();

    std::atomic<bool> stop{false};
    std::atomic<int> torn{0};
    auto writer = [&] {
        for (int i = 0; i < 400; ++i)
            cache.storeActivity(key, golden);
    };
    auto reader = [&] {
        KernelActivity got;
        while (!stop.load()) {
            if (!cache.fetchActivity(key, got))
                continue; // miss is fine; torn data is not
            if (got.samples.size() != golden.samples.size() ||
                got.totalCycles != golden.totalCycles ||
                got.elapsedSec != golden.elapsedSec) {
                ++torn;
                continue;
            }
            for (size_t s = 0; s < golden.samples.size(); ++s)
                if (got.samples[s].cycles != golden.samples[s].cycles ||
                    got.samples[s].accesses != golden.samples[s].accesses)
                    ++torn;
        }
    };

    std::thread r(reader);
    std::thread w1(writer), w2(writer);
    w1.join();
    w2.join();
    stop.store(true);
    r.join();
    EXPECT_EQ(torn.load(), 0);

    // The winning rename published the entry...
    KernelActivity fin;
    ASSERT_TRUE(cache.fetchActivity(key, fin));
    EXPECT_EQ(fin.elapsedSec, golden.elapsedSec);

    // ...and nothing leaked: no lock files, no orphaned temp files.
    for (const auto &e : fs::recursive_directory_iterator(dir_)) {
        const std::string name = e.path().filename().string();
        EXPECT_EQ(name.find(".lock"), std::string::npos) << name;
        EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
    }
}

TEST_F(ResultCacheTest, StaleLockIsStolen)
{
    // A writer that crashed mid-store leaves its lock behind holding a
    // partial payload. Once the lock is older than the stale bound
    // (10 s) the next store steals it and publishes.
    auto &cache = ResultCache::instance();
    const std::string key = "stale-lock-key";
    const std::string lock = cache.pathFor(key) + ".lock";
    fs::create_directories(dir_);
    {
        std::ofstream f(lock, std::ios::binary);
        f << "{\"schema\":2,\"kind\":\"power\",\"key\":\"stale-lo";
    }
    fs::last_write_time(lock, fs::file_time_type::clock::now() -
                                  std::chrono::hours(1));
    const double stored = 0.1 + 0.2;
    cache.storePower(key, stored);
    double out = 0;
    ASSERT_TRUE(cache.fetchPower(key, out));
    EXPECT_EQ(out, stored); // bit-exact
    for (const std::string &name : fileNames(dir_))
        EXPECT_EQ(name.find(".lock"), std::string::npos) << name;
}

TEST_F(ResultCacheTest, HeldLockIsLeftAlone)
{
    // A fresh lock belongs to a live writer: the store waits out its
    // retries, then skips without touching the holder's file.
    auto &cache = ResultCache::instance();
    const std::string key = "held-lock-key";
    const std::string lock = cache.pathFor(key) + ".lock";
    const std::string holderBytes = "{\"schema\":2,\"kind\":\"pow";
    fs::create_directories(dir_);
    {
        std::ofstream f(lock, std::ios::binary);
        f << holderBytes;
    }
    auto &skipped = obs::metrics().counter("cache.lock_skipped");
    const double before = skipped.value();
    cache.storePower(key, 1.5);
    EXPECT_EQ(skipped.value(), before + 1);
    EXPECT_FALSE(fs::exists(cache.pathFor(key)));
    double out = 0;
    EXPECT_FALSE(cache.fetchPower(key, out));
    EXPECT_EQ(readBytes(lock), holderBytes);
}

TEST_F(ResultCacheTest, StoreBackingOffDoesNotBlockOtherStores)
{
    // A process runs its stores one at a time, but a store waiting out
    // another writer's lock sleeps without holding that turn: a store of
    // another key completes, and is fetchable, while it backs off.
    auto &cache = ResultCache::instance();
    const std::string heldKey = "backoff-held-key";
    const std::string freeKey = "backoff-free-key";
    const std::string lock = cache.pathFor(heldKey) + ".lock";
    fs::create_directories(dir_);
    {
        std::ofstream f(lock, std::ios::binary);
        f << "{\"schema\":2,\"kind\":\"pow";
    }
    auto &contended = obs::metrics().counter("cache.lock_contended");
    auto &skipped = obs::metrics().counter("cache.lock_skipped");
    const double contended0 = contended.value();
    const double skipped0 = skipped.value();

    // ~100 ms of backoff, then the store gives up: cache.lock_skipped
    // rises just before it returns.
    std::thread held([&] { cache.storePower(heldKey, 1.5); });
    while (contended.value() == contended0)
        std::this_thread::yield();
    cache.storePower(freeKey, 2.5);
    double out = 0;
    const bool fetched = cache.fetchPower(freeKey, out);
    const double skippedMeanwhile = skipped.value();
    held.join();

    EXPECT_TRUE(fetched);
    EXPECT_EQ(out, 2.5);
    EXPECT_EQ(skippedMeanwhile, skipped0)
        << "the store of another key waited for the backing-off store";
    EXPECT_EQ(skipped.value(), skipped0 + 1);
    EXPECT_FALSE(fs::exists(cache.pathFor(heldKey)));
}
