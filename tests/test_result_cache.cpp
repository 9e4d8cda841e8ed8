/**
 * @file
 * Tests for the persistent content-addressed result cache: key
 * stability, the pack framing, hit/miss/corrupt-record behaviour,
 * newest-record-wins, cross-process visibility, bit-exact round-trips,
 * and end-to-end determinism of the cached measurement helpers across
 * thread counts and cold/warm cache states.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cfloat>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "cache_packs.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "core/result_cache.hpp"
#include "hw/silicon_model.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "trace/workload.hpp"

using namespace aw;
using namespace aw::test;
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

/** True for `pack-<this pid>-<16 hex digits>`. */
bool
isOwnPackName(const std::string &name)
{
    const std::string prefix = "pack-" + std::to_string(::getpid()) + "-";
    return name.size() == prefix.size() + 16 && name.rfind(prefix, 0) == 0 &&
           name.find_first_not_of("0123456789abcdef", prefix.size()) ==
               std::string::npos;
}

/** The one record of `key` in `dir`. */
PackedRecord
onlyRecordOf(const std::string &dir, const std::string &key)
{
    std::vector<PackedRecord> recs = recordsOf(dir, key);
    EXPECT_EQ(recs.size(), 1u) << key;
    return recs.empty() ? PackedRecord{} : recs.front();
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

/** Key-collision warnings seen by countCollisions, a log observer. */
std::atomic<int> g_collisionWarnings{0};

void
countCollisions(LogLevel, const std::string &message)
{
    if (message.find("key collision") != std::string::npos)
        ++g_collisionWarnings;
}

/**
 * Make each damaged entry the only record of `key` in `dir` — one record
 * in a foreign pack whose header frames exactly those bytes, as a writer
 * torn mid-record or a flipped bit leaves it — and expect the fetch to
 * miss and count one cache.corrupt, and a second fetch to miss without
 * counting it again (the record left the index). `fetch` returns
 * whether it hit; a hit must also return the stored bits, which the
 * caller checks. Warnings are silenced: each case prints one.
 */
void
expectEveryDamageConvicted(const std::string &dir, const std::string &key,
                           const std::vector<std::string> &damaged,
                           const std::function<bool()> &fetch)
{
    obs::Counter &corrupt = obs::metrics().counter("cache.corrupt");
    const LogLevel level = logLevel();
    setLogLevel(LogLevel::Fatal);
    size_t bad = 0;
    std::string firstBad;
    for (size_t i = 0; i < damaged.size(); ++i) {
        fs::remove_all(dir);
        writePack(dir, "pack-1-" + std::to_string(1000000 + i),
                  framedRecord(key, damaged[i], 1));
        ResultCache::instance().configure(dir);
        const double before = corrupt.value();
        const bool hit = fetch();
        const bool again = fetch();
        if (hit || again || corrupt.value() != before + 1) {
            if (bad++ == 0)
                firstBad = damaged[i];
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
    // Bytes a store writes: a change to the framing, the envelope or the
    // key hash would turn every existing cache into misses. The stamp is
    // the one header field left free; it must be the store's time.
    const int64_t before = nowNs();
    ResultCache::instance().storePower("golden-key", 0.1 + 0.2);
    const int64_t after = nowNs();
    const std::vector<fs::path> packs = packFiles(dir_);
    ASSERT_EQ(packs.size(), 1u);
    EXPECT_TRUE(isOwnPackName(packs[0].filename().string())) << packs[0];
    const std::string bytes = readFileBytes(packs[0]);
    ASSERT_EQ(bytes.size(), 24u + 101u);
    EXPECT_EQ(bytes.substr(0, 16),
              std::string("AWR1"                             // magic
                          "\x65\x00\x00\x00"                 // length 101
                          "\x52\x2f\x13\x59\xb9\x77\x80\xd5", // fnv1a64
                          16));
    const auto stamp = static_cast<int64_t>(littleEndian(bytes, 16, 8));
    EXPECT_GE(stamp, before);
    EXPECT_LE(stamp, after);
    EXPECT_EQ(bytes.substr(24),
              "{\"schema\":3,\"kind\":\"power\",\"key\":\"golden-key\","
              "\"vcrc\":\"6d3cb2ceaf9352cc\","
              "\"value\":0.30000000000000004}\n");
}

TEST_F(ResultCacheTest, ActivityEntryBytesAreGolden)
{
    ResultCache::instance().storeActivity("golden-activity-key",
                                          sampleActivity());
    const std::vector<fs::path> packs = packFiles(dir_);
    ASSERT_EQ(packs.size(), 1u);
    const std::string bytes = readFileBytes(packs[0]);
    ASSERT_EQ(bytes.size(), 24u + 1410u);
    EXPECT_EQ(bytes.substr(0, 16),
              std::string("AWR1"                             // magic
                          "\x82\x05\x00\x00"                 // length 1410
                          "\x24\x32\x41\xf3\xb9\x3a\x8d\x06", // fnv1a64
                          16));
    EXPECT_EQ(
        bytes.substr(24),
        "{\"schema\":3,\"kind\":\"activity\",\"key\":\"golden-activity-key\""
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
    const std::string entry = onlyRecordOf(dir_, key).entry;
    expectEveryDamageConvicted(dir_, key, everyCut(entry), [&] {
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
    const std::string entry = onlyRecordOf(dir_, key).entry;
    expectEveryDamageConvicted(
        dir_, key, everyValueByteChanged(entry), [&] {
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
    const std::string entry = onlyRecordOf(dir_, key).entry;
    expectEveryDamageConvicted(dir_, key, everyCut(entry), [&] {
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
    const std::string entry = onlyRecordOf(dir_, key).entry;
    expectEveryDamageConvicted(
        dir_, key, everyValueByteChanged(entry), [&] {
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
    // Simulate a torn write / disk corruption: the pack now ends inside
    // the record.
    const PackedRecord rec = onlyRecordOf(dir_, key);
    fs::resize_file(rec.pack, rec.offset + kPackHeaderBytes +
                                  std::strlen("{\"schema\":1,\"kind\":\"power"));
    obs::Counter &corrupt = obs::metrics().counter("cache.corrupt");
    const double before = corrupt.value();
    const LogLevel level = logLevel();
    setLogLevel(LogLevel::Fatal);
    double out = 0;
    EXPECT_FALSE(cache.fetchPower(key, out));
    EXPECT_EQ(corrupt.value(), before + 1);
    // Dropped from the index: the next fetch convicts nothing more.
    EXPECT_FALSE(cache.fetchPower(key, out));
    EXPECT_EQ(corrupt.value(), before + 1);
    setLogLevel(level);
    // The key is usable again.
    cache.storePower(key, 43.25);
    ASSERT_TRUE(cache.fetchPower(key, out));
    EXPECT_EQ(out, 43.25);
}

TEST_F(ResultCacheTest, StaleSchemaIsDiscarded)
{
    auto &cache = ResultCache::instance();
    const std::string key = "schema-test-key";
    // Another schema's record, stamped after any store this run makes.
    writePack(dir_, "pack-1-0000000000000001",
              framedRecord(key,
                           "{\"schema\":999,\"kind\":\"power\",\"key\":\"" +
                               key + "\",\"value\":10}",
                           UINT64_MAX));
    cache.configure(dir_);
    obs::Counter &corrupt = obs::metrics().counter("cache.corrupt");
    const double before = corrupt.value();
    double out = 0;
    EXPECT_FALSE(cache.fetchPower(key, out));
    EXPECT_EQ(corrupt.value(), before) << "a stale record is not corrupt";
    // It never shadows a current record, newer stamp or not.
    cache.storePower(key, 10.5);
    ASSERT_TRUE(cache.fetchPower(key, out));
    EXPECT_EQ(out, 10.5);
}

TEST_F(ResultCacheTest, HashCollisionIsDetectedNotTrusted)
{
    auto &cache = ResultCache::instance();
    const std::string key = "collision-test-key";
    // A record hashed like this key whose stored key disagrees: the full
    // key string is compared, so this must read as a miss, and the
    // foreign record must stay — indexed and intact — for its owner.
    const std::string foreign =
        framedRecord(key,
                     "{\"schema\":" +
                         std::to_string(kResultCacheSchemaVersion) +
                         ",\"kind\":\"power\",\"key\":\"some-other-key\","
                         "\"vcrc\":\"af63dd4c8601eec1\",\"value\":1}\n",
                     1);
    writePack(dir_, "pack-1-0000000000000002", foreign);
    cache.configure(dir_);
    obs::Counter &corrupt = obs::metrics().counter("cache.corrupt");
    const double before = corrupt.value();
    g_collisionWarnings = 0;
    setLogObserver(&countCollisions);
    double out = 0;
    EXPECT_FALSE(cache.fetchPower(key, out));
    EXPECT_FALSE(cache.fetchPower(key, out));
    setLogObserver(nullptr);
    EXPECT_EQ(g_collisionWarnings.load(), 2) << "each fetch judges it anew";
    EXPECT_EQ(corrupt.value(), before);
    EXPECT_EQ(readFileBytes(fs::path(dir_) / "pack-1-0000000000000002"),
              foreign);
}

TEST_F(ResultCacheTest, DisabledCacheNeverStoresOrFetches)
{
    auto &cache = ResultCache::instance();
    cache.setEnabled(false);
    const std::string key = "disabled-test-key";
    cache.storePower(key, 1.0);
    EXPECT_FALSE(fs::exists(dir_));
    double out = 0;
    EXPECT_FALSE(cache.fetchPower(key, out));
    cache.setEnabled(true);
}

TEST_F(ResultCacheTest, MeasurePowerColdVsWarmBitIdentical)
{
    SiliconOracle card(voltaGV100(), voltaSiliconTruth());
    auto k = cheapKernel("cold_warm");
    double cold = measurePowerCached(card, k);
    ASSERT_EQ(recordsOf(dir_, powerMeasurementKey(card, k, 0, 5)).size(),
              1u);
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
    // Regression test for the write hazard: two writers storing the same
    // key at once must never interleave bytes. Each store appends one
    // framed record; readers must only ever observe a miss or a
    // complete, bit-exact entry — never a torn one.
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

    // The newest record answers...
    KernelActivity fin;
    ASSERT_TRUE(cache.fetchActivity(key, fin));
    EXPECT_EQ(fin.elapsedSec, golden.elapsedSec);

    // ...every store landed whole, as one framed record...
    EXPECT_EQ(recordsOf(dir_, key).size(), 800u);
    // ...and nothing else was left: one pack, no temp files.
    for (const auto &e : fs::recursive_directory_iterator(dir_))
        EXPECT_TRUE(isOwnPackName(e.path().filename().string()))
            << e.path();
}

// --- pack semantics --------------------------------------------------------

TEST(FileEntryStorePacks, LastStoreOfAKeyWins)
{
    // A re-store supersedes what it replaces — for the writer, and for a
    // reader that builds its index from the packs on disk. (The index is
    // per directory string, so a second spelling of the directory reads
    // it as another process would.) The awd shared memo relies on this
    // to replace an expired negative entry.
    const std::string dir = "entry_store_last_writer_dir";
    fs::remove_all(dir);
    FileEntryStore writer(dir);
    writer.storeText("same-key", "test", "\"A\"");
    writer.storeText("same-key", "test", "\"B\"");
    std::string got;
    ASSERT_TRUE(writer.fetchText("same-key", "test", got));
    EXPECT_EQ(got, "\"B\"");
    FileEntryStore reader("./" + dir);
    ASSERT_TRUE(reader.fetchText("same-key", "test", got));
    EXPECT_EQ(got, "\"B\"");
    fs::remove_all(dir);
}

TEST(FileEntryStorePacks, ConcurrentFirstFetchesAllHit)
{
    // Threads that fetch at once from an index nobody has listed yet
    // all miss their first look; one of them lists the directory, and
    // every fetch must then find its record, also in the threads whose
    // own look found nothing new because another thread had indexed it.
    const std::string dir = "entry_store_first_fetch_dir";
    fs::remove_all(dir);
    constexpr int kThreads = 8;
    {
        FileEntryStore writer(dir);
        for (int t = 0; t < kThreads; ++t)
            writer.storeText("key-" + std::to_string(t), "test",
                             std::to_string(t));
    }
    int misses = 0;
    std::string spelling = dir;
    for (int round = 0; round < 40; ++round) {
        spelling = "./" + spelling; // a fresh index, as a new process has
        FileEntryStore reader(spelling);
        std::atomic<int> ready{0};
        std::atomic<int> missed{0};
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] {
                ++ready;
                while (ready.load() < kThreads)
                    std::this_thread::yield();
                std::string got;
                if (!reader.fetchText("key-" + std::to_string(t), "test",
                                      got) ||
                    got != std::to_string(t))
                    ++missed;
            });
        for (std::thread &th : threads)
            th.join();
        misses += missed.load();
    }
    EXPECT_EQ(misses, 0);
    fs::remove_all(dir);
}

namespace {

/** Run `child` in a forked process; true when it exits 0. */
template <typename Child>
bool
inForkedChild(Child &&child)
{
    const pid_t pid = ::fork();
    if (pid == 0) {
        child();
        std::_Exit(0);
    }
    int status = 0;
    return pid > 0 && ::waitpid(pid, &status, 0) == pid &&
           WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

} // namespace

TEST_F(ResultCacheTest, StoresOfAnotherProcessAreSeenWithoutRestoring)
{
    // A forked child stores into a directory the parent has already
    // listed, in two rounds: the first creates its pack, the second
    // grows it after the parent has indexed the first. Every one of the
    // parent's fetches then hits, and the parent re-stores nothing.
    auto &cache = ResultCache::instance();
    double out = 0;
    cache.storePower("parent-key", 1.0);
    EXPECT_FALSE(cache.fetchPower("child-key-0", out));
    constexpr int kPerRound = 8;
    int toParent[2], toChild[2];
    ASSERT_EQ(::pipe(toParent), 0);
    ASSERT_EQ(::pipe(toChild), 0);
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::close(toParent[0]);
        ::close(toChild[1]);
        char token = 0;
        for (int i = 0; i < kPerRound; ++i)
            cache.storePower("child-key-" + std::to_string(i), 0.5 * i);
        const bool ok = ::write(toParent[1], &token, 1) == 1 &&
                        ::read(toChild[0], &token, 1) == 1;
        for (int i = kPerRound; i < 2 * kPerRound; ++i)
            cache.storePower("child-key-" + std::to_string(i), 0.5 * i);
        std::_Exit(ok ? 0 : 1);
    }
    ::close(toParent[1]);
    ::close(toChild[0]);
    ASSERT_GT(pid, 0);
    auto &reg = obs::metrics();
    const double hits0 = reg.counter("cache.hits").value();
    const double misses0 = reg.counter("cache.misses").value();
    const double writes0 = reg.counter("cache.writes").value();
    // No early return until the child is reaped: it waits on the pipe.
    auto fetchRound = [&](int round) {
        for (int i = round * kPerRound; i < (round + 1) * kPerRound; ++i) {
            out = -1;
            EXPECT_TRUE(
                cache.fetchPower("child-key-" + std::to_string(i), out))
                << i;
            EXPECT_EQ(out, 0.5 * i);
        }
    };
    char token = 0;
    EXPECT_EQ(::read(toParent[0], &token, 1), 1);
    fetchRound(0);
    EXPECT_EQ(::write(toChild[1], &token, 1), 1);
    ::close(toParent[0]);
    ::close(toChild[1]);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    fetchRound(1);
    EXPECT_EQ(reg.counter("cache.hits").value(), hits0 + 2 * kPerRound);
    EXPECT_EQ(reg.counter("cache.misses").value(), misses0);
    EXPECT_EQ(reg.counter("cache.writes").value(), writes0);
}

TEST_F(ResultCacheTest, ForkedChildAppendsToAPackOfItsOwn)
{
    auto &cache = ResultCache::instance();
    cache.storePower("parent-key", 1.0);
    const std::vector<fs::path> before = packFiles(dir_);
    ASSERT_EQ(before.size(), 1u);
    const std::string parentBytes = readFileBytes(before[0]);
    ASSERT_TRUE(inForkedChild([&] {
        cache.storePower("child-key", 2.0);
        cache.storePower("parent-key", 3.0);
    }));
    EXPECT_EQ(readFileBytes(before[0]), parentBytes)
        << "the child wrote into its parent's pack";
    EXPECT_EQ(packFiles(dir_).size(), 2u);
    // The child's re-store is the newest record of the key.
    double out = 0;
    ASSERT_TRUE(cache.fetchPower("child-key", out));
    EXPECT_EQ(out, 2.0);
    ASSERT_TRUE(cache.fetchPower("parent-key", out));
    EXPECT_EQ(out, 3.0);
}

TEST_F(ResultCacheTest, EmptiedDirectoryLosesItsRecords)
{
    auto &cache = ResultCache::instance();
    double out = 0;
    for (int i = 0; i < 4; ++i)
        cache.storePower("emptied-key-" + std::to_string(i), i + 0.5);
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    cache.configure(dir_);
    for (int i = 0; i < 4; ++i)
        EXPECT_FALSE(cache.fetchPower("emptied-key-" + std::to_string(i), out))
            << i;

    // A pack is its name and its inode. A file system may give a
    // deleted pack's inode to the next file it creates; here a new pack
    // name takes the old pack's inode (a rename keeps it) and other
    // records. The old records must go and the new ones must answer.
    const std::string other = dir_ + "_other";
    fs::remove_all(other);
    cache.configure(other);
    for (int i = 0; i < 4; ++i)
        cache.storePower("new-key-" + std::to_string(i), i + 0.25);
    const std::string otherBytes = readFileBytes(packFiles(other).at(0));
    cache.configure(dir_);
    for (int i = 0; i < 4; ++i)
        cache.storePower("old-key-" + std::to_string(i), i + 0.75);
    const fs::path oldPack = packFiles(dir_).at(0);
    const fs::path reused = fs::path(dir_) / "pack-1-0000000000000003";
    fs::rename(oldPack, reused);
    {
        std::ofstream f(reused, std::ios::binary | std::ios::trunc);
        f << otherBytes;
    }
    cache.configure(dir_);
    const LogLevel level = logLevel();
    setLogLevel(LogLevel::Fatal);
    for (int i = 0; i < 4; ++i) {
        EXPECT_FALSE(cache.fetchPower("old-key-" + std::to_string(i), out))
            << i;
        ASSERT_TRUE(cache.fetchPower("new-key-" + std::to_string(i), out))
            << i;
        EXPECT_EQ(out, i + 0.25);
    }
    setLogLevel(level);
    fs::remove_all(other);
}

TEST_F(ResultCacheTest, PackCutInsideItsLastRecord)
{
    auto &cache = ResultCache::instance();
    for (int i = 0; i < 3; ++i)
        cache.storePower("tail-key-" + std::to_string(i), i + 0.5);
    const std::vector<PackedRecord> recs = recordsIn(dir_);
    ASSERT_EQ(recs.size(), 3u);
    fs::resize_file(recs[2].pack, recs[2].offset + kPackHeaderBytes +
                                      recs[2].entry.size() / 2);
    const LogLevel level = logLevel();
    setLogLevel(LogLevel::Fatal);
    double out = 0;
    for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(cache.fetchPower("tail-key-" + std::to_string(i), out));
        EXPECT_EQ(out, i + 0.5);
    }
    EXPECT_FALSE(cache.fetchPower("tail-key-2", out));
    setLogLevel(level);
    cache.storePower("tail-key-2", 9.5);
    ASSERT_TRUE(cache.fetchPower("tail-key-2", out));
    EXPECT_EQ(out, 9.5);
    // A reader that scans the pack from disk sees the same: the re-store
    // went where the cut record ended, so the framing after it holds.
    cache.configure("./" + dir_);
    for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(cache.fetchPower("tail-key-" + std::to_string(i), out));
        EXPECT_EQ(out, i + 0.5);
    }
    ASSERT_TRUE(cache.fetchPower("tail-key-2", out));
    EXPECT_EQ(out, 9.5);
}
