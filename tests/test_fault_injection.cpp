/**
 * @file
 * Tests for the fault-injection substrate and the resilient calibration
 * harness built on it: the AW_FAULTS grammar, deterministic replay of
 * fault streams, each injected fault class, quorum re-measurement with
 * MAD outlier rejection, retry policy semantics, torn-cache-entry
 * detection, the HW -> SASS SIM fallbacks, and a calibration campaign
 * under chaos whose validation accuracy stays within a bounded delta of
 * the fault-free campaign.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "cache_packs.hpp"
#include "common/retry.hpp"
#include "common/stats.hpp"
#include "core/calibration.hpp"
#include "core/result_cache.hpp"
#include "hw/fault_injector.hpp"
#include "hw/nsight.hpp"
#include "hw/nvml.hpp"
#include "obs/metrics.hpp"
#include "ubench/microbench.hpp"
#include "workloads/validation.hpp"

namespace fs = std::filesystem;
using namespace aw;

namespace {

/** The ISSUE's example chaos configuration, pinned to a fixed seed. */
const char *kExampleSpec =
    "nvml_dropout:0.05,stale_sample:0.02,driver_reset:0.005,"
    "counter_mux_noise:0.03,thermal_runaway:0.01,cache_corrupt:0.01,"
    "seed:42";

double
mapeOf(const std::vector<ValidationRow> &rows)
{
    double sum = 0;
    for (const auto &r : rows)
        sum += 100.0 * std::abs(r.modeledW - r.measuredW) / r.measuredW;
    return rows.empty() ? 0.0 : sum / static_cast<double>(rows.size());
}

/** Saves and restores the process-wide fault config and cache state so
 *  chaos in one test never leaks into another. */
class FaultTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        savedConfig_ = FaultInjector::globalConfig();
        savedDir_ = ResultCache::instance().directory();
        savedEnabled_ = ResultCache::instance().enabled();
        // Neutralize any ambient AW_FAULTS (the check.sh chaos pass sets
        // one): every test here states its own fault config explicitly.
        FaultInjector::setGlobalConfig(FaultConfig{});
    }
    void TearDown() override
    {
        FaultInjector::setGlobalConfig(savedConfig_);
        ResultCache::instance().configure(savedDir_);
        ResultCache::instance().setEnabled(savedEnabled_);
        fs::remove_all("fault_test_cache_dir");
    }

    FaultConfig savedConfig_;
    std::string savedDir_;
    bool savedEnabled_ = true;
};

} // namespace

// --- grammar ---------------------------------------------------------------

TEST(FaultSpec, ParsesExampleAndRoundTrips)
{
    FaultConfig cfg = parseFaultSpec(kExampleSpec);
    EXPECT_TRUE(cfg.enabled());
    EXPECT_DOUBLE_EQ(cfg.rate(FaultClass::NvmlDropout), 0.05);
    EXPECT_DOUBLE_EQ(cfg.rate(FaultClass::StaleSample), 0.02);
    EXPECT_DOUBLE_EQ(cfg.rate(FaultClass::DriverReset), 0.005);
    EXPECT_DOUBLE_EQ(cfg.rate(FaultClass::CounterMuxNoise), 0.03);
    EXPECT_DOUBLE_EQ(cfg.rate(FaultClass::ThermalRunaway), 0.01);
    EXPECT_DOUBLE_EQ(cfg.rate(FaultClass::CacheCorrupt), 0.01);
    EXPECT_DOUBLE_EQ(cfg.rate(FaultClass::CounterFail), 0.0);
    EXPECT_EQ(cfg.seed, 42u);
    // describe() is the canonical spelling: parsing it parses back to
    // the same config (cache keys depend on this being stable).
    FaultConfig again = parseFaultSpec(cfg.describe());
    EXPECT_EQ(again.describe(), cfg.describe());
    EXPECT_EQ(again.seed, cfg.seed);
}

TEST(FaultSpec, DefaultConfigIsInactive)
{
    FaultConfig cfg;
    EXPECT_FALSE(cfg.enabled());
    FaultStream stream(cfg, 123);
    EXPECT_FALSE(stream.active());
    EXPECT_FALSE(stream.fires(FaultClass::NvmlDropout));
}

TEST(FaultSpecDeath, RejectsMalformedSpecs)
{
    EXPECT_EXIT(parseFaultSpec("bogus_class:0.1"),
                testing::ExitedWithCode(1), "unknown AW_FAULTS class");
    EXPECT_EXIT(parseFaultSpec("nvml_dropout"), testing::ExitedWithCode(1),
                "must be CLASS:RATE");
    EXPECT_EXIT(parseFaultSpec("nvml_dropout:1.5"),
                testing::ExitedWithCode(1), "must be in");
    EXPECT_EXIT(parseFaultSpec("nvml_dropout:-0.1"),
                testing::ExitedWithCode(1), "must be in");
    EXPECT_EXIT(parseFaultSpec("seed:notanumber"),
                testing::ExitedWithCode(1), "not an integer");
}

// --- deterministic streams -------------------------------------------------

TEST(FaultStreamTest, IdenticalSeedsReplayIdentically)
{
    FaultConfig cfg = parseFaultSpec("nvml_dropout:0.3,driver_reset:0.1");
    FaultStream a(cfg, 777), b(cfg, 777);
    for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(a.fires(FaultClass::NvmlDropout),
                  b.fires(FaultClass::NvmlDropout));
        EXPECT_DOUBLE_EQ(a.uniform(FaultClass::DriverReset),
                         b.uniform(FaultClass::DriverReset));
    }
    EXPECT_DOUBLE_EQ(a.gaussian(FaultClass::NvmlDropout, 0.5),
                     b.gaussian(FaultClass::NvmlDropout, 0.5));
}

TEST(FaultStreamTest, DifferentSeedsDiverge)
{
    FaultConfig cfg = parseFaultSpec("nvml_dropout:0.5");
    FaultStream a(cfg, 1), b(cfg, 2);
    int agree = 0;
    const int n = 256;
    for (int i = 0; i < n; ++i)
        if (a.fires(FaultClass::NvmlDropout) ==
            b.fires(FaultClass::NvmlDropout))
            ++agree;
    EXPECT_LT(agree, n); // not the same sequence
}

TEST(FaultStreamTest, ClassesAreIndependentStreams)
{
    // Enabling an extra fault class must not shift another class's
    // stream: the calibration replay guarantee depends on it.
    FaultConfig solo = parseFaultSpec("nvml_dropout:0.3");
    FaultConfig both = parseFaultSpec("nvml_dropout:0.3,stale_sample:0.9");
    FaultStream a(solo, 99), b(both, 99);
    for (int i = 0; i < 200; ++i) {
        // b interleaves draws from the other class.
        b.fires(FaultClass::StaleSample);
        EXPECT_EQ(a.fires(FaultClass::NvmlDropout),
                  b.fires(FaultClass::NvmlDropout));
    }
}

TEST(FaultStreamTest, StatelessRollIsPure)
{
    double r1 = faultRoll(7, FaultClass::CacheCorrupt, 1234);
    double r2 = faultRoll(7, FaultClass::CacheCorrupt, 1234);
    EXPECT_DOUBLE_EQ(r1, r2);
    EXPECT_GE(r1, 0.0);
    EXPECT_LT(r1, 1.0);
    EXPECT_NE(faultRoll(8, FaultClass::CacheCorrupt, 1234), r1);
}

// --- quorum / MAD building blocks ------------------------------------------

TEST(QuorumMath, MedianAndMad)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    // 1 2 3 4 100: median 3, |dev| = 2 1 0 1 97, MAD = 1.
    EXPECT_DOUBLE_EQ(mad({1.0, 2.0, 3.0, 4.0, 100.0}, 3.0), 1.0);
    // MAD shrugs off the outlier that would wreck the stddev.
    EXPECT_LT(mad({1.0, 2.0, 3.0, 4.0, 100.0}, 3.0),
              stddev({1.0, 2.0, 3.0, 4.0, 100.0}));
}

// --- retry policy ----------------------------------------------------------

TEST(RetryPolicyTest, TransientFailuresAreRetriedUntilSuccess)
{
    int calls = 0;
    auto r = retryWithPolicy<int>(
        defaultRetryPolicy(), "unit", [&](int attempt) -> Result<int> {
            ++calls;
            if (attempt < 2)
                return MeasureError{FailCause::DriverReset, "boom"};
            return 41 + 1;
        });
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, 42);
    EXPECT_EQ(calls, 3);
}

TEST(RetryPolicyTest, PermanentCausesAreNotRetried)
{
    int calls = 0;
    auto r = retryWithPolicy<int>(
        defaultRetryPolicy(), "unit", [&](int) -> Result<int> {
            ++calls;
            return MeasureError{FailCause::KernelTooShort, "tiny"};
        });
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().cause, FailCause::KernelTooShort);
    EXPECT_EQ(calls, 1);
}

TEST(RetryPolicyTest, ExhaustionIsClassified)
{
    RetryPolicy policy;
    policy.maxAttempts = 3;
    int calls = 0;
    auto r = retryWithPolicy<int>(policy, "unit", [&](int) -> Result<int> {
        ++calls;
        return MeasureError{FailCause::SampleLoss, "lossy"};
    });
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().cause, FailCause::RetriesExhausted);
    EXPECT_EQ(calls, 3);
    EXPECT_NE(r.error().message.find("after 3 attempts"),
              std::string::npos);
}

TEST(RetryPolicyTest, RetryAfterHintIsCountedAgainstTheBackoffBudget)
{
    // A server-suggested retry-after (shed backpressure) must be folded
    // into the policy's backoff accounting, not waited on the side: two
    // 0.3 s hints cross a 0.5 s budget, so the loop gives up after the
    // second attempt instead of burning all ten.
    RetryPolicy policy;
    policy.maxAttempts = 10;
    policy.initialBackoffSec = 0.001;
    policy.backoffMultiplier = 1.0;
    policy.maxBackoffSec = 0.001;
    policy.backoffBudgetSec = 0.5; // simulated time: no real sleeps
    int calls = 0;
    auto r = retryWithPolicy<int>(policy, "unit", [&](int) -> Result<int> {
        ++calls;
        MeasureError err{FailCause::ServiceShed, "shed"};
        err.retryAfterSec = 0.3; // dominates the 1 ms backoff
        return err;
    });
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().cause, FailCause::RetriesExhausted);
    EXPECT_EQ(calls, 2);
    EXPECT_NE(r.error().message.find("retry budget"), std::string::npos);
}

TEST(RetryPolicyTest, CauseTaxonomy)
{
    EXPECT_TRUE(retryableCause(FailCause::DriverReset));
    EXPECT_TRUE(retryableCause(FailCause::SampleLoss));
    EXPECT_TRUE(retryableCause(FailCause::QuorumFailed));
    EXPECT_TRUE(retryableCause(FailCause::CounterFailure));
    EXPECT_FALSE(retryableCause(FailCause::KernelTooShort));
    EXPECT_FALSE(retryableCause(FailCause::CounterUnavailable));
    EXPECT_FALSE(retryableCause(FailCause::RetriesExhausted));
    EXPECT_STREQ(failCauseName(FailCause::DriverReset), "driver_reset");
}

// --- NVML fault classes ----------------------------------------------------

namespace {

/** Fault-free reference measurement for the standard probe kernel. */
double
cleanPowerW()
{
    NvmlEmu nvml(sharedVoltaCard(), 0xFEED);
    return nvml.measureAveragePowerW(occupancyKernel(80, 0));
}

} // namespace

TEST_F(FaultTest, DropoutsSurvivedByQuorum)
{
    FaultConfig cfg = parseFaultSpec("nvml_dropout:0.3,seed:3");
    FaultStream stream(cfg, 555);
    NvmlEmu nvml(sharedVoltaCard(), 0xFEED);
    nvml.setFaultStream(&stream);
    double nanBefore =
        obs::metrics().counter("hw.nvml.nan_samples").value();
    Result<double> r =
        nvml.tryMeasureAveragePowerW(occupancyKernel(80, 0));
    ASSERT_TRUE(r.ok()) << r.error().message;
    // 30% dropout still leaves each repetition above the half-quorum,
    // and the surviving samples are unbiased.
    EXPECT_NEAR(*r, cleanPowerW(), 0.02 * cleanPowerW());
    // Half the dropouts poison with NaN; the reader filtered them.
    EXPECT_GT(obs::metrics().counter("hw.nvml.nan_samples").value(),
              nanBefore);
}

TEST_F(FaultTest, StaleSamplesTolerated)
{
    FaultConfig cfg = parseFaultSpec("stale_sample:0.4,seed:3");
    FaultStream stream(cfg, 556);
    NvmlEmu nvml(sharedVoltaCard(), 0xFEED);
    nvml.setFaultStream(&stream);
    Result<double> r =
        nvml.tryMeasureAveragePowerW(occupancyKernel(80, 0));
    ASSERT_TRUE(r.ok()) << r.error().message;
    // Repeating the previous reading adds correlation, not bias.
    EXPECT_NEAR(*r, cleanPowerW(), 0.02 * cleanPowerW());
}

TEST_F(FaultTest, DriverResetAbortsTheMeasurement)
{
    FaultConfig cfg = parseFaultSpec("driver_reset:1,seed:3");
    FaultStream stream(cfg, 557);
    NvmlEmu nvml(sharedVoltaCard(), 0xFEED);
    nvml.setFaultStream(&stream);
    nvml.lockClocks(1.2);
    Result<double> r =
        nvml.tryMeasureAveragePowerW(occupancyKernel(80, 0));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().cause, FailCause::DriverReset);
    EXPECT_TRUE(retryableCause(r.error().cause));
    // The reset also dropped the clock lock, like a real device reset.
    EXPECT_DOUBLE_EQ(nvml.lockedClockGhz(), 0.0);
}

TEST_F(FaultTest, ThermalRunawayRejectedByMadQuorum)
{
    double clean = cleanPowerW();
    // Moderate rate: hot repetitions are outliers against the 65 C
    // majority and the MAD quorum discards them.
    {
        FaultConfig cfg = parseFaultSpec("thermal_runaway:0.3,seed:3");
        FaultStream stream(cfg, 558);
        NvmlEmu nvml(sharedVoltaCard(), 0xFEED);
        nvml.setFaultStream(&stream);
        Result<double> r =
            nvml.tryMeasureAveragePowerW(occupancyKernel(80, 0));
        ASSERT_TRUE(r.ok()) << r.error().message;
        EXPECT_NEAR(*r, clean, 0.02 * clean);
    }
    // Rate 1: every repetition is hot, there is no healthy majority to
    // reject against, and the elevated leakage shows through.
    {
        FaultConfig cfg = parseFaultSpec("thermal_runaway:1,seed:3");
        FaultStream stream(cfg, 559);
        NvmlEmu nvml(sharedVoltaCard(), 0xFEED);
        nvml.setFaultStream(&stream);
        Result<double> r =
            nvml.tryMeasureAveragePowerW(occupancyKernel(80, 0));
        ASSERT_TRUE(r.ok()) << r.error().message;
        EXPECT_GT(*r, clean);
    }
}

TEST_F(FaultTest, InactiveStreamIsBitIdentical)
{
    // A zero-rate config attached as a stream must not perturb one bit
    // of the measurement path.
    FaultConfig zero;
    zero.seed = 12345; // seed alone does not activate anything
    FaultStream stream(zero, 560);
    NvmlEmu faulty(sharedVoltaCard(), 0xFEED);
    faulty.setFaultStream(&stream);
    NvmlEmu plain(sharedVoltaCard(), 0xFEED);
    auto k = occupancyKernel(80, 0);
    EXPECT_DOUBLE_EQ(plain.measureAveragePowerW(k),
                     faulty.measureAveragePowerW(k));
}

// --- cached measurement: per-key streams, replay, keys ---------------------

TEST_F(FaultTest, CachedMeasurementReplaysIdenticalFaults)
{
    FaultInjector::setGlobalConfig(parseFaultSpec(kExampleSpec));
    ResultCache::instance().setEnabled(false); // force re-measurement
    auto k = occupancyKernel(80, 0);
    Result<double> a = tryMeasurePowerCached(sharedVoltaCard(), k);
    Result<double> b = tryMeasurePowerCached(sharedVoltaCard(), k);
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok())
        EXPECT_DOUBLE_EQ(*a, *b); // identical fault + noise sequence
    else
        EXPECT_EQ(a.error().cause, b.error().cause);
}

TEST_F(FaultTest, FaultSpecEntersCacheKeysOnlyWhenEnabled)
{
    auto k = occupancyKernel(80, 0);
    std::string cleanKey = powerMeasurementKey(sharedVoltaCard(), k, 0, 5);
    EXPECT_EQ(cleanKey.find("faults{"), std::string::npos);

    FaultInjector::setGlobalConfig(parseFaultSpec(kExampleSpec));
    std::string chaosKey = powerMeasurementKey(sharedVoltaCard(), k, 0, 5);
    EXPECT_NE(chaosKey.find("faults{"), std::string::npos);
    EXPECT_NE(chaosKey.find("seed:42"), std::string::npos);
    EXPECT_NE(chaosKey, cleanKey);
}

// --- Nsight fault classes + fallbacks --------------------------------------

TEST_F(FaultTest, TransientCounterFailureIsRetryable)
{
    FaultConfig cfg = parseFaultSpec("counter_fail:1,seed:3");
    FaultStream stream(cfg, 600);
    NsightEmu nsight(sharedVoltaCard());
    auto r = nsight.tryCollectCounters(occupancyKernel(80, 0), {}, &stream);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().cause, FailCause::CounterFailure);
    EXPECT_TRUE(retryableCause(r.error().cause));
}

TEST_F(FaultTest, PersistentCounterGapsAreDeterministic)
{
    FaultInjector::setGlobalConfig(parseFaultSpec("counter_fail:0.4,seed:9"));
    NsightEmu a(sharedVoltaCard()), b(sharedVoltaCard());
    size_t broken = 0;
    for (size_t i = 0; i < kNumPowerComponents; ++i) {
        auto c = static_cast<PowerComponent>(i);
        EXPECT_EQ(a.componentUnavailable(c), b.componentUnavailable(c));
        if (a.componentUnavailable(c))
            ++broken;
    }
    // At rate 0.4 over every component the broken set is non-trivial in
    // both directions (seed 9 verified to split the set).
    EXPECT_GT(broken, 0u);
    EXPECT_LT(broken, kNumPowerComponents);
}

TEST_F(FaultTest, UnavailableCountersFallBackToSassActivity)
{
    FaultInjector::setGlobalConfig(parseFaultSpec("counter_fail:0.4,seed:9"));
    const SiliconOracle &card = sharedVoltaCard();
    NsightEmu nsight(card);
    GpuSimulator sim(card.config());
    ActivityProvider provider(Variant::Hw, sim, &nsight);
    auto k = occupancyKernel(80, 1);

    FaultConfig cfg = FaultInjector::globalConfig();
    FaultStream stream(cfg, 601);
    // The transient gate shares the class; retry until a collection
    // lands (deterministic for this seed, bounded for safety).
    Result<KernelActivity> r;
    for (int attempt = 0; attempt < 16 && !r.ok(); ++attempt)
        r = provider.tryCollect(k, {}, &stream);
    ASSERT_TRUE(r.ok()) << r.error().message;

    SimOptions opts;
    ActivitySample sw = sim.runSass(k, opts).aggregate();
    const auto &acc = r->samples[0].accesses;
    for (size_t i = 0; i < kNumPowerComponents; ++i) {
        auto c = static_cast<PowerComponent>(i);
        if (!nsight.componentUnavailable(c))
            continue;
        // Substituted from the software model, not left at zero.
        EXPECT_DOUBLE_EQ(acc[i], sw.accesses[i])
            << componentName(c);
    }
}

TEST_F(FaultTest, PersistentCollectionFailureFallsBackToSassVariant)
{
    FaultInjector::setGlobalConfig(parseFaultSpec("counter_fail:1,seed:9"));
    ResultCache::instance().setEnabled(false);
    const SiliconOracle &card = sharedVoltaCard();
    NsightEmu nsight(card);
    GpuSimulator sim(card.config());
    ActivityProvider provider(Variant::Hw, sim, &nsight);
    auto k = occupancyKernel(80, 0);

    double fallbacksBefore =
        obs::metrics().counter("activity.variant_fallbacks").value();
    KernelActivity act = collectActivityCached(provider, k);
    EXPECT_GT(obs::metrics().counter("activity.variant_fallbacks").value(),
              fallbacksBefore);

    // The fallback is the full SASS SIM activity.
    SimOptions opts;
    KernelActivity sw = sim.runSass(k, opts);
    ASSERT_EQ(act.samples.size(), sw.samples.size());
    EXPECT_DOUBLE_EQ(act.totalCycles, sw.totalCycles);
}

// --- cache corruption ------------------------------------------------------

TEST_F(FaultTest, TornWritesAreDetectedAndRecovered)
{
    ResultCache::instance().configure("fault_test_cache_dir");
    ResultCache::instance().setEnabled(true);
    FaultInjector::setGlobalConfig(parseFaultSpec("cache_corrupt:1,seed:7"));

    const std::string key = "torn-write-key";
    auto &cache = ResultCache::instance();
    auto convicted = [] {
        return obs::metrics().counter("cache.torn").value() +
               obs::metrics().counter("cache.corrupt").value();
    };
    const double before = convicted();
    cache.storePower(key, 123.5); // injector appends the record cut short
    const std::vector<test::PackedRecord> recs =
        test::recordsOf("fault_test_cache_dir", key);
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_NE(recs[0].entry.back(), '\n') << "the record was not cut";
    double out = 0;
    EXPECT_FALSE(cache.fetchPower(key, out)); // detected, not trusted
    EXPECT_GT(convicted(), before);
    // Dropped from the index: fetching again convicts nothing more.
    const double after = convicted();
    EXPECT_FALSE(cache.fetchPower(key, out));
    EXPECT_EQ(convicted(), after);
    // Recovered: once the fault stops, a re-store answers.
    FaultInjector::setGlobalConfig(FaultConfig{});
    cache.storePower(key, 123.5);
    ASSERT_TRUE(cache.fetchPower(key, out));
    EXPECT_EQ(out, 123.5);
}

TEST_F(FaultTest, ChecksumConvictsParseableButTruncatedValue)
{
    ResultCache::instance().configure("fault_test_cache_dir");
    ResultCache::instance().setEnabled(true);
    auto &cache = ResultCache::instance();
    const std::string key = "vcrc-test-key";
    cache.storePower(key, 42.25);
    double out = 0;
    ASSERT_TRUE(cache.fetchPower(key, out));
    EXPECT_DOUBLE_EQ(out, 42.25);

    // Hand-craft remains that still parse as JSON but carry a value the
    // writer never checksummed, in place of the record's envelope — only
    // vcrc can convict this.
    const std::vector<test::PackedRecord> recs =
        test::recordsOf("fault_test_cache_dir", key);
    ASSERT_EQ(recs.size(), 1u);
    const std::string forged =
        "{\"schema\":" + std::to_string(kResultCacheSchemaVersion) +
        ",\"kind\":\"power\",\"key\":\"" + key +
        "\",\"vcrc\":\"0000000000000000\",\"value\":42.25}\n";
    ASSERT_EQ(forged.size(), recs[0].entry.size());
    test::overwriteAt(recs[0].pack, recs[0].offset + test::kPackHeaderBytes,
                      forged);
    const double tornBefore = obs::metrics().counter("cache.torn").value();
    EXPECT_FALSE(cache.fetchPower(key, out));
    EXPECT_GT(obs::metrics().counter("cache.torn").value(), tornBefore);
    // Dropped from the index: fetching again convicts nothing more.
    EXPECT_FALSE(cache.fetchPower(key, out));
    EXPECT_EQ(obs::metrics().counter("cache.torn").value(), tornBefore + 1);
}

// --- calibration under chaos -----------------------------------------------

TEST_F(FaultTest, CampaignSurvivesChaosWithBoundedAccuracyLoss)
{
    // Fault-free baseline first (shared calibrator, clean cache keys).
    auto &clean = sharedVoltaCalibrator();
    double cleanMape = mapeOf(runValidation(clean, Variant::SassSim));

    // Full campaign from scratch under the example fault rates. The
    // cache is disabled so every measurement really runs under fire.
    FaultInjector::setGlobalConfig(parseFaultSpec(kExampleSpec));
    ResultCache::instance().setEnabled(false);
    AccelWattchCalibrator chaos(sharedVoltaCard());

    const auto &cal = chaos.variant(Variant::SassSim); // must not fatal()
    EXPECT_GT(cal.ubenchUsed, 0u);
    EXPECT_EQ(cal.ubenchUsed + cal.ubenchSkipped,
              chaos.tuningSuite().size());
    // The harness degrades by skipping, never by dying; at the example
    // rates the vast majority of the suite survives.
    EXPECT_GE(cal.ubenchUsed, chaos.tuningSuite().size() * 3 / 4);

    auto rows = runValidation(chaos, Variant::SassSim);
    EXPECT_GE(rows.size(), validationSuite().size() * 3 / 4);
    double chaosMape = mapeOf(rows);
    // Bounded degradation: within 2 percentage points of fault-free.
    EXPECT_LT(std::abs(chaosMape - cleanMape), 2.0)
        << "clean " << cleanMape << "% vs chaos " << chaosMape << "%";

    // The campaign reported its scars through the metrics registry.
    auto &reg = obs::metrics();
    double injected = 0;
    for (size_t c = 0; c < kNumFaultClasses; ++c)
        injected += reg.counter("faults.injected." +
                                faultClassName(static_cast<FaultClass>(c)))
                        .value();
    EXPECT_GT(injected, 0.0);
    EXPECT_GT(reg.counter("retry.attempts").value(), 0.0);
}
