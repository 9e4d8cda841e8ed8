#include "hw/nvml.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"
#include "common/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace aw {

NvmlEmu::NvmlEmu(const SiliconOracle &oracle, uint64_t seed)
    : oracle_(oracle), rng_(seed)
{}

Result<double>
NvmlEmu::tryMeasureAveragePowerW(const KernelDescriptor &desc,
                                 int repetitions)
{
    AW_PROF_SCOPE("hw/nvml_measure");
    auto &reg = obs::metrics();
    MeasurementConditions cond;
    cond.freqGhz = lockedFreqGhz_;

    // One warm execution to learn the kernel's duration and power.
    const OracleSummary run = oracle_.summary(desc, cond);

    // NVML's 50-100 Hz sampling cannot resolve very short kernels; the
    // harness launches kernels in a loop, but a single launch still must
    // not be vanishingly short or the readings are perturbed by
    // inter-launch overheads (Section 6.1 excludes < 2 us kernels).
    double launchSec = run.elapsedSec;
    if (launchSec < 2e-6) {
        reg.counter("hw.nvml.rejected_short").add(1);
        return MeasureError{
            FailCause::KernelTooShort,
            strprintf("kernel %s runs %.3g us per launch: too short for "
                      "NVML power measurement (< 2 us)",
                      desc.name.c_str(), launchSec * 1e6)};
    }

    lastReadings_.clear();
    const ActivitySample &aggregate = run.aggregate;
    const double dynFactor = oracle_.dataToggleFactor(desc.name);
    const bool chaos = faults_ && faults_->active();
    std::vector<double> repMeans;
    const int samplesPerRep = 24; // several NVML periods per repetition
    // Quorum re-measurement: a repetition lost to faults is re-taken,
    // up to 3x the requested count, so transient dropouts shrink the
    // campaign's wall-clock budget rather than its data.
    const int maxReps = chaos ? 3 * repetitions : repetitions;
    for (int rep = 0;
         rep < maxReps && static_cast<int>(repMeans.size()) < repetitions;
         ++rep) {
        // Section 4.1: bring the chip to 65 C before measuring. Use the
        // kernel itself if it is hot enough, otherwise pre-heat with a
        // power-hungry load and measure while cooling through 65 C.
        if (!thermal_.settleTo(65.0, run.avgPowerW))
            thermal_.settleTo(72.0, oracle_.config().powerLimitW);

        double repTempC = 65.0;
        if (chaos && faults_->fires(FaultClass::ThermalRunaway)) {
            // Throttling excursion: the chip escapes the 65 C setpoint
            // for this repetition set; leakage rises exponentially and
            // the quorum's outlier rejection has to catch it.
            thermal_.disturb(4.0 +
                             12.0 * faults_->uniform(
                                        FaultClass::ThermalRunaway));
            repTempC = thermal_.temperatureC();
        }

        double sum = 0;
        int kept = 0;
        double prevReading = 0;
        for (int s = 0; s < samplesPerRep; ++s) {
            if (chaos && faults_->fires(FaultClass::DriverReset)) {
                // Device fell off the bus mid-measurement: the whole
                // repetition set is lost, and so is the clock lock.
                reg.counter("hw.nvml.driver_resets").add(1);
                thermal_.coolToAmbient();
                lockedFreqGhz_ = 0;
                return MeasureError{
                    FailCause::DriverReset,
                    strprintf("driver reset while measuring %s "
                              "(repetition %d, sample %d)",
                              desc.name.c_str(), rep, s)};
            }
            // Readings are taken while the chip sits at the controlled
            // 65 C (the settle/pre-heat above guarantees it), removing
            // the exponential temperature dependence of leakage from
            // the measurements (Section 4.1) — unless an injected
            // excursion knocked this repetition off the setpoint.
            cond.tempC = repTempC;
            double truth =
                oracle_.truePower(aggregate, cond, nullptr, dynFactor);
            double reading =
                truth *
                (1.0 + rng_.gaussian(0.0, oracle_.truth().measurementNoise));
            if (chaos && faults_->fires(FaultClass::NvmlDropout)) {
                // Half the dropouts lose the sample outright; the other
                // half poison it with NaN, which the reader must filter.
                if (faults_->uniform(FaultClass::NvmlDropout) < 0.5)
                    continue;
                reading = std::nan("");
            } else if (chaos && faults_->fires(FaultClass::StaleSample)) {
                if (kept == 0)
                    continue; // nothing to repeat yet: reading lost
                reading = prevReading;
            }
            if (!std::isfinite(reading)) {
                reg.counter("hw.nvml.nan_samples").add(1);
                continue;
            }
            double t = rep * 10.0 + s / samplingHz();
            lastReadings_.push_back({t, reading});
            sum += reading;
            prevReading = reading;
            ++kept;
        }
        // Let the chip cool back to idle between repetitions.
        thermal_.coolToAmbient();
        if (kept >= samplesPerRep / 2) {
            repMeans.push_back(sum / kept);
        } else {
            reg.counter("hw.nvml.reps_lost").add(1);
            AW_DEBUGF("hw", "NVML %s: repetition %d lost %d/%d samples; "
                      "re-measuring",
                      desc.name.c_str(), rep, samplesPerRep - kept,
                      samplesPerRep);
        }
    }

    const int quorum =
        std::min(repetitions, std::max(2, repetitions / 2 + 1));
    if (static_cast<int>(repMeans.size()) < quorum)
        return MeasureError{
            FailCause::SampleLoss,
            strprintf("only %zu of %d repetitions of %s survived sample "
                      "dropouts (quorum %d)",
                      repMeans.size(), repetitions, desc.name.c_str(),
                      quorum)};

    // Quorum mean with MAD-based outlier rejection: a repetition taken
    // during a thermal excursion (or otherwise perturbed) sits far from
    // the median and is discarded. The rejection only engages under an
    // active fault stream — with faults off the result is the plain
    // mean of all repetitions, bit-identical to the historical
    // behaviour.
    double result;
    if (chaos && repMeans.size() >= 3) {
        double med = median(repMeans);
        double sigma = 1.4826 * mad(repMeans, med);
        // Floor the acceptance band well above the noise-driven spread
        // of a clean repetition mean (~0.1%), so MAD never rejects
        // healthy data even when most repetitions are identical.
        double band = std::max(6.0 * sigma, 0.01 * std::abs(med));
        std::vector<double> inliers;
        for (double v : repMeans)
            if (std::abs(v - med) <= band)
                inliers.push_back(v);
        size_t rejected = repMeans.size() - inliers.size();
        if (rejected > 0)
            reg.counter("hw.nvml.reps_rejected")
                .add(static_cast<double>(rejected));
        if (static_cast<int>(inliers.size()) < quorum)
            return MeasureError{
                FailCause::QuorumFailed,
                strprintf("outlier rejection left %zu of %zu repetitions "
                          "of %s (quorum %d)",
                          inliers.size(), repMeans.size(),
                          desc.name.c_str(), quorum)};
        result = mean(inliers);
    } else {
        result = mean(repMeans);
    }

    reg.counter("hw.nvml.measurements").add(1);
    reg.counter("hw.nvml.samples")
        .add(static_cast<double>(lastReadings_.size()));
    reg.histogram("hw.nvml.power_w").record(result);
    reg.histogram("hw.nvml.relative_variance")
        .record(lastRelativeVariance());
    AW_DEBUGF("hw", "NVML %s: %.1f W over %zu samples (rel var %.4f%%)",
              desc.name.c_str(), result, lastReadings_.size(),
              100.0 * lastRelativeVariance());
    return result;
}

PowerTimeline
NvmlEmu::samplePowerTimeline(const KernelDescriptor &desc,
                             int targetSamples) const
{
    AW_PROF_SCOPE("hw/nvml_timeline");
    PowerTimeline tl;
    MeasurementConditions cond;
    cond.freqGhz = lockedFreqGhz_;
    cond.tempC = 65.0;

    OracleRun run = oracle_.execute(desc, cond);
    tl.elapsedSec = run.activity.elapsedSec;
    if (tl.elapsedSec <= 0 || run.activity.samples.empty() ||
        targetSamples <= 0)
        return tl;

    // The modeled timeline's clock: cumulative wall time per activity
    // interval (zero-frequency intervals carry no time, exactly as in
    // the power trace).
    std::vector<double> endSec;
    endSec.reserve(run.activity.samples.size());
    double t = 0;
    for (const auto &s : run.activity.samples) {
        if (s.freqGhz > 0)
            t += s.cycles / (s.freqGhz * 1e9);
        endSec.push_back(t);
    }
    double span = t > 0 ? t : tl.elapsedSec;

    const double dynFactor = oracle_.dataToggleFactor(desc.name);
    const double noise = oracle_.truth().measurementNoise;
    // Local streams only: the member rng_ and the attached fault stream
    // belong to the measurement path, and consuming their draws here
    // would shift every later measurement.
    uint64_t streamSeed =
        hash64(desc.name.c_str()) ^ oracle_.cacheSalt() ^ 0x5C09EULL;
    Rng rng(streamSeed);
    FaultStream faults(FaultInjector::globalConfig(), streamSeed);
    const bool chaos = faults.active();

    double prevReading = 0;
    bool havePrev = false;
    double sum = 0;
    int finite = 0;
    for (int s = 0; s < targetSamples; ++s) {
        double ts = (s + 0.5) / targetSamples * span;
        size_t idx = 0;
        while (idx + 1 < endSec.size() && endSec[idx] <= ts)
            ++idx;
        double truth = oracle_.truePower(run.activity.samples[idx], cond,
                                         nullptr, dynFactor);
        double reading = truth * (1.0 + rng.gaussian(0.0, noise));
        if (chaos && faults.fires(FaultClass::NvmlDropout)) {
            if (faults.uniform(FaultClass::NvmlDropout) < 0.5) {
                tl.marks.push_back({ts, "dropout"});
                continue; // reading lost: a gap in the stream
            }
            tl.samples.push_back({ts, std::nan("")});
            tl.marks.push_back({ts, "nan"});
            continue;
        }
        if (chaos && faults.fires(FaultClass::StaleSample) && havePrev) {
            reading = prevReading;
            tl.marks.push_back({ts, "stale"});
        }
        tl.samples.push_back({ts, reading});
        prevReading = reading;
        havePrev = true;
        sum += reading;
        ++finite;
    }
    if (finite > 0)
        tl.avgW = sum / finite;
    return tl;
}

double
NvmlEmu::measureAveragePowerW(const KernelDescriptor &desc, int repetitions)
{
    Result<double> r = tryMeasureAveragePowerW(desc, repetitions);
    if (!r)
        fatal("%s", r.error().message.c_str());
    return *r;
}

double
NvmlEmu::lastRelativeVariance() const
{
    if (lastReadings_.size() < 2)
        return 0.0;
    std::vector<double> vals;
    vals.reserve(lastReadings_.size());
    for (const auto &r : lastReadings_)
        vals.push_back(r.powerW);
    double m = mean(vals);
    double sd = stddev(vals);
    return m > 0 ? sd / m : 0.0;
}

} // namespace aw
