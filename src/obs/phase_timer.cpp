#include "obs/phase_timer.hpp"

#include <cstdlib>

#include "obs/metrics.hpp"

namespace aw::obs {

const char *
simPhaseName(SimPhase phase)
{
    switch (phase) {
      case SimPhase::Tracegen: return "tracegen";
      case SimPhase::Setup:    return "setup";
      case SimPhase::Issue:    return "issue";
      case SimPhase::Memory:   return "memory";
      case SimPhase::Sampling: return "sampling";
      case SimPhase::Finalize: return "finalize";
      case SimPhase::Evaluate: return "evaluate";
      case SimPhase::Tune:     return "tune";
    }
    return "unknown";
}

PhaseTimers &
PhaseTimers::instance()
{
    static PhaseTimers timers;
    return timers;
}

void
PhaseTimers::add(SimPhase phase, double sec)
{
    auto &slot = sec_[static_cast<size_t>(phase)];
    double cur = slot.load(std::memory_order_relaxed);
    while (!slot.compare_exchange_weak(cur, cur + sec,
                                       std::memory_order_relaxed))
        ;
    count_[static_cast<size_t>(phase)].fetch_add(
        1, std::memory_order_relaxed);
}

void
PhaseTimers::reset()
{
    for (size_t i = 0; i < kNumSimPhases; ++i) {
        sec_[i].store(0.0, std::memory_order_relaxed);
        count_[i].store(0, std::memory_order_relaxed);
    }
}

std::array<PhaseStat, kNumSimPhases>
PhaseTimers::snapshot() const
{
    std::array<PhaseStat, kNumSimPhases> out{};
    for (size_t i = 0; i < kNumSimPhases; ++i) {
        out[i].sec = sec_[i].load(std::memory_order_relaxed);
        out[i].count = count_[i].load(std::memory_order_relaxed);
    }
    return out;
}

double
PhaseTimers::totalSec() const
{
    double total = 0;
    for (size_t i = 0; i < kNumSimPhases; ++i)
        total += sec_[i].load(std::memory_order_relaxed);
    return total;
}

void
PhaseTimers::publish() const
{
    auto snap = snapshot();
    for (size_t i = 0; i < kNumSimPhases; ++i) {
        if (snap[i].count == 0)
            continue;
        std::string base = std::string("sim.phase.") +
                           simPhaseName(static_cast<SimPhase>(i));
        metrics().gauge(base + "_sec").set(snap[i].sec);
        metrics().gauge(base + "_scopes").set(
            static_cast<double>(snap[i].count));
    }
}

namespace {

// Innermost active scope of this thread, for exclusive-time nesting.
thread_local PhaseScope *t_top = nullptr;

} // namespace

PhaseScope::PhaseScope(SimPhase phase)
    : phase_(phase), active_(PhaseTimers::instance().enabled())
{
    if (!active_)
        return;
    parent_ = t_top;
    t_top = this;
    start_ = std::chrono::steady_clock::now();
}

PhaseScope::~PhaseScope()
{
    if (!active_)
        return;
    std::chrono::duration<double> d =
        std::chrono::steady_clock::now() - start_;
    t_top = parent_;
    if (parent_ != nullptr)
        parent_->childSec_ += d.count();
    PhaseTimers::instance().add(phase_, d.count() - childSec_);
}

void
initPhaseTimersFromEnv()
{
    const char *env = std::getenv("AW_PHASES");
    if (env != nullptr && *env != '\0' &&
        !(env[0] == '0' && env[1] == '\0'))
        PhaseTimers::instance().setEnabled(true);
}

} // namespace aw::obs
