#include "core/tuner.hpp"

#include <algorithm>
#include <cmath>

#include "baseline/gpuwattch.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "solver/qp.hpp"

namespace aw {

ComponentArray<double>
initialEnergyEstimates()
{
    // Unvalidated McPAT-style estimates: right order of magnitude but
    // systematically pessimistic for a tuned 12 nm implementation — the
    // tuner is expected to scale them down.
    ComponentArray<double> e{};
    auto set = [&](PowerComponent c, double nj) {
        e[componentIndex(c)] = nj;
    };
    set(PowerComponent::InstBuffer, 0.06);
    set(PowerComponent::InstCache, 0.22);
    set(PowerComponent::ConstCache, 0.12);
    set(PowerComponent::L1DCache, 2.4);
    set(PowerComponent::SharedMem, 0.9);
    set(PowerComponent::RegFile, 0.11);
    set(PowerComponent::IntAdd, 0.24);
    set(PowerComponent::IntMul, 0.55);
    set(PowerComponent::FpAdd, 0.34);
    set(PowerComponent::FpMul, 0.44);
    set(PowerComponent::DpAdd, 0.85);
    set(PowerComponent::DpMul, 1.30);
    set(PowerComponent::Sqrt, 1.00);
    set(PowerComponent::Log, 0.95);
    set(PowerComponent::SinCos, 0.97);
    set(PowerComponent::Exp, 0.93);
    set(PowerComponent::TensorCore, 1.50);
    set(PowerComponent::TextureUnit, 1.10);
    set(PowerComponent::Scheduler, 0.08);
    set(PowerComponent::SmPipeline, 0.13);
    set(PowerComponent::L2Noc, 5.5);
    set(PowerComponent::DramMc, 22.0);
    return e;
}

std::vector<double>
fermiStartFactors(const ComponentArray<double> &initialEnergies)
{
    // Naive capacitance scaling a practitioner would apply when reusing
    // a validated 40 nm model at 12 nm.
    constexpr double kFermiToVoltaTech = 0.16;
    auto fermi = fermiEnergyEstimatesNj(true);
    std::vector<double> x(kNumPowerComponents, 1.0);
    for (size_t i = 0; i < kNumPowerComponents; ++i) {
        if (initialEnergies[i] <= 0 || fermi[i] <= 0)
            continue;
        x[i] = std::clamp(fermi[i] * kFermiToVoltaTech / initialEnergies[i],
                          0.01, 100.0);
    }
    return x;
}

namespace {

/** Ordering constraints of Eq. 14, as (lhs <= rhs) component pairs.
 *  Built once: the list is fixed, and the tuner runs per variant and per
 *  starting point. */
const std::vector<std::pair<PowerComponent, PowerComponent>> &
orderingConstraints()
{
    using PC = PowerComponent;
    static const std::vector<std::pair<PowerComponent, PowerComponent>>
        constraints = {
        {PC::IntAdd, PC::FpAdd},      // X_alu <= X_fpu
        {PC::FpAdd, PC::DpAdd},       // X_fpu <= X_dpu
        {PC::IntAdd, PC::IntMul},     // X_alu <= X_imul
        {PC::FpMul, PC::IntMul},      // X_fpmul <= X_imul
        {PC::FpMul, PC::DpMul},       // X_fpmul <= X_dpmul
        {PC::FpMul, PC::Sqrt},        // X_fpmul <= X_sqrt
        {PC::FpMul, PC::Log},         // X_fpmul <= X_log
        {PC::FpMul, PC::SinCos},      // X_fpmul <= X_sin
        {PC::FpMul, PC::Exp},         // X_fpmul <= X_exp
        {PC::FpMul, PC::TensorCore},  // X_fpmul <= X_tensor
        {PC::FpMul, PC::TextureUnit}, // X_fpmul <= X_tex
    };
    return constraints;
}

} // namespace

std::vector<ActivitySample>
aggregateActivities(const std::vector<KernelActivity> &activities)
{
    std::vector<ActivitySample> aggs;
    aggs.reserve(activities.size());
    for (const auto &a : activities)
        aggs.push_back(a.aggregate());
    return aggs;
}

TuningResult
tuneDynamicPower(const std::vector<Microbenchmark> &suite,
                 const std::vector<double> &measuredPowerW,
                 const std::vector<KernelActivity> &activities,
                 const AccelWattchModel &partialModel,
                 const ComponentArray<double> &initialEnergies,
                 const TuningOptions &opts,
                 const std::vector<ActivitySample> *aggregates)
{
    AW_PROF_SCOPE("tune/qp");
    const size_t m = suite.size();
    const size_t n = kNumPowerComponents;
    if (m == 0 || measuredPowerW.size() != m || activities.size() != m)
        fatal("tuneDynamicPower: suite/measurement/activity size mismatch");
    std::vector<ActivitySample> localAggs;
    if (!aggregates) {
        localAggs = aggregateActivities(activities);
        aggregates = &localAggs;
    }
    if (aggregates->size() != m)
        fatal("tuneDynamicPower: aggregate count mismatch");

    // Fixed (x = 1) terms: constant, static, idle-SM power per Eq. 12,
    // evaluated with the already-calibrated part of the model.
    AccelWattchModel fixedOnly = partialModel;
    fixedOnly.energyNj = {};

    // Rows of the relative-error system: A x ~= b with
    // A_ki = (a_ki E_i / T_k) * vScale / P_meas,k and
    // b_k  = (P_meas,k - P_fixed,k) / P_meas,k.
    Matrix a(m, n);
    std::vector<double> b(m);
    for (size_t k = 0; k < m; ++k) {
        const ActivitySample &agg = (*aggregates)[k];
        if (agg.cycles <= 0 || agg.freqGhz <= 0)
            fatal("tuneDynamicPower: microbenchmark %s has no activity",
                  suite[k].kernel.name.c_str());
        const double seconds = agg.cycles / (agg.freqGhz * 1e9);
        const double v = agg.voltage > 0
                             ? agg.voltage
                             : partialModel.gpu.vf.voltageAt(agg.freqGhz);
        const double vDyn = (v / partialModel.refVoltage) *
                            (v / partialModel.refVoltage);
        const double pMeas = measuredPowerW[k];
        AW_ASSERT(pMeas > 0);
        double fixed = fixedOnly.evaluate(agg).totalW();
        for (size_t i = 0; i < n; ++i)
            a(k, i) = agg.accesses[i] * initialEnergies[i] * 1e-9 /
                      seconds * vDyn / pMeas;
        b[k] = (pMeas - fixed) / pMeas;
    }

    // Starting point.
    std::vector<double> x0(n, 1.0);
    if (opts.start == StartingPoint::Fermi)
        x0 = fermiStartFactors(initialEnergies);

    // Constraints: bounds plus the Eq. 14 orderings (x_lhs - x_rhs <= 0).
    QpProblem problem;
    problem.q = Matrix(n, n);
    problem.c.assign(n, 0.0);
    problem.g = Matrix(0, n);
    problem.addBox(opts.lowerBound, opts.upperBound);
    for (auto [lhs, rhs] : orderingConstraints()) {
        std::vector<double> row(n, 0.0);
        row[componentIndex(lhs)] = 1.0;
        row[componentIndex(rhs)] = -1.0;
        problem.addConstraint(row, 0.0);
    }

    auto trainingMape = [&](const std::vector<double> &x) {
        std::vector<double> modeled, measured;
        auto ax = a.mul(x);
        for (size_t k = 0; k < m; ++k) {
            modeled.push_back((ax[k] + (1.0 - b[k])) * measuredPowerW[k]);
            measured.push_back(measuredPowerW[k]);
        }
        return mape(measured, modeled);
    };

    Matrix gram = a.gram();
    std::vector<double> atb = a.mulTransposed(b);

    // The Q off-diagonals are 2 A^T A throughout: only the diagonal
    // (proximal lambda) and the linear term change per round, so fill
    // the matrix once and touch n entries per round instead of n^2.
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < n; ++j)
            problem.q(i, j) = 2.0 * gram(i, j);

    TuningResult result;
    result.start = opts.start;
    std::vector<double> anchor = makeFeasible(problem, x0);
    std::vector<double> x = anchor;
    double lambda = opts.proximalLambda;
    double bestMape = trainingMape(x);

    for (int round = 0; round < opts.maxRounds; ++round) {
        AW_PROF_SCOPE("tune/round");
        // Objective: ||A x - b||^2 + lambda ||x - anchor||^2
        // => Q = 2 (A^T A + lambda I), c = -2 (A^T b + lambda anchor).
        for (size_t i = 0; i < n; ++i) {
            problem.q(i, i) = 2.0 * gram(i, i) + 2.0 * lambda;
            problem.c[i] = -2.0 * (atb[i] + lambda * anchor[i]);
        }
        QpResult qp = solveQp(problem, x);
        result.qpNewtonIters += qp.newtonIters;
        ++result.rounds;

        double newMape = trainingMape(qp.x);
        if (newMape > bestMape - opts.convergencePct) {
            if (newMape < bestMape)
                x = qp.x;
            break; // the solver can no longer reduce the relative error
        }
        bestMape = newMape;
        x = qp.x;
        anchor = x;      // re-anchor at the new factors and re-iterate
        lambda *= 0.6;
    }

    result.scalingFactors = x;
    for (size_t i = 0; i < n; ++i)
        result.finalEnergyNj[i] = initialEnergies[i] * x[i];
    result.trainingMapePct = trainingMape(x);

    // Constraint activations: bound or ordering rows met with equality
    // at the solution (within solver tolerance) — the knobs the QP
    // actually pushed against.
    int active = 0;
    auto gx = problem.g.mul(x);
    for (size_t i = 0; i < problem.numConstraints(); ++i)
        if (gx[i] > problem.h[i] - 1e-5 * (1.0 + std::abs(problem.h[i])))
            ++active;

    auto &reg = obs::metrics();
    reg.counter("tuner.runs").add(1);
    reg.counter("tuner.qp.iterations").add(result.rounds);
    reg.counter("tuner.qp.newton_iters").add(result.qpNewtonIters);
    reg.counter("tuner.constraint_activations").add(active);
    reg.gauge("tuner.training_mape_pct").set(result.trainingMapePct);
    AW_DEBUGF("tuner",
              "%s start: %d rounds, %d Newton iters, %d active "
              "constraints, training MAPE %.2f%%",
              opts.start == StartingPoint::Fermi ? "Fermi" : "all-ones",
              result.rounds, result.qpNewtonIters, active,
              result.trainingMapePct);
    return result;
}

} // namespace aw
