/**
 * @file
 * Convex quadratic programming with linear inequality constraints:
 *
 *     minimize    1/2 x^T Q x + c^T x
 *     subject to  G x <= h
 *
 * solved with a log-barrier interior-point method (Newton inner
 * iterations with backtracking line search). This implements the
 * optimization step of the AccelWattch tuning flow (Eq. 14): Q/c encode
 * the relative power-residual least-squares objective over the
 * microbenchmark suite; G/h encode the box bounds and the per-unit
 * energy-ordering constraints.
 *
 * Problems here are small (~22 variables, ~50 constraints), so Q and
 * the Newton system stay dense. G is mostly zeros (a box row holds one
 * nonzero, an ordering row two), so each solve lists every constraint
 * row's nonzeros once and forms G x, G^T d and G^T D^2 G from them;
 * skipping exact zeros drops only ±0 addends, so the iterates are
 * bit-identical to the dense products'.
 */
#pragma once

#include <vector>

#include "solver/linalg.hpp"

namespace aw {

/** A convex QP instance. Q must be positive semi-definite. */
struct QpProblem
{
    Matrix q;              ///< n x n quadratic term
    std::vector<double> c; ///< n linear term
    Matrix g;              ///< m x n inequality matrix (may have 0 rows)
    std::vector<double> h; ///< m inequality bounds

    size_t numVars() const { return c.size(); }
    size_t numConstraints() const { return h.size(); }

    /** Objective value at x. */
    double objective(const std::vector<double> &x) const;

    /** True iff G x <= h - margin holds componentwise. */
    bool isStrictlyFeasible(const std::vector<double> &x,
                            double margin = 0.0) const;

    /** Append the constraint  coeffs . x <= bound. */
    void addConstraint(const std::vector<double> &coeffs, double bound);

    /** Append box constraints lo <= x_i <= hi for every variable. */
    void addBox(double lo, double hi);
};

/** Knobs for the interior-point solver. */
struct QpOptions
{
    double tolerance = 1e-9;     ///< duality-gap style stop (m / t)
    double tInitial = 1.0;       ///< initial barrier weight
    double tMultiplier = 12.0;   ///< barrier growth per outer iteration
    int maxNewtonIters = 80;     ///< Newton cap per outer iteration
    int maxOuterIters = 64;      ///< outer barrier iterations cap
};

/** Solver outcome. */
struct QpResult
{
    std::vector<double> x;  ///< minimizer
    double objective = 0;   ///< objective at x
    int newtonIters = 0;    ///< total Newton iterations spent
    bool converged = false; ///< true when the gap tolerance was reached
};

/**
 * Solve the QP starting from the strictly feasible point x0.
 * fatal() if x0 violates G x < h.
 */
QpResult solveQp(const QpProblem &problem, std::vector<double> x0,
                 const QpOptions &opts = {});

/**
 * Find a strictly feasible point for G x <= h near the hint, by solving a
 * phase-I problem (minimize max violation). Returns the hint unchanged if
 * it is already strictly feasible.
 */
std::vector<double> makeFeasible(const QpProblem &problem,
                                 std::vector<double> hint);

} // namespace aw
