#include "solver/qp.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace aw {

double
QpProblem::objective(const std::vector<double> &x) const
{
    auto qx = q.mul(x);
    return 0.5 * dot(x, qx) + dot(c, x);
}

bool
QpProblem::isStrictlyFeasible(const std::vector<double> &x,
                              double margin) const
{
    if (g.rows() == 0)
        return true;
    auto gx = g.mul(x);
    for (size_t i = 0; i < h.size(); ++i)
        if (gx[i] > h[i] - margin)
            return false;
    return true;
}

void
QpProblem::addConstraint(const std::vector<double> &coeffs, double bound)
{
    AW_ASSERT(coeffs.size() == numVars());
    Matrix g2(g.rows() + 1, numVars());
    for (size_t r = 0; r < g.rows(); ++r)
        for (size_t cc = 0; cc < numVars(); ++cc)
            g2(r, cc) = g(r, cc);
    for (size_t cc = 0; cc < numVars(); ++cc)
        g2(g.rows(), cc) = coeffs[cc];
    g = std::move(g2);
    h.push_back(bound);
}

void
QpProblem::addBox(double lo, double hi)
{
    const size_t n = numVars();
    for (size_t i = 0; i < n; ++i) {
        std::vector<double> row(n, 0.0);
        row[i] = 1.0;
        addConstraint(row, hi);   //  x_i <= hi
        row[i] = -1.0;
        addConstraint(row, -lo);  // -x_i <= -lo
    }
}

namespace {

/**
 * G's nonzeros, listed once per solve in column order. A product over
 * a row skips only exact-zero entries, whose products are ±0 addends
 * that leave a sum starting at +0 unchanged, and keeps the nonzero
 * terms in the dense order: every result is bit-identical to the dense
 * product while the operands stay finite. The tuner's G has one
 * nonzero in each box row and two in each ordering row.
 */
struct SparseRows
{
    std::vector<size_t> start; ///< row r's entries: [start[r], start[r+1])
    std::vector<size_t> col;
    std::vector<double> val;

    explicit SparseRows(const Matrix &g)
    {
        start.reserve(g.rows() + 1);
        start.push_back(0);
        for (size_t r = 0; r < g.rows(); ++r) {
            for (size_t c = 0; c < g.cols(); ++c)
                if (g(r, c) != 0) {
                    col.push_back(c);
                    val.push_back(g(r, c));
                }
            start.push_back(col.size());
        }
    }

    size_t rows() const { return start.size() - 1; }

    /** out = G v. */
    void mul(const std::vector<double> &v, std::vector<double> &out) const
    {
        out.resize(rows());
        for (size_t r = 0; r < rows(); ++r) {
            double sum = 0;
            for (size_t k = start[r]; k < start[r + 1]; ++k)
                sum += val[k] * v[col[k]];
            out[r] = sum;
        }
    }

    /** out = G^T d, each column summed over rows in order. */
    void mulTransposed(const std::vector<double> &d,
                       std::vector<double> &out) const
    {
        std::fill(out.begin(), out.end(), 0.0);
        for (size_t r = 0; r < rows(); ++r)
            for (size_t k = start[r]; k < start[r + 1]; ++k)
                out[col[k]] += val[k] * d[r];
    }
};

/** The buffers every Newton iteration of one solve reuses. */
struct Workspace
{
    SparseRows g;
    std::vector<double> gx, d, grad, gtd, negGrad, dx, qx;
    std::vector<double> cand, candGx, candQx; ///< line-search trial
    Matrix hess;

    explicit Workspace(const QpProblem &p)
        : g(p.g), d(p.numConstraints()), grad(p.numVars()),
          gtd(p.numVars()), negGrad(p.numVars()), cand(p.numVars()),
          hess(p.numVars(), p.numVars())
    {}
};

/**
 * The barrier objective t f(x) - sum log(h - G x) at a point whose
 * Q x and G x are known; 1e300 outside the strictly feasible region.
 */
double
barrierAt(const QpProblem &p, double t, const std::vector<double> &x,
          const std::vector<double> &qx, const std::vector<double> &gx)
{
    double val = t * (0.5 * dot(x, qx) + dot(p.c, x));
    for (size_t i = 0; i < gx.size(); ++i) {
        double slack = p.h[i] - gx[i];
        if (slack <= 0)
            return 1e300;
        val -= std::log(slack);
    }
    return val;
}

/**
 * One centering step: minimize t * f(x) + phi(x) with Newton iterations.
 * Returns the number of Newton iterations used. An accepted line-search
 * trial hands its Q x, G x and barrier value to the next iteration, which
 * would compute the same numbers at the same point and t.
 */
int
center(const QpProblem &p, double t, std::vector<double> &x,
       const QpOptions &opts, Workspace &ws)
{
    const size_t n = p.numVars();
    const size_t m = p.numConstraints();
    int iters = 0;

    p.q.mulInto(x, ws.qx);
    ws.g.mul(x, ws.gx);
    bool haveF0 = false;
    double f0 = 0;

    for (; iters < opts.maxNewtonIters; ++iters) {
        // Slack d_i = 1 / (h_i - g_i x) for each constraint.
        for (size_t i = 0; i < m; ++i) {
            double slack = p.h[i] - ws.gx[i];
            AW_ASSERT(slack > 0);
            ws.d[i] = 1.0 / slack;
        }

        // Gradient: t (Q x + c) + G^T d.
        for (size_t i = 0; i < n; ++i)
            ws.grad[i] = t * (ws.qx[i] + p.c[i]);
        if (m) {
            ws.g.mulTransposed(ws.d, ws.gtd);
            for (size_t i = 0; i < n; ++i)
                ws.grad[i] += ws.gtd[i];
        }

        // Hessian: t Q + G^T diag(d^2) G, one row's nonzero pairs at a
        // time.
        for (size_t i = 0; i < n; ++i)
            for (size_t j = 0; j < n; ++j)
                ws.hess(i, j) = t * p.q(i, j);
        for (size_t k = 0; k < m; ++k) {
            double w = ws.d[k] * ws.d[k];
            for (size_t a = ws.g.start[k]; a < ws.g.start[k + 1]; ++a) {
                const size_t i = ws.g.col[a];
                const double gki = ws.g.val[a];
                for (size_t b = ws.g.start[k]; b < ws.g.start[k + 1]; ++b)
                    ws.hess(i, ws.g.col[b]) += w * gki * ws.g.val[b];
            }
        }

        // Newton direction: solve H dx = -grad.
        for (size_t i = 0; i < n; ++i)
            ws.negGrad[i] = -ws.grad[i];
        ws.dx = choleskySolve(ws.hess, ws.negGrad);

        // Newton decrement for the stopping test.
        double lambda2 = -dot(ws.grad, ws.dx);
        if (lambda2 / 2.0 < 1e-12)
            break;

        // Backtracking line search keeping strict feasibility.
        if (!haveF0) {
            f0 = barrierAt(p, t, x, ws.qx, ws.gx);
            haveF0 = true;
        }
        double step = 1.0;
        const double alpha = 0.25, betaLs = 0.5;
        bool moved = false;
        for (int ls = 0; ls < 60; ++ls) {
            for (size_t i = 0; i < n; ++i)
                ws.cand[i] = x[i] + step * ws.dx[i];
            p.q.mulInto(ws.cand, ws.candQx);
            ws.g.mul(ws.cand, ws.candGx);
            double f1 = barrierAt(p, t, ws.cand, ws.candQx, ws.candGx);
            if (f1 <= f0 - alpha * step * lambda2) {
                x.swap(ws.cand);
                ws.qx.swap(ws.candQx);
                ws.gx.swap(ws.candGx);
                f0 = f1;
                moved = true;
                break;
            }
            step *= betaLs;
        }
        if (!moved)
            break;
    }
    return iters;
}

} // namespace

namespace {

/** Shared exit bookkeeping of solveQp (both return paths). */
void
recordSolve(const QpResult &result)
{
    auto &reg = obs::metrics();
    reg.counter("solver.qp.solves").add(1);
    reg.counter("solver.qp.newton_iters").add(result.newtonIters);
    if (!result.converged)
        reg.counter("solver.qp.nonconverged").add(1);
}

} // namespace

QpResult
solveQp(const QpProblem &problem, std::vector<double> x0,
        const QpOptions &opts)
{
    AW_PROF_SCOPE("solver/qp");
    AW_ASSERT(x0.size() == problem.numVars());
    if (!problem.isStrictlyFeasible(x0))
        fatal("solveQp: starting point is not strictly feasible");

    QpResult result;
    result.x = std::move(x0);

    Workspace ws(problem);
    const double m = static_cast<double>(problem.numConstraints());
    if (m == 0) {
        // Unconstrained QP: a single Newton step is exact.
        result.newtonIters = center(problem, 1.0, result.x, opts, ws);
        result.converged = true;
        result.objective = problem.objective(result.x);
        recordSolve(result);
        return result;
    }

    double t = opts.tInitial;
    for (int outer = 0; outer < opts.maxOuterIters; ++outer) {
        result.newtonIters += center(problem, t, result.x, opts, ws);
        if (m / t < opts.tolerance) {
            result.converged = true;
            break;
        }
        t *= opts.tMultiplier;
    }
    result.objective = problem.objective(result.x);
    recordSolve(result);
    return result;
}

std::vector<double>
makeFeasible(const QpProblem &problem, std::vector<double> hint)
{
    const size_t m = problem.numConstraints();
    const size_t n = problem.numVars();
    AW_ASSERT(hint.size() == n);
    if (m == 0)
        return hint;

    // Cyclic projections with a margin: for each violated constraint move
    // the point just inside. Converges quickly for the box + ordering
    // constraint families used in this repository.
    for (int pass = 0; pass < 2000; ++pass) {
        bool anyViolation = false;
        auto gx = problem.g.mul(hint);
        for (size_t i = 0; i < m; ++i) {
            double margin = 1e-6 * (1.0 + std::abs(problem.h[i]));
            if (gx[i] <= problem.h[i] - margin)
                continue;
            anyViolation = true;
            double rownorm2 = 0;
            for (size_t j = 0; j < n; ++j)
                rownorm2 += problem.g(i, j) * problem.g(i, j);
            if (rownorm2 == 0)
                fatal("makeFeasible: infeasible zero-row constraint %zu", i);
            double excess = gx[i] - (problem.h[i] - 2.0 * margin);
            for (size_t j = 0; j < n; ++j)
                hint[j] -= problem.g(i, j) * excess / rownorm2;
            gx = problem.g.mul(hint);
        }
        if (!anyViolation)
            return hint;
    }
    fatal("makeFeasible: could not find a strictly feasible point");
}

} // namespace aw
