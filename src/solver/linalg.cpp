#include "solver/linalg.hpp"

#include <cmath>

#include "common/log.hpp"

namespace aw {

Matrix
Matrix::identity(size_t n)
{
    Matrix m(n, n);
    for (size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

std::vector<double>
Matrix::mul(const std::vector<double> &v) const
{
    std::vector<double> out;
    mulInto(v, out);
    return out;
}

void
Matrix::mulInto(const std::vector<double> &v, std::vector<double> &out) const
{
    AW_ASSERT(v.size() == cols_);
    out.resize(rows_);
    for (size_t r = 0; r < rows_; ++r) {
        double sum = 0;
        for (size_t c = 0; c < cols_; ++c)
            sum += (*this)(r, c) * v[c];
        out[r] = sum;
    }
}

std::vector<double>
Matrix::mulTransposed(const std::vector<double> &v) const
{
    AW_ASSERT(v.size() == rows_);
    std::vector<double> out(cols_, 0.0);
    for (size_t r = 0; r < rows_; ++r)
        for (size_t c = 0; c < cols_; ++c)
            out[c] += (*this)(r, c) * v[r];
    return out;
}

Matrix
Matrix::gram() const
{
    Matrix g(cols_, cols_);
    for (size_t i = 0; i < cols_; ++i) {
        for (size_t j = i; j < cols_; ++j) {
            double sum = 0;
            for (size_t r = 0; r < rows_; ++r)
                sum += (*this)(r, i) * (*this)(r, j);
            g(i, j) = sum;
            g(j, i) = sum;
        }
    }
    return g;
}

Matrix
Matrix::mul(const Matrix &other) const
{
    AW_ASSERT(cols_ == other.rows());
    Matrix out(rows_, other.cols());
    for (size_t r = 0; r < rows_; ++r)
        for (size_t k = 0; k < cols_; ++k) {
            double a = (*this)(r, k);
            if (a == 0)
                continue;
            for (size_t c = 0; c < other.cols(); ++c)
                out(r, c) += a * other(k, c);
        }
    return out;
}

Matrix
Matrix::transposed() const
{
    Matrix out(cols_, rows_);
    for (size_t r = 0; r < rows_; ++r)
        for (size_t c = 0; c < cols_; ++c)
            out(c, r) = (*this)(r, c);
    return out;
}

double
dot(const std::vector<double> &a, const std::vector<double> &b)
{
    AW_ASSERT(a.size() == b.size());
    double sum = 0;
    for (size_t i = 0; i < a.size(); ++i)
        sum += a[i] * b[i];
    return sum;
}

double
norm2(const std::vector<double> &a)
{
    return std::sqrt(dot(a, a));
}

std::vector<double>
axpy(const std::vector<double> &a, double s, const std::vector<double> &b)
{
    AW_ASSERT(a.size() == b.size());
    std::vector<double> out(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        out[i] = a[i] + s * b[i];
    return out;
}

std::vector<double>
choleskySolve(Matrix a, std::vector<double> b)
{
    const size_t n = a.rows();
    AW_ASSERT(a.cols() == n && b.size() == n);

    // Try the factorization; on a non-positive pivot, restart with a ridge.
    double ridge = 0.0;
    for (int attempt = 0; attempt < 8; ++attempt) {
        Matrix l = a;
        if (ridge > 0)
            for (size_t i = 0; i < n; ++i)
                l(i, i) += ridge;
        bool ok = true;
        for (size_t j = 0; j < n && ok; ++j) {
            double d = l(j, j);
            for (size_t k = 0; k < j; ++k)
                d -= l(j, k) * l(j, k);
            if (d <= 0) {
                ok = false;
                break;
            }
            l(j, j) = std::sqrt(d);
            for (size_t i = j + 1; i < n; ++i) {
                double s = l(i, j);
                for (size_t k = 0; k < j; ++k)
                    s -= l(i, k) * l(j, k);
                l(i, j) = s / l(j, j);
            }
        }
        if (!ok) {
            // Scale the ridge with the matrix's magnitude.
            double maxdiag = 1e-12;
            for (size_t i = 0; i < n; ++i)
                maxdiag = std::max(maxdiag, std::abs(a(i, i)));
            ridge = (ridge == 0) ? 1e-10 * maxdiag : ridge * 100;
            continue;
        }
        // Forward substitution L y = b.
        std::vector<double> y(n);
        for (size_t i = 0; i < n; ++i) {
            double s = b[i];
            for (size_t k = 0; k < i; ++k)
                s -= l(i, k) * y[k];
            y[i] = s / l(i, i);
        }
        // Back substitution L^T x = y.
        std::vector<double> x(n);
        for (size_t ii = n; ii-- > 0;) {
            double s = y[ii];
            for (size_t k = ii + 1; k < n; ++k)
                s -= l(k, ii) * x[k];
            x[ii] = s / l(ii, ii);
        }
        return x;
    }
    panic("choleskySolve: matrix is not positive definite even with ridge");
}

std::vector<double>
leastSquares(Matrix a, std::vector<double> b)
{
    const size_t m = a.rows(), n = a.cols();
    if (m < n)
        fatal("leastSquares: underdetermined system (%zu rows, %zu cols)", m,
              n);
    AW_ASSERT(b.size() == m);

    // Householder QR, reducing A in place and applying reflections to b.
    for (size_t k = 0; k < n; ++k) {
        double alpha = 0;
        for (size_t i = k; i < m; ++i)
            alpha += a(i, k) * a(i, k);
        alpha = std::sqrt(alpha);
        if (alpha == 0)
            fatal("leastSquares: rank-deficient column %zu", k);
        if (a(k, k) > 0)
            alpha = -alpha;
        // Householder vector v = x - alpha e_k, stored in column k below
        // the diagonal (v_k in vkk).
        double vkk = a(k, k) - alpha;
        double vnorm2 = vkk * vkk;
        for (size_t i = k + 1; i < m; ++i)
            vnorm2 += a(i, k) * a(i, k);
        a(k, k) = alpha;
        if (vnorm2 == 0)
            continue;
        // Apply H = I - 2 v v^T / (v^T v) to remaining columns and b.
        for (size_t j = k + 1; j < n; ++j) {
            double s = vkk * a(k, j);
            for (size_t i = k + 1; i < m; ++i)
                s += a(i, k) * a(i, j);
            double f = 2.0 * s / vnorm2;
            a(k, j) -= f * vkk;
            for (size_t i = k + 1; i < m; ++i)
                a(i, j) -= f * a(i, k);
        }
        double s = vkk * b[k];
        for (size_t i = k + 1; i < m; ++i)
            s += a(i, k) * b[i];
        double f = 2.0 * s / vnorm2;
        b[k] -= f * vkk;
        for (size_t i = k + 1; i < m; ++i)
            b[i] -= f * a(i, k);
    }
    // Back substitution on the upper-triangular R.
    std::vector<double> x(n);
    for (size_t ii = n; ii-- > 0;) {
        double s = b[ii];
        for (size_t j = ii + 1; j < n; ++j)
            s -= a(ii, j) * x[j];
        x[ii] = s / a(ii, ii);
    }
    return x;
}

} // namespace aw
