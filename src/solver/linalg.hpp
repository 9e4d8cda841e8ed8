/**
 * @file
 * Minimal dense linear algebra: row-major matrix, Cholesky solve for SPD
 * systems (Newton steps in the QP solver), and Householder-QR least
 * squares (polynomial fitting, GPUWattch-style linear extrapolation).
 *
 * Problem sizes in this repository are tiny (tens of unknowns, at most a
 * few hundred rows), so clarity wins over blocking/vectorization.
 */
#pragma once

#include <cstddef>
#include <vector>

namespace aw {

/** Dense row-major matrix of doubles. */
class Matrix
{
  public:
    Matrix() = default;

    /** rows x cols matrix, zero-initialized. */
    Matrix(size_t rows, size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, 0.0)
    {}

    /** Identity matrix of size n. */
    static Matrix identity(size_t n);

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }

    double &operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
    double operator()(size_t r, size_t c) const
    {
        return data_[r * cols_ + c];
    }

    /** Matrix-vector product; v must have cols() entries. */
    std::vector<double> mul(const std::vector<double> &v) const;

    /** mul(v) into `out`, reusing its storage (resized to rows()). */
    void mulInto(const std::vector<double> &v, std::vector<double> &out) const;

    /** Transposed-matrix-vector product; v must have rows() entries. */
    std::vector<double> mulTransposed(const std::vector<double> &v) const;

    /** A^T * A (cols x cols). */
    Matrix gram() const;

    /** Matrix product this * other. */
    Matrix mul(const Matrix &other) const;

    /** Transpose. */
    Matrix transposed() const;

  private:
    size_t rows_ = 0;
    size_t cols_ = 0;
    std::vector<double> data_;
};

/** Dot product; sizes must match. */
double dot(const std::vector<double> &a, const std::vector<double> &b);

/** Euclidean norm. */
double norm2(const std::vector<double> &a);

/** a + s * b, elementwise. */
std::vector<double> axpy(const std::vector<double> &a, double s,
                         const std::vector<double> &b);

/**
 * Solve A x = b for symmetric positive-definite A via Cholesky.
 * A small diagonal ridge is added automatically if the factorization
 * encounters a non-positive pivot (A nearly singular).
 * @return the solution x.
 */
std::vector<double> choleskySolve(Matrix a, std::vector<double> b);

/**
 * Least-squares solution of min ||A x - b||_2 via Householder QR.
 * Requires rows >= cols and full column rank (fatal otherwise).
 */
std::vector<double> leastSquares(Matrix a, std::vector<double> b);

} // namespace aw
