// Dense row-major matrix of doubles. This is the only tensor type in the
// from-scratch deep-learning substrate; the networks in the paper (128-unit
// feed-forward stacks, one graph-attention layer, small LSTMs) are small
// enough that a straightforward dense CPU implementation is faithful.
//
// Hot-path design (see src/nn/README.md):
//   * MatMul runs a cache-blocked i-k-j kernel over the flat row-major
//     buffers; the blocked kernel accumulates over k in index order, so it
//     is bitwise-identical to the textbook i-k-j loop.
//   * The `*Into` / `*Accum` variants write into caller-owned destinations
//     so per-interval code (the autograd tape, the GON inference
//     workspace) can recycle buffers instead of allocating per op.
//   * Elementwise transforms take the callable as a template parameter
//     (`MapFn`, `MapInPlaceFn`) so it inlines in the elementwise loop
//     (the old std::function `Map` is gone).
#ifndef CAROL_NN_MATRIX_H_
#define CAROL_NN_MATRIX_H_

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace carol::nn {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  // Builds from nested initializer data; all rows must have equal width.
  Matrix(std::initializer_list<std::initializer_list<double>> data);

  static Matrix Zeros(std::size_t rows, std::size_t cols);
  static Matrix Ones(std::size_t rows, std::size_t cols);
  static Matrix Identity(std::size_t n);
  // I.i.d. normal entries.
  static Matrix Randn(std::size_t rows, std::size_t cols, common::Rng& rng,
                      double mean = 0.0, double stddev = 1.0);
  // Xavier/Glorot uniform initialization for a (fan_in x fan_out) weight.
  static Matrix Xavier(std::size_t fan_in, std::size_t fan_out,
                       common::Rng& rng);
  // Wraps a flat row-major buffer.
  static Matrix FromFlat(std::size_t rows, std::size_t cols,
                         std::vector<double> flat);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  // Inline: the tape ops and kernels index through these in their
  // innermost loops.
  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  double& at(std::size_t r, std::size_t c);

  std::span<double> flat() { return data_; }
  std::span<const double> flat() const { return data_; }
  std::span<double> row(std::size_t r);
  std::span<const double> row(std::size_t r) const;

  // --- buffer management (capacity is retained across calls) ---
  // Reshapes without initializing contents (they are unspecified).
  void Resize(std::size_t rows, std::size_t cols);
  // Reshapes and zero-fills.
  void AssignZeros(std::size_t rows, std::size_t cols);
  // Becomes a copy of `src`, reusing this matrix's buffer.
  void CopyFrom(const Matrix& src);
  // Copies rows [r0, r1) of `src` into this matrix ((r1-r0) x src.cols).
  void CopyRowsFrom(const Matrix& src, std::size_t r0, std::size_t r1);

  // Elementwise arithmetic. Shapes must match exactly; throws
  // std::invalid_argument otherwise.
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar);
  Matrix operator+(const Matrix& other) const;
  Matrix operator-(const Matrix& other) const;
  Matrix operator*(double scalar) const;

  // --- in-place fast-path variants (no temporaries) ---
  Matrix& AddInPlace(const Matrix& other);                 // this += other
  Matrix& MulAddInPlace(const Matrix& other, double s);    // this += other*s
  Matrix& HadamardInPlace(const Matrix& other);            // this *= other
  Matrix& HadamardAccum(const Matrix& a, const Matrix& b); // this += a.*b
  // this(1 x cols) += per-column sums of `src` (bias-gradient reduction).
  Matrix& AddColumnSums(const Matrix& src);

  // Hadamard (elementwise) product.
  Matrix Hadamard(const Matrix& other) const;
  // Standard matrix product; inner dimensions must agree.
  Matrix MatMul(const Matrix& other) const;
  Matrix Transposed() const;
  // out becomes src^T; `out` is reshaped in place and must not alias src.
  static void TransposeInto(const Matrix& src, Matrix& out);

  // --- destination-passing matrix products ---
  // out = a * b. `out` must not alias an operand; it is reshaped in place.
  static void MatMulInto(const Matrix& a, const Matrix& b, Matrix& out);
  // out += a * b; `out` must already be (a.rows x b.cols).
  static void MatMulAccum(const Matrix& a, const Matrix& b, Matrix& out);
  // out += a^T * b (a stored un-transposed: [m x k] against b [m x n]).
  // Rank-1 row accumulation — the backward pass's  dW += X^T * dY.
  // (dX += dY * W^T goes through TransposeInto + MatMulAccum instead, so
  // the blocked kernel can skip the exact zeros ReLU leaves in dY.)
  static void MatMulTransAAccum(const Matrix& a, const Matrix& b,
                                Matrix& out);

  // Applies `fn` to every element, returning a new matrix. The callable
  // is a template parameter so it inlines in the elementwise loop.
  template <typename Fn>
  Matrix MapFn(Fn&& fn) const {
    Matrix out = *this;
    for (double& v : out.data_) v = fn(v);
    return out;
  }
  // In-place variant of MapFn.
  template <typename Fn>
  void MapInPlaceFn(Fn&& fn) {
    for (double& v : data_) v = fn(v);
  }

  // Appends the columns of `other` to the right; row counts must match.
  Matrix ConcatCols(const Matrix& other) const;
  // Stacks `other` below; column counts must match.
  Matrix ConcatRows(const Matrix& other) const;
  // Copies columns [c0, c1) into a new matrix.
  Matrix SliceCols(std::size_t c0, std::size_t c1) const;
  // Copies rows [r0, r1) into a new matrix.
  Matrix SliceRows(std::size_t r0, std::size_t r1) const;

  double Sum() const;
  double MeanValue() const;
  double MaxValue() const;
  double MinValue() const;
  // Frobenius norm.
  double Norm() const;
  // Mean over rows: returns a 1 x cols matrix.
  Matrix RowMean() const;
  // Sum over rows: returns a 1 x cols matrix.
  Matrix RowSum() const;

  void Fill(double value);
  // True if all entries are finite.
  bool AllFinite() const;
  // Max |a - b| over elements; shapes must match.
  double MaxAbsDiff(const Matrix& other) const;

  bool operator==(const Matrix& other) const;

  std::string ToString(int max_rows = 6, int max_cols = 8) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace carol::nn

#endif  // CAROL_NN_MATRIX_H_
