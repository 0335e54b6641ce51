#include "nn/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "nn/simd.h"

namespace carol::nn {

namespace {

void CheckSameShape(const Matrix& a, const Matrix& b, const char* op) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch (" +
                                std::to_string(a.rows()) + "x" +
                                std::to_string(a.cols()) + " vs " +
                                std::to_string(b.rows()) + "x" +
                                std::to_string(b.cols()) + ")");
  }
}

// The one product kernel: out (+)= a * b over the flat row-major buffers
// (a [m x k], b [k x n]), as kTileR-row x kTileJ-column register tiles of
// vector accumulators.
//
// Every output element is one accumulator that sums its k terms in
// ascending order, starting from +0 (`accumulate` false) or from its
// destination value, across k blocks too. Tile rows and vector lanes are
// independent outputs, never a reduction index, so blocking, tiling and
// vector width change no bit: the result is the textbook i-k-j loop's.
//
// Zero skip: a k is skipped when all rows of its group have a(i, k) == 0
// (dead ReLU units leave whole zero groups). A row that is zero at a
// non-skipped k adds a(i, k) * b(k, j) = ±0, which changes no value when
// b(k, j) is finite: an accumulator that starts at +0 never becomes −0
// under round-to-nearest, and x + (±0) == x for every other x. So for
// finite b and no −0 destination the skip is invisible and the result is
// the unskipped ascending sum (src/nn/README.md).
//
// Columns past the last full tile run through a zero-padded copy of b's
// tail columns, and only the valid columns are stored, so there is no
// scalar remainder loop.
constexpr std::size_t kBlockK = 64;
constexpr std::size_t kTileJ = 16;
constexpr std::size_t kTileR = 4;
constexpr std::size_t kTileV = kTileJ / simd::kLanes;
static_assert(kTileJ % simd::kLanes == 0);

// The k offsets (from the block start) of one row group's k block where
// some row of the group is nonzero, ascending.
struct KList {
  std::size_t count = 0;
  std::uint32_t k[kBlockK];
};

template <std::size_t R>
void NonzeroColumns(const double* a, std::size_t lda, std::size_t kb,
                    std::size_t kend, KList& list) {
  using simd::Vec;
  constexpr std::size_t kL = simd::kLanes;
  std::size_t count = 0;
  std::size_t kk = kb;
  for (; kk + kL <= kend; kk += kL) {
    auto nonzero = simd::Load(a + kk) != Vec{};
    for (std::size_t r = 1; r < R; ++r) {
      nonzero |= simd::Load(a + r * lda + kk) != Vec{};
    }
    for (std::size_t l = 0; l < kL; ++l) {
      list.k[count] = static_cast<std::uint32_t>(kk + l - kb);
      count += nonzero[l] != 0 ? 1 : 0;
    }
  }
  for (; kk < kend; ++kk) {
    bool any = false;
    for (std::size_t r = 0; r < R; ++r) any |= a[r * lda + kk] != 0.0;
    list.k[count] = static_cast<std::uint32_t>(kk - kb);
    count += any ? 1 : 0;
  }
  list.count = count;
}

// out rows [0, R) x columns [0, cols) (+)= a rows [0, R) * b over the
// listed k, in V vectors per row, where a and b point at the block's
// first column / row and `cols` <= V * kLanes; b must be readable for
// V * kLanes columns of every listed row.
template <std::size_t R, std::size_t V>
void MultiplyTile(const KList& list, const double* a, std::size_t lda,
                  const double* b, std::size_t ldb, double* out,
                  std::size_t ldo, std::size_t cols, bool load) {
  using simd::Vec;
  constexpr std::size_t kL = simd::kLanes;
  constexpr std::size_t kCols = V * kL;
  Vec acc[R][V];
  for (std::size_t r = 0; r < R; ++r) {
    double* orow = out + r * ldo;
    if (!load) {
      for (std::size_t v = 0; v < V; ++v) acc[r][v] = Vec{};
    } else if (cols == kCols) {
      for (std::size_t v = 0; v < V; ++v) {
        acc[r][v] = simd::Load(orow + v * kL);
      }
    } else {
      double tmp[kCols] = {};
      std::copy(orow, orow + cols, tmp);
      for (std::size_t v = 0; v < V; ++v) {
        acc[r][v] = simd::Load(tmp + v * kL);
      }
    }
  }
  for (std::size_t t = 0; t < list.count; ++t) {
    const std::size_t kk = list.k[t];
    const double* brow = b + kk * ldb;
    Vec bv[V];
    for (std::size_t v = 0; v < V; ++v) bv[v] = simd::Load(brow + v * kL);
    for (std::size_t r = 0; r < R; ++r) {
      const double ar = a[r * lda + kk];
      for (std::size_t v = 0; v < V; ++v) acc[r][v] += ar * bv[v];
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    double* orow = out + r * ldo;
    if (cols == kCols) {
      for (std::size_t v = 0; v < V; ++v) {
        simd::Store(orow + v * kL, acc[r][v]);
      }
    } else {
      double tmp[kCols];
      for (std::size_t v = 0; v < V; ++v) {
        simd::Store(tmp + v * kL, acc[r][v]);
      }
      std::copy(tmp, tmp + cols, orow);
    }
  }
}

// MultiplyTile for the last `cols` < kTileJ columns, with the fewest
// vectors that cover them.
template <std::size_t R, std::size_t V = 1>
void MultiplyTailTile(const KList& list, const double* a, std::size_t lda,
                      const double* b, std::size_t ldb, double* out,
                      std::size_t ldo, std::size_t cols, bool load) {
  if constexpr (V < kTileV) {
    if (cols > V * simd::kLanes) {
      MultiplyTailTile<R, V + 1>(list, a, lda, b, ldb, out, ldo, cols, load);
      return;
    }
  }
  MultiplyTile<R, V>(list, a, lda, b, ldb, out, ldo, cols, load);
}

template <std::size_t R>
void MultiplyRowGroup(const double* a, const double* b, const double* bpad,
                      double* out, std::size_t k, std::size_t n,
                      std::size_t kb, std::size_t kend, bool load) {
  KList list;
  NonzeroColumns<R>(a, k, kb, kend, list);
  if (list.count == 0 && load) return;  // the whole group skips this block
  const double* ab = a + kb;
  const std::size_t tiled = n - n % kTileJ;
  for (std::size_t jb = 0; jb < tiled; jb += kTileJ) {
    MultiplyTile<R, kTileV>(list, ab, k, b + kb * n + jb, n, out + jb, n,
                            kTileJ, load);
  }
  if (tiled < n) {
    MultiplyTailTile<R>(list, ab, k, bpad, kTileJ, out + tiled, n, n - tiled,
                        load);
  }
}

void MatMulImpl(const double* a, const double* b, double* out,
                std::size_t m, std::size_t k, std::size_t n,
                bool accumulate) {
  if (k == 0) {
    if (!accumulate) std::fill(out, out + m * n, 0.0);
    return;
  }
  const std::size_t tiled = n - n % kTileJ;
  double bpad[kBlockK * kTileJ];
  for (std::size_t kb = 0; kb < k; kb += kBlockK) {
    const std::size_t kend = std::min(kb + kBlockK, k);
    if (tiled < n) {
      std::fill(bpad, bpad + (kend - kb) * kTileJ, 0.0);
      for (std::size_t kk = kb; kk < kend; ++kk) {
        std::copy(b + kk * n + tiled, b + kk * n + n,
                  bpad + (kk - kb) * kTileJ);
      }
    }
    const bool load = accumulate || kb > 0;
    std::size_t i = 0;
    for (; i + kTileR <= m; i += kTileR) {
      MultiplyRowGroup<kTileR>(a + i * k, b, bpad, out + i * n, k, n, kb,
                               kend, load);
    }
    const double* ai = a + i * k;
    double* oi = out + i * n;
    switch (m - i) {
      case 3:
        MultiplyRowGroup<3>(ai, b, bpad, oi, k, n, kb, kend, load);
        break;
      case 2:
        MultiplyRowGroup<2>(ai, b, bpad, oi, k, n, kb, kend, load);
        break;
      case 1:
        MultiplyRowGroup<1>(ai, b, bpad, oi, k, n, kb, kend, load);
        break;
      default:
        break;
    }
  }
}

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> data) {
  rows_ = data.size();
  cols_ = rows_ == 0 ? 0 : data.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : data) {
    if (row.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer");
    }
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::Zeros(std::size_t rows, std::size_t cols) {
  return Matrix(rows, cols, 0.0);
}

Matrix Matrix::Ones(std::size_t rows, std::size_t cols) {
  return Matrix(rows, cols, 1.0);
}

Matrix Matrix::Identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Randn(std::size_t rows, std::size_t cols, common::Rng& rng,
                     double mean, double stddev) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng.Normal(mean, stddev);
  return m;
}

Matrix Matrix::Xavier(std::size_t fan_in, std::size_t fan_out,
                      common::Rng& rng) {
  const double limit =
      std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  Matrix m(fan_in, fan_out);
  for (double& v : m.data_) v = rng.Uniform(-limit, limit);
  return m;
}

Matrix Matrix::FromFlat(std::size_t rows, std::size_t cols,
                        std::vector<double> flat) {
  if (flat.size() != rows * cols) {
    throw std::invalid_argument("FromFlat: buffer size mismatch");
  }
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_ = std::move(flat);
  return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) {
    throw std::out_of_range("Matrix::at: index out of range");
  }
  return data_[r * cols_ + c];
}

std::span<double> Matrix::row(std::size_t r) {
  return std::span<double>(data_).subspan(r * cols_, cols_);
}

std::span<const double> Matrix::row(std::size_t r) const {
  return std::span<const double>(data_).subspan(r * cols_, cols_);
}

void Matrix::Resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

void Matrix::AssignZeros(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0);
}

void Matrix::CopyFrom(const Matrix& src) {
  rows_ = src.rows_;
  cols_ = src.cols_;
  data_.assign(src.data_.begin(), src.data_.end());
}

void Matrix::CopyRowsFrom(const Matrix& src, std::size_t r0,
                          std::size_t r1) {
  if (r0 > r1 || r1 > src.rows_) {
    throw std::out_of_range("CopyRowsFrom: bad row range");
  }
  rows_ = r1 - r0;
  cols_ = src.cols_;
  data_.assign(src.data_.begin() + static_cast<std::ptrdiff_t>(r0 * cols_),
               src.data_.begin() + static_cast<std::ptrdiff_t>(r1 * cols_));
}

Matrix& Matrix::AddInPlace(const Matrix& other) {
  CheckSameShape(*this, other, "AddInPlace");
  const double* src = other.data_.data();
  double* dst = data_.data();
  const std::size_t n = data_.size();
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
  return *this;
}

Matrix& Matrix::MulAddInPlace(const Matrix& other, double s) {
  CheckSameShape(*this, other, "MulAddInPlace");
  const double* src = other.data_.data();
  double* dst = data_.data();
  const std::size_t n = data_.size();
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i] * s;
  return *this;
}

Matrix& Matrix::HadamardInPlace(const Matrix& other) {
  CheckSameShape(*this, other, "HadamardInPlace");
  const double* src = other.data_.data();
  double* dst = data_.data();
  const std::size_t n = data_.size();
  for (std::size_t i = 0; i < n; ++i) dst[i] *= src[i];
  return *this;
}

Matrix& Matrix::HadamardAccum(const Matrix& a, const Matrix& b) {
  CheckSameShape(*this, a, "HadamardAccum");
  CheckSameShape(a, b, "HadamardAccum");
  const double* pa = a.data_.data();
  const double* pb = b.data_.data();
  double* dst = data_.data();
  const std::size_t n = data_.size();
  for (std::size_t i = 0; i < n; ++i) dst[i] += pa[i] * pb[i];
  return *this;
}

Matrix& Matrix::AddColumnSums(const Matrix& src) {
  if (rows_ != 1 || cols_ != src.cols_) {
    throw std::invalid_argument("AddColumnSums: target must be 1 x cols");
  }
  double* dst = data_.data();
  for (std::size_t r = 0; r < src.rows_; ++r) {
    const double* srow = src.data_.data() + r * src.cols_;
    for (std::size_t c = 0; c < src.cols_; ++c) dst[c] += srow[c];
  }
  return *this;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  CheckSameShape(*this, other, "operator+=");
  return AddInPlace(other);
}

Matrix& Matrix::operator-=(const Matrix& other) {
  CheckSameShape(*this, other, "operator-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  for (double& v : data_) v *= scalar;
  return *this;
}

Matrix Matrix::operator+(const Matrix& other) const {
  Matrix out = *this;
  out += other;
  return out;
}

Matrix Matrix::operator-(const Matrix& other) const {
  Matrix out = *this;
  out -= other;
  return out;
}

Matrix Matrix::operator*(double scalar) const {
  Matrix out = *this;
  out *= scalar;
  return out;
}

Matrix Matrix::Hadamard(const Matrix& other) const {
  CheckSameShape(*this, other, "Hadamard");
  Matrix out = *this;
  out.HadamardInPlace(other);
  return out;
}

Matrix Matrix::MatMul(const Matrix& other) const {
  Matrix out;
  MatMulInto(*this, other, out);
  return out;
}

void Matrix::MatMulInto(const Matrix& a, const Matrix& b, Matrix& out) {
  if (a.cols_ != b.rows_) {
    throw std::invalid_argument(
        "MatMul: inner dimension mismatch (" + std::to_string(a.rows_) +
        "x" + std::to_string(a.cols_) + " * " + std::to_string(b.rows_) +
        "x" + std::to_string(b.cols_) + ")");
  }
  if (&out == &a || &out == &b) {
    throw std::invalid_argument("MatMulInto: out aliases an operand");
  }
  out.Resize(a.rows_, b.cols_);
  MatMulImpl(a.data_.data(), b.data_.data(), out.data_.data(), a.rows_,
             a.cols_, b.cols_, /*accumulate=*/false);
}

void Matrix::MatMulAccum(const Matrix& a, const Matrix& b, Matrix& out) {
  if (a.cols_ != b.rows_ || out.rows_ != a.rows_ || out.cols_ != b.cols_) {
    throw std::invalid_argument("MatMulAccum: shape mismatch");
  }
  if (&out == &a || &out == &b) {
    throw std::invalid_argument("MatMulAccum: out aliases an operand");
  }
  MatMulImpl(a.data_.data(), b.data_.data(), out.data_.data(), a.rows_,
             a.cols_, b.cols_, /*accumulate=*/true);
}

void Matrix::MatMulTransAAccum(const Matrix& a, const Matrix& b,
                               Matrix& out) {
  // out[t][j] += sum_i a[i][t] * b[i][j]; a [m x k], b [m x n].
  if (a.rows_ != b.rows_ || out.rows_ != a.cols_ || out.cols_ != b.cols_) {
    throw std::invalid_argument("MatMulTransAAccum: shape mismatch");
  }
  if (&out == &a || &out == &b) {
    throw std::invalid_argument("MatMulTransAAccum: out aliases an operand");
  }
  const std::size_t m = a.rows_, k = a.cols_, n = b.cols_;
  const double* pa = a.data_.data();
  const double* pb = b.data_.data();
  double* po = out.data_.data();
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = pa + i * k;
    const double* brow = pb + i * n;
    for (std::size_t t = 0; t < k; ++t) {
      const double a_it = arow[t];
      if (a_it == 0.0) continue;  // ReLU sparsity (see MatMulImpl)
      double* orow = po + t * n;
      for (std::size_t j = 0; j < n; ++j) orow[j] += a_it * brow[j];
    }
  }
}

Matrix Matrix::Transposed() const {
  Matrix out;
  TransposeInto(*this, out);
  return out;
}

void Matrix::TransposeInto(const Matrix& src, Matrix& out) {
  if (&out == &src) {
    throw std::invalid_argument("TransposeInto: out aliases src");
  }
  out.Resize(src.cols_, src.rows_);
  for (std::size_t r = 0; r < src.rows_; ++r) {
    const double* srow = src.data_.data() + r * src.cols_;
    for (std::size_t c = 0; c < src.cols_; ++c) {
      out.data_[c * src.rows_ + r] = srow[c];
    }
  }
}

Matrix Matrix::ConcatCols(const Matrix& other) const {
  if (rows_ != other.rows_) {
    throw std::invalid_argument("ConcatCols: row count mismatch");
  }
  Matrix out(rows_, cols_ + other.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    std::copy(row(r).begin(), row(r).end(), out.row(r).begin());
    std::copy(other.row(r).begin(), other.row(r).end(),
              out.row(r).begin() + static_cast<std::ptrdiff_t>(cols_));
  }
  return out;
}

Matrix Matrix::ConcatRows(const Matrix& other) const {
  if (cols_ != other.cols_) {
    throw std::invalid_argument("ConcatRows: column count mismatch");
  }
  Matrix out(rows_ + other.rows_, cols_);
  std::copy(data_.begin(), data_.end(), out.data_.begin());
  std::copy(other.data_.begin(), other.data_.end(),
            out.data_.begin() + static_cast<std::ptrdiff_t>(data_.size()));
  return out;
}

Matrix Matrix::SliceCols(std::size_t c0, std::size_t c1) const {
  if (c0 > c1 || c1 > cols_) {
    throw std::out_of_range("SliceCols: bad column range");
  }
  Matrix out(rows_, c1 - c0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = c0; c < c1; ++c) {
      out(r, c - c0) = (*this)(r, c);
    }
  }
  return out;
}

Matrix Matrix::SliceRows(std::size_t r0, std::size_t r1) const {
  Matrix out;
  out.CopyRowsFrom(*this, r0, r1);
  return out;
}

double Matrix::Sum() const {
  return std::accumulate(data_.begin(), data_.end(), 0.0);
}

double Matrix::MeanValue() const {
  return data_.empty() ? 0.0 : Sum() / static_cast<double>(data_.size());
}

double Matrix::MaxValue() const {
  return data_.empty() ? 0.0 : *std::max_element(data_.begin(), data_.end());
}

double Matrix::MinValue() const {
  return data_.empty() ? 0.0 : *std::min_element(data_.begin(), data_.end());
}

double Matrix::Norm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

Matrix Matrix::RowMean() const {
  Matrix out = RowSum();
  if (rows_ > 0) out *= 1.0 / static_cast<double>(rows_);
  return out;
}

Matrix Matrix::RowSum() const {
  Matrix out(1, cols_, 0.0);
  out.AddColumnSums(*this);
  return out;
}

void Matrix::Fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

bool Matrix::AllFinite() const {
  return std::all_of(data_.begin(), data_.end(),
                     [](double v) { return std::isfinite(v); });
}

double Matrix::MaxAbsDiff(const Matrix& other) const {
  CheckSameShape(*this, other, "MaxAbsDiff");
  double worst = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    worst = std::max(worst, std::abs(data_[i] - other.data_[i]));
  }
  return worst;
}

bool Matrix::operator==(const Matrix& other) const {
  return rows_ == other.rows_ && cols_ == other.cols_ &&
         data_ == other.data_;
}

std::string Matrix::ToString(int max_rows, int max_cols) const {
  std::ostringstream os;
  os << rows_ << "x" << cols_ << " [";
  const std::size_t rlim = std::min<std::size_t>(rows_, max_rows);
  const std::size_t clim = std::min<std::size_t>(cols_, max_cols);
  for (std::size_t r = 0; r < rlim; ++r) {
    os << (r == 0 ? "[" : " [");
    for (std::size_t c = 0; c < clim; ++c) {
      os << (*this)(r, c);
      if (c + 1 < clim) os << ", ";
    }
    if (clim < cols_) os << ", ...";
    os << "]";
    if (r + 1 < rlim) os << "\n";
  }
  if (rlim < rows_) os << "\n ...";
  os << "]";
  return os.str();
}

}  // namespace carol::nn
