// Shared forward kernels for the nn fast path.
//
// Both the autograd tape ops (src/nn/autograd.cpp) and the tape-free GON
// inference workspace (src/core/gon.cpp) call these, so the two paths are
// bitwise-identical by construction: there is exactly one implementation
// of each scalar activation, of the fused linear layer, and of the masked
// row softmax.
#ifndef CAROL_NN_KERNELS_H_
#define CAROL_NN_KERNELS_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "nn/matrix.h"
#include "nn/simd.h"

namespace carol::nn {

// Activation fused into a Linear (x*W + b) node / kernel.
enum class FusedAct { kNone, kRelu, kSigmoid, kTanh };

namespace scalar_ops {

inline double Relu(double v) { return v > 0.0 ? v : 0.0; }

inline double Tanh(double v) { return std::tanh(v); }

// Branch on the sign for numerical stability.
inline double Sigmoid(double v) {
  if (v >= 0.0) return 1.0 / (1.0 + std::exp(-v));
  const double e = std::exp(v);
  return e / (1.0 + e);
}

}  // namespace scalar_ops

// Applies `act` elementwise in place.
inline void ApplyActivationInPlace(Matrix& m, FusedAct act) {
  switch (act) {
    case FusedAct::kNone:
      return;
    case FusedAct::kRelu: {
      // Lanes are elements: v > 0 ? v : +0, as scalar_ops::Relu.
      double* p = m.flat().data();
      const std::size_t n = m.size();
      std::size_t i = 0;
      for (; i + simd::kLanes <= n; i += simd::kLanes) {
        const simd::Vec v = simd::Load(p + i);
        simd::Store(p + i, v > 0.0 ? v : simd::Vec{});
      }
      for (; i < n; ++i) p[i] = scalar_ops::Relu(p[i]);
      return;
    }
    case FusedAct::kSigmoid:
      m.MapInPlaceFn(scalar_ops::Sigmoid);
      return;
    case FusedAct::kTanh:
      m.MapInPlaceFn(scalar_ops::Tanh);
      return;
  }
  throw std::logic_error("ApplyActivationInPlace: unknown activation");
}

// out = act(x * w + b), b broadcast across rows ([1 x w.cols]).
// `out` is reshaped in place and must not alias an operand.
inline void LinearForward(const Matrix& x, const Matrix& w, const Matrix& b,
                          FusedAct act, Matrix& out) {
  if (b.rows() != 1 || b.cols() != w.cols()) {
    throw std::invalid_argument("LinearForward: bias must be 1 x w.cols");
  }
  Matrix::MatMulInto(x, w, out);
  const double* bias = b.flat().data();
  double* od = out.flat().data();
  const std::size_t rows = out.rows(), cols = out.cols();
  for (std::size_t r = 0; r < rows; ++r) simd::Add(bias, od + r * cols, cols);
  ApplyActivationInPlace(out, act);
}

// dpre = g .* act'(y), with act' written in terms of the activation's
// OUTPUT y (every FusedAct allows that). The fused Linear tape op and the
// tape-free input-gradient passes (Dense::BackwardInput) both call this,
// so their backward expressions are the same by construction. kNone
// copies g. `dpre` is reshaped in place and must not alias g or y.
inline void ActivationBackward(const Matrix& g, const Matrix& y, FusedAct act,
                               Matrix& dpre) {
  dpre.Resize(y.rows(), y.cols());
  const double* gp = g.flat().data();
  const double* yp = y.flat().data();
  double* dp = dpre.flat().data();
  const std::size_t n = y.size();
  // Elementwise, so vector lanes are elements and each lane evaluates the
  // scalar expression of its tail loop.
  auto sweep = [&](auto&& vec_op, auto&& scalar_op) {
    std::size_t i = 0;
    for (; i + simd::kLanes <= n; i += simd::kLanes) {
      simd::Store(dp + i, vec_op(simd::Load(gp + i), simd::Load(yp + i)));
    }
    for (; i < n; ++i) dp[i] = scalar_op(gp[i], yp[i]);
  };
  switch (act) {
    case FusedAct::kNone:
      std::copy(gp, gp + n, dp);
      return;
    case FusedAct::kRelu:
      sweep([](simd::Vec gv, simd::Vec yv) { return yv > 0.0 ? gv : simd::Vec{}; },
            [](double gv, double yv) { return yv > 0.0 ? gv : 0.0; });
      return;
    case FusedAct::kSigmoid:
      sweep([](simd::Vec gv, simd::Vec yv) { return gv * yv * (1.0 - yv); },
            [](double gv, double yv) { return gv * yv * (1.0 - yv); });
      return;
    case FusedAct::kTanh:
      sweep([](simd::Vec gv, simd::Vec yv) { return gv * (1.0 - yv * yv); },
            [](double gv, double yv) { return gv * (1.0 - yv * yv); });
      return;
  }
  throw std::logic_error("ActivationBackward: unknown activation");
}

// Row-wise softmax restricted to positions where mask(r,c) == 1;
// masked-out positions produce exactly 0. Rows with an empty mask produce
// all zeros. `out` is reshaped in place.
inline void MaskedRowSoftmaxForward(const Matrix& x, const Matrix& mask,
                                    Matrix& out) {
  if (mask.rows() != x.rows() || mask.cols() != x.cols()) {
    throw std::invalid_argument("MaskedRowSoftmax: mask shape mismatch");
  }
  out.AssignZeros(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    double mx = -std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < x.cols(); ++c) {
      if (mask(r, c) != 0.0) mx = std::max(mx, x(r, c));
    }
    if (!std::isfinite(mx)) continue;  // empty row mask -> zeros
    double denom = 0.0;
    for (std::size_t c = 0; c < x.cols(); ++c) {
      if (mask(r, c) != 0.0) {
        out(r, c) = std::exp(x(r, c) - mx);
        denom += out(r, c);
      }
    }
    for (std::size_t c = 0; c < x.cols(); ++c) {
      if (mask(r, c) != 0.0) out(r, c) /= denom;
    }
  }
}

}  // namespace carol::nn

#endif  // CAROL_NN_KERNELS_H_
