// Fixed-width double vectors for the order-preserving kernels of the
// decision path (GCC/Clang vector extensions; no ISA intrinsics).
//
// A lane is always an independent output — a column of a MatMul tile, an
// edge of the attention scores, a column of a pooled row — never a
// reduction index, so every element keeps the summation order of the
// scalar loop it replaces. Arithmetic on `Vec` is elementwise IEEE
// double; with the project's -ffp-contract=off, `acc += s * v` stays a
// multiply then an add, lane by lane. Loads and stores go through
// std::memcpy, so any double* may be read or written without aliasing or
// alignment UB.
#ifndef CAROL_NN_SIMD_H_
#define CAROL_NN_SIMD_H_

#include <cstddef>
#include <cstring>

namespace carol::nn::simd {

#if defined(__AVX512F__)
inline constexpr std::size_t kVecBytes = 64;
#elif defined(__AVX__)
inline constexpr std::size_t kVecBytes = 32;
#else
inline constexpr std::size_t kVecBytes = 16;
#endif
typedef double Vec __attribute__((vector_size(kVecBytes)));
inline constexpr std::size_t kLanes = kVecBytes / sizeof(double);

inline Vec Load(const double* p) {
  Vec v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void Store(double* p, const Vec& v) { std::memcpy(p, &v, sizeof v); }

// dst[j] += src[j] for j < n: the n independent outputs are the lanes,
// each computed exactly as the scalar statement.
inline void Add(const double* src, double* dst, std::size_t n) {
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    Store(dst + j, Load(dst + j) + Load(src + j));
  }
  for (; j < n; ++j) dst[j] += src[j];
}

}  // namespace carol::nn::simd

#endif  // CAROL_NN_SIMD_H_
