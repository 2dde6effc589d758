// Kernel implementations for util/simd.hpp. This TU is compiled with
// -ffp-contract=off (see util/CMakeLists.txt): the element-wise kernels
// promise bit-identical results across rungs, which dies if the compiler
// fuses the scalar mul+add into an FMA. The only FMA in the file is the
// explicit _mm256_fmadd_pd in the float-dot AVX2 rung, where the product of
// two widened floats is exactly representable in double, so the fused and
// unfused roundings coincide. LINE's sgd_apply lives here rather than
// inlined into embed/line.cpp for the same reason: only under this flag does
// it round like the axpy calls whose results the trained embeddings are
// pinned to.
#include "util/simd.hpp"

#include <atomic>
#include <cstdlib>

#if defined(__x86_64__) || defined(__i386__)
#define DNSEMBED_SIMD_X86 1
#include <immintrin.h>
#endif

namespace dnsembed::util::simd {

namespace detail {

// ------------------------------------------------------------- scalar

float dot_f32_scalar(const float* a, const float* b, std::size_t n) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return static_cast<float>(acc);
}

double dot_f64_scalar(const double* a, const double* b, std::size_t n) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

float squared_l2_f32_scalar(const float* a, const float* b, std::size_t n) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += d * d;
  }
  return static_cast<float>(acc);
}

double squared_l2_f64_scalar(const double* a, const double* b, std::size_t n) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

void axpy_f32_scalar(float alpha, const float* x, float* y, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scale_f32_scalar(float alpha, const float* x, float* out, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = alpha * x[i];
}

void fused_step_scalar(float coeff, const float* src, float* tgt, float* grad,
                       std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    grad[i] += coeff * tgt[i];
    tgt[i] += coeff * src[i];
  }
}

/// sgd_apply over elements [begin, n): the scalar rung, and the vector
/// rungs' tail.
static void sgd_apply_range(const float* src, const float* const* tgt, const float* coeff,
                            std::size_t count, float* const* tgt_out, float* src_out,
                            std::size_t begin, std::size_t n) noexcept {
  for (std::size_t i = begin; i < n; ++i) {
    float grad = 0.0f;
    for (std::size_t k = 0; k < count; ++k) {
      grad += coeff[k] * tgt[k][i];
      tgt_out[k][i] += coeff[k] * src[i];
    }
    // axpy(1, grad, ...) adds 1 * grad, which is grad bit for bit: grad is
    // an arithmetic result, so never a signaling NaN that 1 * x would quiet.
    src_out[i] += grad;
  }
}

void sgd_apply_scalar(const float* src, const float* const* tgt, const float* coeff,
                      std::size_t count, float* const* tgt_out, float* src_out,
                      std::size_t n) noexcept {
  sgd_apply_range(src, tgt, coeff, count, tgt_out, src_out, 0, n);
}

void min_u32_scalar(const std::uint32_t* h, std::uint32_t* sig, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    if (h[i] < sig[i]) sig[i] = h[i];
  }
}

#ifdef DNSEMBED_SIMD_X86

// --------------------------------------------------------------- sse2
// SSE2 is baseline on x86-64; the target attribute keeps i386 builds honest.

__attribute__((target("sse2"))) float dot_f32_sse2(const float* a, const float* b,
                                                   std::size_t n) noexcept {
  __m128d acc0 = _mm_setzero_pd();
  __m128d acc1 = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 va = _mm_loadu_ps(a + i);
    const __m128 vb = _mm_loadu_ps(b + i);
    acc0 = _mm_add_pd(acc0, _mm_mul_pd(_mm_cvtps_pd(va), _mm_cvtps_pd(vb)));
    const __m128 va_hi = _mm_movehl_ps(va, va);
    const __m128 vb_hi = _mm_movehl_ps(vb, vb);
    acc1 = _mm_add_pd(acc1, _mm_mul_pd(_mm_cvtps_pd(va_hi), _mm_cvtps_pd(vb_hi)));
  }
  const __m128d acc = _mm_add_pd(acc0, acc1);
  double lanes[2];
  _mm_storeu_pd(lanes, acc);
  double sum = lanes[0] + lanes[1];
  for (; i < n; ++i) sum += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  return static_cast<float>(sum);
}

__attribute__((target("sse2"))) double dot_f64_sse2(const double* a, const double* b,
                                                    std::size_t n) noexcept {
  __m128d acc0 = _mm_setzero_pd();
  __m128d acc1 = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm_add_pd(acc0, _mm_mul_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i)));
    acc1 = _mm_add_pd(acc1, _mm_mul_pd(_mm_loadu_pd(a + i + 2), _mm_loadu_pd(b + i + 2)));
  }
  const __m128d acc = _mm_add_pd(acc0, acc1);
  double lanes[2];
  _mm_storeu_pd(lanes, acc);
  double sum = lanes[0] + lanes[1];
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

__attribute__((target("sse2"))) float squared_l2_f32_sse2(const float* a, const float* b,
                                                          std::size_t n) noexcept {
  __m128d acc0 = _mm_setzero_pd();
  __m128d acc1 = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 va = _mm_loadu_ps(a + i);
    const __m128 vb = _mm_loadu_ps(b + i);
    const __m128d d0 = _mm_sub_pd(_mm_cvtps_pd(va), _mm_cvtps_pd(vb));
    acc0 = _mm_add_pd(acc0, _mm_mul_pd(d0, d0));
    const __m128 va_hi = _mm_movehl_ps(va, va);
    const __m128 vb_hi = _mm_movehl_ps(vb, vb);
    const __m128d d1 = _mm_sub_pd(_mm_cvtps_pd(va_hi), _mm_cvtps_pd(vb_hi));
    acc1 = _mm_add_pd(acc1, _mm_mul_pd(d1, d1));
  }
  const __m128d acc = _mm_add_pd(acc0, acc1);
  double lanes[2];
  _mm_storeu_pd(lanes, acc);
  double sum = lanes[0] + lanes[1];
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    sum += d * d;
  }
  return static_cast<float>(sum);
}

__attribute__((target("sse2"))) double squared_l2_f64_sse2(const double* a, const double* b,
                                                           std::size_t n) noexcept {
  __m128d acc0 = _mm_setzero_pd();
  __m128d acc1 = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128d d0 = _mm_sub_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i));
    acc0 = _mm_add_pd(acc0, _mm_mul_pd(d0, d0));
    const __m128d d1 = _mm_sub_pd(_mm_loadu_pd(a + i + 2), _mm_loadu_pd(b + i + 2));
    acc1 = _mm_add_pd(acc1, _mm_mul_pd(d1, d1));
  }
  const __m128d acc = _mm_add_pd(acc0, acc1);
  double lanes[2];
  _mm_storeu_pd(lanes, acc);
  double sum = lanes[0] + lanes[1];
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

__attribute__((target("sse2"))) void axpy_f32_sse2(float alpha, const float* x, float* y,
                                                   std::size_t n) noexcept {
  const __m128 va = _mm_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 prod = _mm_mul_ps(va, _mm_loadu_ps(x + i));
    _mm_storeu_ps(y + i, _mm_add_ps(_mm_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

__attribute__((target("sse2"))) void scale_f32_sse2(float alpha, const float* x, float* out,
                                                    std::size_t n) noexcept {
  const __m128 va = _mm_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(out + i, _mm_mul_ps(va, _mm_loadu_ps(x + i)));
  }
  for (; i < n; ++i) out[i] = alpha * x[i];
}

__attribute__((target("sse2"))) void fused_step_sse2(float coeff, const float* src, float* tgt,
                                                     float* grad, std::size_t n) noexcept {
  const __m128 vc = _mm_set1_ps(coeff);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 vt = _mm_loadu_ps(tgt + i);
    const __m128 vg = _mm_add_ps(_mm_loadu_ps(grad + i), _mm_mul_ps(vc, vt));
    _mm_storeu_ps(grad + i, vg);
    _mm_storeu_ps(tgt + i, _mm_add_ps(vt, _mm_mul_ps(vc, _mm_loadu_ps(src + i))));
  }
  for (; i < n; ++i) {
    grad[i] += coeff * tgt[i];
    tgt[i] += coeff * src[i];
  }
}

/// sgd_apply over elements [begin, n) in 4-wide chunks, then the scalar
/// tail: the sse2 rung, and the avx2 rung's remainder after its 8-wide
/// chunks. Element-wise, so every chunk width rounds alike.
__attribute__((target("sse2"), always_inline)) static inline void sgd_apply_sse2_range(
    const float* src, const float* const* tgt, const float* coeff, std::size_t count,
    float* const* tgt_out, float* src_out, std::size_t begin, std::size_t n) noexcept {
  std::size_t i = begin;
  for (; i + 4 <= n; i += 4) {
    const __m128 vs = _mm_loadu_ps(src + i);
    __m128 grad = _mm_setzero_ps();
    for (std::size_t k = 0; k < count; ++k) {
      const __m128 vc = _mm_set1_ps(coeff[k]);
      grad = _mm_add_ps(grad, _mm_mul_ps(vc, _mm_loadu_ps(tgt[k] + i)));
      float* const out = tgt_out[k] + i;
      _mm_storeu_ps(out, _mm_add_ps(_mm_loadu_ps(out), _mm_mul_ps(vc, vs)));
    }
    _mm_storeu_ps(src_out + i, _mm_add_ps(_mm_loadu_ps(src_out + i), grad));
  }
  sgd_apply_range(src, tgt, coeff, count, tgt_out, src_out, i, n);
}

__attribute__((target("sse2"))) void sgd_apply_sse2(const float* src, const float* const* tgt,
                                                    const float* coeff, std::size_t count,
                                                    float* const* tgt_out, float* src_out,
                                                    std::size_t n) noexcept {
  sgd_apply_sse2_range(src, tgt, coeff, count, tgt_out, src_out, 0, n);
}

__attribute__((target("sse2"))) void min_u32_sse2(const std::uint32_t* h, std::uint32_t* sig,
                                                  std::size_t n) noexcept {
  // SSE2 has no unsigned 32-bit min; bias both operands by 2^31 and use the
  // signed greater-than compare to build a select mask.
  const __m128i bias = _mm_set1_epi32(static_cast<int>(0x80000000u));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i vh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(h + i));
    const __m128i vs = _mm_loadu_si128(reinterpret_cast<const __m128i*>(sig + i));
    const __m128i gt = _mm_cmpgt_epi32(_mm_xor_si128(vs, bias), _mm_xor_si128(vh, bias));
    // sig > h ? h : sig
    const __m128i out = _mm_or_si128(_mm_and_si128(gt, vh), _mm_andnot_si128(gt, vs));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(sig + i), out);
  }
  for (; i < n; ++i) {
    if (h[i] < sig[i]) sig[i] = h[i];
  }
}

// --------------------------------------------------------------- avx2

__attribute__((target("avx2,fma"))) float dot_f32_avx2(const float* a, const float* b,
                                                       std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // Widened float products are exact in double, so the FMA rounds exactly
    // like mul_pd + add_pd would.
    acc0 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i)),
                           _mm256_cvtps_pd(_mm_loadu_ps(b + i)), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i + 4)),
                           _mm256_cvtps_pd(_mm_loadu_ps(b + i + 4)), acc1);
  }
  const __m256d acc = _mm256_add_pd(acc0, acc1);
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  double sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) sum += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  return static_cast<float>(sum);
}

__attribute__((target("avx2"))) double dot_f64_avx2(const double* a, const double* b,
                                                    std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
    acc1 = _mm256_add_pd(
        acc1, _mm256_mul_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4)));
  }
  const __m256d acc = _mm256_add_pd(acc0, acc1);
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  double sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

__attribute__((target("avx2"))) float squared_l2_f32_avx2(const float* a, const float* b,
                                                          std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d d0 = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i)),
                                     _mm256_cvtps_pd(_mm_loadu_ps(b + i)));
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(d0, d0));
    const __m256d d1 = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i + 4)),
                                     _mm256_cvtps_pd(_mm_loadu_ps(b + i + 4)));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(d1, d1));
  }
  const __m256d acc = _mm256_add_pd(acc0, acc1);
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  double sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    sum += d * d;
  }
  return static_cast<float>(sum);
}

__attribute__((target("avx2"))) double squared_l2_f64_avx2(const double* a, const double* b,
                                                           std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(d0, d0));
    const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(d1, d1));
  }
  const __m256d acc = _mm256_add_pd(acc0, acc1);
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  double sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

__attribute__((target("avx2"))) void axpy_f32_avx2(float alpha, const float* x, float* y,
                                                   std::size_t n) noexcept {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

__attribute__((target("avx2"))) void scale_f32_avx2(float alpha, const float* x, float* out,
                                                    std::size_t n) noexcept {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_mul_ps(va, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) out[i] = alpha * x[i];
}

__attribute__((target("avx2"))) void fused_step_avx2(float coeff, const float* src, float* tgt,
                                                     float* grad, std::size_t n) noexcept {
  const __m256 vc = _mm256_set1_ps(coeff);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vt = _mm256_loadu_ps(tgt + i);
    const __m256 vg = _mm256_add_ps(_mm256_loadu_ps(grad + i), _mm256_mul_ps(vc, vt));
    _mm256_storeu_ps(grad + i, vg);
    _mm256_storeu_ps(tgt + i, _mm256_add_ps(vt, _mm256_mul_ps(vc, _mm256_loadu_ps(src + i))));
  }
  for (; i < n; ++i) {
    grad[i] += coeff * tgt[i];
    tgt[i] += coeff * src[i];
  }
}

__attribute__((target("avx2"))) void sgd_apply_avx2(const float* src, const float* const* tgt,
                                                    const float* coeff, std::size_t count,
                                                    float* const* tgt_out, float* src_out,
                                                    std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vs = _mm256_loadu_ps(src + i);
    __m256 grad = _mm256_setzero_ps();
    for (std::size_t k = 0; k < count; ++k) {
      const __m256 vc = _mm256_set1_ps(coeff[k]);
      grad = _mm256_add_ps(grad, _mm256_mul_ps(vc, _mm256_loadu_ps(tgt[k] + i)));
      float* const out = tgt_out[k] + i;
      _mm256_storeu_ps(out, _mm256_add_ps(_mm256_loadu_ps(out), _mm256_mul_ps(vc, vs)));
    }
    _mm256_storeu_ps(src_out + i, _mm256_add_ps(_mm256_loadu_ps(src_out + i), grad));
  }
  // GCC emits no vzeroupper on this function's way out (the call in the
  // scalar tail defeats its insertion pass). Dirty upper halves would make
  // every later non-VEX SSE instruction in the process pay a false
  // dependency, and on AVX-512 parts glibc's memcpy never clears them.
  _mm256_zeroupper();
  sgd_apply_sse2_range(src, tgt, coeff, count, tgt_out, src_out, i, n);
}

__attribute__((target("avx2"))) void min_u32_avx2(const std::uint32_t* h, std::uint32_t* sig,
                                                  std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i vh = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(h + i));
    const __m256i vs = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sig + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(sig + i), _mm256_min_epu32(vh, vs));
  }
  for (; i < n; ++i) {
    if (h[i] < sig[i]) sig[i] = h[i];
  }
}

#endif  // DNSEMBED_SIMD_X86

}  // namespace detail

namespace {

struct Kernels {
  float (*dot_f32)(const float*, const float*, std::size_t) noexcept;
  double (*dot_f64)(const double*, const double*, std::size_t) noexcept;
  float (*squared_l2_f32)(const float*, const float*, std::size_t) noexcept;
  double (*squared_l2_f64)(const double*, const double*, std::size_t) noexcept;
  void (*axpy_f32)(float, const float*, float*, std::size_t) noexcept;
  void (*scale_f32)(float, const float*, float*, std::size_t) noexcept;
  void (*fused_step)(float, const float*, float*, float*, std::size_t) noexcept;
  void (*min_u32)(const std::uint32_t*, std::uint32_t*, std::size_t) noexcept;
  void (*sgd_apply)(const float*, const float* const*, const float*, std::size_t,
                    float* const*, float*, std::size_t) noexcept;
};

constexpr Kernels kScalarKernels{
    detail::dot_f32_scalar,       detail::dot_f64_scalar,  detail::squared_l2_f32_scalar,
    detail::squared_l2_f64_scalar, detail::axpy_f32_scalar, detail::scale_f32_scalar,
    detail::fused_step_scalar,    detail::min_u32_scalar,
    detail::sgd_apply_scalar,
};

#ifdef DNSEMBED_SIMD_X86
constexpr Kernels kSse2Kernels{
    detail::dot_f32_sse2,       detail::dot_f64_sse2,  detail::squared_l2_f32_sse2,
    detail::squared_l2_f64_sse2, detail::axpy_f32_sse2, detail::scale_f32_sse2,
    detail::fused_step_sse2,    detail::min_u32_sse2,
    detail::sgd_apply_sse2,
};

constexpr Kernels kAvx2Kernels{
    detail::dot_f32_avx2,       detail::dot_f64_avx2,  detail::squared_l2_f32_avx2,
    detail::squared_l2_f64_avx2, detail::axpy_f32_avx2, detail::scale_f32_avx2,
    detail::fused_step_avx2,    detail::min_u32_avx2,
    detail::sgd_apply_avx2,
};
#endif

const Kernels& kernels_for(Level level) noexcept {
#ifdef DNSEMBED_SIMD_X86
  if (level == Level::kAvx2) return kAvx2Kernels;
  if (level == Level::kSse2) return kSse2Kernels;
#else
  (void)level;
#endif
  return kScalarKernels;
}

bool force_scalar_env() noexcept {
  const char* env = std::getenv("DNSEMBED_FORCE_SCALAR");
  return env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
}

Level detect_level() noexcept {
#ifdef DNSEMBED_FORCE_SCALAR
  return Level::kScalar;
#else
  if (force_scalar_env()) return Level::kScalar;
#ifdef DNSEMBED_SIMD_X86
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) return Level::kAvx2;
  if (__builtin_cpu_supports("sse2")) return Level::kSse2;
#endif
  return Level::kScalar;
#endif
}

// Dispatch state: resolved once, re-pointable by force_level(). The obs
// layer republishes g_level as the `simd.level` gauge at snapshot time
// (util cannot depend on obs — same inversion as util::fsio::stats()).
std::atomic<const Kernels*> g_kernels{nullptr};
std::atomic<int> g_level{-1};

const Kernels& resolve() noexcept {
  const Kernels* k = g_kernels.load(std::memory_order_acquire);
  if (k != nullptr) return *k;
  const Level level = detect_level();
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
  const Kernels& resolved = kernels_for(level);
  g_kernels.store(&resolved, std::memory_order_release);
  return resolved;
}

}  // namespace

Level active_level() noexcept {
  resolve();
  return static_cast<Level>(g_level.load(std::memory_order_relaxed));
}

const char* level_name(Level level) noexcept {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kSse2: return "sse2";
    case Level::kAvx2: return "avx2";
  }
  return "unknown";
}

bool level_supported(Level level) noexcept {
#ifdef DNSEMBED_SIMD_X86
  if (level == Level::kAvx2) {
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }
  if (level == Level::kSse2) return __builtin_cpu_supports("sse2");
#else
  if (level != Level::kScalar) return false;
#endif
  return true;
}

Level force_level(Level level) noexcept {
  if (!level_supported(level)) {
    level = level == Level::kAvx2 && level_supported(Level::kSse2) ? Level::kSse2
                                                                   : Level::kScalar;
  }
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
  g_kernels.store(&kernels_for(level), std::memory_order_release);
  return level;
}

float dot(const float* a, const float* b, std::size_t n) noexcept {
  return resolve().dot_f32(a, b, n);
}

double dot(const double* a, const double* b, std::size_t n) noexcept {
  return resolve().dot_f64(a, b, n);
}

float squared_l2(const float* a, const float* b, std::size_t n) noexcept {
  return resolve().squared_l2_f32(a, b, n);
}

double squared_l2(const double* a, const double* b, std::size_t n) noexcept {
  return resolve().squared_l2_f64(a, b, n);
}

void axpy(float alpha, const float* x, float* y, std::size_t n) noexcept {
  resolve().axpy_f32(alpha, x, y, n);
}

void scale(float alpha, const float* x, float* out, std::size_t n) noexcept {
  resolve().scale_f32(alpha, x, out, n);
}

void fused_sigmoid_step(float coeff, const float* src, float* tgt, float* grad,
                        std::size_t n) noexcept {
  resolve().fused_step(coeff, src, tgt, grad, n);
}

void min_u32(const std::uint32_t* h, std::uint32_t* sig, std::size_t n) noexcept {
  resolve().min_u32(h, sig, n);
}

void sgd_apply(const float* src, const float* const* tgt, const float* coeff,
               std::size_t count, float* const* tgt_out, float* src_out,
               std::size_t n) noexcept {
  resolve().sgd_apply(src, tgt, coeff, count, tgt_out, src_out, n);
}

}  // namespace dnsembed::util::simd
