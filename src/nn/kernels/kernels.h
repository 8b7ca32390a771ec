#ifndef KDSEL_NN_KERNELS_KERNELS_H_
#define KDSEL_NN_KERNELS_KERNELS_H_

#include <cstddef>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace kdsel::nn::kernels {

/// Vector-width flavor of the compute kernels. kScalar is the original
/// loop nest (always available, bitwise-stable reference); kGeneric is
/// a 4-lane portable-vector build (SSE2 on x86-64 baseline); kAvx2 is
/// an 8-lane AVX2+FMA build, present only when the compiler supports
/// the flags and the CPU reports avx2+fma at runtime.
enum class Variant {
  kScalar = 0,
  kGeneric = 1,
  kAvx2 = 2,
};

/// Extra floats per padded row that Ops::conv1d_forward may use past the
/// right "same" padding: at least the widest vector width minus one.
inline constexpr size_t kConv1dPadSlack = 8;

/// Function-pointer table for the hot numeric kernels. All matrices are
/// row-major float. Row-range kernels ([i0,i1) / [k0,k1)) exist so
/// ParallelFor chunks map 1:1 onto kernel calls; every kernel uses a
/// fixed per-element accumulation order that depends only on the
/// operand shapes, never on the chunk bounds or thread count, which is
/// what keeps training bitwise-deterministic for a fixed variant.
struct Ops {
  Variant variant;
  const char* name;

  /// C[i0:i1, :] += A[i0:i1, :] * B with A:[n,k], B:[k,m], C:[n,m].
  /// C rows must be zero-initialized by the caller (accumulating form).
  void (*matmul)(const float* a, const float* b, float* c, size_t k, size_t m,
                 size_t i0, size_t i1);
  /// C[i0:i1, :] = A[i0:i1, :] * B^T with A:[n,k], B:[m,k], C:[n,m].
  /// Overwrites its output rows.
  void (*matmul_tb)(const float* a, const float* b, float* c, size_t k,
                    size_t m, size_t i0, size_t i1);
  /// C[k0:k1, :] += A^T[k0:k1, :] * B with A:[n,k], B:[n,m], C:[k,m].
  /// C rows must be zero-initialized by the caller (accumulating form).
  void (*matmul_ta)(const float* a, const float* b, float* c, size_t n,
                    size_t k, size_t m, size_t k0, size_t k1);

  /// y[i] += x[i]
  void (*add)(float* y, const float* x, size_t n);
  /// y[i] += a * x[i]
  void (*axpy)(float* y, float a, const float* x, size_t n);
  /// x[i] *= a
  void (*scale)(float* x, float a, size_t n);
  /// y[i] = s * x[i]
  void (*scaled_copy)(float* y, const float* x, float s, size_t n);
  /// g[i] = s * (p[i] - t[i])
  void (*scaled_diff)(float* g, const float* p, const float* t, float s,
                      size_t n);

  /// sum_i a[i] * b[i]
  float (*dot)(const float* a, const float* b, size_t n);
  /// sum_i x[i]
  float (*sum)(const float* x, size_t n);
  /// sum_i double(x[i])^2, accumulated in double
  double (*squared_l2)(const float* x, size_t n);
  /// Fused Conv1d backward tap: gx[i] += w * gy[i]; returns
  /// sum_i gy[i] * x[i] (the weight-gradient contribution).
  float (*conv_grad_tap)(const float* gy, const float* x, float w, float* gx,
                         size_t n);

  /// Conv1d forward (stride 1, "same" zero padding: (k-1)/2 left,
  /// k-1-(k-1)/2 right) for batch items [b0, b1) of x:[B, c_in, l] with
  /// w:[c_out, c_in, k] and bias:[c_out] (nullptr: no bias). Overwrites
  /// y:[B, c_out, l]. `pad` is caller-owned scratch of at least
  /// c_in * (l + k - 1 + kConv1dPadSlack) floats; the kernel copies each
  /// batch item into it as zero-padded rows, so it never allocates.
  ///
  /// Bitwise contract: every y element starts at +0, accumulates w*x
  /// with ci outer and k inner using the same per-element multiply-add
  /// as this variant's `axpy`, and adds the bias last — the operation
  /// sequence of one axpy per (c_out, c_in, tap) over the tap's valid
  /// range followed by a bias add. Taps that fall on the padding become
  /// acc + w*0, which leaves acc unchanged when w is finite (acc is
  /// never -0), so for finite weights the result is bitwise identical
  /// to that tap-axpy loop; non-finite inputs propagate to the same
  /// outputs. Weights must be finite: an Inf/NaN weight times a pad
  /// zero would poison outputs the tap-axpy loop leaves untouched.
  void (*conv1d_forward)(const float* x, const float* w, const float* bias,
                         float* y, float* pad, size_t c_in, size_t c_out,
                         size_t k, size_t l, size_t b0, size_t b1);

  /// y = softmax(x) over one row of length m (max-shifted, double-
  /// accumulated normalizer; matches the original SoftmaxRows math).
  void (*softmax_row)(const float* x, float* y, size_t m);

  /// One Adam step over n contiguous elements. `lr_wd` is the
  /// double-precision product lr * weight_decay; the scalar kernel
  /// reproduces the historical mixed-double update expression exactly.
  void (*adam_update)(float* p, float* m, float* v, const float* g, size_t n,
                      float lr, float beta1, float beta2, float eps,
                      double lr_wd);
};

/// The active kernel table. Resolved once (CPUID best, overridable via
/// KDSEL_SIMD=scalar|generic|avx2) on first use; subsequent calls are a
/// single atomic load.
const Ops& Dispatch();

/// Variant behind Dispatch().
Variant ActiveVariant();

/// Table for a specific variant. The variant must be supported
/// (VariantSupported) — asking for an unavailable one aborts.
const Ops& GetOps(Variant v);

/// True when `v` is compiled into this binary and safe on this CPU.
bool VariantSupported(Variant v);

/// Widest supported variant (what Dispatch() picks absent KDSEL_SIMD).
Variant BestSupportedVariant();

/// Every supported variant, scalar first.
std::vector<Variant> SupportedVariants();

/// "scalar" | "generic" | "avx2" — also the accepted KDSEL_SIMD values.
const char* VariantName(Variant v);

/// Strict KDSEL_SIMD value parsing; InvalidArgument on anything other
/// than the three variant names.
StatusOr<Variant> ParseVariantName(std::string_view name);

/// Point Dispatch() at a specific supported variant (tests/bench).
void ResetDispatchForTesting(Variant v);
/// Restore the default env/CPUID resolution.
void ResetDispatchForTesting();

namespace detail {
/// Per-translation-unit kernel tables. Avx2Ops() returns nullptr when
/// the binary was built without AVX2 codegen support.
const Ops* ScalarOps();
const Ops* GenericOps();
const Ops* Avx2Ops();
}  // namespace detail

}  // namespace kdsel::nn::kernels

#endif  // KDSEL_NN_KERNELS_KERNELS_H_
