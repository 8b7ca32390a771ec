// Kernel-backend equivalence and dispatch tests: every supported SIMD
// variant must agree with the scalar reference within tight tolerance
// on randomized shapes — including sizes that are not multiples of any
// vector width — and the removed `0.0f` fast-path must not silently
// swallow NaN/Inf in any variant.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/kernels/kernels.h"

namespace kdsel::nn::kernels {
namespace {

std::vector<float> RandomVec(size_t n, Rng& rng, double lo = -1.0,
                             double hi = 1.0) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.Uniform(lo, hi));
  return v;
}

void ExpectAllClose(const std::vector<float>& ref,
                    const std::vector<float>& got, double rtol,
                    const std::string& what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (size_t i = 0; i < ref.size(); ++i) {
    const double tol =
        rtol * std::max(1.0, std::fabs(static_cast<double>(ref[i])));
    ASSERT_NEAR(ref[i], got[i], tol) << what << " element " << i;
  }
}

struct MatShape {
  size_t n, k, m;
};

// Deliberately odd sizes: 1 (degenerate), primes straddling the 4- and
// 8-lane widths, and one exact multiple as the control.
const MatShape kMatShapes[] = {{1, 1, 1},   {3, 5, 7},    {8, 16, 8},
                               {13, 29, 17}, {32, 33, 31}, {5, 64, 9}};

const size_t kVecSizes[] = {1, 2, 3, 7, 8, 9, 15, 31, 64, 100, 257};

class KernelEquivalenceTest : public ::testing::TestWithParam<Variant> {
 protected:
  const Ops& ops() { return GetOps(GetParam()); }
  const Ops& ref() { return GetOps(Variant::kScalar); }
  std::string Label(const char* op) {
    return std::string(op) + " [" + VariantName(GetParam()) + "]";
  }
};

TEST_P(KernelEquivalenceTest, MatMul) {
  Rng rng(101);
  for (const MatShape& s : kMatShapes) {
    const auto a = RandomVec(s.n * s.k, rng);
    const auto b = RandomVec(s.k * s.m, rng);
    std::vector<float> c_ref(s.n * s.m, 0.0f), c_got(s.n * s.m, 0.0f);
    ref().matmul(a.data(), b.data(), c_ref.data(), s.k, s.m, 0, s.n);
    ops().matmul(a.data(), b.data(), c_got.data(), s.k, s.m, 0, s.n);
    ExpectAllClose(c_ref, c_got, 1e-5, Label("matmul"));
  }
}

TEST_P(KernelEquivalenceTest, MatMulTransposedB) {
  Rng rng(102);
  for (const MatShape& s : kMatShapes) {
    const auto a = RandomVec(s.n * s.k, rng);
    const auto b = RandomVec(s.m * s.k, rng);  // B is [m, k]
    std::vector<float> c_ref(s.n * s.m, -7.0f), c_got(s.n * s.m, 7.0f);
    // Overwriting kernel: poisoned initial contents must not leak through.
    ref().matmul_tb(a.data(), b.data(), c_ref.data(), s.k, s.m, 0, s.n);
    ops().matmul_tb(a.data(), b.data(), c_got.data(), s.k, s.m, 0, s.n);
    ExpectAllClose(c_ref, c_got, 1e-5, Label("matmul_tb"));
  }
}

TEST_P(KernelEquivalenceTest, MatMulTransposedA) {
  Rng rng(103);
  for (const MatShape& s : kMatShapes) {
    const auto a = RandomVec(s.n * s.k, rng);  // A is [n, k]
    const auto b = RandomVec(s.n * s.m, rng);  // B is [n, m]
    std::vector<float> c_ref(s.k * s.m, 0.0f), c_got(s.k * s.m, 0.0f);
    ref().matmul_ta(a.data(), b.data(), c_ref.data(), s.n, s.k, s.m, 0, s.k);
    ops().matmul_ta(a.data(), b.data(), c_got.data(), s.n, s.k, s.m, 0, s.k);
    ExpectAllClose(c_ref, c_got, 1e-5, Label("matmul_ta"));
  }
}

TEST_P(KernelEquivalenceTest, RowRangeMatchesFullRange) {
  // A kernel invoked over [i0, i1) sub-ranges must produce exactly the
  // same rows as one full-range call: that's the determinism contract
  // that makes chunked ParallelFor results thread-count-invariant.
  Rng rng(104);
  const MatShape s{17, 23, 13};
  const auto a = RandomVec(s.n * s.k, rng);
  const auto b = RandomVec(s.k * s.m, rng);
  std::vector<float> c_full(s.n * s.m, 0.0f), c_split(s.n * s.m, 0.0f);
  ops().matmul(a.data(), b.data(), c_full.data(), s.k, s.m, 0, s.n);
  for (size_t i0 = 0; i0 < s.n; i0 += 3) {
    ops().matmul(a.data(), b.data(), c_split.data(), s.k, s.m, i0,
                 std::min(s.n, i0 + 3));
  }
  EXPECT_EQ(c_full, c_split) << Label("matmul row-range");
}

TEST_P(KernelEquivalenceTest, Elementwise) {
  Rng rng(105);
  for (size_t n : kVecSizes) {
    const auto x = RandomVec(n, rng);
    const auto t = RandomVec(n, rng);
    const float alpha = static_cast<float>(rng.Uniform(-2.0, 2.0));

    auto y_ref = RandomVec(n, rng);
    auto y_got = y_ref;
    ref().add(y_ref.data(), x.data(), n);
    ops().add(y_got.data(), x.data(), n);
    EXPECT_EQ(y_ref, y_got) << Label("add");

    // axpy is mul+add, which FMA-contracting variants fuse: allow
    // last-ulp differences there. The single-operation kernels below
    // have no reassociation freedom and must match bitwise.
    y_got = y_ref;
    ref().axpy(y_ref.data(), alpha, x.data(), n);
    ops().axpy(y_got.data(), alpha, x.data(), n);
    ExpectAllClose(y_ref, y_got, 1e-6, Label("axpy"));

    y_got = y_ref;
    ref().scale(y_ref.data(), alpha, n);
    ops().scale(y_got.data(), alpha, n);
    EXPECT_EQ(y_ref, y_got) << Label("scale");

    ref().scaled_copy(y_ref.data(), x.data(), alpha, n);
    ops().scaled_copy(y_got.data(), x.data(), alpha, n);
    EXPECT_EQ(y_ref, y_got) << Label("scaled_copy");

    ref().scaled_diff(y_ref.data(), x.data(), t.data(), alpha, n);
    ops().scaled_diff(y_got.data(), x.data(), t.data(), alpha, n);
    EXPECT_EQ(y_ref, y_got) << Label("scaled_diff");
  }
}

TEST_P(KernelEquivalenceTest, Reductions) {
  Rng rng(106);
  for (size_t n : kVecSizes) {
    const auto a = RandomVec(n, rng);
    const auto b = RandomVec(n, rng);
    const double tol = 1e-5 * std::max<double>(1, n);
    EXPECT_NEAR(ref().dot(a.data(), b.data(), n),
                ops().dot(a.data(), b.data(), n), tol)
        << Label("dot") << " n=" << n;
    EXPECT_NEAR(ref().sum(a.data(), n), ops().sum(a.data(), n), tol)
        << Label("sum") << " n=" << n;
    EXPECT_NEAR(ref().squared_l2(a.data(), n), ops().squared_l2(a.data(), n),
                tol)
        << Label("squared_l2") << " n=" << n;
  }
}

TEST_P(KernelEquivalenceTest, ConvGradTap) {
  Rng rng(107);
  for (size_t n : kVecSizes) {
    const auto gy = RandomVec(n, rng);
    const auto x = RandomVec(n, rng);
    const float w = static_cast<float>(rng.Uniform(-1.5, 1.5));
    auto gx_ref = RandomVec(n, rng);
    auto gx_got = gx_ref;
    const float wg_ref =
        ref().conv_grad_tap(gy.data(), x.data(), w, gx_ref.data(), n);
    const float wg_got =
        ops().conv_grad_tap(gy.data(), x.data(), w, gx_got.data(), n);
    EXPECT_NEAR(wg_ref, wg_got, 1e-5 * std::max<double>(1, n))
        << Label("conv_grad_tap") << " n=" << n;
    ExpectAllClose(gx_ref, gx_got, 1e-5, Label("conv_grad_tap gx"));
  }
}

TEST_P(KernelEquivalenceTest, SoftmaxRow) {
  Rng rng(108);
  for (size_t n : kVecSizes) {
    const auto x = RandomVec(n, rng, -5.0, 5.0);
    std::vector<float> y_ref(n), y_got(n);
    ref().softmax_row(x.data(), y_ref.data(), n);
    ops().softmax_row(x.data(), y_got.data(), n);
    ExpectAllClose(y_ref, y_got, 1e-6, Label("softmax_row"));
    // Probabilities must still normalize.
    double total = 0.0;
    for (float v : y_got) total += v;
    EXPECT_NEAR(total, 1.0, 1e-4) << Label("softmax_row norm");
  }
}

TEST_P(KernelEquivalenceTest, AdamUpdate) {
  Rng rng(109);
  for (size_t n : kVecSizes) {
    auto p_ref = RandomVec(n, rng);
    auto m_ref = RandomVec(n, rng);
    auto v_ref = RandomVec(n, rng, 0.0, 1.0);  // second moment: nonneg
    const auto g = RandomVec(n, rng);
    auto p_got = p_ref;
    auto m_got = m_ref;
    auto v_got = v_ref;
    ref().adam_update(p_ref.data(), m_ref.data(), v_ref.data(), g.data(), n,
                      1e-3f, 0.9f, 0.999f, 1e-8f, 1e-7);
    ops().adam_update(p_got.data(), m_got.data(), v_got.data(), g.data(), n,
                      1e-3f, 0.9f, 0.999f, 1e-8f, 1e-7);
    ExpectAllClose(p_ref, p_got, 1e-5, Label("adam p"));
    ExpectAllClose(m_ref, m_got, 1e-6, Label("adam m"));
    ExpectAllClose(v_ref, v_got, 1e-6, Label("adam v"));
  }
}

TEST_P(KernelEquivalenceTest, ZeroTimesNanIsNan) {
  // The old scalar MatMul skipped `av == 0.0f` rows, silently turning
  // 0 * NaN into 0. No variant may inherit that: IEEE says NaN.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  // A: [2, 2] with a zero in the column that hits the NaN/Inf row of B.
  const std::vector<float> a = {0.0f, 1.0f, 0.0f, 0.0f};
  const std::vector<float> b = {nan, inf, 1.0f, 2.0f, 3.0f, 4.0f};  // [2, 3]
  std::vector<float> c(2 * 3, 0.0f);
  ops().matmul(a.data(), b.data(), c.data(), 2, 3, 0, 2);
  // Columns 0/1 hit 0 * NaN and 0 * Inf: NaN. Column 2 is finite.
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(std::isnan(c[i * 3 + 0])) << Label("matmul NaN") << " i=" << i;
    EXPECT_TRUE(std::isnan(c[i * 3 + 1])) << Label("matmul Inf") << " i=" << i;
  }
  EXPECT_FLOAT_EQ(c[0 * 3 + 2], 4.0f) << Label("matmul finite col");
  EXPECT_FLOAT_EQ(c[1 * 3 + 2], 0.0f) << Label("matmul finite col");
  // axpy with a == 0 must also propagate.
  std::vector<float> y = {1.0f, 2.0f};
  const std::vector<float> x = {nan, 3.0f};
  ops().axpy(y.data(), 0.0f, x.data(), 2);
  EXPECT_TRUE(std::isnan(y[0])) << Label("axpy NaN");
}

// ------------------------------------------------------------- conv1d
//
// conv1d_forward must equal, bit for bit, the tap-axpy loop it replaced:
// one axpy per (c_out, c_in, tap) over the tap's valid output range,
// built from the SAME variant's axpy, then a per-element bias add.

std::vector<float> TapAxpyConv1d(const Ops& ops, const std::vector<float>& x,
                                 const std::vector<float>& w,
                                 const float* bias, size_t batch, size_t c_in,
                                 size_t c_out, size_t k, size_t l) {
  std::vector<float> y(batch * c_out * l, 0.0f);
  const ptrdiff_t pad = static_cast<ptrdiff_t>((k - 1) / 2);
  const ptrdiff_t len = static_cast<ptrdiff_t>(l);
  for (size_t b = 0; b < batch; ++b) {
    for (size_t co = 0; co < c_out; ++co) {
      float* yrow = y.data() + (b * c_out + co) * l;
      for (size_t ci = 0; ci < c_in; ++ci) {
        const float* xrow = x.data() + (b * c_in + ci) * l;
        for (size_t kk = 0; kk < k; ++kk) {
          const ptrdiff_t shift = static_cast<ptrdiff_t>(kk) - pad;
          const ptrdiff_t t_lo = std::clamp<ptrdiff_t>(-shift, 0, len);
          const ptrdiff_t t_hi = std::clamp<ptrdiff_t>(len - shift, t_lo, len);
          if (t_hi == t_lo) continue;
          ops.axpy(yrow + t_lo, w[(co * c_in + ci) * k + kk],
                   xrow + t_lo + shift, static_cast<size_t>(t_hi - t_lo));
        }
      }
      if (bias != nullptr) {
        for (size_t t = 0; t < l; ++t) yrow[t] += bias[co];
      }
    }
  }
  return y;
}

// Runs conv1d_forward over [0, batch) with NaN-poisoned scratch and
// output, so a kernel that reads stale pad columns or skips an output
// element cannot pass.
std::vector<float> KernelConv1d(const Ops& ops, const std::vector<float>& x,
                                const std::vector<float>& w, const float* bias,
                                size_t batch, size_t c_in, size_t c_out,
                                size_t k, size_t l, size_t b0, size_t b1,
                                std::vector<float> y = {}) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  if (y.empty()) y.assign(batch * c_out * l, nan);
  std::vector<float> pad(c_in * (l + k - 1 + kConv1dPadSlack), nan);
  ops.conv1d_forward(x.data(), w.data(), bias, y.data(), pad.data(), c_in,
                     c_out, k, l, b0, b1);
  return y;
}

// Index of the first element whose bits differ, or -1.
ptrdiff_t FirstBitMismatch(const std::vector<float>& a,
                           const std::vector<float>& b) {
  if (a.size() != b.size()) return 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) {
      return static_cast<ptrdiff_t>(i);
    }
  }
  return -1;
}

TEST_P(KernelEquivalenceTest, Conv1dForwardMatchesTapAxpyBitwise) {
  Rng rng(110);
  constexpr size_t kBatch = 2;  // the second item reuses the pad scratch
  for (size_t c_in : {1, 3, 16, 32}) {
    for (size_t c_out : {1, 5, 8, 16, 32}) {
      for (size_t k : {1, 2, 3, 4, 5, 7}) {
        for (size_t l : {size_t{1}, k - 1, size_t{7}, size_t{31},
                         size_t{32}, size_t{64}, size_t{65}, size_t{100}}) {
          const auto x = RandomVec(kBatch * c_in * l, rng, -2.0, 2.0);
          const auto w = RandomVec(c_out * c_in * k, rng);
          const auto b = RandomVec(c_out, rng);
          for (const float* bias : {static_cast<const float*>(nullptr),
                                    b.data()}) {
            const auto want =
                TapAxpyConv1d(ops(), x, w, bias, kBatch, c_in, c_out, k, l);
            const auto got = KernelConv1d(ops(), x, w, bias, kBatch, c_in,
                                          c_out, k, l, 0, kBatch);
            const ptrdiff_t bad = FirstBitMismatch(want, got);
            ASSERT_EQ(bad, -1)
                << Label("conv1d_forward") << " c_in=" << c_in
                << " c_out=" << c_out << " k=" << k << " l=" << l
                << " bias=" << (bias != nullptr) << " want="
                << (bad >= 0 ? want[static_cast<size_t>(bad)] : 0.0f)
                << " got=" << (bad >= 0 ? got[static_cast<size_t>(bad)] : 0.0f);
          }
        }
      }
    }
  }
}

TEST_P(KernelEquivalenceTest, Conv1dForwardBatchRangeWritesOnlyItsItems) {
  // Per-chunk calls over [b0, b1) must compose to the full-range result
  // and leave other items' outputs untouched.
  Rng rng(111);
  const size_t batch = 5, c_in = 3, c_out = 6, k = 5, l = 37;
  const auto x = RandomVec(batch * c_in * l, rng);
  const auto w = RandomVec(c_out * c_in * k, rng);
  const auto b = RandomVec(c_out, rng);
  const auto full =
      KernelConv1d(ops(), x, w, b.data(), batch, c_in, c_out, k, l, 0, batch);
  std::vector<float> split(batch * c_out * l, -3.0f);
  split = KernelConv1d(ops(), x, w, b.data(), batch, c_in, c_out, k, l, 1, 3,
                       split);
  for (size_t i = 0; i < split.size(); ++i) {
    const size_t item = i / (c_out * l);
    if (item < 1 || item >= 3) {
      ASSERT_EQ(split[i], -3.0f) << Label("conv1d_forward range") << " " << i;
    }
  }
  split = KernelConv1d(ops(), x, w, b.data(), batch, c_in, c_out, k, l, 0, 1,
                       split);
  split = KernelConv1d(ops(), x, w, b.data(), batch, c_in, c_out, k, l, 3,
                       batch, split);
  EXPECT_EQ(FirstBitMismatch(full, split), -1)
      << Label("conv1d_forward chunks");
}

TEST_P(KernelEquivalenceTest, Conv1dForwardPropagatesNanLikeReference) {
  // A NaN input reaches exactly the outputs whose taps read it, with the
  // same bits as the reference; the zero padding never manufactures or
  // hides one (weights are finite, per the kernel contract).
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(112);
  for (size_t k : {1, 3, 4, 7}) {
    for (size_t l : {size_t{2}, size_t{9}, size_t{40}}) {
      const size_t batch = 2, c_in = 3, c_out = 5;
      auto x = RandomVec(batch * c_in * l, rng);
      x[0] = nan;                                // first item, left edge
      x[(batch * c_in - 1) * l + l - 1] = nan;   // last item, right edge
      x[(1 * c_in + 1) * l + l / 2] = nan;       // interior
      const auto w = RandomVec(c_out * c_in * k, rng);
      const auto b = RandomVec(c_out, rng);
      const auto want =
          TapAxpyConv1d(ops(), x, w, b.data(), batch, c_in, c_out, k, l);
      const auto got = KernelConv1d(ops(), x, w, b.data(), batch, c_in, c_out,
                                    k, l, 0, batch);
      size_t nans = 0;
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(std::isnan(want[i]), std::isnan(got[i]))
            << Label("conv1d_forward NaN") << " k=" << k << " l=" << l
            << " i=" << i;
        nans += std::isnan(want[i]) ? 1 : 0;
      }
      EXPECT_GT(nans, 0u);
      EXPECT_EQ(FirstBitMismatch(want, got), -1)
          << Label("conv1d_forward NaN bits") << " k=" << k << " l=" << l;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, KernelEquivalenceTest,
                         ::testing::ValuesIn(SupportedVariants()),
                         [](const ::testing::TestParamInfo<Variant>& info) {
                           return VariantName(info.param);
                         });

// ------------------------------------------------------------ dispatch

class DispatchTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("KDSEL_SIMD");
    ResetDispatchForTesting();
  }
};

TEST_F(DispatchTest, ScalarAlwaysSupported) {
  EXPECT_TRUE(VariantSupported(Variant::kScalar));
  const auto variants = SupportedVariants();
  ASSERT_FALSE(variants.empty());
  EXPECT_EQ(variants.front(), Variant::kScalar);
}

TEST_F(DispatchTest, TablesReportTheirVariant) {
  for (Variant v : SupportedVariants()) {
    EXPECT_EQ(GetOps(v).variant, v);
    EXPECT_STREQ(GetOps(v).name, VariantName(v));
  }
}

TEST_F(DispatchTest, BestVariantIsSupported) {
  EXPECT_TRUE(VariantSupported(BestSupportedVariant()));
}

TEST_F(DispatchTest, ParseVariantNameIsStrict) {
  EXPECT_TRUE(ParseVariantName("scalar").ok());
  EXPECT_TRUE(ParseVariantName("generic").ok());
  EXPECT_TRUE(ParseVariantName("avx2").ok());
  EXPECT_EQ(*ParseVariantName("scalar"), Variant::kScalar);
  EXPECT_EQ(*ParseVariantName("generic"), Variant::kGeneric);
  EXPECT_EQ(*ParseVariantName("avx2"), Variant::kAvx2);
  EXPECT_FALSE(ParseVariantName("").ok());
  EXPECT_FALSE(ParseVariantName("AVX2").ok());
  EXPECT_FALSE(ParseVariantName("scalar ").ok());
  EXPECT_FALSE(ParseVariantName("sse2").ok());
}

TEST_F(DispatchTest, ResetPinsVariant) {
  for (Variant v : SupportedVariants()) {
    ResetDispatchForTesting(v);
    EXPECT_EQ(ActiveVariant(), v);
    EXPECT_EQ(Dispatch().variant, v);
  }
}

TEST_F(DispatchTest, EnvOverrideSelectsVariant) {
  ::setenv("KDSEL_SIMD", "scalar", 1);
  ResetDispatchForTesting();
  EXPECT_EQ(ActiveVariant(), Variant::kScalar);
  ::unsetenv("KDSEL_SIMD");
  ResetDispatchForTesting();
  EXPECT_EQ(ActiveVariant(), BestSupportedVariant());
}

TEST_F(DispatchTest, InvalidEnvFallsBackToBest) {
  ::setenv("KDSEL_SIMD", "turbo9000", 1);
  ResetDispatchForTesting();
  EXPECT_EQ(ActiveVariant(), BestSupportedVariant());
}

}  // namespace
}  // namespace kdsel::nn::kernels
