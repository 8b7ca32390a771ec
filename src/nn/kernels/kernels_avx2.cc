// AVX2+FMA kernels: 8 float lanes. This translation unit alone is built
// with -mavx2 -mfma -ffp-contract=fast (CMake defines KDSEL_AVX2_TU
// when the compiler accepts those flags), so mul+add chains contract to
// FMAs; contraction is fixed at build time, keeping results
// deterministic for the variant. Dispatch() only selects this table
// when CPUID reports avx2+fma, so no illegal instruction can leak onto
// older machines.

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/annotations.h"
#include "nn/kernels/kernels.h"

#if defined(KDSEL_AVX2_TU) && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#define KDSEL_VEC_WIDTH 8
#define KDSEL_VEC_VARIANT Variant::kAvx2
#define KDSEL_VEC_NAME "avx2"

namespace kdsel::nn::kernels {
namespace avx2 {
#include "nn/kernels/kernels_vec.inc"
}  // namespace avx2

namespace detail {
const Ops* Avx2Ops() { return &avx2::kOps; }
}  // namespace detail

}  // namespace kdsel::nn::kernels

#else  // compiler lacks AVX2 support: variant reported unavailable

namespace kdsel::nn::kernels::detail {
const Ops* Avx2Ops() { return nullptr; }
}  // namespace kdsel::nn::kernels::detail

#endif
