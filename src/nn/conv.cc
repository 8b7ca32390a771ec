#include "nn/conv.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "nn/kernels/kernels.h"
#include "nn/workspace.h"
#include "obs/trace.h"

namespace kdsel::nn {

namespace {

// Backward shards gradient accumulation over batch chunks. The shard
// count depends only on the batch size (never on the thread count), and
// the shards are reduced serially in ascending order, so gradients are
// bitwise-identical at any KDSEL_THREADS setting.
constexpr size_t kMaxGradShards = 16;

size_t BatchGrain(size_t batch) {
  return std::max<size_t>(1, (batch + kMaxGradShards - 1) / kMaxGradShards);
}

}  // namespace

Conv1d::Conv1d(size_t in_channels, size_t out_channels, size_t kernel_size,
               Rng& rng, bool use_bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_size_(kernel_size),
      use_bias_(use_bias),
      weight_("conv1d.weight",
              Tensor({out_channels, in_channels, kernel_size})),
      bias_("conv1d.bias", Tensor({out_channels})) {
  KDSEL_CHECK(kernel_size >= 1);
  InitHeNormal(weight_.value, in_channels * kernel_size, rng);
}

std::vector<Parameter*> Conv1d::Parameters() {
  if (use_bias_) return {&weight_, &bias_};
  return {&weight_};
}

Tensor Conv1d::Forward(const Tensor& input, bool training) {
  KDSEL_SPAN("nn.conv1d.forward");
  KDSEL_CHECK(input.rank() == 3 && input.dim(1) == in_channels_);
  // Only a training forward is followed by Backward, so only it caches
  // the input; an inference forward writes no member, which lets
  // concurrent forwards share one module.
  if (training) cached_input_ = input;
  const size_t B = input.dim(0), L = input.dim(2);
  const size_t K = kernel_size_;
  Tensor out;
  out.Resize({B, out_channels_, L});  // the kernel writes every element
  const kernels::Ops& ops = kernels::Dispatch();
  const float* x = input.raw();
  const float* w = weight_.value.raw();
  const float* bias = use_bias_ ? bias_.value.raw() : nullptr;
  float* y = out.raw();
  // Each batch item writes a disjoint slice of `out`, so batch-parallel
  // execution is race-free; the kernel's per-element operation order
  // depends only on the shapes, so results are bitwise-deterministic.
  ParallelFor(B, 1, [&](size_t b_begin, size_t b_end) {
    ScratchBuffer pad(in_channels_ *
                      (L + K - 1 + kernels::kConv1dPadSlack));
    ops.conv1d_forward(x, w, bias, y, pad.data(), in_channels_,
                       out_channels_, K, L, b_begin, b_end);
  });
  return out;
}

Tensor Conv1d::Backward(const Tensor& grad_output) {
  KDSEL_SPAN("nn.conv1d.backward");
  // Backward consumes the cache a training forward left, so it runs at
  // most once per training forward and never after an inference one.
  const Tensor input = std::exchange(cached_input_, Tensor());
  KDSEL_CHECK(!input.empty());
  const size_t B = input.dim(0), L = input.dim(2);
  const size_t K = kernel_size_;
  KDSEL_CHECK(grad_output.rank() == 3 && grad_output.dim(0) == B &&
              grad_output.dim(1) == out_channels_ && grad_output.dim(2) == L);
  const ptrdiff_t pad = static_cast<ptrdiff_t>((K - 1) / 2);
  Tensor grad_input({B, in_channels_, L});
  const float* x = input.raw();
  const float* gy = grad_output.raw();
  const float* w = weight_.value.raw();
  float* gx = grad_input.raw();

  // grad_input slices are disjoint per batch item, but weight/bias
  // gradients reduce across the batch: each batch chunk accumulates into
  // its own scratch shard, reduced serially below in ascending shard
  // order so the result is independent of the thread count.
  const kernels::Ops& ops = kernels::Dispatch();
  const size_t wsize = out_channels_ * in_channels_ * K;
  const size_t grain = BatchGrain(B);
  const size_t shards = ParallelChunkCount(B, grain);
  ScratchBuffer gw_scratch(shards * wsize);
  gw_scratch.Zero();
  ScratchBuffer gb_scratch(use_bias_ ? shards * out_channels_ : 0);
  gb_scratch.Zero();

  ParallelFor(B, grain, [&](size_t b_begin, size_t b_end) {
  const size_t shard = b_begin / grain;
  float* gw = gw_scratch.data() + shard * wsize;
  float* gb = use_bias_ ? gb_scratch.data() + shard * out_channels_ : nullptr;
  for (size_t b = b_begin; b < b_end; ++b) {
    const float* xb = x + b * in_channels_ * L;
    const float* gyb = gy + b * out_channels_ * L;
    float* gxb = gx + b * in_channels_ * L;
    for (size_t co = 0; co < out_channels_; ++co) {
      const float* gyrow = gyb + co * L;
      const float* wco = w + co * in_channels_ * K;
      float* gwco = gw + co * in_channels_ * K;
      if (use_bias_) gb[co] += ops.sum(gyrow, L);
      for (size_t ci = 0; ci < in_channels_; ++ci) {
        const float* xrow = xb + ci * L;
        float* gxrow = gxb + ci * L;
        const float* wk = wco + ci * K;
        float* gwk = gwco + ci * K;
        for (size_t k = 0; k < K; ++k) {
          const ptrdiff_t shift = static_cast<ptrdiff_t>(k) - pad;
          const size_t t_lo = shift < 0 ? static_cast<size_t>(-shift) : 0;
          const size_t t_hi = shift > 0 ? L - static_cast<size_t>(shift) : L;
          const size_t src_lo =
              static_cast<size_t>(static_cast<ptrdiff_t>(t_lo) + shift);
          // Fused tap: accumulates the weight gradient and scatters the
          // input gradient in one pass over the valid range.
          gwk[k] += ops.conv_grad_tap(gyrow + t_lo, xrow + src_lo, wk[k],
                                      gxrow + src_lo, t_hi - t_lo);
        }
      }
    }
  }
  });

  float* gw_out = weight_.grad.raw();
  for (size_t shard = 0; shard < shards; ++shard) {
    ops.add(gw_out, gw_scratch.data() + shard * wsize, wsize);
    if (use_bias_) {
      ops.add(bias_.grad.raw(), gb_scratch.data() + shard * out_channels_,
              out_channels_);
    }
  }
  return grad_input;
}

BatchNorm1d::BatchNorm1d(size_t num_features, double momentum, double eps)
    : num_features_(num_features),
      momentum_(momentum),
      eps_(eps),
      gamma_("bn.gamma", Tensor::Full({num_features}, 1.0f)),
      beta_("bn.beta", Tensor({num_features})),
      running_mean_({num_features}),
      running_var_(Tensor::Full({num_features}, 1.0f)) {}

Tensor BatchNorm1d::Forward(const Tensor& input, bool training) {
  KDSEL_CHECK(input.rank() == 2 || input.rank() == 3);
  const size_t B = input.dim(0), C = input.dim(1);
  KDSEL_CHECK(C == num_features_);
  const size_t L = input.rank() == 3 ? input.dim(2) : 1;
  const size_t n = B * L;
  // y = gamma * xhat + beta on both paths, with xhat rounded to float
  // first.
  Tensor out;
  out.Resize(input.shape());  // Every element written below.

  if (!training) {
    // Inference reads the running statistics and writes no member.
    for (size_t c = 0; c < C; ++c) {
      const double m = running_mean_[c];
      const double is =
          1.0 / std::sqrt(static_cast<double>(running_var_[c]) + eps_);
      const float g = gamma_.value[c], bb = beta_.value[c];
      for (size_t b = 0; b < B; ++b) {
        const float* row = input.raw() + (b * C + c) * L;
        float* o = out.raw() + (b * C + c) * L;
        for (size_t t = 0; t < L; ++t) {
          o[t] = g * static_cast<float>((row[t] - m) * is) + bb;
        }
      }
    }
    return out;
  }

  mean_scratch_.assign(C, 0.0);
  var_scratch_.assign(C, 0.0);
  std::vector<double>& mean = mean_scratch_;
  std::vector<double>& var = var_scratch_;
  for (size_t b = 0; b < B; ++b) {
    for (size_t c = 0; c < C; ++c) {
      const float* row = input.raw() + (b * C + c) * L;
      double acc = 0.0;
      for (size_t t = 0; t < L; ++t) acc += row[t];
      mean[c] += acc;
    }
  }
  for (size_t c = 0; c < C; ++c) mean[c] /= static_cast<double>(n);
  for (size_t b = 0; b < B; ++b) {
    for (size_t c = 0; c < C; ++c) {
      const float* row = input.raw() + (b * C + c) * L;
      double acc = 0.0;
      for (size_t t = 0; t < L; ++t) {
        double d = row[t] - mean[c];
        acc += d * d;
      }
      var[c] += acc;
    }
  }
  for (size_t c = 0; c < C; ++c) var[c] /= static_cast<double>(n);
  cached_inv_std_.assign(C, 0.0);
  for (size_t c = 0; c < C; ++c) {
    running_mean_[c] = static_cast<float>(
        (1 - momentum_) * running_mean_[c] + momentum_ * mean[c]);
    running_var_[c] = static_cast<float>(
        (1 - momentum_) * running_var_[c] + momentum_ * var[c]);
    cached_inv_std_[c] = 1.0 / std::sqrt(var[c] + eps_);
  }

  cached_xhat_.Resize(input.shape());
  for (size_t b = 0; b < B; ++b) {
    for (size_t c = 0; c < C; ++c) {
      const float* row = input.raw() + (b * C + c) * L;
      float* xh = cached_xhat_.raw() + (b * C + c) * L;
      float* o = out.raw() + (b * C + c) * L;
      const float g = gamma_.value[c], bb = beta_.value[c];
      const double m = mean[c], is = cached_inv_std_[c];
      for (size_t t = 0; t < L; ++t) {
        xh[t] = static_cast<float>((row[t] - m) * is);
        o[t] = g * xh[t] + bb;
      }
    }
  }
  return out;
}

Tensor BatchNorm1d::Backward(const Tensor& grad_output) {
  const Tensor xhat = std::exchange(cached_xhat_, Tensor());
  KDSEL_CHECK(!xhat.empty() && SameShape(grad_output, xhat));
  const size_t B = xhat.dim(0), C = xhat.dim(1);
  const size_t L = xhat.rank() == 3 ? xhat.dim(2) : 1;
  const double n = static_cast<double>(B * L);

  // Standard BN backward:
  // dxhat = dy * gamma
  // dx = (1/N) * inv_std * (N*dxhat - sum(dxhat) - xhat * sum(dxhat*xhat))
  sum_dy_scratch_.assign(C, 0.0);
  sum_dy_xhat_scratch_.assign(C, 0.0);
  std::vector<double>& sum_dy = sum_dy_scratch_;
  std::vector<double>& sum_dy_xhat = sum_dy_xhat_scratch_;
  for (size_t b = 0; b < B; ++b) {
    for (size_t c = 0; c < C; ++c) {
      const float* gy = grad_output.raw() + (b * C + c) * L;
      const float* xh = xhat.raw() + (b * C + c) * L;
      double a = 0.0, d = 0.0;
      for (size_t t = 0; t < L; ++t) {
        a += gy[t];
        d += static_cast<double>(gy[t]) * xh[t];
      }
      sum_dy[c] += a;
      sum_dy_xhat[c] += d;
    }
  }
  for (size_t c = 0; c < C; ++c) {
    beta_.grad[c] += static_cast<float>(sum_dy[c]);
    gamma_.grad[c] += static_cast<float>(sum_dy_xhat[c]);
  }

  Tensor grad_input;
  grad_input.Resize(xhat.shape());  // Every element written below.
  for (size_t b = 0; b < B; ++b) {
    for (size_t c = 0; c < C; ++c) {
      const float* gy = grad_output.raw() + (b * C + c) * L;
      const float* xh = xhat.raw() + (b * C + c) * L;
      float* gx = grad_input.raw() + (b * C + c) * L;
      const double g = gamma_.value[c];
      const double is = cached_inv_std_[c];
      for (size_t t = 0; t < L; ++t) {
        double dxhat = gy[t] * g;
        gx[t] = static_cast<float>(
            is * (dxhat - sum_dy[c] * g / n - xh[t] * sum_dy_xhat[c] * g / n));
      }
    }
  }
  return grad_input;
}

Tensor GlobalAvgPool1d::Forward(const Tensor& input, bool training) {
  KDSEL_CHECK(input.rank() == 3);
  if (training) cached_shape_ = input.shape();
  const size_t B = input.dim(0), C = input.dim(1), L = input.dim(2);
  Tensor out({B, C});
  const float inv = 1.0f / static_cast<float>(L);
  for (size_t b = 0; b < B; ++b) {
    for (size_t c = 0; c < C; ++c) {
      const float* row = input.raw() + (b * C + c) * L;
      float acc = 0.0f;
      for (size_t t = 0; t < L; ++t) acc += row[t];
      out[b * C + c] = acc * inv;
    }
  }
  return out;
}

Tensor GlobalAvgPool1d::Backward(const Tensor& grad_output) {
  const size_t B = cached_shape_[0], C = cached_shape_[1],
               L = cached_shape_[2];
  KDSEL_CHECK(grad_output.rank() == 2 && grad_output.dim(0) == B &&
              grad_output.dim(1) == C);
  Tensor grad_input(cached_shape_);
  const float inv = 1.0f / static_cast<float>(L);
  for (size_t b = 0; b < B; ++b) {
    for (size_t c = 0; c < C; ++c) {
      const float g = grad_output[b * C + c] * inv;
      float* row = grad_input.raw() + (b * C + c) * L;
      for (size_t t = 0; t < L; ++t) row[t] = g;
    }
  }
  return grad_input;
}

Tensor MaxPool1dSame::Forward(const Tensor& input, bool training) {
  KDSEL_CHECK(input.rank() == 3);
  const size_t B = input.dim(0), C = input.dim(1), L = input.dim(2);
  Tensor out(input.shape());
  // Only a training forward records the argmax routing for Backward.
  if (training) {
    cached_shape_ = input.shape();
    argmax_.assign(B * C * L, 0);
  }
  for (size_t b = 0; b < B; ++b) {
    for (size_t c = 0; c < C; ++c) {
      const float* row = input.raw() + (b * C + c) * L;
      float* orow = out.raw() + (b * C + c) * L;
      int32_t* arow = training ? argmax_.data() + (b * C + c) * L : nullptr;
      for (size_t t = 0; t < L; ++t) {
        size_t lo = t > 0 ? t - 1 : 0;
        size_t hi = std::min(L - 1, t + 1);
        size_t best = lo;
        for (size_t u = lo + 1; u <= hi; ++u) {
          if (row[u] > row[best]) best = u;
        }
        orow[t] = row[best];
        if (arow != nullptr) arow[t] = static_cast<int32_t>(best);
      }
    }
  }
  return out;
}

Tensor MaxPool1dSame::Backward(const Tensor& grad_output) {
  const Shape shape = std::exchange(cached_shape_, Shape());
  KDSEL_CHECK(grad_output.shape() == shape);
  const size_t B = shape[0], C = shape[1], L = shape[2];
  Tensor grad_input(shape);
  for (size_t b = 0; b < B; ++b) {
    for (size_t c = 0; c < C; ++c) {
      const float* gy = grad_output.raw() + (b * C + c) * L;
      float* gx = grad_input.raw() + (b * C + c) * L;
      const int32_t* arow = argmax_.data() + (b * C + c) * L;
      for (size_t t = 0; t < L; ++t) {
        gx[static_cast<size_t>(arow[t])] += gy[t];
      }
    }
  }
  return grad_input;
}

}  // namespace kdsel::nn
