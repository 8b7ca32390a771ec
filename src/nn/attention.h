#ifndef KDSEL_NN_ATTENTION_H_
#define KDSEL_NN_ATTENTION_H_

#include <memory>
#include <vector>

#include "nn/layers.h"
#include "nn/module.h"

namespace kdsel::nn {

/// Layer normalization over the last dimension of [B, T, D] or [B, D].
class LayerNorm : public Module {
 public:
  explicit LayerNorm(size_t dim, double eps = 1e-5);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::vector<Parameter*> Parameters() override { return {&gamma_, &beta_}; }

 private:
  size_t dim_;
  double eps_;
  Parameter gamma_;
  Parameter beta_;
  Tensor cached_xhat_;
  std::vector<float> cached_inv_std_;
};

/// Multi-head self-attention over [B, T, D] (post-norm omitted; this is
/// the bare attention sublayer). D must be divisible by num_heads.
class MultiHeadSelfAttention : public Module {
 public:
  MultiHeadSelfAttention(size_t dim, size_t num_heads, Rng& rng);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::vector<Parameter*> Parameters() override;

 private:
  /// The attention core: softmaxed scores [B, H, T, T] into *attn and
  /// the pre-Wo head concat [B, T, D] into *concat, from q/k/v
  /// [B, T, D]. Writes no member, so inference keeps its
  /// q/k/v/attn/concat in locals.
  void AttentionCore(const Tensor& q, const Tensor& k, const Tensor& v,
                     Tensor* attn, Tensor* concat) const;

  size_t dim_;
  size_t num_heads_;
  size_t head_dim_;
  Parameter wq_, wk_, wv_, wo_;  // each [D, D]
  // Training-forward caches for Backward.
  Tensor cached_input_;                 // [B, T, D]
  Tensor cached_q_, cached_k_, cached_v_;  // [B, T, D]
  Tensor cached_attn_;                  // [B, H, T, T] softmaxed
  Tensor cached_concat_;                // [B, T, D] pre-Wo
};

/// One pre-norm Transformer encoder block:
///   x = x + MHSA(LN(x));  x = x + FFN(LN(x))
/// with FFN = Linear(D, hidden) -> GELU -> Linear(hidden, D).
class TransformerEncoderBlock : public Module {
 public:
  TransformerEncoderBlock(size_t dim, size_t num_heads, size_t ffn_hidden,
                          double dropout_rate, Rng& rng);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::vector<Parameter*> Parameters() override;

 private:
  size_t dim_;
  LayerNorm ln1_;
  MultiHeadSelfAttention attn_;
  Dropout drop1_;
  LayerNorm ln2_;
  Linear ffn1_;
  Gelu gelu_;
  Linear ffn2_;
  Dropout drop2_;
};

}  // namespace kdsel::nn

#endif  // KDSEL_NN_ATTENTION_H_
