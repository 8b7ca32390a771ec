#ifndef KDSEL_NN_LAYERS_H_
#define KDSEL_NN_LAYERS_H_

#include <vector>

#include "nn/module.h"

namespace kdsel::nn {

/// Fully-connected layer: [B, in] -> [B, out], y = x W^T + b.
class Linear : public Module {
 public:
  Linear(size_t in_features, size_t out_features, Rng& rng);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::vector<Parameter*> Parameters() override { return {&weight_, &bias_}; }

  size_t in_features() const { return in_features_; }
  size_t out_features() const { return out_features_; }

 private:
  size_t in_features_;
  size_t out_features_;
  Parameter weight_;  // [out, in]
  Parameter bias_;    // [out]
  Tensor cached_input_;
};

/// Elementwise ReLU; shape-preserving.
class ReLU : public Module {
 public:
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;

 private:
  Tensor cached_output_;
};

/// Elementwise GELU (tanh approximation); shape-preserving.
class Gelu : public Module {
 public:
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;

 private:
  Tensor cached_input_;
};

/// Inverted dropout. Deterministic given the module's RNG stream. Active
/// only when training; identity at inference.
class Dropout : public Module {
 public:
  Dropout(double rate, Rng& rng);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;

 private:
  double rate_;
  Rng rng_;
  Tensor mask_;
};

}  // namespace kdsel::nn

#endif  // KDSEL_NN_LAYERS_H_
