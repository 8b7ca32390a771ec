#include "nn/module.h"

#include <cmath>

namespace kdsel::nn {

Tensor Sequential::Forward(const Tensor& input, bool training) {
  Tensor x = input;
  for (auto& m : modules_) x = m->Forward(x, training);
  return x;
}

Tensor Sequential::Backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = modules_.rbegin(); it != modules_.rend(); ++it) {
    g = (*it)->Backward(g);
  }
  return g;
}

std::vector<Parameter*> Sequential::Parameters() {
  std::vector<Parameter*> params;
  for (auto& m : modules_) {
    for (Parameter* p : m->Parameters()) params.push_back(p);
  }
  return params;
}

std::vector<Tensor*> Sequential::StateTensors() {
  std::vector<Tensor*> state;
  for (auto& m : modules_) {
    for (Tensor* t : m->StateTensors()) state.push_back(t);
  }
  return state;
}

void InitHeNormal(Tensor& w, size_t fan_in, Rng& rng) {
  const double stddev = std::sqrt(2.0 / static_cast<double>(fan_in));
  for (float& v : w.mutable_data()) {
    v = static_cast<float>(rng.Normal(0.0, stddev));
  }
}

void InitXavierUniform(Tensor& w, size_t fan_in, size_t fan_out, Rng& rng) {
  const double limit =
      std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  for (float& v : w.mutable_data()) {
    v = static_cast<float>(rng.Uniform(-limit, limit));
  }
}

size_t ParameterCount(Module& module) {
  size_t n = 0;
  for (Parameter* p : module.Parameters()) n += p->value.size();
  return n;
}

}  // namespace kdsel::nn
