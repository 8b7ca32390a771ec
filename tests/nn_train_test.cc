#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <memory>

#include "common/rng.h"
#include "nn/conv.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"

namespace kdsel::nn {
namespace {

/// A tiny 3-class problem: class = argmax of 3 noisy prototype dots.
struct ToyProblem {
  Tensor x;
  std::vector<int> y;
};

ToyProblem MakeToyProblem(size_t n, Rng& rng) {
  const size_t d = 10;
  std::vector<std::vector<float>> prototypes(3, std::vector<float>(d));
  for (auto& p : prototypes) {
    for (float& v : p) v = static_cast<float>(rng.Normal());
  }
  ToyProblem problem{Tensor({n, d}), {}};
  problem.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    int c = static_cast<int>(rng.Index(3));
    problem.y[i] = c;
    for (size_t j = 0; j < d; ++j) {
      problem.x.At(i, j) = prototypes[static_cast<size_t>(c)][j] +
                           static_cast<float>(rng.Normal(0.0, 0.3));
    }
  }
  return problem;
}

double TrainAccuracy(Sequential& net, const ToyProblem& p) {
  Tensor logits = net.Forward(p.x, false);
  size_t hits = 0;
  const size_t m = logits.dim(1);
  for (size_t i = 0; i < p.y.size(); ++i) {
    size_t best = 0;
    for (size_t j = 1; j < m; ++j) {
      if (logits.At(i, j) > logits.At(i, best)) best = j;
    }
    hits += (static_cast<int>(best) == p.y[i]);
  }
  return static_cast<double>(hits) / static_cast<double>(p.y.size());
}

void TrainSteps(Sequential& net, Optimizer& opt, const ToyProblem& p,
                int steps) {
  for (int s = 0; s < steps; ++s) {
    Tensor logits = net.Forward(p.x, true);
    LossResult loss = SoftmaxCrossEntropyHard(logits, p.y, {});
    net.Backward(loss.grad);
    ClipGradNorm(opt.params(), 10.0);
    opt.Step();
    opt.ZeroGrad();
  }
}

TEST(TrainingTest, AdamLearnsToyProblem) {
  Rng rng(1);
  ToyProblem p = MakeToyProblem(120, rng);
  Sequential net;
  net.Add(std::make_unique<Linear>(10, 16, rng));
  net.Add(std::make_unique<ReLU>());
  net.Add(std::make_unique<Linear>(16, 3, rng));
  Adam opt(net.Parameters(), 0.01);
  TrainSteps(net, opt, p, 150);
  EXPECT_GT(TrainAccuracy(net, p), 0.95);
}

TEST(TrainingTest, SgdLearnsToyProblem) {
  Rng rng(2);
  ToyProblem p = MakeToyProblem(120, rng);
  Sequential net;
  net.Add(std::make_unique<Linear>(10, 16, rng));
  net.Add(std::make_unique<ReLU>());
  net.Add(std::make_unique<Linear>(16, 3, rng));
  Sgd opt(net.Parameters(), 0.05, 0.9);
  TrainSteps(net, opt, p, 200);
  EXPECT_GT(TrainAccuracy(net, p), 0.9);
}

TEST(TrainingTest, LossDecreasesMonotonicallyOnAverage) {
  Rng rng(3);
  ToyProblem p = MakeToyProblem(80, rng);
  Sequential net;
  net.Add(std::make_unique<Linear>(10, 8, rng));
  net.Add(std::make_unique<ReLU>());
  net.Add(std::make_unique<Linear>(8, 3, rng));
  Adam opt(net.Parameters(), 0.01);
  double first = 0, last = 0;
  for (int s = 0; s < 100; ++s) {
    Tensor logits = net.Forward(p.x, true);
    LossResult loss = SoftmaxCrossEntropyHard(logits, p.y, {});
    if (s == 0) first = loss.mean_loss;
    last = loss.mean_loss;
    net.Backward(loss.grad);
    opt.Step();
    opt.ZeroGrad();
  }
  EXPECT_LT(last, 0.5 * first);
}

TEST(OptimizerTest, SgdStepMatchesHandComputation) {
  Rng rng(4);
  Linear layer(2, 1, rng);
  auto params = layer.Parameters();
  Sgd opt(params, /*lr=*/0.1, /*momentum=*/0.0);
  const float w0 = params[0]->value[0];
  params[0]->grad[0] = 2.0f;
  opt.Step();
  EXPECT_NEAR(params[0]->value[0], w0 - 0.1f * 2.0f, 1e-6f);
}

TEST(OptimizerTest, SgdMomentumAccumulates) {
  Rng rng(5);
  Linear layer(2, 1, rng);
  auto params = layer.Parameters();
  Sgd opt(params, 0.1, 0.9);
  const float w0 = params[0]->value[0];
  params[0]->grad[0] = 1.0f;
  opt.Step();  // v=1, w -= 0.1
  params[0]->grad[0] = 1.0f;
  opt.Step();  // v=1.9, w -= 0.19
  EXPECT_NEAR(params[0]->value[0], w0 - 0.1f - 0.19f, 1e-5f);
}

TEST(OptimizerTest, AdamFirstStepIsLrSizedSignedStep) {
  Rng rng(6);
  Linear layer(2, 1, rng);
  auto params = layer.Parameters();
  Adam opt(params, 0.01);
  const float w0 = params[0]->value[0];
  params[0]->grad[0] = 0.5f;
  opt.Step();
  // After bias correction the first Adam step is ~lr * sign(grad).
  EXPECT_NEAR(params[0]->value[0], w0 - 0.01f, 1e-4f);
}

TEST(OptimizerTest, ZeroGradClears) {
  Rng rng(7);
  Linear layer(3, 2, rng);
  auto params = layer.Parameters();
  Adam opt(params, 0.01);
  params[0]->grad.Fill(1.0f);
  opt.ZeroGrad();
  for (float g : params[0]->grad.data()) EXPECT_EQ(g, 0.0f);
}

TEST(ClipTest, ScalesDownLargeGradients) {
  Rng rng(8);
  Linear layer(4, 4, rng);
  auto params = layer.Parameters();
  for (Parameter* p : params) p->grad.Fill(10.0f);
  double norm_before = ClipGradNorm(params, 1.0);
  EXPECT_GT(norm_before, 1.0);
  double total = 0;
  for (Parameter* p : params) total += p->grad.SquaredL2Norm();
  EXPECT_NEAR(std::sqrt(total), 1.0, 1e-4);
}

TEST(ClipTest, LeavesSmallGradientsAlone) {
  Rng rng(9);
  Linear layer(2, 2, rng);
  auto params = layer.Parameters();
  for (Parameter* p : params) p->grad.Fill(0.001f);
  ClipGradNorm(params, 10.0);
  for (Parameter* p : params) {
    for (float g : p->grad.data()) EXPECT_FLOAT_EQ(g, 0.001f);
  }
}

TEST(DropoutTest, IdentityAtInference) {
  Rng rng(10);
  Dropout drop(0.5, rng);
  Tensor x({4, 4});
  for (float& v : x.mutable_data()) v = 1.0f;
  Tensor y = drop.Forward(x, /*training=*/false);
  for (float v : y.data()) EXPECT_EQ(v, 1.0f);
}

TEST(DropoutTest, ScalesSurvivorsDuringTraining) {
  Rng rng(11);
  Dropout drop(0.5, rng);
  Tensor x({50, 50});
  for (float& v : x.mutable_data()) v = 1.0f;
  Tensor y = drop.Forward(x, /*training=*/true);
  double sum = 0;
  size_t zeros = 0;
  for (float v : y.data()) {
    sum += v;
    zeros += (v == 0.0f);
    if (v != 0.0f) {
      EXPECT_FLOAT_EQ(v, 2.0f);  // 1/(1-0.5)
    }
  }
  // Inverted dropout keeps E[output] = input.
  EXPECT_NEAR(sum / static_cast<double>(y.size()), 1.0, 0.1);
  EXPECT_NEAR(static_cast<double>(zeros) / y.size(), 0.5, 0.05);
}

TEST(SerializeTest, SaveLoadRoundTrip) {
  Rng rng(12);
  Sequential net;
  net.Add(std::make_unique<Linear>(6, 8, rng));
  net.Add(std::make_unique<ReLU>());
  net.Add(std::make_unique<Linear>(8, 2, rng));
  const std::string path =
      (std::filesystem::temp_directory_path() / "kdsel_module.bin").string();
  ASSERT_TRUE(SaveModule(net, path).ok());

  Rng rng2(99);  // different init
  Sequential net2;
  net2.Add(std::make_unique<Linear>(6, 8, rng2));
  net2.Add(std::make_unique<ReLU>());
  net2.Add(std::make_unique<Linear>(8, 2, rng2));
  ASSERT_TRUE(LoadModule(net2, path).ok());

  Tensor x({3, 6});
  Rng rng3(5);
  for (float& v : x.mutable_data()) v = static_cast<float>(rng3.Normal());
  Tensor y1 = net.Forward(x, false);
  Tensor y2 = net2.Forward(x, false);
  for (size_t i = 0; i < y1.size(); ++i) EXPECT_FLOAT_EQ(y1[i], y2[i]);
  std::filesystem::remove(path);
}

TEST(SerializeTest, ArchitectureMismatchRejected) {
  Rng rng(13);
  Linear small(4, 2, rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "kdsel_mismatch.bin").string();
  ASSERT_TRUE(SaveModule(small, path).ok());
  Linear big(8, 2, rng);
  EXPECT_FALSE(LoadModule(big, path).ok());
  std::filesystem::remove(path);
}

TEST(SerializeTest, MissingFileRejected) {
  Rng rng(14);
  Linear layer(4, 2, rng);
  EXPECT_FALSE(LoadModule(layer, "/nonexistent/ckpt.bin").ok());
}

TEST(ModuleTest, ParameterCount) {
  Rng rng(15);
  Linear layer(10, 5, rng);
  EXPECT_EQ(ParameterCount(layer), 10u * 5u + 5u);
}

// Inference forwards keep no activation cache, so a Backward that
// follows one must fail loudly rather than use stale activations from
// an earlier training forward.
TEST(InferenceCacheDeathTest, BackwardAfterInferenceForwardAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Rng rng(16);
  Conv1d conv(2, 3, 3, rng);
  Linear linear(4, 2, rng);
  ReLU relu;
  Tensor cx({2, 2, 8}), lx({2, 4});
  for (float& v : cx.mutable_data()) v = static_cast<float>(rng.Normal());
  for (float& v : lx.mutable_data()) v = static_cast<float>(rng.Normal());

  // A training forward makes Backward legal...
  (void)conv.Backward(conv.Forward(cx, /*training=*/true));
  (void)linear.Backward(linear.Forward(lx, /*training=*/true));
  (void)relu.Backward(relu.Forward(lx, /*training=*/true));

  // ...and a later inference forward drops the cache again.
  const Tensor cy = conv.Forward(cx, /*training=*/false);
  const Tensor ly = linear.Forward(lx, /*training=*/false);
  const Tensor ry = relu.Forward(lx, /*training=*/false);
  EXPECT_DEATH((void)conv.Backward(cy), "KDSEL_CHECK failed");
  EXPECT_DEATH((void)linear.Backward(ly), "KDSEL_CHECK failed");
  EXPECT_DEATH((void)relu.Backward(ry), "KDSEL_CHECK failed");
}

}  // namespace
}  // namespace kdsel::nn
