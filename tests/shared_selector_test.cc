// Concurrent inference on ONE shared selector instance. Serve workers and
// stream re-scores all predict on the registry's single snapshot, which
// is only sound because an inference forward writes no module state.
// For every backbone, four threads run Logits/Predict on the same
// TrainedSelector and must each reproduce the serial output bit for bit.
// Under ThreadSanitizer (the CI TSan job runs this binary) any module
// member written by an inference forward shows up as a data race.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/trainer.h"

namespace kdsel::core {
namespace {

constexpr size_t kWindowLength = 32;
constexpr size_t kNumClasses = 3;
constexpr size_t kThreads = 4;
constexpr size_t kRepeats = 3;

std::vector<std::vector<float>> MakeWindows(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> windows;
  for (size_t i = 0; i < count; ++i) {
    const double freq = 0.2 + 0.4 * static_cast<double>(i % kNumClasses);
    std::vector<float> w(kWindowLength);
    for (size_t t = 0; t < kWindowLength; ++t) {
      w[t] = static_cast<float>(std::sin(freq * static_cast<double>(t)) +
                                0.1 * rng.Normal());
    }
    windows.push_back(std::move(w));
  }
  return windows;
}

std::unique_ptr<TrainedSelector> TrainTiny(const std::string& backbone) {
  SelectorTrainingData data;
  data.num_classes = kNumClasses;
  data.windows = MakeWindows(24, 5);
  for (size_t i = 0; i < data.windows.size(); ++i) {
    data.labels.push_back(static_cast<int>(i % kNumClasses));
  }
  TrainerOptions options;
  options.backbone = backbone;
  options.epochs = 1;
  options.batch_size = 8;
  options.seed = 9;
  auto selector = TrainSelector(data, options, nullptr);
  KDSEL_CHECK(selector.ok());
  return std::move(selector).value();
}

bool BitwiseEqual(const nn::Tensor& a, const nn::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(), a.size() * sizeof(float)) == 0;
}

/// Runs Logits and Predict from kThreads threads at once on `selector`
/// and checks every result against the serial reference.
void ExpectConcurrentInferenceMatchesSerial(const TrainedSelector& selector) {
  const auto windows = MakeWindows(16, 11);
  auto serial_logits = selector.Logits(windows);
  auto serial_picks = selector.Predict(windows);
  ASSERT_TRUE(serial_logits.ok());
  ASSERT_TRUE(serial_picks.ok());

  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;  // kdsel-lint: allow(raw-thread)
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t r = 0; r < kRepeats; ++r) {
        auto logits = selector.Logits(windows);
        auto picks = selector.Predict(windows);
        if (!logits.ok() || !BitwiseEqual(*logits, *serial_logits)) {
          ++mismatches[t];
        }
        if (!picks.ok() || *picks != *serial_picks) ++mismatches[t];
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

class SharedSelectorTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SharedSelectorTest, Fp32ConcurrentPredictIsBitwiseSerial) {
  const auto selector = TrainTiny(GetParam());
  ExpectConcurrentInferenceMatchesSerial(*selector);
}

INSTANTIATE_TEST_SUITE_P(AllBackbones, SharedSelectorTest,
                         ::testing::Values("ConvNet", "ResNet",
                                           "InceptionTime", "Transformer"),
                         [](const ::testing::TestParamInfo<std::string>& p) {
                           return p.param;
                         });

}  // namespace
}  // namespace kdsel::core
