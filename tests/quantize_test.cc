// End-to-end correctness of int8 quantized selector inference (the bar
// the quantization pass has to clear before the registry serves it):
//
//   * Ranking parity: on fresh series from ALL 16 datagen families, the
//     int8 selector reproduces the fp32 top-1 detector choice on every
//     window and keeps Spearman >= 0.99 over the full detector ordering.
//   * Persistence: Save/Load of a quantized selector reproduces its
//     logits bit-for-bit (fp32 master weights + stored activation
//     scales; weight quantization is deterministic).
//   * Clone carries quantization over bit-for-bit (QuantizeInt8 and
//     in-memory hot reloads copy selectors through it).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/trainer.h"
#include "datagen/families.h"
#include "ts/window.h"

namespace kdsel::core {
namespace {

constexpr size_t kWindowLength = 32;
constexpr size_t kNumClasses = 12;  // Canonical detector-set size.

std::vector<std::vector<float>> FamilyWindows(datagen::Family family,
                                              size_t num_series,
                                              size_t series_length,
                                              size_t first_index,
                                              uint64_t seed) {
  Rng rng(seed);
  ts::WindowOptions wo;
  wo.length = kWindowLength;
  wo.stride = kWindowLength;
  std::vector<std::vector<float>> windows;
  for (size_t i = 0; i < num_series; ++i) {
    auto series =
        datagen::GenerateSeries(family, series_length, first_index + i, rng);
    KDSEL_CHECK(series.ok());
    auto extracted = ts::ExtractWindows(*series, 0, wo);
    KDSEL_CHECK(extracted.ok());
    for (auto& w : *extracted) windows.push_back(std::move(w.values));
  }
  return windows;
}

/// Trains a small ConvNet selector on windows from all 16 families, with
/// labels derived from the family index so logits have real structure.
std::unique_ptr<TrainedSelector> TrainFamilySelector(uint64_t seed = 3) {
  SelectorTrainingData data;
  data.num_classes = kNumClasses;
  const auto& families = datagen::AllFamilies();
  for (size_t f = 0; f < families.size(); ++f) {
    auto windows = FamilyWindows(families[f], /*num_series=*/2,
                                 /*series_length=*/160, /*first_index=*/0,
                                 seed + f);
    for (auto& w : windows) {
      data.windows.push_back(std::move(w));
      data.labels.push_back(static_cast<int>(f % kNumClasses));
    }
  }
  TrainerOptions opts;
  opts.backbone = "ConvNet";
  // Enough epochs that class margins are real: the parity test below
  // checks that quantization noise never flips a decision, which is
  // only a meaningful claim when decisions are not coin flips.
  opts.epochs = 10;
  opts.seed = seed;
  auto selector = TrainSelector(data, opts, nullptr);
  KDSEL_CHECK(selector.ok());
  return std::move(selector).value();
}

std::vector<std::vector<float>> CalibrationWindows(uint64_t seed = 77) {
  std::vector<std::vector<float>> calib;
  for (datagen::Family family : datagen::AllFamilies()) {
    auto windows = FamilyWindows(family, /*num_series=*/1,
                                 /*series_length=*/160, /*first_index=*/5,
                                 seed);
    for (auto& w : windows) calib.push_back(std::move(w));
  }
  return calib;
}

size_t ArgMaxRow(const nn::Tensor& logits, size_t row) {
  const float* p = logits.raw() + row * logits.dim(1);
  return static_cast<size_t>(
      std::max_element(p, p + logits.dim(1)) - p);
}

/// Ranks of one logit row (0 = largest). Distinct floats in practice, so
/// ordinal ranks are fine; exact ties would only tighten the comparison.
std::vector<size_t> RankRow(const nn::Tensor& logits, size_t row) {
  const size_t m = logits.dim(1);
  const float* p = logits.raw() + row * m;
  std::vector<size_t> order(m);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [p](size_t a, size_t b) { return p[a] > p[b]; });
  std::vector<size_t> rank(m);
  for (size_t i = 0; i < m; ++i) rank[order[i]] = i;
  return rank;
}

double SpearmanRho(const std::vector<size_t>& a, const std::vector<size_t>& b) {
  KDSEL_CHECK(a.size() == b.size() && a.size() >= 2);
  double d2 = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    d2 += d * d;
  }
  const double n = static_cast<double>(a.size());
  return 1.0 - 6.0 * d2 / (n * (n * n - 1.0));
}

void ExpectLogitsBitwiseEqual(const TrainedSelector& a,
                              const TrainedSelector& b,
                              const std::vector<std::vector<float>>& windows,
                              const std::string& what) {
  auto la = a.Logits(windows);
  auto lb = b.Logits(windows);
  ASSERT_TRUE(la.ok()) << what << ": " << la.status();
  ASSERT_TRUE(lb.ok()) << what << ": " << lb.status();
  ASSERT_EQ(la->size(), lb->size()) << what;
  for (size_t i = 0; i < la->size(); ++i) {
    ASSERT_EQ((*la)[i], (*lb)[i]) << what << " logit " << i;
  }
}

TEST(QuantizeInt8Test, RejectsEmptyCalibration) {
  auto selector = TrainFamilySelector();
  EXPECT_FALSE(selector->QuantizeInt8({}).ok());
}

TEST(QuantizeInt8Test, QuantizeLeavesOriginalUntouched) {
  auto selector = TrainFamilySelector();
  EXPECT_FALSE(selector->IsInt8());
  const auto probe = FamilyWindows(datagen::Family::kEcg, 1, 160, 9, 5);
  auto before = selector->Logits(probe);
  ASSERT_TRUE(before.ok());

  auto quantized = selector->QuantizeInt8(CalibrationWindows());
  ASSERT_TRUE(quantized.ok()) << quantized.status();
  EXPECT_TRUE((*quantized)->IsInt8());
  EXPECT_FALSE(selector->IsInt8());

  auto after = selector->Logits(probe);
  ASSERT_TRUE(after.ok());
  for (size_t i = 0; i < before->size(); ++i) {
    ASSERT_EQ((*before)[i], (*after)[i]) << "fp32 logit " << i << " changed";
  }
}

/// The per-series detector choice: plurality vote over the window-level
/// argmax rows (mirrors SelectSeriesModel; ties break to the lowest
/// class id, like std::max_element on the count array).
size_t SeriesVote(const nn::Tensor& logits) {
  std::vector<int> counts(logits.dim(1), 0);
  for (size_t r = 0; r < logits.dim(0); ++r) counts[ArgMaxRow(logits, r)]++;
  return static_cast<size_t>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
}

// The acceptance bar from the quantization design: int8 inference is a
// ranking-preserving approximation. On held-out series from every
// datagen family, the int8 selector picks the same detector as fp32 for
// every series (selection is a per-series majority vote over windows),
// the per-family Spearman over the full detector ordering stays
// >= 0.99, and window-level top-1 agreement stays >= 95% overall (a
// window whose fp32 top-2 logits are a near-tie can flip under ANY
// quantization scheme; the vote absorbs those).
TEST(QuantizeInt8Test, RankingParityAcrossAllFamilies) {
  auto selector = TrainFamilySelector();
  auto quantized = selector->QuantizeInt8(CalibrationWindows());
  ASSERT_TRUE(quantized.ok()) << quantized.status();

  size_t windows_total = 0, windows_agreeing = 0;
  for (datagen::Family family : datagen::AllFamilies()) {
    double rho_sum = 0.0;
    size_t family_windows = 0;
    for (size_t s = 0; s < 2; ++s) {
      // Fresh series: different index range than training/calibration.
      const auto windows =
          FamilyWindows(family, /*num_series=*/1, /*series_length=*/192,
                        /*first_index=*/11 + s, /*seed=*/91 + s);
      ASSERT_FALSE(windows.empty());
      auto fp32 = selector->Logits(windows);
      auto int8 = (*quantized)->Logits(windows);
      ASSERT_TRUE(fp32.ok()) << fp32.status();
      ASSERT_TRUE(int8.ok()) << int8.status();
      ASSERT_EQ(fp32->shape(), int8->shape());

      EXPECT_EQ(SeriesVote(*fp32), SeriesVote(*int8))
          << datagen::FamilyName(family) << " series " << s
          << ": int8 flipped the top-1 detector selection";
      for (size_t r = 0; r < windows.size(); ++r) {
        windows_total++;
        family_windows++;
        if (ArgMaxRow(*fp32, r) == ArgMaxRow(*int8, r)) windows_agreeing++;
        rho_sum += SpearmanRho(RankRow(*fp32, r), RankRow(*int8, r));
      }
    }
    const double rho = rho_sum / static_cast<double>(family_windows);
    EXPECT_GE(rho, 0.99) << datagen::FamilyName(family)
                         << ": detector-ordering Spearman too low";
  }
  EXPECT_GE(static_cast<double>(windows_agreeing),
            0.95 * static_cast<double>(windows_total))
      << windows_agreeing << "/" << windows_total
      << " windows agree on top-1";
}

TEST(QuantizeInt8Test, SaveLoadRoundTripIsBitwise) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "kdsel_quant_rt").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  auto selector = TrainFamilySelector();
  auto quantized = selector->QuantizeInt8(CalibrationWindows());
  ASSERT_TRUE(quantized.ok()) << quantized.status();
  const std::string prefix = dir + "/sel.int8";
  ASSERT_TRUE((*quantized)->Save(prefix).ok());

  auto loaded = TrainedSelector::Load(prefix);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE((*loaded)->IsInt8());

  const auto probe = FamilyWindows(datagen::Family::kYahoo, 2, 192, 17, 13);
  ExpectLogitsBitwiseEqual(**quantized, **loaded, probe, "save/load");

  // The fp32 original round-trips without the quant marker.
  const std::string fp32_prefix = dir + "/sel.fp32";
  ASSERT_TRUE(selector->Save(fp32_prefix).ok());
  auto fp32_loaded = TrainedSelector::Load(fp32_prefix);
  ASSERT_TRUE(fp32_loaded.ok()) << fp32_loaded.status();
  EXPECT_FALSE((*fp32_loaded)->IsInt8());
  ExpectLogitsBitwiseEqual(*selector, **fp32_loaded, probe, "fp32 save/load");
  std::filesystem::remove_all(dir);
}

TEST(QuantizeInt8Test, CloneCarriesQuantizationBitwise) {
  auto selector = TrainFamilySelector();
  auto quantized = selector->QuantizeInt8(CalibrationWindows());
  ASSERT_TRUE(quantized.ok()) << quantized.status();
  auto clone = (*quantized)->Clone();
  ASSERT_TRUE(clone.ok()) << clone.status();
  EXPECT_TRUE((*clone)->IsInt8());

  const auto probe = FamilyWindows(datagen::Family::kMgab, 2, 192, 23, 29);
  ExpectLogitsBitwiseEqual(**quantized, **clone, probe, "clone");
}

}  // namespace
}  // namespace kdsel::core
