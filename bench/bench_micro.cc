// Micro-benchmarks (google-benchmark) for the performance-critical
// primitives: tensor algebra, conv layers, every TSAD detector, LSH
// hashing, text encoding, and feature extraction.
//
// `bench_micro --report` bypasses google-benchmark and instead times
// the parallel hot paths (detector matrix build, Conv1d forward /
// backward, MatMul) at 1, 2 and 4 threads, writing the measurements
// and speedups to BENCH_micro.json (see bench/bench_report.h).
//
// `bench_micro --report-kernels` times every compiled SIMD kernel
// variant (scalar, generic, avx2 where supported) on a 256^3 MatMul and
// a Conv1d forward at 1, 2 and 4 threads, plus an end-to-end selector
// forward at 1 thread, writing BENCH_kernels.json with per-entry
// `speedup_vs_scalar` metrics.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <string>

#include "bench/bench_report.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "datagen/families.h"
#include "features/features.h"
#include "lsh/simhash.h"
#include "nn/conv.h"
#include "nn/kernels/kernels.h"
#include "nn/layers.h"
#include "nn/tensor.h"
#include "selectors/backbone.h"
#include "text/text_encoder.h"
#include "tsad/detector.h"

namespace {

using namespace kdsel;

void BM_MatMul(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  nn::Tensor a({n, n}), b({n, n});
  for (float& v : a.mutable_data()) v = static_cast<float>(rng.Normal());
  for (float& v : b.mutable_data()) v = static_cast<float>(rng.Normal());
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::MatMul(a, b));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

void BM_Conv1dForward(benchmark::State& state) {
  Rng rng(2);
  nn::Conv1d conv(16, 16, 5, rng);
  nn::Tensor x({32, 16, 64});
  for (float& v : x.mutable_data()) v = static_cast<float>(rng.Normal());
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(x, true));
  }
}
BENCHMARK(BM_Conv1dForward);

void BM_Conv1dBackward(benchmark::State& state) {
  Rng rng(3);
  nn::Conv1d conv(16, 16, 5, rng);
  nn::Tensor x({32, 16, 64});
  nn::Tensor g({32, 16, 64});
  for (float& v : x.mutable_data()) v = static_cast<float>(rng.Normal());
  for (float& v : g.mutable_data()) v = static_cast<float>(rng.Normal());
  (void)conv.Forward(x, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Backward(g));
  }
}
BENCHMARK(BM_Conv1dBackward);

void BM_DetectorScore(benchmark::State& state) {
  const auto& names = tsad::CanonicalModelNames();
  const std::string name = names[static_cast<size_t>(state.range(0))];
  auto detector = tsad::BuildDetector(name, 7);
  KDSEL_CHECK(detector.ok());
  Rng rng(4);
  auto series = datagen::GenerateSeries(datagen::Family::kYahoo, 512, 0, rng);
  KDSEL_CHECK(series.ok());
  for (auto _ : state) {
    auto scores = (*detector)->Score(*series);
    benchmark::DoNotOptimize(scores);
  }
  state.SetLabel(name);
}
BENCHMARK(BM_DetectorScore)->DenseRange(0, 11)->Unit(benchmark::kMillisecond);

void BM_SimHashSignature(benchmark::State& state) {
  lsh::SimHash hasher(64, 14, 5);
  Rng rng(5);
  std::vector<float> x(64);
  for (float& v : x) v = static_cast<float>(rng.Normal());
  for (auto _ : state) {
    benchmark::DoNotOptimize(hasher.Signature(x));
  }
}
BENCHMARK(BM_SimHashSignature);

void BM_TextEncode(benchmark::State& state) {
  text::HashedTextEncoder encoder;
  const std::string text =
      "This is a time series from dataset ECG, a standard "
      "electrocardiogram dataset. The length of the series is 1024. "
      "There are 3 anomalies in this series. The lengths of the "
      "anomalies are 40, 55, 61.";
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Encode(text));
  }
}
BENCHMARK(BM_TextEncode);

void BM_FeatureExtraction(benchmark::State& state) {
  Rng rng(6);
  std::vector<float> window(64);
  for (float& v : window) v = static_cast<float>(rng.Normal());
  for (auto _ : state) {
    benchmark::DoNotOptimize(features::ExtractFeatures(window));
  }
}
BENCHMARK(BM_FeatureExtraction);

void BM_GenerateSeries(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    auto series =
        datagen::GenerateSeries(datagen::Family::kMgab, 1024, 0, rng);
    benchmark::DoNotOptimize(series);
  }
}
BENCHMARK(BM_GenerateSeries);

// --- `--report` mode: machine-readable parallel-path measurements ---

// Best-of-`reps` wall time of `iters` calls to `fn`, per call. Best-of
// (not mean) suppresses scheduler noise on shared CI runners.
double TimePerCall(size_t reps, size_t iters, const std::function<void()>& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (size_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < iters; ++i) fn();
    const double per_call =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count() /
        static_cast<double>(iters);
    best = std::min(best, per_call);
  }
  return best;
}

// Writes the live metrics registry as METRICS_<name>.json next to the
// bench report (same $KDSEL_BENCH_REPORT_DIR convention), so CI can
// schema-check instrumentation coverage with
// tools/check_metrics_snapshot.py.
int WriteMetricsSnapshot(const char* name) {
  const char* dir = std::getenv("KDSEL_BENCH_REPORT_DIR");
  std::string path = (dir != nullptr && dir[0] != '\0') ? dir : ".";
  path += std::string("/METRICS_") + name + ".json";
  std::ofstream out(path, std::ios::trunc);
  out << obs::MetricsRegistry::Global().SnapshotJson() << "\n";
  out.flush();
  if (!out.good()) {
    std::fprintf(stderr, "[bench_micro] metrics snapshot write failed: %s\n",
                 path.c_str());
    return 1;
  }
  std::fprintf(stderr, "[bench_micro] wrote %s\n", path.c_str());
  return 0;
}

int RunReportMode() {
  // Shared inputs, built once so every thread count times identical work.
  Rng rng(21);
  const size_t n = 192;
  nn::Tensor ma({n, n}), mb({n, n});
  for (float& v : ma.mutable_data()) v = static_cast<float>(rng.Normal());
  for (float& v : mb.mutable_data()) v = static_cast<float>(rng.Normal());

  nn::Conv1d conv(16, 16, 5, rng);
  nn::Tensor cx({32, 16, 64}), cg({32, 16, 64});
  for (float& v : cx.mutable_data()) v = static_cast<float>(rng.Normal());
  for (float& v : cg.mutable_data()) v = static_cast<float>(rng.Normal());

  const auto models = tsad::BuildDefaultModelSet(11);
  std::vector<ts::TimeSeries> series;
  for (size_t i = 0; i < 6; ++i) {
    auto s = datagen::GenerateSeries(datagen::Family::kYahoo, 512, i, rng);
    KDSEL_CHECK(s.ok());
    series.push_back(std::move(s).value());
  }
  std::vector<const ts::TimeSeries*> series_ptrs;
  for (const auto& s : series) series_ptrs.push_back(&s);

  bench::BenchReport report("micro");
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    ThreadPool::ResetGlobalForTesting(threads);
    std::fprintf(stderr, "[bench_micro] measuring at %zu threads\n", threads);

    {
      bench::BenchEntry e;
      e.name = "detector_matrix";
      e.threads = threads;
      e.items = static_cast<double>(series.size() * models.size());
      e.items_unit = "pairs";
      e.wall_seconds = TimePerCall(2, 1, [&] {
        auto matrix = core::EvaluatePerformanceMatrix(models, series_ptrs);
        KDSEL_CHECK(matrix.ok());
      });
      report.Add(std::move(e));
    }
    {
      bench::BenchEntry e;
      e.name = "conv1d_forward";
      e.threads = threads;
      e.items = 32.0;
      e.items_unit = "batch rows";
      e.wall_seconds =
          TimePerCall(3, 20, [&] { (void)conv.Forward(cx, true); });
      report.Add(std::move(e));
    }
    {
      bench::BenchEntry e;
      e.name = "conv1d_backward";
      e.threads = threads;
      e.items = 32.0;
      e.items_unit = "batch rows";
      (void)conv.Forward(cx, true);
      e.wall_seconds = TimePerCall(3, 10, [&] { (void)conv.Backward(cg); });
      report.Add(std::move(e));
    }
    {
      bench::BenchEntry e;
      e.name = "matmul_192";
      e.threads = threads;
      e.items = static_cast<double>(n * n * n);
      e.items_unit = "multiply-adds";
      e.wall_seconds = TimePerCall(3, 10, [&] {
        benchmark::DoNotOptimize(nn::MatMul(ma, mb));
      });
      report.Add(std::move(e));
    }
  }
  ThreadPool::ResetGlobalForTesting(0);  // back to the KDSEL_THREADS size

  report.ComputeSpeedups();
  auto path = report.Write();
  if (!path.ok()) {
    std::fprintf(stderr, "[bench_micro] report write failed: %s\n",
                 path.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "[bench_micro] wrote %s\n", path->c_str());
  for (const auto& e : report.entries()) {
    std::fprintf(stderr,
                 "[bench_micro] %-16s %zu threads  %10.6fs  speedup %.2fx\n",
                 e.name.c_str(), e.threads, e.wall_seconds, e.speedup_vs_1t);
  }
  return WriteMetricsSnapshot("micro");
}

int RunKernelsReportMode() {
  // Identical inputs for every variant and thread count: the comparison
  // is pure kernel code, not data.
  Rng rng(22);
  const size_t n = 256;
  nn::Tensor ma({n, n}), mb({n, n});
  for (float& v : ma.mutable_data()) v = static_cast<float>(rng.Normal());
  for (float& v : mb.mutable_data()) v = static_cast<float>(rng.Normal());

  nn::Conv1d conv(16, 16, 5, rng);
  nn::Tensor cx({32, 16, 64});
  for (float& v : cx.mutable_data()) v = static_cast<float>(rng.Normal());

  // End-to-end selector forward: ConvNet encoder + linear head over a
  // [64, 64] window batch.
  Rng srng(23);
  auto backbone = selectors::BuildBackbone("ConvNet", 64, srng);
  KDSEL_CHECK(backbone.ok());
  nn::Linear classifier((*backbone)->feature_dim(), 12, srng);
  nn::Tensor wx({64, 64});
  for (float& v : wx.mutable_data()) v = static_cast<float>(srng.Normal());
  auto selector_forward = [&] {
    nn::Tensor z = (*backbone)->Forward(wx, /*training=*/false);
    benchmark::DoNotOptimize(classifier.Forward(z, /*training=*/false));
  };

  bench::BenchReport report("kernels");
  // Wall time of the scalar baseline, keyed "workload:threads" — scalar
  // is always SupportedVariants().front(), so baselines land first.
  std::map<std::string, double> scalar_wall;
  // Only attributed when the baseline actually ran: operator[] would
  // default-insert 0.0 and turn a missing baseline into inf.
  auto vs_scalar = [&](bench::BenchEntry& e, const std::string& key) {
    const auto it = scalar_wall.find(key);
    if (it != scalar_wall.end() && e.wall_seconds > 0.0) {
      e.metrics["speedup_vs_scalar"] = it->second / e.wall_seconds;
    }
  };
  for (nn::kernels::Variant variant : nn::kernels::SupportedVariants()) {
    nn::kernels::ResetDispatchForTesting(variant);
    const std::string tag = nn::kernels::VariantName(variant);
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      ThreadPool::ResetGlobalForTesting(threads);
      std::fprintf(stderr, "[bench_micro] kernels: %s at %zu threads\n",
                   tag.c_str(), threads);
      {
        bench::BenchEntry e;
        e.name = "matmul_256:" + tag;
        e.threads = threads;
        e.items = static_cast<double>(n * n * n);
        e.items_unit = "multiply-adds";
        e.wall_seconds = TimePerCall(3, 5, [&] {
          benchmark::DoNotOptimize(nn::MatMul(ma, mb));
        });
        const std::string key = "matmul:" + std::to_string(threads);
        if (variant == nn::kernels::Variant::kScalar) {
          scalar_wall[key] = e.wall_seconds;
        }
        vs_scalar(e, key);
        report.Add(std::move(e));
      }
      {
        bench::BenchEntry e;
        e.name = "conv1d_forward:" + tag;
        e.threads = threads;
        e.items = 32.0;
        e.items_unit = "batch rows";
        e.wall_seconds =
            TimePerCall(3, 20, [&] { (void)conv.Forward(cx, true); });
        const std::string key = "conv:" + std::to_string(threads);
        if (variant == nn::kernels::Variant::kScalar) {
          scalar_wall[key] = e.wall_seconds;
        }
        vs_scalar(e, key);
        report.Add(std::move(e));
      }
      if (threads == 1) {
        // End-to-end selector forward, single-thread: the serving-side
        // view of the kernels.
        bench::BenchEntry e;
        e.name = "selector_forward_fp32:" + tag;
        e.threads = threads;
        e.items = 64.0;
        e.items_unit = "windows";
        e.wall_seconds = TimePerCall(3, 10, selector_forward);
        report.Add(std::move(e));
      }
    }
  }
  ThreadPool::ResetGlobalForTesting(0);
  nn::kernels::ResetDispatchForTesting();

  report.ComputeSpeedups();
  auto path = report.Write();
  if (!path.ok()) {
    std::fprintf(stderr, "[bench_micro] report write failed: %s\n",
                 path.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "[bench_micro] wrote %s\n", path->c_str());
  for (const auto& e : report.entries()) {
    const auto vs_s = e.metrics.find("speedup_vs_scalar");
    std::fprintf(stderr,
                 "[bench_micro] %-28s %zu threads  %10.6fs  "
                 "vs-scalar %.2fx  vs-1t %.2fx\n",
                 e.name.c_str(), e.threads, e.wall_seconds,
                 vs_s != e.metrics.end() ? vs_s->second : 0.0,
                 e.speedup_vs_1t);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // KDSEL_TRACE=<path> records the whole bench run as a chrome trace.
  kdsel::obs::InitTracingFromEnv();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--report-kernels") == 0) {
      return RunKernelsReportMode();
    }
    if (std::strcmp(argv[i], "--report") == 0) return RunReportMode();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
