// Workload train_pa: the paper's label -> train -> evaluate job at the
// exp "quick" scale, run in-process. The label phase fans its (series,
// detector) pairs over KDSEL_THREADS = nproc; training, evaluation and
// selection run at one thread (see RunSerial and perfbench/README.md).

#include <cmath>
#include <cstring>

#include "common/parallel.h"
#include "core/selection.h"
#include "harness/layers.h"
#include "harness/pipeline.h"
#include "harness/workloads.h"

namespace perfbench {

namespace {

// Set-up here is only datagen (milliseconds), so it is repeated more often
// than the serving set-up to give a steady median.
constexpr int kSetupRepeats = 9;

// The offline selection loop that gives train_pa its select_* metrics
// runs for this share of --seconds.
constexpr double kSelectShare = 0.2;

PipelineConfig QuickScale(uint64_t seed) {
  PipelineConfig c;
  c.series_per_family = 6;  // exp quick scale: 16 families x 6 series,
  c.min_length = 512;       // lengths 512..1024, 12 epochs of 64.
  c.max_length = 1024;
  c.data_seed = seed;
  c.backbone = "ResNet";
  c.window = 64;
  c.epochs = 12;
  c.batch_size = 64;
  return c;
}

/// Selects a model for each test series in turn, repeatedly, timing
/// every core::SelectSeriesModel call: the Evaluate step's selection,
/// closed loop and without transport.
void OfflineSelectLoop(const PipelineConfig& config, const PipelineResult& run,
                       size_t num_models, double seconds, SpanLog* log,
                       Result* result, std::vector<double>* latencies_ms) {
  kdsel::ts::WindowOptions wo;
  wo.length = config.window;
  wo.stride = config.window;
  Timed timed(log, "perfbench.offline_select_loop");
  const double cpu0 = CpuSeconds(0);
  const double end = NowS() + seconds;
  size_t i = 0;
  while (NowS() < end || latencies_ms->size() < run.test_series.size()) {
    const auto& s = run.test_series[i++ % run.test_series.size()];
    const double t0 = NowS();
    auto sel = kdsel::core::SelectSeriesModel(*run.selector, s, wo, num_models);
    latencies_ms->push_back((NowS() - t0) * 1e3);
    ++result->attempted;
    if (!sel.ok()) ++result->failed;
  }
  const double wall = timed.Stop();
  const double n = static_cast<double>(latencies_ms->size());
  result->E2e("select_p50_ms", Quantile(*latencies_ms, 0.5), "ms");
  result->E2e("select_p99_ms", Quantile(*latencies_ms, 0.99), "ms");
  result->E2e("max_rate_rps", n / wall, "req/s");
  result->E2e("cpu_us_per_req", (CpuSeconds(0) - cpu0) * 1e6 / n, "us");
}

}  // namespace

Result RunTrainPa(const RunConfig& rc, SpanLog* log) {
  Result result;
  const PipelineConfig config = QuickScale(rc.seed);

  std::vector<double> setup_s;
  PipelineInputs inputs;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = NowS();
    inputs = MakeInputs(config, log);
    setup_s.push_back(NowS() - t0);
  }
  result.E2e("setup_s", Median(setup_s), "s");

  PipelineResult run;
  Label(inputs, log, &run);
  RunSerial([&] {
    TrainAndEvaluate(config, inputs, log, /*trace_training=*/false, &run);
  });
  result.attempted += 1;  // The job itself.

  const double auc = run.auc.at("Average");
  if (!(auc >= 0.0 && auc <= 1.0)) {
    result.CheckFailed("auc_pr outside [0, 1]");
  }
  if (run.stats.samples_visited >= run.stats.full_dataset_visits) {
    result.CheckFailed("PA visited every sample (no pruning)");
  }
  result.E2e("label_s", run.label_s, "s");
  result.E2e("train_s", run.train_s, "s");
  result.E2e("auc_pr", auc, "ratio");

  std::vector<double> latencies_ms;
  RunSerial([&] {
    OfflineSelectLoop(config, run, inputs.models.size(),
                      rc.seconds * kSelectShare, log, &result, &latencies_ms);
  });
  result.E2e("peak_rss_mb", PeakRssMb(0), "MB");

  Json& prov = result.provenance;
  prov.Set("label_threads",
           Json::Number(static_cast<double>(kdsel::ParallelThreads())));
  prov.Set("train_select_threads", Json::Number(1));
  prov.Set("series", Json::Number(static_cast<double>(inputs.series.size())));
  prov.Set("samples_visited",
           Json::Number(static_cast<double>(run.stats.samples_visited)));
  prov.Set("full_dataset_visits",
           Json::Number(static_cast<double>(run.stats.full_dataset_visits)));
  prov.Set("select_samples",
           Json::Number(static_cast<double>(latencies_ms.size())));
  size_t invalid_pairs = 0;
  for (size_t f : run.detector_failures) invalid_pairs += f;
  prov.Set("label_invalid_argument_pairs",
           Json::Number(static_cast<double>(invalid_pairs)));

  if (!rc.trace) return result;

  // Traced part: the label matrix pair by pair, and training again with
  // the program's spans on; the difference to the untraced phases above
  // is the tracing overhead.
  PairwiseLabel pairwise = LabelPairwise(inputs, log);
  if (pairwise.matrix != run.matrix) {
    // std::vector<float> equality compares values; check bit patterns so
    // -0.0/0.0 or NaN differences cannot hide.
    result.CheckFailed("pair-by-pair label matrix != EvaluatePerformanceMatrix");
  } else {
    for (size_t i = 0; i < run.matrix.size(); ++i) {
      if (std::memcmp(run.matrix[i].data(), pairwise.matrix[i].data(),
                      run.matrix[i].size() * sizeof(float)) != 0) {
        result.CheckFailed("label matrix differs bitwise");
        break;
      }
    }
  }
  result.attempted += 1;
  AddLabelLayers(pairwise, kdsel::ParallelThreads(), &result);

  PipelineResult traced;
  traced.matrix = run.matrix;
  RunSerial([&] {
    TrainAndEvaluate(config, inputs, log, /*trace_training=*/true, &traced);
  });
  if (traced.auc.at("Average") != auc ||
      traced.stats.samples_visited != run.stats.samples_visited) {
    result.CheckFailed("traced training differs from the untraced run");
  }
  AddTrainingLayers(traced, &result);
  result.Layer("datagen.generate_s", inputs.generate_s, "s");
  result.Layer("exp.evaluate_s", run.evaluate_s, "s");
  result.Layer("trace.overhead_share",
               (traced.train_s - run.train_s) / run.train_s, "ratio");
  result.Layer("obs.hist_p99_rel_err", HistogramP99RelErr(latencies_ms),
               "ratio");

  std::vector<std::string> lines;
  for (size_t i = 0; i < run.test_series.size(); ++i) {
    lines.push_back(
        SelectLine(static_cast<int64_t>(i), run.test_series[i].values()));
  }
  double windows = 0.0;
  for (const auto& s : run.test_series) {
    windows += std::ceil(static_cast<double>(s.length()) /
                         static_cast<double>(config.window));
  }
  RunSerial([&] {
    TimeServingLayers(*run.selector, lines,
                      windows / static_cast<double>(run.test_series.size()),
                      log, &result);
  });
  AddNoServerLayers(&result);
  result.program_events.push_back(ChromeEvents(traced.train_events, 1));
  return result;
}

}  // namespace perfbench
