#include "harness/pipeline.h"

#include <algorithm>

#include "common/parallel.h"
#include "core/pipeline.h"
#include "core/selection.h"
#include "datagen/benchmark.h"
#include "metrics/range_metrics.h"
#include "obs/metrics.h"

namespace perfbench {

namespace core = kdsel::core;
namespace ts = kdsel::ts;

namespace {

// exp::BenchmarkEnvironment's split: train half pooled over every
// dataset; all families except Dodgers and Occupancy are test datasets.
constexpr double kTrainFraction = 0.5;
constexpr uint64_t kSplitSalt = 0x5eed;

bool IsTestDataset(const std::string& name) {
  return name != "Dodgers" && name != "Occupancy";
}

}  // namespace

PipelineInputs MakeInputs(const PipelineConfig& config, SpanLog* log) {
  PipelineInputs inputs;
  Timed timed(log, "datagen.GenerateBenchmark");
  kdsel::datagen::BenchmarkOptions bo;
  bo.series_per_family = config.series_per_family;
  bo.min_length = config.min_length;
  bo.max_length = config.max_length;
  bo.seed = config.data_seed;
  inputs.datasets = MustOk(kdsel::datagen::GenerateBenchmark(bo), "datagen");
  inputs.generate_s = timed.Stop();
  inputs.models = kdsel::tsad::BuildDefaultModelSet(config.model_seed);
  for (const auto& ds : inputs.datasets) {
    for (const auto& s : ds.series) inputs.series.push_back(&s);
  }
  return inputs;
}

void Label(const PipelineInputs& inputs, SpanLog* log, PipelineResult* out) {
  Timed timed(log, "core.EvaluatePerformanceMatrix");
  out->matrix = MustOk(
      core::EvaluatePerformanceMatrix(inputs.models, inputs.series,
                                      kdsel::metrics::Metric::kAucPr,
                                      &out->detector_failures),
      "label");
  out->label_s = timed.Stop();
}

void TrainAndEvaluate(const PipelineConfig& config,
                      const PipelineInputs& inputs, SpanLog* log,
                      bool trace_training, PipelineResult* out) {
  PipelineResult& result = *out;

  std::map<std::string, const std::vector<float>*> perf_by_name;
  for (size_t i = 0; i < inputs.series.size(); ++i) {
    perf_by_name[inputs.series[i]->name()] = &result.matrix[i];
  }
  auto perf_of = [&](const ts::TimeSeries& s) {
    auto it = perf_by_name.find(s.name());
    if (it == perf_by_name.end()) Die("no label row for " + s.name());
    return *it->second;
  };

  std::vector<ts::TimeSeries> train_series;
  std::vector<std::vector<float>> train_perf;
  std::vector<std::pair<std::string, std::vector<ts::TimeSeries>>> test_sets;
  for (const auto& ds : inputs.datasets) {
    auto split =
        ts::SplitSeries(ds, kTrainFraction, config.data_seed ^ kSplitSalt);
    for (auto& s : split.train) {
      train_perf.push_back(perf_of(s));
      train_series.push_back(std::move(s));
    }
    if (IsTestDataset(ds.name)) test_sets.emplace_back(ds.name, split.test);
  }

  ts::WindowOptions wo;
  wo.length = config.window;
  wo.stride = config.window;
  wo.z_normalize = true;

  core::TrainerOptions opts;
  opts.backbone = config.backbone;
  opts.epochs = config.epochs;
  opts.batch_size = config.batch_size;
  opts.seed = 1;
  opts.use_pisl = true;
  opts.use_mki = true;
  opts.pruning.mode = core::PruningMode::kPa;
  opts.pruning.prune_ratio = 0.8;
  opts.pruning.lsh_bits = 14;
  opts.pruning.num_bins = 8;
  opts.pruning.seed = 1 * 131 + 7;
  {
    Timed timed(log, "core.train");
    core::SelectorTrainingData data;
    {
      Timed build(log, "core.BuildSelectorTrainingData");
      data = MustOk(core::BuildSelectorTrainingData(train_series, train_perf, wo),
                    "training data");
    }
    {
      result.train_before = TrainingCounters::Read();
      if (trace_training) kdsel::obs::StartTracing();
      Timed train(log, "core.TrainSelector");
      result.selector =
          MustOk(core::TrainSelector(data, opts, &result.stats), "train");
      train.Stop();
      if (trace_training) {
        kdsel::obs::StopTracing();
        result.train_events = kdsel::obs::CollectTraceEvents();
        result.train_dropped = kdsel::obs::DroppedTraceEvents();
      }
      result.train_after = TrainingCounters::Read();
    }
    result.train_s = timed.Stop();
  }

  {
    Timed timed(log, "exp.evaluate");
    double sum = 0.0;
    for (const auto& [name, series] : test_sets) {
      double dataset_sum = 0.0;
      for (const auto& s : series) {
        auto sel = MustOk(core::SelectSeriesModel(*result.selector, s, wo,
                                                  inputs.models.size()),
                          "select");
        dataset_sum += perf_of(s)[static_cast<size_t>(sel.model)];
        result.test_series.push_back(s);
      }
      const double mean =
          series.empty() ? 0.0 : dataset_sum / static_cast<double>(series.size());
      result.auc[name] = mean;
      sum += mean;
    }
    result.auc["Average"] =
        test_sets.empty() ? 0.0 : sum / static_cast<double>(test_sets.size());
    result.evaluate_s = timed.Stop();
  }
}

PairwiseLabel LabelPairwise(const PipelineInputs& inputs, SpanLog* log) {
  const size_t num_series = inputs.series.size();
  const size_t num_models = inputs.models.size();
  struct Slot {
    float value = 0.0f;
    double score_s = 0.0;
    double metric_s = 0.0;
    bool bad = false;
    std::string error;
  };
  std::vector<Slot> slots(num_series * num_models);
  Timed timed(log, "perfbench.label_pairwise");
  kdsel::ParallelFor(slots.size(), 1, [&](size_t begin, size_t end) {
    for (size_t pair = begin; pair < end; ++pair) {
      const ts::TimeSeries& s = *inputs.series[pair / num_models];
      const auto& model = inputs.models[pair % num_models];
      Slot& slot = slots[pair];
      const double t0 = NowS();
      auto scores = model->Score(s);
      const double t1 = NowS();
      slot.score_s = t1 - t0;
      if (!scores.ok()) {
        if (scores.status().code() != kdsel::StatusCode::kInvalidArgument) {
          slot.bad = true;
          slot.error = scores.status().ToString();
        }
        continue;
      }
      auto value = kdsel::metrics::EvaluateMetric(
          kdsel::metrics::Metric::kAucPr, *scores, s.labels());
      slot.metric_s = NowS() - t1;
      if (!value.ok()) {
        slot.bad = true;
        slot.error = value.status().ToString();
        continue;
      }
      slot.value = static_cast<float>(*value);
    }
  });
  PairwiseLabel out;
  out.wall_s = timed.Stop();
  out.matrix.assign(num_series, std::vector<float>(num_models, 0.0f));
  for (size_t pair = 0; pair < slots.size(); ++pair) {
    const Slot& slot = slots[pair];
    if (slot.bad) Die("pairwise label failed: " + slot.error);
    out.matrix[pair / num_models][pair % num_models] = slot.value;
    out.score_s[inputs.models[pair % num_models]->name()] += slot.score_s;
    out.metric_s += slot.metric_s;
  }
  return out;
}

TrainingCounters TrainingCounters::Read() {
  auto& registry = kdsel::obs::MetricsRegistry::Global();
  TrainingCounters c;
  const auto epoch = registry.GetHistogram("kdsel.trainer.epoch_us").Summarize();
  c.epoch_us_sum = epoch.mean * static_cast<double>(epoch.count);
  c.epoch_count = static_cast<double>(epoch.count);
  const auto plan = registry.GetHistogram("kdsel.pruning.plan_us").Summarize();
  c.plan_us_sum = plan.mean * static_cast<double>(plan.count);
  c.plan_count = static_cast<double>(plan.count);
  c.pool_hits = static_cast<double>(
      registry.GetCounter("kdsel.nn.workspace.pool_hits").Value());
  c.pool_misses = static_cast<double>(
      registry.GetCounter("kdsel.nn.workspace.pool_misses").Value());
  return c;
}

}  // namespace perfbench
