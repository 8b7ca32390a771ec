// The paper's label -> train -> evaluate pipeline, called through the
// public core/datagen/tsad/metrics entry points with every phase timed
// from the benchmark. It follows exp::BenchmarkEnvironment's protocol
// (split, training pool, 14 test datasets) but never touches the disk
// cache, so the label phase is measured on every run.

#ifndef KDSEL_PERFBENCH_PIPELINE_H_
#define KDSEL_PERFBENCH_PIPELINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "harness/common.h"
#include "obs/trace.h"
#include "ts/dataset.h"
#include "tsad/detector.h"

namespace perfbench {

struct PipelineConfig {
  size_t series_per_family = 6;
  size_t min_length = 512;
  size_t max_length = 1024;
  uint64_t data_seed = 1;
  uint64_t model_seed = 42;  ///< Detector model set (fixed program config).
  std::string backbone = "ResNet";
  size_t window = 64;
  size_t epochs = 12;
  size_t batch_size = 64;
};

/// Inputs made before timing starts: the generated benchmark and the
/// detector model set.
struct PipelineInputs {
  std::vector<kdsel::ts::Dataset> datasets;
  std::vector<std::unique_ptr<kdsel::tsad::Detector>> models;
  std::vector<const kdsel::ts::TimeSeries*> series;  ///< All, flattened.
  double generate_s = 0.0;
};

/// Registry values read before and after training, turned into the
/// training-side per-layer metrics.
struct TrainingCounters {
  double epoch_us_sum = 0.0;
  double epoch_count = 0.0;
  double plan_us_sum = 0.0;
  double plan_count = 0.0;
  double pool_hits = 0.0;
  double pool_misses = 0.0;
  static TrainingCounters Read();
};

struct PipelineResult {
  double label_s = 0.0;
  double train_s = 0.0;
  double evaluate_s = 0.0;
  std::vector<std::vector<float>> matrix;  ///< EvaluatePerformanceMatrix.
  std::vector<size_t> detector_failures;
  kdsel::core::TrainStats stats;
  std::unique_ptr<kdsel::core::TrainedSelector> selector;
  std::map<std::string, double> auc;  ///< Per test dataset + "Average".
  std::vector<kdsel::ts::TimeSeries> test_series;  ///< All test series.
  TrainingCounters train_before;
  TrainingCounters train_after;
  /// KDSEL_SPAN events recorded during TrainSelector (traced runs only).
  std::vector<kdsel::obs::TraceEvent> train_events;
  uint64_t train_dropped = 0;
};

/// Generates the benchmark and builds the model set.
PipelineInputs MakeInputs(const PipelineConfig& config, SpanLog* log);

/// Label phase: core::EvaluatePerformanceMatrix over every series.
void Label(const PipelineInputs& inputs, SpanLog* log, PipelineResult* out);

/// Train + evaluate phases on the labels in `out`: ResNet/ConvNet with
/// PISL, MKI and PA (prune ratio 0.8), as in bench_table2_pruning, then
/// the majority-vote AUC-PR on the 14 test datasets. With
/// `trace_training` the program's own spans are recorded around
/// TrainSelector.
void TrainAndEvaluate(const PipelineConfig& config,
                      const PipelineInputs& inputs, SpanLog* log,
                      bool trace_training, PipelineResult* out);

/// The label matrix rebuilt pair by pair from public Detector::Score and
/// metrics::EvaluateMetric calls, with each call timed. Failure rules
/// match EvaluatePerformanceMatrix (InvalidArgument from Score -> 0.0).
struct PairwiseLabel {
  std::vector<std::vector<float>> matrix;
  std::map<std::string, double> score_s;  ///< Summed Score() time per model.
  double metric_s = 0.0;                  ///< Summed metric time.
  double wall_s = 0.0;
};
PairwiseLabel LabelPairwise(const PipelineInputs& inputs, SpanLog* log);


}  // namespace perfbench

#endif  // KDSEL_PERFBENCH_PIPELINE_H_
