// Per-layer metrics shared by the workloads: offline timed calls into
// the serving-side layers, the label/training layer numbers, and the
// percentile-estimator error of obs::Histogram.

#ifndef KDSEL_PERFBENCH_LAYERS_H_
#define KDSEL_PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "core/trainer.h"
#include "harness/common.h"
#include "harness/pipeline.h"

namespace perfbench {

/// Times the serving path's layers offline on `lines` (NDJSON select
/// requests): serve::ParseRequestLine, ts::ExtractWindows,
/// TrainedSelector::Predict on one window and on `batch_rows` windows,
/// and core::VoteSeriesSelection. Fills serve.parse_us_per_req,
/// ts.windows_us_per_req, nn.predict_us_per_window.{b1,batch} and
/// core.vote_us_per_req.
void TimeServingLayers(const kdsel::core::TrainedSelector& selector,
                       const std::vector<std::string>& lines,
                       double batch_rows, SpanLog* log, Result* result);

/// tsad.score_s.<Model>, metrics.auc_pr_s and common.pool_busy_share
/// (summed pair time / (wall time x threads)) from the pair-by-pair
/// label run.
void AddLabelLayers(const PairwiseLabel& pairwise, size_t threads,
                    Result* result);

/// Training-side metrics from the registry deltas and the program spans
/// recorded around TrainSelector.
void AddTrainingLayers(const PipelineResult& run, Result* result);

/// |obs::Histogram p99 - exact p99| / exact p99 over `latencies`.
double HistogramP99RelErr(const std::vector<double>& latencies);

/// The per-layer metrics that only a served workload produces, set to 0
/// on a workload without a server so every traced run reports the full
/// list.
void AddNoServerLayers(Result* result);

/// Formats one select request line (no trailing newline).
std::string SelectLine(int64_t id, const std::vector<float>& values);

}  // namespace perfbench

#endif  // KDSEL_PERFBENCH_LAYERS_H_
