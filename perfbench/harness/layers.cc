#include "harness/layers.h"

#include <algorithm>
#include <cmath>

#include "core/selection.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "ts/window.h"

namespace perfbench {

namespace core = kdsel::core;

namespace {

// Enough repetitions of each offline call that a layer's time is well
// above clock resolution; sized so the whole block stays under ~1 s.
constexpr size_t kOfflineRequests = 256;

}  // namespace

std::string SelectLine(int64_t id, const std::vector<float>& values) {
  std::string line = "{\"id\":" + std::to_string(id) +
                     ",\"op\":\"select\",\"selector\":\"bench\","
                     "\"detect\":false,\"values\":[";
  char buf[32];
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) line.push_back(',');
    std::snprintf(buf, sizeof(buf), "%.5g", static_cast<double>(values[i]));
    line += buf;
  }
  line += "]}";
  return line;
}

void TimeServingLayers(const core::TrainedSelector& selector,
                       const std::vector<std::string>& lines,
                       double batch_rows, SpanLog* log, Result* result) {
  const size_t n = std::min(lines.size(), kOfflineRequests);
  if (n == 0) Die("no request lines to time");
  kdsel::ts::WindowOptions wo;
  wo.length = selector.input_length();
  wo.stride = wo.length;

  std::vector<kdsel::serve::WireRequest> requests(n);
  {
    Timed timed(log, "serve.ParseRequestLine");
    for (size_t i = 0; i < n; ++i) {
      requests[i] =
          MustOk(kdsel::serve::ParseRequestLine(lines[i]), "parse request");
    }
    result->Layer("serve.parse_us_per_req",
                  timed.Stop() * 1e6 / static_cast<double>(n), "us");
  }

  std::vector<std::vector<float>> windows;
  std::vector<size_t> per_request;
  {
    Timed timed(log, "ts.ExtractWindows");
    for (size_t i = 0; i < n; ++i) {
      auto extracted = MustOk(
          kdsel::ts::ExtractWindows(requests[i].series, i, wo), "windows");
      per_request.push_back(extracted.size());
      for (auto& w : extracted) windows.push_back(std::move(w.values));
    }
    result->Layer("ts.windows_us_per_req",
                  timed.Stop() * 1e6 / static_cast<double>(n), "us");
  }

  const size_t b1_windows = std::min<size_t>(windows.size(), 512);
  std::vector<int> predictions;
  {
    Timed timed(log, "nn.Predict.b1");
    for (size_t i = 0; i < b1_windows; ++i) {
      auto p = MustOk(selector.Predict({windows[i]}), "predict");
      predictions.push_back(p[0]);
    }
    result->Layer("nn.predict_us_per_window.b1",
                  timed.Stop() * 1e6 / static_cast<double>(b1_windows), "us");
  }

  const size_t batch =
      std::max<size_t>(1, static_cast<size_t>(std::lround(batch_rows)));
  std::vector<int> batched;
  {
    Timed timed(log, "nn.Predict.batch");
    for (size_t begin = 0; begin < windows.size(); begin += batch) {
      const size_t end = std::min(windows.size(), begin + batch);
      std::vector<std::vector<float>> rows(windows.begin() + begin,
                                           windows.begin() + end);
      auto p = MustOk(selector.Predict(rows), "predict");
      batched.insert(batched.end(), p.begin(), p.end());
    }
    result->Layer("nn.predict_us_per_window.batch",
                  timed.Stop() * 1e6 / static_cast<double>(windows.size()),
                  "us");
  }
  // Inference is row-independent, so batching may not change a choice.
  for (size_t i = 0; i < b1_windows; ++i) {
    if (predictions[i] != batched[i]) {
      result->CheckFailed("Predict of one window differs from the batch");
      break;
    }
  }

  {
    Timed timed(log, "core.VoteSeriesSelection");
    size_t offset = 0;
    for (size_t i = 0; i < n; ++i) {
      std::vector<int> slice(batched.begin() + offset,
                             batched.begin() + offset + per_request[i]);
      offset += per_request[i];
      MustOk(core::VoteSeriesSelection(slice, selector.num_classes()), "vote");
    }
    result->Layer("core.vote_us_per_req",
                  timed.Stop() * 1e6 / static_cast<double>(n), "us");
  }
}

void AddLabelLayers(const PairwiseLabel& pairwise, size_t threads,
                    Result* result) {
  double busy = pairwise.metric_s;
  for (const auto& [model, seconds] : pairwise.score_s) {
    result->Layer("tsad.score_s." + model, seconds, "s");
    busy += seconds;
  }
  result->Layer("metrics.auc_pr_s", pairwise.metric_s, "s");
  result->Layer("common.pool_busy_share",
                busy / (pairwise.wall_s * static_cast<double>(threads)),
                "ratio");
}

void AddTrainingLayers(const PipelineResult& run, Result* result) {
  const TrainingCounters& a = run.train_before;
  const TrainingCounters& b = run.train_after;
  const double epochs = std::max(1.0, b.epoch_count - a.epoch_count);
  const double plans = std::max(1.0, b.plan_count - a.plan_count);
  result->Layer("core.trainer.epoch_ms",
                (b.epoch_us_sum - a.epoch_us_sum) / epochs / 1000.0, "ms");
  result->Layer("core.trainer.samples_visited",
                static_cast<double>(run.stats.samples_visited), "count");
  result->Layer("core.pruning.keep_rate",
                static_cast<double>(run.stats.samples_visited) /
                    static_cast<double>(
                        std::max<size_t>(1, run.stats.full_dataset_visits)),
                "ratio");
  result->Layer("core.pruning.plan_ms",
                (b.plan_us_sum - a.plan_us_sum) / plans / 1000.0, "ms");
  const double hits = b.pool_hits - a.pool_hits;
  const double misses = b.pool_misses - a.pool_misses;
  result->Layer("nn.workspace.pool_hit_rate",
                hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");

  std::vector<FlatEvent> events;
  events.reserve(run.train_events.size());
  for (const auto& e : run.train_events) {
    events.push_back({e.name, e.tid, e.start_ns, e.dur_ns});
  }
  const auto self = FlatSelfTimesMs(std::move(events));
  auto self_of = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  result->Layer("core.mki.infonce_self_ms", self_of("mki.infonce"), "ms");
  result->Layer("nn.conv1d.forward_self_ms", self_of("nn.conv1d.forward"),
                "ms");
  result->Layer("nn.conv1d.backward_self_ms", self_of("nn.conv1d.backward"),
                "ms");
  result->Layer("nn.matmul_self_ms",
                self_of("nn.matmul") + self_of("nn.matmul_tb") +
                    self_of("nn.matmul_ta"),
                "ms");
  result->detail.Set("train_spans_dropped",
                     Json::Number(static_cast<double>(run.train_dropped)));
}

double HistogramP99RelErr(const std::vector<double>& all) {
  // Failed requests carry an infinite latency; the estimator error is
  // taken over the answered ones.
  std::vector<double> latencies;
  for (double v : all) {
    if (std::isfinite(v)) latencies.push_back(v);
  }
  if (latencies.empty()) return 0.0;
  kdsel::obs::Histogram histogram;
  for (double v : latencies) histogram.Record(v);
  const double exact = Quantile(latencies, 0.99);
  if (exact <= 0.0) return 0.0;
  return std::fabs(histogram.Percentile(0.99) - exact) / exact;
}

void AddNoServerLayers(Result* result) {
  for (const char* name :
       {"net.stage.queue_p50_us", "net.stage.batch_wait_p50_us",
        "net.stage.compute_p50_us", "net.stage.write_p50_us",
        "net.e2e_p99_us"}) {
    result->Layer(name, 0.0, "us");
  }
  result->Layer("serve.mean_batch", 0.0, "count");
  result->Layer("serve.coalesce_ratio", 0.0, "ratio");
  result->Layer("gen.lag_p99_ms", 0.0, "ms");
  result->Layer("gen.busy_share", 0.0, "ratio");
}

}  // namespace perfbench
