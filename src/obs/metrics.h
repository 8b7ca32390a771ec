#ifndef KDSEL_OBS_METRICS_H_
#define KDSEL_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/annotations.h"

namespace kdsel::obs {

/// Monotonically increasing event count. All operations are lock-free
/// and allocation-free, so counters are safe on any hot path.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (thread count, keep-rate, ...).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// A thread-safe value histogram over geometric buckets (the
/// generalization of the former serve::LatencyHistogram; the serving
/// layer still records microseconds into it, but the buckets are
/// unit-agnostic).
///
/// Record() is lock-free against other records (a few uncontended
/// atomic RMWs per sample plus CAS loops for min/max), so hot paths never
/// contend on a stats lock; it only waits while a Reset() wipe runs.
/// Buckets grow by 2^(1/4) per step, bounding the relative quantile
/// error at ~19% — plenty for p50/p95/p99 dashboards.
///
/// Reset() semantics vs concurrent Record()/Summarize():
///   * Reset() makes a seqlock generation odd, waits until no Record()
///     is in flight, wipes, then makes the generation even. A Record()
///     registers as in flight before it checks the generation and backs
///     off while it is odd, so no sample straddles a wipe: each lands
///     wholly before or wholly after it.
///   * Summarize() retries until it reads the same even generation on
///     both sides of its snapshot, so a summary never mixes pre- and
///     post-reset state.
///   * Record() publishes sum, min and max, then count, then its bucket
///     tick; Summarize() reads the buckets first. So a summary that
///     sees a sample also sees its count and range: `count >= samples`,
///     and `min <= max` whenever `samples > 0`. The mean is clamped to
///     [min, max], since the sum may include a sample still publishing.
///   * In quiescence `count == samples`.
class Histogram {
 public:
  Histogram();

  /// Records one sample. Negative values and NaN clamp to 0.
  void Record(double value);

  struct Summary {
    uint64_t count = 0;    ///< Authoritative sample count (>= samples).
    uint64_t samples = 0;  ///< Population visible in the buckets.
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
  };

  /// Consistent snapshot: concurrent Record() calls may or may not be
  /// included, but the summary never mixes pre- and post-reset state
  /// (see the class comment for the exact guarantees).
  Summary Summarize() const;

  /// Single-quantile snapshot (q in (0, 1]): the q-quantile of the
  /// current population under the same bucket-midpoint estimate as
  /// Summarize(), with the same never-mixes-resets guarantee. This is
  /// THE percentile implementation for the codebase -- the shedder, the
  /// stage histograms and the serving bench all read quantiles through
  /// it instead of re-deriving their own rank math. Returns 0 when the
  /// histogram is empty.
  double Percentile(double q) const;

  /// Population currently visible in the buckets (the `samples` field
  /// of Summarize(), without computing the quantiles).
  uint64_t SampleCount() const;

  void Reset();

 private:
  // 2^(1/4) growth, 128 buckets: covers [0, ~4.3e9] (in microseconds:
  // ~72 minutes).
  static constexpr size_t kBuckets = 128;

  /// One reset-consistent view of the bucket state (seqlock retry loop
  /// shared by Summarize()/Percentile()/SampleCount()).
  struct BucketSnapshot {
    std::array<uint64_t, kBuckets> counts;
    uint64_t samples = 0;
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  BucketSnapshot Snapshot() const;
  static double PercentileFrom(const BucketSnapshot& snapshot, double q);

  static size_t BucketIndex(double value);
  static double BucketLowerBound(size_t index);

  std::array<std::atomic<uint64_t>, kBuckets> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_{0.0};
  // Seqlock generation: odd while a Reset() wipe is in progress.
  std::atomic<uint64_t> reset_seq_{0};
  // Record() calls currently publishing; Reset() waits for zero.
  std::atomic<uint64_t> in_flight_{0};
  std::mutex reset_mu_;  ///< Serializes concurrent Reset() calls.
};

/// Process-global registry of named metrics.
///
/// Get*() registers on first use and returns a reference with stable
/// address for the process lifetime, so hot paths cache the handle in a
/// function-local static and pay only the atomic update per event.
/// Names follow the `kdsel.<layer>.<name>` convention (see DESIGN.md
/// "Observability").
class MetricsRegistry {
 public:
  /// The process-wide registry. Intentionally immortal: instrumented
  /// code (thread-pool workers, thread-cache destructors) may record
  /// metrics during static teardown, after function-local statics would
  /// already have been destroyed.
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// Point-in-time snapshot of every registered metric as a JSON text:
  ///   {"counters": {name: N, ...},
  ///    "gauges": {name: X, ...},
  ///    "histograms": {name: {"count":..,"samples":..,"min":..,"max":..,
  ///                          "mean":..,"p50":..,"p95":..,"p99":..,
  ///                          "p999":..}, ..}}
  /// Returned as a string (not serve::Json) so obs stays below serve in
  /// the dependency graph; the text is valid JSON and can be spliced
  /// into larger documents or parsed by serve::Json::Parse.
  std::string SnapshotJson() const;

  /// The same snapshot in the Prometheus text exposition format. Names
  /// translate mechanically from the registry convention to the metric
  /// contract `kdsel_<layer>_<name>` (every byte outside [A-Za-z0-9_]
  /// becomes '_', so `kdsel.net.stage.queue` scrapes as
  /// `kdsel_net_stage_queue`). Counters/gauges render as single
  /// samples; histograms render as summaries with quantile labels
  /// (0.5/0.95/0.99/0.999) plus `_sum`/`_count` series.
  std::string RenderPrometheus() const;

  /// Zeroes every registered counter/gauge/histogram. Handles stay
  /// valid. For tests that need a clean slate.
  void ResetValuesForTesting();

 private:
  template <typename T>
  T& GetOrCreateLocked(std::map<std::string, std::unique_ptr<T>>& slot,
                       const std::string& name) KDSEL_REQUIRES(mu_);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      KDSEL_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ KDSEL_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      KDSEL_GUARDED_BY(mu_);
};

}  // namespace kdsel::obs

#endif  // KDSEL_OBS_METRICS_H_
