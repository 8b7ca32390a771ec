#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>
#include <utility>

namespace kdsel::obs {

namespace {

/// fetch_add for atomic<double> (no native RMW before C++20 on all
/// stdlibs; a CAS loop is portable and uncontended enough for stats).
void AtomicAdd(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value < current && !target.compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value > current && !target.compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

/// Formats a double as JSON (finite shortest-ish form; non-finite
/// values have no JSON spelling and collapse to 0).
void AppendNumber(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "0";
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out += buffer;
}

/// Metric names are restricted identifiers, but escape defensively so
/// the snapshot is valid JSON no matter what gets registered.
void AppendQuoted(std::string& out, const std::string& text) {
  out += '"';
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buffer;
    } else {
      out += c;
    }
  }
  out += '"';
}

/// `kdsel.<layer>.<name>` -> `kdsel_<layer>_<name>`: the Prometheus
/// exposition format allows only [a-zA-Z0-9_:] in metric names, and the
/// documented contract maps every other byte to '_'.
std::string PrometheusName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

Histogram::Histogram() : min_(std::numeric_limits<double>::infinity()) {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

size_t Histogram::BucketIndex(double value) {
  if (value < 1.0) return 0;
  // 4 buckets per octave: index = floor(4 * log2(v)) + 1.
  const double idx = 4.0 * std::log2(value);
  const size_t bucket = static_cast<size_t>(idx) + 1;
  return bucket >= kBuckets ? kBuckets - 1 : bucket;
}

double Histogram::BucketLowerBound(size_t index) {
  if (index == 0) return 0.0;
  return std::exp2(static_cast<double>(index - 1) / 4.0);
}

void Histogram::Record(double value) {
  if (!(value >= 0.0)) value = 0.0;  // Also catches NaN.
  // Register as in flight, then re-check the generation (both seq_cst,
  // mirroring Reset()'s bump-then-wait): either Reset() sees this record
  // and waits for it, or this record sees the odd generation and backs
  // off until the wipe is over. So no record straddles a wipe.
  for (;;) {
    in_flight_.fetch_add(1, std::memory_order_seq_cst);
    if ((reset_seq_.load(std::memory_order_seq_cst) & 1) == 0) break;
    in_flight_.fetch_sub(1, std::memory_order_seq_cst);
    while (reset_seq_.load(std::memory_order_seq_cst) & 1) {
      std::this_thread::yield();
    }
  }
  // Range and sum first, then count, then bucket (all seq_cst): a reader
  // that sees the bucket tick (Snapshot reads buckets first) also sees
  // this sample's count, min and max.
  AtomicAdd(sum_, value);
  AtomicMin(min_, value);
  AtomicMax(max_, value);
  count_.fetch_add(1, std::memory_order_seq_cst);
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_seq_cst);
  in_flight_.fetch_sub(1, std::memory_order_seq_cst);
}

Histogram::BucketSnapshot Histogram::Snapshot() const {
  for (;;) {
    const uint64_t seq_before = reset_seq_.load(std::memory_order_seq_cst);
    if (seq_before & 1) continue;  // A wipe is in progress; retry.

    BucketSnapshot snapshot;
    snapshot.samples = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      snapshot.counts[i] = buckets_[i].load(std::memory_order_seq_cst);
      snapshot.samples += snapshot.counts[i];
    }
    snapshot.count = count_.load(std::memory_order_seq_cst);
    snapshot.sum = sum_.load(std::memory_order_seq_cst);
    snapshot.min = min_.load(std::memory_order_seq_cst);
    snapshot.max = max_.load(std::memory_order_seq_cst);
    if (reset_seq_.load(std::memory_order_seq_cst) != seq_before) {
      continue;  // A reset overlapped the snapshot; retry.
    }
    return snapshot;
  }
}

double Histogram::PercentileFrom(const BucketSnapshot& snapshot, double q) {
  if (snapshot.samples == 0) return 0.0;
  const uint64_t target = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(snapshot.samples)));
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += snapshot.counts[i];
    if (seen >= target && snapshot.counts[i] > 0) {
      // Geometric midpoint of the bucket, clamped to observed range.
      const double lo = BucketLowerBound(i);
      const double hi = BucketLowerBound(i + 1);
      const double mid = std::sqrt(std::max(lo, 0.5) * hi);
      return std::min(std::max(mid, snapshot.min), snapshot.max);
    }
  }
  return snapshot.max;
}

Histogram::Summary Histogram::Summarize() const {
  const BucketSnapshot snapshot = Snapshot();
  Summary s;
  s.samples = snapshot.samples;
  s.count = snapshot.count;
  if (snapshot.samples == 0) return s;
  s.min = snapshot.min;
  s.max = snapshot.max;
  // The sum may already hold a sample whose bucket tick the snapshot
  // missed; the true mean of the population lies in [min, max].
  s.mean = std::clamp(snapshot.sum / static_cast<double>(snapshot.samples),
                      s.min, s.max);
  s.p50 = PercentileFrom(snapshot, 0.50);
  s.p95 = PercentileFrom(snapshot, 0.95);
  s.p99 = PercentileFrom(snapshot, 0.99);
  s.p999 = PercentileFrom(snapshot, 0.999);
  return s;
}

double Histogram::Percentile(double q) const {
  return PercentileFrom(Snapshot(), q);
}

uint64_t Histogram::SampleCount() const { return Snapshot().samples; }

void Histogram::Reset() {
  std::lock_guard<std::mutex> lock(reset_mu_);
  reset_seq_.fetch_add(1, std::memory_order_seq_cst);  // -> odd: wiping
  // New records now back off; wait out the ones already publishing.
  while (in_flight_.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
  count_.store(0, std::memory_order_seq_cst);
  for (auto& b : buckets_) b.store(0, std::memory_order_seq_cst);
  sum_.store(0.0, std::memory_order_seq_cst);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_seq_cst);
  max_.store(0.0, std::memory_order_seq_cst);
  reset_seq_.fetch_add(1, std::memory_order_seq_cst);  // -> even: stable
}

MetricsRegistry& MetricsRegistry::Global() {
  // Immortal by design (see header): worker threads and thread-local
  // cache destructors may still record during static teardown, so the
  // registry must never be destroyed. The one object is reachable
  // through this static pointer, so LeakSanitizer does not flag it.
  static MetricsRegistry* registry =
      new MetricsRegistry();  // kdsel-lint: allow(naked-new)
  return *registry;
}

template <typename T>
T& MetricsRegistry::GetOrCreateLocked(
    std::map<std::string, std::unique_ptr<T>>& slot, const std::string& name)
    KDSEL_REQUIRES(mu_) {
  auto it = slot.find(name);
  if (it == slot.end()) {
    it = slot.emplace(name, std::make_unique<T>()).first;
  }
  return *it->second;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetOrCreateLocked(counters_, name);
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetOrCreateLocked(gauges_, name);
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetOrCreateLocked(histograms_, name);
}

std::string MetricsRegistry::SnapshotJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out += ',';
    first = false;
    AppendQuoted(out, name);
    out += ':';
    out += std::to_string(counter->Value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out += ',';
    first = false;
    AppendQuoted(out, name);
    out += ':';
    AppendNumber(out, gauge->Value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!first) out += ',';
    first = false;
    AppendQuoted(out, name);
    const Histogram::Summary s = histogram->Summarize();
    out += ":{\"count\":" + std::to_string(s.count);
    out += ",\"samples\":" + std::to_string(s.samples);
    out += ",\"min\":";
    AppendNumber(out, s.min);
    out += ",\"max\":";
    AppendNumber(out, s.max);
    out += ",\"mean\":";
    AppendNumber(out, s.mean);
    out += ",\"p50\":";
    AppendNumber(out, s.p50);
    out += ",\"p95\":";
    AppendNumber(out, s.p95);
    out += ",\"p99\":";
    AppendNumber(out, s.p99);
    out += ",\"p999\":";
    AppendNumber(out, s.p999);
    out += '}';
  }
  out += "}}";
  return out;
}

std::string MetricsRegistry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  auto append_number = [&](double value) {
    AppendNumber(out, value);
    out += '\n';
  };
  for (const auto& [name, counter] : counters_) {
    const std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " counter\n";
    out += prom + " " + std::to_string(counter->Value()) + "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    const std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " ";
    append_number(gauge->Value());
  }
  for (const auto& [name, histogram] : histograms_) {
    const std::string prom = PrometheusName(name);
    const Histogram::Summary s = histogram->Summarize();
    out += "# TYPE " + prom + " summary\n";
    const std::pair<const char*, double> quantiles[] = {
        {"0.5", s.p50}, {"0.95", s.p95}, {"0.99", s.p99}, {"0.999", s.p999}};
    for (const auto& [label, value] : quantiles) {
      out += prom + "{quantile=\"" + label + "\"} ";
      append_number(value);
    }
    out += prom + "_sum ";
    append_number(s.mean * static_cast<double>(s.samples));
    out += prom + "_count " + std::to_string(s.count) + "\n";
  }
  return out;
}

void MetricsRegistry::ResetValuesForTesting() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace kdsel::obs
