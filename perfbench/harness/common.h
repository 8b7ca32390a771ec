// Shared pieces of the benchmark harness: timing, exact percentiles,
// process accounting, the benchmark's own span log, and the result
// record that main() prints.

#ifndef KDSEL_PERFBENCH_COMMON_H_
#define KDSEL_PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "serve/json.h"

namespace perfbench {

using kdsel::serve::Json;

/// Monotonic seconds / nanoseconds (steady clock).
double NowS();
uint64_t NowNs();

/// Exact nearest-rank quantile of `values` (q in (0, 1]): the smallest
/// value with at least q*n values at or below it. Sorts a copy.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Prints a message to stderr and exits non-zero without a result line,
/// killing and reaping the child registered with SetChildProcess first.
[[noreturn]] void Die(const std::string& message);

/// The one child process (the server under test) that Die must stop;
/// -1 when none is running.
void SetChildProcess(pid_t pid);

/// Runs `fn` on the calling thread with every ParallelFor inside it run
/// inline, one chunk after another: a single-chunk ParallelFor is
/// executed inline and marks its thread as inside a parallel region,
/// where nested loops do not fan out. Used for the fine-grained phases
/// (training, selection) that are timed at one thread.
void RunSerial(const std::function<void()>& fn);

/// Aborts the run when a program call fails: a failed set-up step leaves
/// nothing valid to measure.
template <typename T>
T MustOk(kdsel::StatusOr<T> value, const char* what) {
  if (!value.ok()) Die(std::string(what) + ": " + value.status().ToString());
  return std::move(value).value();
}
void MustOk(const kdsel::Status& status, const char* what);

/// /proc accounting of a live process (pid 0 = this process).
double PeakRssMb(pid_t pid);        ///< VmHWM.
double CpuSeconds(pid_t pid);       ///< utime + stime.

/// Spans recorded by the benchmark around its calls into each layer.
/// Kept in memory and written with the program's own KDSEL_SPAN events
/// when the run ends.
class SpanLog {
 public:
  /// Opens a span whose parent is the innermost open span.
  size_t Begin(const std::string& name);
  void End(size_t id);

  struct Span {
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    long parent = -1;
  };
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// RAII helper: a span plus the elapsed seconds, for timed calls.
class Timed {
 public:
  Timed(SpanLog* log, const std::string& name);
  ~Timed() { Stop(); }
  double Stop();  ///< Closes the span (once) and returns seconds.
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  SpanLog* log_;
  size_t id_;
  double start_;
  double seconds_ = -1.0;
};

/// What one run reports: metrics by name, per-layer self times, outcome
/// counts, and the provenance of the numbers.
struct Result {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> check_failures;
  Json provenance = Json::Object();
  Json detail = Json::Object();  ///< Per-step tables, validity flags.
  /// Chrome-trace event arrays of the program's own KDSEL_SPAN spans.
  std::vector<std::string> program_events;

  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
  /// Records a failed output check; the run reports correct=false.
  void CheckFailed(const std::string& what);
};

/// Command-line settings shared by every workload.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;     ///< Where spans and the record are written.
  std::string kdsel_bin;   ///< The `kdsel` binary under test.
  size_t nproc = 1;
};

/// Merges the benchmark spans with the program's KDSEL_SPAN events
/// (`program_events_json`: a chrome-trace event array, possibly empty)
/// into one chrome://tracing file.
void WriteSpanFile(const std::string& path, const SpanLog& log,
                   const std::vector<std::string>& program_event_arrays);

/// Self time per span name (duration minus the part covered by direct
/// children), in ms, for the benchmark's own spans.
std::map<std::string, double> SelfTimesMs(const SpanLog& log);

/// Self time per span name for flat per-thread program events given as
/// (name, tid, start_ns, dur_ns) tuples: children are the events of the
/// same thread nested inside a span.
struct FlatEvent {
  std::string name;
  uint32_t tid = 0;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
};
std::map<std::string, double> FlatSelfTimesMs(std::vector<FlatEvent> events);

std::string FormatNumber(double v);

/// Renders obs trace events as a chrome-trace event array under `pid`.
std::string ChromeEvents(const std::vector<kdsel::obs::TraceEvent>& events,
                         int pid);

}  // namespace perfbench

#endif  // KDSEL_PERFBENCH_COMMON_H_
