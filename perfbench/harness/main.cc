// kdsel_perfbench: runs one benchmark workload and prints its result.
//
//   kdsel_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --out DIR --kdsel PATH
//
// The last line on stdout is the JSON result: every end-to-end metric
// (--trace 0) or every per-layer metric (--trace 1). DIR receives
// record.json (metrics, provenance, per-step detail) and, in traced
// runs, spans.json (chrome://tracing). Human-readable tables go to
// stderr.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/stringutil.h"
#include "harness/common.h"
#include "harness/workloads.h"
#include "nn/kernels/kernels.h"

namespace perfbench {
namespace {

RunConfig ParseArgs(int argc, char** argv) {
  RunConfig rc;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      rc.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      rc.seed = MustOk(kdsel::ParseUint64(value), "--seed");
    } else if (key == "--seconds") {
      rc.seconds = MustOk(kdsel::ParseDouble(value), "--seconds");
    } else if (key == "--trace") {
      rc.trace = value == "1";
    } else if (key == "--out") {
      rc.out_dir = value;
    } else if (key == "--kdsel") {
      rc.kdsel_bin = value;
    } else {
      Die("unknown flag " + key);
    }
  }
  if (!have_workload || rc.out_dir.empty() || rc.kdsel_bin.empty() ||
      rc.seconds <= 0.0) {
    Die("usage: kdsel_perfbench --workload NAME --seed N --seconds S "
        "--trace 0|1 --out DIR --kdsel PATH");
  }
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  rc.nproc = n > 0 ? static_cast<size_t>(n) : 1;
  return rc;
}

Json MetricsJson(const std::map<std::string, Result::Metric>& metrics) {
  Json out = Json::Object();
  for (const auto& [name, m] : metrics) {
    Json entry = Json::Object();
    entry.Set("value", Json::Number(m.value));
    entry.Set("unit", Json::Str(m.unit));
    out.Set(name, entry);
  }
  return out;
}

void PrintTable(const char* title,
                const std::map<std::string, Result::Metric>& metrics) {
  std::fprintf(stderr, "\n%s\n", title);
  for (const auto& [name, m] : metrics) {
    std::fprintf(stderr, "  %-36s %16.6g %s\n", name.c_str(), m.value,
                 m.unit.c_str());
  }
}

/// p99 lateness of 1 ms timed sleeps, in microseconds: how late this
/// machine wakes a sleeping thread. On a busy virtual machine it reaches
/// milliseconds, and every thread hop in the measured program pays it,
/// so it is recorded with each run to explain spread between runs.
double WakeLagP99Us() {
  std::vector<double> lag;
  for (int i = 0; i < 200; ++i) {
    const double due = NowS() + 1e-3;
    std::this_thread::sleep_for(std::chrono::microseconds(1000));
    lag.push_back((NowS() - due) * 1e6);
  }
  return Quantile(lag, 0.99);
}

/// Steal ticks of all CPUs from /proc/stat (time the hypervisor ran
/// something else while this machine wanted to run).
double StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double field = 0.0;
  double steal = 0.0;
  in >> cpu;
  for (int i = 1; i <= 8 && in >> field; ++i) {
    if (i == 8) steal = field;
  }
  return steal;
}

int Main(int argc, char** argv) {
  const RunConfig rc = ParseArgs(argc, argv);
  SpanLog log;
  Result result;
  const double wake_lag_before = WakeLagP99Us();
  const double steal0 = StealTicks();
  const double wall0 = NowS();
  if (rc.workload == "train_pa") {
    result = RunTrainPa(rc, &log);
  } else if (rc.workload == "serve_hot" || rc.workload == "serve_unique") {
    result = RunServe(rc, &log);
  } else {
    Die("unknown workload " + rc.workload);
  }

  result.E2e("failed_share",
             static_cast<double>(result.failed) /
                 static_cast<double>(std::max<uint64_t>(1, result.attempted)),
             "ratio");

  Json& prov = result.provenance;
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  prov.Set("host_steal_share",
           Json::Number((StealTicks() - steal0) / ticks /
                        ((NowS() - wall0) * static_cast<double>(rc.nproc))));
  prov.Set("host_wake_lag_p99_us",
           Json::Number(std::max(wake_lag_before, WakeLagP99Us())));
  prov.Set("workload", Json::Str(rc.workload));
  prov.Set("seed", Json::Number(static_cast<double>(rc.seed)));
  prov.Set("seconds", Json::Number(rc.seconds));
  prov.Set("trace", Json::Bool(rc.trace));
  prov.Set("nproc", Json::Number(static_cast<double>(rc.nproc)));
  prov.Set("simd_variant", Json::Str(kdsel::nn::kernels::Dispatch().name));
  prov.Set("harness_threads",
           Json::Number(static_cast<double>(kdsel::ParallelThreads())));

  PrintTable("end-to-end metrics", result.end_to_end);
  if (rc.trace) {
    PrintTable("per-layer metrics", result.per_layer);
    std::fprintf(stderr, "\nbenchmark span self time (ms)\n");
    for (const auto& [name, ms] : SelfTimesMs(log)) {
      std::fprintf(stderr, "  %-36s %12.3f\n", name.c_str(), ms);
    }
    WriteSpanFile(rc.out_dir + "/spans.json", log, result.program_events);
  }

  const bool correct = result.check_failures.empty() && result.failed == 0;
  Json record = Json::Object();
  record.Set("correct", Json::Bool(correct));
  record.Set("attempted", Json::Number(static_cast<double>(result.attempted)));
  record.Set("failed", Json::Number(static_cast<double>(result.failed)));
  Json checks = Json::Array();
  for (const auto& c : result.check_failures) checks.Append(Json::Str(c));
  record.Set("check_failures", checks);
  record.Set("end_to_end", MetricsJson(result.end_to_end));
  record.Set("per_layer", MetricsJson(result.per_layer));
  record.Set("provenance", prov);
  record.Set("detail", result.detail);
  std::ofstream(rc.out_dir + "/record.json") << record.Dump() << "\n";

  Json line = Json::Object();
  line.Set("correct", Json::Bool(correct));
  line.Set("attempted", Json::Number(static_cast<double>(result.attempted)));
  line.Set("failed", Json::Number(static_cast<double>(result.failed)));
  line.Set("metrics",
           MetricsJson(rc.trace ? result.per_layer : result.end_to_end));
  std::printf("%s\n", line.Dump().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
