#include "harness/common.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/parallel.h"

namespace perfbench {

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      rank < 1.0 ? 0 : std::min(values.size(), static_cast<size_t>(rank)) - 1;
  return values[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {
pid_t g_child = -1;
}  // namespace

void SetChildProcess(pid_t pid) { g_child = pid; }

void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::fflush(stderr);
  if (g_child > 0) {
    kill(g_child, SIGKILL);
    waitpid(g_child, nullptr, 0);
  }
  std::exit(1);
}

void RunSerial(const std::function<void()>& fn) {
  kdsel::ParallelFor(1, 1, [&](size_t, size_t) { fn(); });
}

void MustOk(const kdsel::Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

namespace {

std::string ProcPath(pid_t pid, const char* leaf) {
  return pid == 0 ? std::string("/proc/self/") + leaf
                  : "/proc/" + std::to_string(pid) + "/" + leaf;
}

}  // namespace

double PeakRssMb(pid_t pid) {
  std::ifstream in(ProcPath(pid, "status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double CpuSeconds(pid_t pid) {
  std::ifstream in(ProcPath(pid, "stat"));
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  double utime = 0.0;
  double stime = 0.0;
  for (int i = 3; rest >> field; ++i) {
    if (i == 14) utime = std::strtod(field.c_str(), nullptr);
    if (i == 15) {
      stime = std::strtod(field.c_str(), nullptr);
      break;
    }
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

size_t SpanLog::Begin(const std::string& name) {
  Span span;
  span.name = name;
  span.start_ns = NowNs();
  span.parent = open_.empty() ? -1 : static_cast<long>(open_.back());
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::End(size_t id) {
  spans_[id].end_ns = NowNs();
  auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it, open_.end());
}

Timed::Timed(SpanLog* log, const std::string& name)
    : log_(log), id_(log->Begin(name)), start_(NowS()) {}

double Timed::Stop() {
  if (seconds_ < 0.0) {
    seconds_ = NowS() - start_;
    log_->End(id_);
  }
  return seconds_;
}

void Result::CheckFailed(const std::string& what) {
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  if (check_failures.size() < 32) check_failures.push_back(what);
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string ChromeEvents(const std::vector<kdsel::obs::TraceEvent>& events,
                         int pid) {
  std::string out = "[";
  char line[256];
  for (size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    std::snprintf(line, sizeof(line),
                  "%s{\"name\":\"%s\",\"cat\":\"kdsel\",\"ph\":\"X\","
                  "\"pid\":%d,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f}",
                  i == 0 ? "" : ",", e.name, pid, e.tid,
                  static_cast<double>(e.start_ns) / 1e3,
                  static_cast<double>(e.dur_ns) / 1e3);
    out += line;
  }
  out += "]";
  return out;
}

void WriteSpanFile(const std::string& path, const SpanLog& log,
                   const std::vector<std::string>& program_event_arrays) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  bool first = true;
  // Benchmark spans go on their own pseudo-process so the viewer shows
  // them above the program's threads.
  for (const SpanLog::Span& s : log.spans()) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":" << Json::Str(s.name).Dump()
        << ",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":"
        << FormatNumber(static_cast<double>(s.start_ns) / 1000.0)
        << ",\"dur\":"
        << FormatNumber(static_cast<double>(s.end_ns - s.start_ns) / 1000.0)
        << "}";
  }
  for (const std::string& events : program_event_arrays) {
    // Each array is "[...]" of chrome events; splice its members.
    if (events.size() <= 2) continue;
    if (!first) out << ",";
    first = false;
    out << events.substr(1, events.size() - 2);
  }
  out << "]}\n";
}

std::map<std::string, double> SelfTimesMs(const SpanLog& log) {
  const auto& spans = log.spans();
  std::vector<double> child(spans.size(), 0.0);
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      child[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    self[spans[i].name] += (dur - child[i]) / 1e6;
  }
  return self;
}

std::map<std::string, double> FlatSelfTimesMs(std::vector<FlatEvent> events) {
  // `parallel.chunk` is a scheduling wrapper, not a layer: it is left out
  // so layer spans nested in a chunk count as children of the span that
  // issued the parallel loop on the same thread.
  events.erase(std::remove_if(events.begin(), events.end(),
                              [](const FlatEvent& e) {
                                return e.name == "parallel.chunk";
                              }),
               events.end());
  std::sort(events.begin(), events.end(),
            [](const FlatEvent& a, const FlatEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.dur_ns > b.dur_ns;
            });
  std::vector<double> child(events.size(), 0.0);
  std::vector<size_t> stack;
  for (size_t i = 0; i < events.size(); ++i) {
    const FlatEvent& e = events[i];
    while (!stack.empty()) {
      const FlatEvent& top = events[stack.back()];
      if (top.tid == e.tid && e.start_ns < top.start_ns + top.dur_ns) break;
      stack.pop_back();
    }
    if (!stack.empty()) child[stack.back()] += static_cast<double>(e.dur_ns);
    stack.push_back(i);
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < events.size(); ++i) {
    self[events[i].name] +=
        (static_cast<double>(events[i].dur_ns) - child[i]) / 1e6;
  }
  return self;
}

}  // namespace perfbench
