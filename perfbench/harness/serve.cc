// Workloads serve_hot and serve_unique: open-loop select traffic over TCP
// against the shipped `kdsel serve --listen` binary, with every reply
// checked against the offline Predict + VoteSeriesSelection on the same
// saved selector.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "core/selection.h"
#include "datagen/families.h"
#include "harness/layers.h"
#include "harness/loadgen.h"
#include "harness/pipeline.h"
#include "harness/workloads.h"
#include "serve/protocol.h"
#include "ts/window.h"

extern char** environ;

namespace perfbench {

namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Fixed workload constants, chosen by measuring this commit on a 4-core
// x86-64 container (see perfbench/README.md). They are never calibrated
// at run time.

struct Mix {
  size_t points;        ///< Values per request.
  size_t hot_pool;      ///< Distinct series cycled through; 0 = all distinct.
  double nominal_rps;   ///< Rate of the latency and CPU measurement.
  std::vector<double> ladder_rps;  ///< Ascending; gives max_rate_rps.
  /// Latency limit of a ladder rung. Set well above what host stalls
  /// cause (tens of ms) and below what a saturated rung reaches within
  /// its 1.5 s (hundreds of ms), so a rung fails on saturation only.
  double p99_limit_ms;
};

const Mix kHot{/*points=*/256, /*hot_pool=*/4, /*nominal_rps=*/4000,
               /*ladder_rps=*/{4000, 8000, 16000}, /*p99_limit_ms=*/200.0};
const Mix kUnique{/*points=*/1024, /*hot_pool=*/0, /*nominal_rps=*/300,
                  /*ladder_rps=*/{400, 800, 2400}, /*p99_limit_ms=*/250.0};

constexpr size_t kWindow = 64;
constexpr int kSetupRepeats = 3;
// Training-only repeats after the load phases. One training takes ~0.5 s,
// so a host stall can cover a whole one; train_s is the median of these
// and the set-up trainings, taken ~30 s apart.
constexpr int kRetrainRepeats = 9;
constexpr size_t kMaxBatch = 8;
constexpr int kMaxDelayUs = 1000;
constexpr size_t kShards = 1;

// Share of --seconds spent on each phase: warm-up, the nominal-rate
// measurement, and each ladder rung.
constexpr double kWarmupShare = 0.06;
constexpr double kNominalShare = 0.68;
constexpr double kRungShare = 0.06;

// A rung is invalid (never counted as met) when the generator ran late
// or could not write its requests. Lateness already counts into every
// latency (timed from the due time); the bound only flags a generator
// that stalled long enough to change the offered load.
constexpr double kMaxLagMs = 50.0;
constexpr size_t kMaxUnsent = 64;
constexpr double kDrainTimeoutS = 2.0;

// Before the warm-up, one burst of requests due at once forms full
// micro-batches on every worker, so the workers' workspace pools reach
// their steady size first; peak_rss_mb would otherwise depend on the
// largest batch the nominal step happened to form.
constexpr double kFillRequests = 16 * kMaxBatch;
constexpr double kFillRps = 1e6;

// The serving selector: a ConvNet over 64-point windows, trained by the
// same label -> train pipeline as train_pa on a small benchmark. The
// selector is part of the served configuration, so its training data has
// a fixed seed; --seed drives the request traffic.
PipelineConfig SelectorConfig() {
  PipelineConfig c;
  c.series_per_family = 2;
  c.min_length = 256;
  c.max_length = 320;
  c.data_seed = 42;
  c.backbone = "ConvNet";
  c.window = kWindow;
  c.epochs = 12;
  c.batch_size = 32;
  return c;
}

// ---------------------------------------------------------------------------
// Request bodies.

/// Pre-formatted series values: request bodies are slices of `text`, so
/// the generator only copies bytes while it runs.
struct FormattedSeries {
  std::string text;            ///< "v0,v1,...,vn-1"
  std::vector<size_t> starts;  ///< Offset of each value in `text`.

  explicit FormattedSeries(const std::vector<float>& values) {
    char buf[32];
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) text.push_back(',');
      starts.push_back(text.size());
      std::snprintf(buf, sizeof(buf), "%.5g", static_cast<double>(values[i]));
      text += buf;
    }
    starts.push_back(text.size() + 1);
  }
  /// Appends values [begin, begin + n).
  void Append(size_t begin, size_t n, std::string* out) const {
    out->append(text, starts[begin], starts[begin + n] - 1 - starts[begin]);
  }
};

constexpr char kBodyHead[] =
    "\"op\":\"select\",\"selector\":\"bench\",\"detect\":false,\"values\":[";

/// The traffic of one run. Request number k (global across steps) maps
/// to a fixed body, so the offline check can rebuild every line.
class Traffic {
 public:
  Traffic(const Mix& mix, uint64_t seed) : mix_(mix) {
    kdsel::Rng rng(seed * 7919 + 17);
    const auto& families = kdsel::datagen::AllFamilies();
    if (mix.hot_pool > 0) {
      for (size_t i = 0; i < mix.hot_pool; ++i) {
        const auto family = families[rng.Index(families.size())];
        auto s = MustOk(kdsel::datagen::GenerateSeries(family, mix.points, i, rng),
                        "datagen");
        series_.emplace_back(s.values());
      }
      pick_.resize(kPickTable);
      for (auto& p : pick_) p = rng.Index(mix.hot_pool);
    } else {
      // One long series per family; request k is the 1024-point slice of
      // family k % 16 at offset (k / 16) * kStride, so no two requests
      // share a window (the windows start at different alignments).
      for (size_t f = 0; f < families.size(); ++f) {
        auto s = MustOk(kdsel::datagen::GenerateSeries(
                            families[f], kUniqueLength, f, rng),
                        "datagen");
        series_.emplace_back(s.values());
      }
    }
  }

  /// Upper bound on request numbers this traffic can serve.
  uint64_t capacity() const {
    if (mix_.hot_pool > 0) return ~uint64_t{0};
    return ((kUniqueLength - mix_.points) / kStride) * series_.size();
  }

  void Body(uint64_t k, std::string* out) const {
    out->append(kBodyHead);
    if (mix_.hot_pool > 0) {
      series_[pick_[k % kPickTable]].Append(0, mix_.points, out);
    } else {
      const size_t f = k % series_.size();
      series_[f].Append((k / series_.size()) * kStride, mix_.points, out);
    }
    out->append("]}\n");
  }

  /// Key identifying a request's series: pool slot for hot traffic, the
  /// request number itself for unique traffic.
  uint64_t Key(uint64_t k) const {
    return mix_.hot_pool > 0 ? pick_[k % kPickTable] : k;
  }

  std::string Line(uint64_t k) const {
    std::string line = "{\"id\":" + std::to_string(k) + ",";
    Body(k, &line);
    line.pop_back();  // '\n'
    return line;
  }

 private:
  static constexpr size_t kPickTable = 1 << 16;
  static constexpr size_t kStride = 7;
  static constexpr size_t kUniqueLength = 40000;

  Mix mix_;
  std::vector<FormattedSeries> series_;
  std::vector<size_t> pick_;
};

// ---------------------------------------------------------------------------
// The server process.

class ServerProcess {
 public:
  ServerProcess(const RunConfig& rc, const std::string& selector_dir,
                size_t workers, const std::string& trace_path,
                const std::string& log_path) {
    std::vector<std::string> args = {
        rc.kdsel_bin, "serve", "--dir", selector_dir, "--preload",
        "--listen", "127.0.0.1:0", "--shards", std::to_string(kShards),
        "--workers", std::to_string(workers),
        "--max-batch", std::to_string(kMaxBatch),
        "--max-delay-us", std::to_string(kMaxDelayUs)};
    std::vector<std::string> env;
    for (char** e = environ; *e != nullptr; ++e) {
      const std::string kv = *e;
      if (kv.rfind("KDSEL_THREADS=", 0) == 0 ||
          kv.rfind("KDSEL_TRACE=", 0) == 0) {
        continue;
      }
      env.push_back(kv);
    }
    env.push_back("KDSEL_THREADS=1");
    if (!trace_path.empty()) env.push_back("KDSEL_TRACE=" + trace_path);

    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    std::vector<char*> envp;
    for (auto& e : env) envp.push_back(e.data());
    envp.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const int rc_spawn = posix_spawn(&pid_, args[0].c_str(), &actions, nullptr,
                                     argv.data(), envp.data());
    posix_spawn_file_actions_destroy(&actions);
    if (rc_spawn != 0) Die("cannot start " + rc.kdsel_bin);
    SetChildProcess(pid_);

    // The server logs "port N" once it listens on the ephemeral port.
    const double deadline = NowS() + 60.0;
    while (port_ == 0) {
      std::ifstream in(log_path);
      std::string text((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
      const size_t at = text.find(" port ");
      if (at != std::string::npos) {
        port_ = static_cast<uint16_t>(std::strtoul(text.c_str() + at + 6,
                                                   nullptr, 10));
      }
      int status = 0;
      if (port_ == 0 && waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        SetChildProcess(-1);
        Die("kdsel serve exited during start-up:\n" + text);
      }
      if (port_ == 0 && NowS() > deadline) Die("kdsel serve did not start");
      if (port_ == 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// SIGTERM (the server drains and writes its trace), then waits; a
  /// server that does not exit within 20 s is killed.
  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    const double deadline = NowS() + 20.0;
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (NowS() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    SetChildProcess(-1);
  }

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

// ---------------------------------------------------------------------------
// Ops snapshot.

struct OpsView {
  double batches = 0, batched_requests = 0, rows_total = 0, rows_unique = 0;
  std::map<std::string, double> p50_us;  ///< Histogram name -> p50.
  double e2e_p99_us = 0;
};

OpsView ScrapeOps(uint16_t port) {
  const std::string reply =
      RoundTrip(port, "{\"op\":\"ops\",\"id\":1,\"view\":\"snapshot\"}");
  const Json doc = MustOk(Json::Parse(reply), "ops reply");
  OpsView v;
  const Json* stats = doc.Find("stats");
  const Json* batching = stats ? stats->Find("batching") : nullptr;
  if (batching == nullptr) Die("ops snapshot without stats.batching");
  v.batches = batching->GetNumber("batches", 0);
  v.batched_requests = batching->GetNumber("batched_requests", 0);
  v.rows_total = batching->GetNumber("rows_total", 0);
  v.rows_unique = batching->GetNumber("rows_unique", 0);
  const Json* metrics = doc.Find("metrics");
  const Json* hists = metrics ? metrics->Find("histograms") : nullptr;
  if (hists == nullptr) Die("ops snapshot without metrics.histograms");
  for (const auto& [name, h] : hists->members()) {
    v.p50_us[name] = h.GetNumber("p50", 0);
    if (name == "kdsel.net.e2e") v.e2e_p99_us = h.GetNumber("p99", 0);
  }
  return v;
}

// ---------------------------------------------------------------------------

struct Step {
  std::string phase;
  StepResult r;
  uint64_t first = 0;  ///< Global number of the step's first request.
  double p50_ms = 0, p99_ms = 0;
  bool valid = true;
  bool met = false;
};

Json StepJson(const Step& s) {
  Json j = Json::Object();
  auto num = [&](const char* k, double v) {
    j.Set(k, Json::Number(std::isfinite(v) ? v : -1.0));
  };
  j.Set("phase", Json::Str(s.phase));
  num("rate_rps", s.r.rate);
  num("duration_s", s.r.duration_s);
  num("sent", static_cast<double>(s.r.sent));
  num("ok", static_cast<double>(s.r.ok));
  num("error_replies", static_cast<double>(s.r.error_replies));
  num("missing", static_cast<double>(s.r.missing));
  num("out_of_order", static_cast<double>(s.r.out_of_order));
  num("p50_ms", s.p50_ms);
  num("p99_ms", s.p99_ms);
  num("gen_lag_p99_ms", s.r.lag_p99_ms);
  num("gen_busy_share", s.r.busy_share);
  num("max_unsent", static_cast<double>(s.r.max_unsent));
  num("max_inflight", static_cast<double>(s.r.max_inflight));
  num("drain_ms", s.r.drain_ms);
  // Per-second p50/p99 of the step (by due time): shows whether a bad
  // tail came from one burst or from the whole step.
  Json p50s = Json::Array();
  Json p99s = Json::Array();
  const size_t per_second = static_cast<size_t>(s.r.rate);
  for (size_t begin = 0; begin < s.r.latency_ms.size(); begin += per_second) {
    const size_t end = std::min(s.r.latency_ms.size(), begin + per_second);
    std::vector<double> window(s.r.latency_ms.begin() + begin,
                               s.r.latency_ms.begin() + end);
    const double p50 = Quantile(window, 0.5);
    const double p99 = Quantile(window, 0.99);
    p50s.Append(Json::Number(std::isfinite(p50) ? p50 : -1.0));
    p99s.Append(Json::Number(std::isfinite(p99) ? p99 : -1.0));
  }
  j.Set("p50_ms_per_second", p50s);
  j.Set("p99_ms_per_second", p99s);
  j.Set("valid", Json::Bool(s.valid));
  j.Set("met", Json::Bool(s.met));
  return j;
}

class ServeRun {
 public:
  ServeRun(const RunConfig& rc, SpanLog* log)
      : rc_(rc),
        log_(log),
        mix_(rc.workload == "serve_hot" ? kHot : kUnique),
        workers_(rc.nproc > 3 ? rc.nproc - 2 : 1),
        connections_(std::min<size_t>(4, rc.nproc)),
        selector_dir_(rc.out_dir + "/selectors") {}

  Result Run();

 private:
  void Setup();
  void Retrain();
  Step RunStep(LoadGenerator* gen, const char* phase, double rate,
               double seconds);
  void CheckReplies();
  void AddServerLayers(const OpsView& before, const OpsView& after,
                       const Step& nominal);

  const RunConfig& rc_;
  SpanLog* log_;
  Mix mix_;
  size_t workers_;
  size_t connections_;
  std::string selector_dir_;
  Result result_;
  std::unique_ptr<Traffic> traffic_;
  std::unique_ptr<ServerProcess> server_;
  PipelineInputs inputs_;  ///< The last set-up's, kept for Retrain().
  PipelineResult pipeline_;
  std::vector<double> train_s_;
  std::vector<Step> steps_;
  uint64_t next_request_ = 0;
};

void ServeRun::Setup() {
  const PipelineConfig config = SelectorConfig();
  std::vector<double> setup_s, label_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (server_) server_->Stop();
    server_.reset();
    Timed timed(log_, "perfbench.setup");
    PipelineInputs inputs = MakeInputs(config, log_);
    PipelineResult run;
    Label(inputs, log_, &run);
    RunSerial([&] {
      TrainAndEvaluate(config, inputs, log_, /*trace_training=*/rc_.trace,
                       &run);
    });
    MustOk(kdsel::core::SelectorManager(selector_dir_).Save(*run.selector,
                                                            "bench"),
           "save selector");
    {
      Timed gen(log_, "datagen.request_pool");
      traffic_ = std::make_unique<Traffic>(mix_, rc_.seed);
    }
    server_ = std::make_unique<ServerProcess>(
        rc_, selector_dir_, workers_, "", rc_.out_dir + "/server.log");
    setup_s.push_back(timed.Stop());
    label_s.push_back(run.label_s);
    train_s_.push_back(run.train_s);
    if (i == kSetupRepeats - 1) {
      if (rc_.trace) {
        PairwiseLabel pairwise = LabelPairwise(inputs, log_);
        if (pairwise.matrix != run.matrix) {
          result_.CheckFailed("pair-by-pair label matrix differs");
        }
        AddLabelLayers(pairwise, kdsel::ParallelThreads(), &result_);
        AddTrainingLayers(run, &result_);
        result_.Layer("datagen.generate_s", inputs.generate_s, "s");
        result_.Layer("exp.evaluate_s", run.evaluate_s, "s");
        result_.program_events.push_back(ChromeEvents(run.train_events, 1));
      }
      pipeline_ = std::move(run);
      inputs_ = std::move(inputs);
    }
  }
  result_.E2e("setup_s", Median(setup_s), "s");
  result_.E2e("label_s", Median(label_s), "s");
  result_.E2e("auc_pr", pipeline_.auc.at("Average"), "ratio");
}

void ServeRun::Retrain() {
  const PipelineConfig config = SelectorConfig();
  for (int i = 0; i < kRetrainRepeats; ++i) {
    PipelineResult run;
    run.matrix = pipeline_.matrix;
    RunSerial([&] {
      TrainAndEvaluate(config, inputs_, log_, /*trace_training=*/false, &run);
    });
    // Training at one thread from a fixed seed is deterministic.
    if (run.auc != pipeline_.auc) {
      result_.CheckFailed("retrained selector's auc_pr differs");
    }
    train_s_.push_back(run.train_s);
  }
  Json samples = Json::Array();
  for (double t : train_s_) samples.Append(Json::Number(t));
  result_.detail.Set("train_s_samples", samples);
  result_.E2e("train_s", Median(train_s_), "s");
}

Step ServeRun::RunStep(LoadGenerator* gen, const char* phase, double rate,
                       double seconds) {
  Step s;
  s.phase = phase;
  s.first = next_request_;
  const Traffic& traffic = *traffic_;
  const uint64_t first = s.first;
  if (first + static_cast<uint64_t>(rate * seconds) > traffic.capacity()) {
    Die("request pool too small for the schedule");
  }
  Timed timed(log_, std::string("loadgen.") + phase);
  s.r = gen->RunStep(rate, seconds, kDrainTimeoutS, first,
                     [&](uint64_t i, std::string* out) {
                       traffic.Body(first + i, out);
                     });
  next_request_ += s.r.sent;
  s.p50_ms = Quantile(s.r.latency_ms, 0.5);
  s.p99_ms = Quantile(s.r.latency_ms, 0.99);
  s.valid = s.r.lag_p99_ms <= kMaxLagMs && s.r.max_unsent <= kMaxUnsent;
  s.met = s.valid && s.p99_ms <= mix_.p99_limit_ms && s.r.ok == s.r.sent &&
          s.r.out_of_order == 0 && s.r.drain_ms <= mix_.p99_limit_ms;
  std::fprintf(stderr,
               "[perfbench] %-8s %8.0f req/s  sent %7llu ok %7llu  p50 %8.3f "
               "p99 %8.3f ms  lag99 %.3f ms  unsent<=%zu inflight<=%zu "
               "drain %.2f ms  busy %.2f  %s%s\n",
               phase, rate, static_cast<unsigned long long>(s.r.sent),
               static_cast<unsigned long long>(s.r.ok), s.p50_ms, s.p99_ms,
               s.r.lag_p99_ms, s.r.max_unsent, s.r.max_inflight, s.r.drain_ms,
               s.r.busy_share, s.valid ? "valid" : "INVALID",
               s.met ? " met" : "");
  return s;
}

void ServeRun::CheckReplies() {
  // Expected selections from the saved selector, computed offline with
  // the request text the server received.
  Timed timed(log_, "perfbench.offline_check");
  auto selector = MustOk(kdsel::core::SelectorManager(selector_dir_).Load("bench"),
                         "load selector");
  struct Item {
    uint64_t key;
    uint64_t request;
  };
  std::map<uint64_t, uint64_t> keys;  // key -> a request number with it.
  for (const Step& s : steps_) {
    for (uint64_t i = 0; i < s.r.sent; ++i) {
      if (s.r.model_id[i] >= 0) keys.emplace(traffic_->Key(s.first + i), s.first + i);
    }
  }
  std::vector<Item> items;
  for (const auto& [key, request] : keys) items.push_back({key, request});

  const size_t shards = std::max<size_t>(1, kdsel::ParallelThreads());
  std::vector<std::unique_ptr<kdsel::core::TrainedSelector>> clones;
  for (size_t i = 0; i < shards; ++i) {
    clones.push_back(MustOk(selector->Clone(), "clone selector"));
  }
  std::vector<int> expected(items.size(), -1);
  const size_t per = (items.size() + shards - 1) / shards;
  kdsel::ParallelFor(shards, 1, [&](size_t begin, size_t end) {
    for (size_t shard = begin; shard < end; ++shard) {
      const auto& sel = *clones[shard];
      kdsel::ts::WindowOptions wo;
      wo.length = sel.input_length();
      wo.stride = wo.length;
      const size_t lo = shard * per;
      const size_t hi = std::min(items.size(), lo + per);
      for (size_t i = lo; i < hi; ++i) {
        auto request = kdsel::serve::ParseRequestLine(traffic_->Line(items[i].request));
        if (!request.ok()) continue;
        auto windows = kdsel::ts::ExtractWindows(request->series, 0, wo);
        if (!windows.ok()) continue;
        std::vector<std::vector<float>> rows;
        for (auto& w : *windows) rows.push_back(std::move(w.values));
        auto predicted = sel.Predict(rows);
        if (!predicted.ok()) continue;
        auto vote = kdsel::core::VoteSeriesSelection(*predicted,
                                                     kdsel::tsad::CanonicalModelNames().size());
        if (vote.ok()) expected[i] = vote->model;
      }
    }
  });
  std::map<uint64_t, int> expected_by_key;
  for (size_t i = 0; i < items.size(); ++i) expected_by_key[items[i].key] = expected[i];

  uint64_t mismatches = 0;
  uint64_t checked = 0;
  for (const Step& s : steps_) {
    for (uint64_t i = 0; i < s.r.sent; ++i) {
      if (s.r.model_id[i] < 0) continue;
      ++checked;
      if (expected_by_key[traffic_->Key(s.first + i)] != s.r.model_id[i]) {
        ++mismatches;
      }
    }
    if (s.r.out_of_order > 0) {
      result_.CheckFailed(s.phase + ": replies out of order or unmatched");
    }
  }
  if (mismatches > 0) {
    result_.CheckFailed(std::to_string(mismatches) + " of " +
                        std::to_string(checked) +
                        " replies differ from the offline selection");
  }
  result_.failed += mismatches;
  result_.detail.Set("replies_checked", Json::Number(static_cast<double>(checked)));
  result_.detail.Set("distinct_series_checked",
                     Json::Number(static_cast<double>(items.size())));
}

void ServeRun::AddServerLayers(const OpsView& before, const OpsView& after,
                               const Step& nominal) {
  auto p50 = [&](const char* name) {
    auto it = after.p50_us.find(name);
    return it == after.p50_us.end() ? 0.0 : it->second;
  };
  result_.Layer("net.stage.queue_p50_us", p50("kdsel.net.stage.queue"), "us");
  result_.Layer("net.stage.batch_wait_p50_us",
                p50("kdsel.net.stage.batch_wait"), "us");
  result_.Layer("net.stage.compute_p50_us", p50("kdsel.net.stage.compute"),
                "us");
  result_.Layer("net.stage.write_p50_us", p50("kdsel.net.stage.write"), "us");
  result_.Layer("net.e2e_p99_us", after.e2e_p99_us, "us");
  const double batches = after.batches - before.batches;
  const double requests = after.batched_requests - before.batched_requests;
  const double rows = after.rows_total - before.rows_total;
  const double unique = after.rows_unique - before.rows_unique;
  result_.Layer("serve.mean_batch", batches > 0 ? requests / batches : 0.0,
                "count");
  result_.Layer("serve.coalesce_ratio", unique > 0 ? rows / unique : 0.0,
                "ratio");
  result_.detail.Set("hit_share",
                     Json::Number(rows > 0 ? 1.0 - unique / rows : 0.0));
  result_.detail.Set("unique_rows_per_batch",
                     Json::Number(batches > 0 ? unique / batches : 0.0));
  result_.Layer("gen.lag_p99_ms", nominal.r.lag_p99_ms, "ms");
  result_.Layer("gen.busy_share", nominal.r.busy_share, "ratio");
  result_.Layer("obs.hist_p99_rel_err", HistogramP99RelErr(nominal.r.latency_ms),
                "ratio");
}

Result ServeRun::Run() {
  fs::create_directories(selector_dir_);
  Setup();
  const pid_t pid = server_->pid();

  OpsView before, after;
  Step nominal;
  {
    auto gen = std::make_unique<LoadGenerator>(server_->port(), connections_);
    steps_.push_back(
        RunStep(gen.get(), "fill", kFillRps, kFillRequests / kFillRps));
    steps_.push_back(RunStep(gen.get(), "warmup", mix_.nominal_rps,
                             rc_.seconds * kWarmupShare));
    before = ScrapeOps(server_->port());
    const double cpu0 = CpuSeconds(pid);
    nominal = RunStep(gen.get(), "nominal", mix_.nominal_rps,
                      rc_.seconds * kNominalShare);
    const double cpu = CpuSeconds(pid) - cpu0;
    after = ScrapeOps(server_->port());
    // Peak memory through warm-up and the nominal step; the ladder's top
    // rung overloads the server on purpose and would set it otherwise.
    result_.E2e("peak_rss_mb", PeakRssMb(pid), "MB");
    steps_.push_back(nominal);
    result_.attempted += nominal.r.sent;
    result_.failed += nominal.r.sent - nominal.r.ok;
    result_.E2e("select_p50_ms", nominal.p50_ms, "ms");
    result_.E2e("select_p99_ms", nominal.p99_ms, "ms");
    result_.E2e("cpu_us_per_req",
                cpu * 1e6 / static_cast<double>(std::max<uint64_t>(1, nominal.r.ok)),
                "us");
    if (!nominal.valid) {
      std::fprintf(stderr, "[perfbench] nominal step INVALID (generator lag)\n");
    }

    double max_rate = 0.0;
    if (!rc_.trace) {
      for (double rate : mix_.ladder_rps) {
        // A rung with lost replies leaves requests queued on the
        // connections; start the next rung on fresh ones.
        if (steps_.back().r.missing > 0) {
          gen = std::make_unique<LoadGenerator>(server_->port(), connections_);
        }
        steps_.push_back(RunStep(gen.get(), "ladder", rate,
                                 rc_.seconds * kRungShare));
        if (!steps_.back().met) break;
        max_rate = rate;
      }
      result_.E2e("max_rate_rps", max_rate, "req/s");
    }
  }
  result_.detail.Set("server_peak_rss_after_ladder_mb",
                     Json::Number(PeakRssMb(pid)));
  server_->Stop();
  Retrain();

  Json& prov = result_.provenance;
  prov.Set("server_workers", Json::Number(static_cast<double>(workers_)));
  prov.Set("server_shards", Json::Number(static_cast<double>(kShards)));
  prov.Set("server_max_batch", Json::Number(static_cast<double>(kMaxBatch)));
  prov.Set("server_max_delay_us", Json::Number(kMaxDelayUs));
  prov.Set("server_kdsel_threads", Json::Number(1));
  prov.Set("generator_threads", Json::Number(1));
  prov.Set("connections", Json::Number(static_cast<double>(connections_)));
  prov.Set("points_per_request", Json::Number(static_cast<double>(mix_.points)));
  prov.Set("hot_pool", Json::Number(static_cast<double>(mix_.hot_pool)));
  prov.Set("nominal_rps", Json::Number(mix_.nominal_rps));
  prov.Set("p99_limit_ms", Json::Number(mix_.p99_limit_ms));
  Json ladder = Json::Array();
  for (double r : mix_.ladder_rps) ladder.Append(Json::Number(r));
  prov.Set("ladder_rps", ladder);

  if (rc_.trace) {
    AddServerLayers(before, after, nominal);
    // Tracing overhead: the nominal step again on a server recording its
    // KDSEL_SPAN spans.
    const std::string trace_path = rc_.out_dir + "/server_trace.json";
    {
      ServerProcess traced(rc_, selector_dir_, workers_, trace_path,
                           rc_.out_dir + "/server_traced.log");
      LoadGenerator gen(traced.port(), connections_);
      steps_.push_back(RunStep(&gen, "warmup", mix_.nominal_rps,
                               rc_.seconds * kWarmupShare));
      steps_.push_back(RunStep(&gen, "traced", mix_.nominal_rps,
                               rc_.seconds * kNominalShare));
      traced.Stop();
    }
    const Step& traced_step = steps_.back();
    result_.attempted += traced_step.r.sent;
    result_.failed += traced_step.r.sent - traced_step.r.ok;
    result_.Layer("trace.overhead_share",
                  (traced_step.p50_ms - nominal.p50_ms) / nominal.p50_ms,
                  "ratio");
    std::ifstream in(trace_path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    auto doc = Json::Parse(text);
    if (doc.ok()) {
      if (const Json* events = doc->Find("traceEvents")) {
        std::string array = events->Dump();
        // The server is process 2 in the combined span file.
        for (size_t at = 0; (at = array.find("\"pid\":1", at)) != std::string::npos;) {
          array.replace(at, 7, "\"pid\":2");
        }
        result_.program_events.push_back(std::move(array));
      }
    }
  }
  CheckReplies();
  Json steps = Json::Array();
  for (const Step& s : steps_) steps.Append(StepJson(s));
  result_.detail.Set("steps", steps);

  if (rc_.trace) {
    // Offline timings at the server's thread count.
    std::vector<std::string> lines;
    for (uint64_t k = 0; k < 256; ++k) lines.push_back(traffic_->Line(nominal.first + k));
    const double batch_rows =
        result_.detail.GetNumber("unique_rows_per_batch", 1.0);
    auto selector = MustOk(kdsel::core::SelectorManager(selector_dir_).Load("bench"),
                           "load selector");
    RunSerial([&] {
      TimeServingLayers(*selector, lines, batch_rows, log_, &result_);
    });
  }
  return std::move(result_);
}

}  // namespace

Result RunServe(const RunConfig& rc, SpanLog* log) {
  ServeRun run(rc, log);
  return run.Run();
}

}  // namespace perfbench
