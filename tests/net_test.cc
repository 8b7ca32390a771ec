#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/pipeline.h"
#include "core/trainer.h"
#include "net/listener.h"
#include "net/server.h"
#include "net/shedder.h"
#include "obs/metrics.h"
#include "serve/json.h"
#include "serve/registry.h"
#include "serve/server.h"

namespace kdsel::net {
namespace {

// ---------------------------------------------------------------------------
// Shedder state machine (deterministic, fake clock: time is just the
// int64 passed to Admit()).

ShedderOptions TestShedder(double slo_us) {
  ShedderOptions opts;
  opts.slo_us = slo_us;
  opts.exit_fraction = 0.5;
  opts.eval_interval_us = 1000;
  opts.min_samples = 4;
  return opts;
}

TEST(ShedderTest, DisabledShedderAdmitsEverything) {
  Shedder shedder(TestShedder(0.0));
  for (int i = 0; i < 100; ++i) shedder.RecordLatency(1e9);
  for (int64_t t = 0; t < 100000; t += 500) {
    EXPECT_TRUE(shedder.Admit(t));
  }
  EXPECT_FALSE(shedder.shedding());
  EXPECT_EQ(shedder.shed_count(), 0u);
  EXPECT_EQ(shedder.evaluations(), 0u);
}

TEST(ShedderTest, EntersSheddingWhenWindowP99ExceedsSlo) {
  Shedder shedder(TestShedder(1000.0));
  // t=0: first evaluation sees an empty window -> keep admitting.
  EXPECT_TRUE(shedder.Admit(0));
  EXPECT_FALSE(shedder.shedding());
  // A window of latencies far above the SLO (far enough that the ~19%
  // geometric-bucket quantile error cannot blur the comparison).
  for (int i = 0; i < 16; ++i) shedder.RecordLatency(10000.0);
  // Still inside the eval interval: the state cannot change yet.
  EXPECT_TRUE(shedder.Admit(500));
  // Next interval: evaluation flips to shedding, the request is refused.
  EXPECT_FALSE(shedder.Admit(1000));
  EXPECT_TRUE(shedder.shedding());
  EXPECT_EQ(shedder.shed_count(), 1u);
}

TEST(ShedderTest, MinSamplesGateStopsColdStartOutliers) {
  Shedder shedder(TestShedder(1000.0));
  EXPECT_TRUE(shedder.Admit(0));
  // Fewer than min_samples (4) slow requests: not enough evidence.
  shedder.RecordLatency(50000.0);
  shedder.RecordLatency(50000.0);
  EXPECT_TRUE(shedder.Admit(1000));
  EXPECT_FALSE(shedder.shedding());
}

TEST(ShedderTest, HysteresisHoldsBetweenExitAndEnterThresholds) {
  Shedder shedder(TestShedder(1000.0));
  EXPECT_TRUE(shedder.Admit(0));
  for (int i = 0; i < 16; ++i) shedder.RecordLatency(10000.0);
  EXPECT_FALSE(shedder.Admit(1000));  // Enter shedding.
  ASSERT_TRUE(shedder.shedding());

  // Draining backlog lands between exit (500us) and enter (1000us)
  // thresholds: the shedder must HOLD, not flap.
  for (int i = 0; i < 16; ++i) shedder.RecordLatency(700.0);
  EXPECT_FALSE(shedder.Admit(2000));
  EXPECT_TRUE(shedder.shedding());

  // Clearly below the exit threshold: recover.
  for (int i = 0; i < 16; ++i) shedder.RecordLatency(100.0);
  EXPECT_TRUE(shedder.Admit(3000));
  EXPECT_FALSE(shedder.shedding());
}

TEST(ShedderTest, EmptyWindowMeansDrainedBacklogAndRecovers) {
  Shedder shedder(TestShedder(1000.0));
  EXPECT_TRUE(shedder.Admit(0));
  for (int i = 0; i < 16; ++i) shedder.RecordLatency(10000.0);
  EXPECT_FALSE(shedder.Admit(1000));
  ASSERT_TRUE(shedder.shedding());
  // Nothing completed during the shed interval (backlog fully drained
  // before it could record): no latency evidence left, so admit again.
  EXPECT_TRUE(shedder.Admit(2000));
  EXPECT_FALSE(shedder.shedding());
}

TEST(ShedderTest, ShedCounterCountsEveryRefusal) {
  Shedder shedder(TestShedder(1000.0));
  EXPECT_TRUE(shedder.Admit(0));
  for (int i = 0; i < 16; ++i) shedder.RecordLatency(10000.0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(shedder.Admit(1000 + i));
  }
  EXPECT_EQ(shedder.shed_count(), 5u);
}

TEST(ShedderTest, WindowResetsBetweenEvaluations) {
  Shedder shedder(TestShedder(1000.0));
  EXPECT_TRUE(shedder.Admit(0));
  for (int i = 0; i < 16; ++i) shedder.RecordLatency(10000.0);
  EXPECT_FALSE(shedder.Admit(1000));  // Shedding; window reset here.
  // Old samples must not leak into the next window: with only fast
  // completions since the reset, the shedder recovers.
  for (int i = 0; i < 16; ++i) shedder.RecordLatency(50.0);
  EXPECT_TRUE(shedder.Admit(2000));
  EXPECT_FALSE(shedder.shedding());
}

// ---------------------------------------------------------------------------
// Line peek (the shed fast path's structural scan).

TEST(PeekTest, DefaultsToSelectWithoutOp) {
  const LinePeek peek =
      PeekRequestLine(R"({"id":42,"selector":"s","values":[1,2]})");
  EXPECT_TRUE(peek.is_select);
  EXPECT_EQ(peek.id, 42);
}

TEST(PeekTest, ReadsExplicitOpAndId) {
  EXPECT_TRUE(PeekRequestLine(R"({"op":"select","id":7})").is_select);
  EXPECT_FALSE(PeekRequestLine(R"({"op":"stats","id":7})").is_select);
  EXPECT_FALSE(PeekRequestLine(R"({"op":"quit"})").is_select);
  EXPECT_EQ(PeekRequestLine(R"({"op":"stats","id":7})").id, 7);
  EXPECT_EQ(PeekRequestLine(R"({"id":-3,"op":"select"})").id, -3);
  EXPECT_EQ(PeekRequestLine(R"({"op":"quit"})").id, -1);
}

TEST(PeekTest, ToleratesWhitespace) {
  const LinePeek peek =
      PeekRequestLine(R"({ "op" : "stats" , "id" : 19 })");
  EXPECT_FALSE(peek.is_select);
  EXPECT_EQ(peek.id, 19);
}

TEST(PeekTest, IgnoresNestedLookalikeKeys) {
  // "op" here is not preceded by '{' or ',' at top level-ish positions
  // (it is a value, not a key), so the default (select) holds.
  const LinePeek peek = PeekRequestLine(R"({"name":"op","id":5})");
  EXPECT_TRUE(peek.is_select);
  EXPECT_EQ(peek.id, 5);
}

// ---------------------------------------------------------------------------
// Host:port parsing.

TEST(ListenerTest, ParsesHostPort) {
  auto hp = ParseHostPort("127.0.0.1:7070");
  ASSERT_TRUE(hp.ok()) << hp.status();
  EXPECT_EQ(hp->host, "127.0.0.1");
  EXPECT_EQ(hp->port, 7070);

  hp = ParseHostPort(":0");
  ASSERT_TRUE(hp.ok()) << hp.status();
  EXPECT_EQ(hp->host, "");
  EXPECT_EQ(hp->port, 0);

  EXPECT_FALSE(ParseHostPort("nope").ok());
  EXPECT_FALSE(ParseHostPort("h:99999").ok());
  EXPECT_FALSE(ParseHostPort("h:12x").ok());
}

// ---------------------------------------------------------------------------
// Loopback integration.

/// Trains a small ConvNet selector on separable synthetic windows
/// (mirrors serve_test's helper; window length 16).
std::unique_ptr<core::TrainedSelector> TrainTinySelector(uint64_t seed = 1) {
  core::SelectorTrainingData data;
  data.num_classes = 2;
  Rng rng(seed);
  for (int i = 0; i < 60; ++i) {
    const int c = i % 2;
    std::vector<float> w(16);
    for (size_t t = 0; t < 16; ++t) {
      w[t] = std::sin((0.3 + 0.9 * c) * static_cast<double>(t)) +
             0.05f * static_cast<float>(rng.Normal());
    }
    data.windows.push_back(std::move(w));
    data.labels.push_back(c);
  }
  core::TrainerOptions opts;
  opts.backbone = "ConvNet";
  opts.epochs = 2;
  opts.seed = seed;
  auto selector = core::TrainSelector(data, opts, nullptr);
  KDSEL_CHECK(selector.ok());
  return std::move(selector).value();
}

/// Blocking loopback NDJSON client.
class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);  // kdsel-lint: allow(raw-socket)
    KDSEL_CHECK(fd_ >= 0);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    KDSEL_CHECK(connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)) == 0);
  }
  ~TestClient() {
    if (fd_ >= 0) close(fd_);
  }

  void Send(const std::string& line) { SendRaw(line + "\n"); }

  /// Writes `bytes` as they are, with no line framing added.
  void SendRaw(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = write(fd_, bytes.data() + off, bytes.size() - off);
      KDSEL_CHECK(n > 0);
      off += static_cast<size_t>(n);
    }
  }

  /// Half-closes: the server reads EOF, replies still arrive.
  void ShutdownWrite() { KDSEL_CHECK(shutdown(fd_, SHUT_WR) == 0); }

  /// Reads one '\n'-terminated line; empty optional-ish "" on EOF.
  std::string ReadLine() {
    for (;;) {
      const size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return "";  // EOF/error: tests treat as closed.
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// True when the peer closed the connection (after buffered lines).
  bool AtEof() { return ReadLine().empty(); }

 private:
  int fd_ = -1;
  std::string buffer_;
};

std::string SelectLine(int id, bool detect = false) {
  std::string line = "{\"id\":" + std::to_string(id) +
                     ",\"op\":\"select\",\"selector\":\"tiny\",\"detect\":";
  line += detect ? "true" : "false";
  line += ",\"values\":[";
  for (int t = 0; t < 16; ++t) {
    if (t > 0) line.push_back(',');
    line += std::to_string(0.1 * t);
  }
  line += "]}";
  return line;
}

struct LoopbackServer {
  explicit LoopbackServer(NetServerOptions net_opts = {},
                          serve::ServerOptions opts = {}) {
    registry = std::make_unique<serve::SelectorRegistry>(
        core::SelectorManager("/nonexistent-net-test"));
    KDSEL_CHECK(registry->Register("tiny", TrainTinySelector()).ok());
    opts.num_workers = 2;
    server = std::make_unique<serve::InferenceServer>(registry.get(), opts);
    KDSEL_CHECK(server->Start().ok());
    net_opts.listen = "127.0.0.1:0";
    net = std::make_unique<NetServer>(server.get(), net_opts);
    KDSEL_CHECK(net->Start().ok());
  }
  ~LoopbackServer() {
    net->Stop();
    server->Stop();
  }

  std::unique_ptr<serve::SelectorRegistry> registry;
  std::unique_ptr<serve::InferenceServer> server;
  std::unique_ptr<NetServer> net;
};

TEST(NetServerTest, SelectRoundTripOverLoopback) {
  LoopbackServer loopback;
  TestClient client(loopback.net->port());
  client.Send(SelectLine(7));
  auto reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->GetNumber("id", -1), 7);
  EXPECT_TRUE(reply->GetBool("ok", false));
  EXPECT_EQ(reply->GetNumber("num_windows", 0), 1);
  EXPECT_FALSE(reply->GetString("model", "").empty());
}

TEST(NetServerTest, PipelinedRepliesKeepSubmissionOrder) {
  LoopbackServer loopback;
  TestClient client(loopback.net->port());
  constexpr int kRequests = 32;
  for (int i = 0; i < kRequests; ++i) client.Send(SelectLine(1000 + i));
  for (int i = 0; i < kRequests; ++i) {
    auto reply = serve::Json::Parse(client.ReadLine());
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(reply->GetNumber("id", -1), 1000 + i);
    EXPECT_TRUE(reply->GetBool("ok", false));
  }
}

TEST(NetServerTest, ShardsServeConcurrentClients) {
  NetServerOptions net_opts;
  net_opts.shards = 2;
  LoopbackServer loopback(net_opts);
  std::vector<std::unique_ptr<TestClient>> clients;
  for (int c = 0; c < 6; ++c) {
    clients.push_back(std::make_unique<TestClient>(loopback.net->port()));
  }
  for (int c = 0; c < 6; ++c) clients[c]->Send(SelectLine(c));
  for (int c = 0; c < 6; ++c) {
    auto reply = serve::Json::Parse(clients[c]->ReadLine());
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(reply->GetNumber("id", -1), c);
  }
  EXPECT_GE(loopback.net->connections_accepted(), 6u);
}

TEST(NetServerTest, MalformedLineRepliesAndSessionContinues) {
  LoopbackServer loopback;
  TestClient client(loopback.net->port());
  // Invalid JSON: no id recoverable.
  client.Send("this is not json");
  auto reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->GetNumber("id", 0), -1);
  EXPECT_FALSE(reply->GetBool("ok", true));

  // Valid JSON object, invalid request: the error echoes the id.
  client.Send(R"({"id":55,"op":"select","selector":"tiny","values":[]})");
  reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->GetNumber("id", 0), 55);
  EXPECT_FALSE(reply->GetBool("ok", true));

  // The session is still alive.
  client.Send(SelectLine(56));
  reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->GetNumber("id", 0), 56);
  EXPECT_TRUE(reply->GetBool("ok", false));
}

TEST(NetServerTest, StatsReportShedCounterOverTheWire) {
  LoopbackServer loopback;
  TestClient client(loopback.net->port());
  client.Send(SelectLine(1));
  ASSERT_FALSE(client.ReadLine().empty());
  client.Send(R"({"op":"stats","id":2})");
  auto reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->GetNumber("id", -1), 2);
  const serve::Json* stats = reply->Find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->GetNumber("shed", -1), 0);
  EXPECT_GE(stats->GetNumber("completed", -1), 1);
}

TEST(NetServerTest, QuitDrainsRepliesThenCloses) {
  LoopbackServer loopback;
  TestClient client(loopback.net->port());
  client.Send(SelectLine(9));
  client.Send(R"({"op":"quit"})");
  client.Send(SelectLine(10));  // After quit: must be dropped.
  auto reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->GetNumber("id", -1), 9);
  EXPECT_TRUE(client.AtEof());
}

TEST(NetServerTest, OversizedLineGetsErrorAndClose) {
  NetServerOptions net_opts;
  net_opts.max_line_bytes = 256;
  LoopbackServer loopback(net_opts);
  TestClient client(loopback.net->port());
  std::string huge = "{\"id\":1,\"values\":[";
  huge.append(4096, '1');  // No newline until way past the cap.
  client.Send(huge);
  auto reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_FALSE(reply->GetBool("ok", true));
  EXPECT_NE(reply->GetString("error", "").find("exceeds"), std::string::npos);
  EXPECT_TRUE(client.AtEof());
}

// The client's FIN also ends its last line: a request sent without a
// trailing '\n' still gets exactly one reply before the server closes.
TEST(NetServerTest, UnterminatedLastLineBeforeFinGetsItsReply) {
  LoopbackServer loopback;
  TestClient client(loopback.net->port());
  client.SendRaw(R"({"op":"list","id":1})" "\n" R"({"op":"list","id":2})");
  client.ShutdownWrite();
  for (int id : {1, 2}) {
    auto reply = serve::Json::Parse(client.ReadLine());
    ASSERT_TRUE(reply.ok()) << "reply " << id << ": " << reply.status();
    EXPECT_EQ(reply->GetNumber("id", -1), id);
    EXPECT_TRUE(reply->GetBool("ok", false));
  }
  EXPECT_TRUE(client.AtEof());
}

TEST(NetServerTest, StopDrainsInFlightRequests) {
  auto loopback = std::make_unique<LoopbackServer>();
  TestClient client(loopback->net->port());
  client.Send(SelectLine(77));
  // Race Stop() against the in-flight request: the reply must still be
  // delivered before the connection closes.
  auto reply_line = client.ReadLine();
  loopback->net->Stop();
  auto reply = serve::Json::Parse(reply_line);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->GetNumber("id", -1), 77);
  EXPECT_TRUE(client.AtEof());  // Stop closed the connection cleanly.
  loopback.reset();
}

TEST(NetServerTest, ShedsUnderSloPressureAndRecovers) {
  // slo_us is microscopic and evaluation is continuous, so the state
  // machine is driven deterministically by the request sequence: the
  // first request's (real, >1us) latency makes the next evaluation shed
  // the second request; with nothing accepted after that, the following
  // evaluation sees an empty window and recovers.
  NetServerOptions net_opts;
  net_opts.slo_ms = 1e-3;  // 1 microsecond p99 target.
  net_opts.shedder.eval_interval_us = 0;
  net_opts.shedder.min_samples = 1;
  LoopbackServer loopback(net_opts);
  TestClient client(loopback.net->port());

  client.Send(SelectLine(1));
  auto reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->GetBool("ok", false));

  client.Send(SelectLine(2));
  reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_FALSE(reply->GetBool("ok", true));
  EXPECT_EQ(reply->GetString("error", ""), "overloaded");
  EXPECT_EQ(reply->GetNumber("id", -1), 2);

  // Recovery: the shed request recorded no latency, so the next window
  // is empty and admission resumes.
  client.Send(SelectLine(3));
  reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->GetBool("ok", false));
  EXPECT_EQ(reply->GetNumber("id", -1), 3);

  EXPECT_GE(loopback.net->shedder().shed_count(), 1u);
  EXPECT_EQ(loopback.server->stats().shed(), 1u);
}

/// SelectLine with a client-supplied trace id spliced in.
std::string TracedSelectLine(int id, const std::string& trace) {
  std::string line = SelectLine(id);
  line.insert(1, "\"trace\":\"" + trace + "\",");
  return line;
}

TEST(NetServerTest, TraceEchoRoundTripsOnOkAndErrorReplies) {
  LoopbackServer loopback;
  TestClient client(loopback.net->port());

  // Client trace comes back on the ok reply verbatim.
  client.Send(TracedSelectLine(7, "req-abc.1:2"));
  auto reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->GetBool("ok", false));
  EXPECT_EQ(reply->GetString("trace", ""), "req-abc.1:2");

  // Error replies echo it too (empty values -> InvalidArgument).
  client.Send(
      R"({"id":55,"trace":"err-9","op":"select","selector":"tiny","values":[]})");
  reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_FALSE(reply->GetBool("ok", true));
  EXPECT_EQ(reply->GetString("trace", ""), "err-9");

  // A trace outside the sanitized charset is dropped, not echoed; the
  // server substitutes a generated `s<shard>-<seq>` id instead.
  client.Send(TracedSelectLine(8, "bad trace"));
  reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->GetBool("ok", false));
  EXPECT_EQ(reply->GetString("trace", "").rfind("s0-", 0), 0u);

  // No trace at all: same generated-id scheme.
  client.Send(SelectLine(9));
  reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->GetString("trace", "").rfind("s0-", 0), 0u);
}

TEST(NetServerTest, TraceEchoedOnShedRepliesAndFlightRecorded) {
  // Same deterministic shed sequence as ShedsUnderSloPressureAndRecovers:
  // request 1 is served, request 2 is refused by admission control.
  NetServerOptions net_opts;
  net_opts.slo_ms = 1e-3;
  net_opts.shedder.eval_interval_us = 0;
  net_opts.shedder.min_samples = 1;
  LoopbackServer loopback(net_opts);
  TestClient client(loopback.net->port());

  client.Send(TracedSelectLine(1, "warm-1"));
  auto reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->GetBool("ok", false));

  client.Send(TracedSelectLine(2, "shed-me"));
  reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_FALSE(reply->GetBool("ok", true));
  EXPECT_EQ(reply->GetString("error", ""), "overloaded");
  EXPECT_EQ(reply->GetString("trace", ""), "shed-me");

  // Flight records land after the reply bytes go out (RecordFlushed
  // runs at the tail of FlushConn), so a later round-trip on the same
  // connection is the barrier that makes both records visible.
  client.Send(R"({"op":"stats","id":99})");
  ASSERT_FALSE(client.ReadLine().empty());

  // Both requests are in the flight recorder with their verdicts; the
  // shed record still carries an end-to-end total.
  const auto recent = loopback.net->flight_recorder().RecentSnapshot();
  bool saw_ok = false;
  bool saw_shed = false;
  for (const auto& record : recent) {
    if (std::string(record.trace) == "warm-1") {
      saw_ok = true;
      EXPECT_EQ(record.verdict, obs::FlightRecord::Verdict::kOk);
      EXPECT_GT(record.total_us, 0.0);
      EXPECT_GT(record.compute_us, 0.0);
    }
    if (std::string(record.trace) == "shed-me") {
      saw_shed = true;
      EXPECT_EQ(record.verdict, obs::FlightRecord::Verdict::kShed);
      EXPECT_EQ(record.compute_us, 0.0);  // Never ran.
    }
  }
  EXPECT_TRUE(saw_ok);
  EXPECT_TRUE(saw_shed);
  EXPECT_EQ(loopback.net->flight_recorder().recorded(), 2u);
}

TEST(NetServerTest, OpsSnapshotExportsStatsShedderAndStageHistograms) {
  obs::MetricsRegistry::Global().ResetValuesForTesting();
  NetServerOptions net_opts;
  net_opts.slo_ms = 250.0;  // Enabled but never binding.
  LoopbackServer loopback(net_opts);
  TestClient client(loopback.net->port());
  client.Send(SelectLine(1));
  ASSERT_FALSE(client.ReadLine().empty());

  client.Send(R"({"op":"ops","id":2,"view":"snapshot"})");
  auto reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->GetNumber("id", -1), 2);
  EXPECT_TRUE(reply->GetBool("ok", false));

  const serve::Json* stats = reply->Find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_GE(stats->GetNumber("completed", -1), 1);
  EXPECT_EQ(stats->GetNumber("shed_rate", -1), 0);

  const serve::Json* shedder = reply->Find("shedder");
  ASSERT_NE(shedder, nullptr);
  ASSERT_TRUE(shedder->is_object());
  EXPECT_TRUE(shedder->GetBool("enabled", false));
  EXPECT_EQ(shedder->GetString("state", ""), "admit");
  EXPECT_EQ(shedder->GetNumber("shed", -1), 0);

  // Every request stage histogram is populated once one reply flushed.
  const serve::Json* metrics = reply->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const serve::Json* histograms = metrics->Find("histograms");
  ASSERT_NE(histograms, nullptr);
  for (const char* name :
       {"kdsel.net.stage.queue", "kdsel.net.stage.batch_wait",
        "kdsel.net.stage.compute", "kdsel.net.stage.write", "kdsel.net.e2e"}) {
    const serve::Json* hist = histograms->Find(name);
    ASSERT_NE(hist, nullptr) << name;
    EXPECT_GE(hist->GetNumber("samples", -1), 1) << name;
  }
}

// A stats/ops snapshot covers every earlier reply on its connection,
// including the stage samples of replies flushed in the same pass.
TEST(NetServerTest, OpsSnapshotCountsRepliesFlushedAlongsideIt) {
  LoopbackServer loopback;
  TestClient client(loopback.net->port());
  auto e2e_samples = [&client] {
    auto reply = serve::Json::Parse(client.ReadLine());
    KDSEL_CHECK(reply.ok());
    const serve::Json* histograms =
        reply->Find("metrics") ? reply->Find("metrics")->Find("histograms")
                               : nullptr;
    const serve::Json* e2e =
        histograms ? histograms->Find("kdsel.net.e2e") : nullptr;
    return e2e ? e2e->GetNumber("samples", 0) : 0.0;
  };
  client.Send(R"({"op":"ops","id":0})");
  const double before = e2e_samples();

  constexpr int kSelects = 8;
  std::string burst;  // One write: the selects and the snapshot after them.
  for (int i = 1; i <= kSelects; ++i) burst += SelectLine(i) + "\n";
  burst += R"({"op":"ops","id":100})";
  client.Send(burst);
  for (int i = 1; i <= kSelects; ++i) {
    auto reply = serve::Json::Parse(client.ReadLine());
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(reply->GetNumber("id", -1), i);
  }
  EXPECT_GE(e2e_samples(), before + kSelects);
}

TEST(NetServerTest, OpsFlightAndPrometheusViewsOverTheWire) {
  LoopbackServer loopback;
  TestClient client(loopback.net->port());
  client.Send(TracedSelectLine(4, "fl-1"));
  ASSERT_FALSE(client.ReadLine().empty());

  client.Send(R"({"op":"ops","id":5,"view":"flight"})");
  auto reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  const serve::Json* flight = reply->Find("flight");
  ASSERT_NE(flight, nullptr);
  EXPECT_GE(flight->GetNumber("recorded", 0), 1);
  const serve::Json* recent = flight->Find("recent");
  ASSERT_NE(recent, nullptr);
  ASSERT_TRUE(recent->is_array());
  ASSERT_FALSE(recent->items().empty());
  EXPECT_EQ(recent->items().back().GetString("trace", ""), "fl-1");

  client.Send(R"({"op":"ops","id":6,"view":"prometheus"})");
  reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  const serve::Json* text = reply->Find("prometheus");
  ASSERT_NE(text, nullptr);
  ASSERT_TRUE(text->is_string());
  EXPECT_NE(text->as_string().find("# TYPE kdsel_net_requests counter"),
            std::string::npos);
  EXPECT_NE(text->as_string().find("kdsel_net_e2e_count"), std::string::npos);

  // An unknown view is a structured error, not a dropped connection.
  client.Send(R"({"op":"ops","id":7,"view":"bogus"})");
  reply = serve::Json::Parse(client.ReadLine());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_FALSE(reply->GetBool("ok", true));
  EXPECT_EQ(reply->GetNumber("id", -1), 7);
}

}  // namespace
}  // namespace kdsel::net
