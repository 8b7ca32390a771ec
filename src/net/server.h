#ifndef KDSEL_NET_SERVER_H_
#define KDSEL_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/status.h"
#include "net/shedder.h"
#include "obs/flight_recorder.h"
#include "serve/server.h"

namespace kdsel::net {

/// Tuning knobs for the TCP front end.
struct NetServerOptions {
  /// IPv4 "host:port" to listen on. Port 0 binds an ephemeral port
  /// (query it with port() after Start()). "" opens no listener: the
  /// server then serves only connections handed to Adopt().
  std::string listen = "127.0.0.1:0";
  /// Shard threads. Each owns its own SO_REUSEPORT listening socket,
  /// epoll instance and connections; shards share nothing but the
  /// InferenceServer behind them.
  size_t shards = 1;
  /// p99 SLO target for accepted requests in milliseconds; <= 0 turns
  /// admission control off.
  double slo_ms = 0.0;
  /// A connection whose current line exceeds this many bytes is sent
  /// one error reply and closed (protocol abuse / runaway input).
  size_t max_line_bytes = 1 << 20;
  /// Backpressure: stop reading from a connection whose pending output
  /// exceeds this many bytes; resume below half of it.
  size_t max_write_buffer_bytes = 4u << 20;
  /// listen(2) backlog per shard socket.
  int backlog = 1024;
  /// Hysteresis/eval tuning for the shedder; slo_us is derived from
  /// slo_ms by Start().
  ShedderOptions shedder;
};

/// Cheap structural peek at a request line, used for the shed fast
/// path: while overloaded, select requests are refused from the raw
/// bytes without paying for a full JSON parse. Heuristic by design (a
/// quoted string containing `"op"` can fool it); admitted requests
/// still go through the strict parser, so correctness never depends on
/// the peek.
struct LinePeek {
  bool is_select = true;  ///< "op" missing (the default op) or "select".
  int64_t id = -1;        ///< Top-level "id" when scannable.
  /// Top-level "trace" when scannable AND entirely in the sanitized
  /// charset ([A-Za-z0-9._:-], <= 23 chars); empty otherwise. The
  /// charset restriction is what makes splicing the peeked bytes into a
  /// shed reply JSON-safe without a full parse.
  char trace[obs::FlightRecord::kTraceBytes] = {};
};
LinePeek PeekRequestLine(const std::string& line);

/// Network front end for the NDJSON serving protocol.
///
/// N shard threads, each with its own SO_REUSEPORT listener and epoll
/// loop, speak the protocol of serve/protocol.h over TCP with
/// non-blocking reads/writes and per-connection bounded buffers.
/// Responses go back in per-connection submission order. Select
/// requests are handed to the InferenceServer in one batch per epoll
/// wake (one submission-lock acquisition), and completions flow back to
/// the owning shard through an eventfd, so no thread ever parks on a
/// future.
///
/// Admission control: when `slo_ms` is set, a Shedder watches the
/// windowed p99 of accepted requests and, while overloaded, refuses new
/// select requests with `{"id":N,"ok":false,"error":"overloaded"}`
/// (counted as `shed` in ServerStats) before they consume parse or
/// inference capacity.
///
/// Observability: every select (and every refusal) carries a trace id
/// -- the client's "trace" field when it passes SanitizeTraceId, else a
/// generated `s<shard>-<seq>` -- which is echoed on the reply and keyed
/// into an always-on flight recorder together with the request's stage
/// decomposition (queue/batch_wait/compute/write). Stage latencies feed
/// the `kdsel.net.stage.*` histograms; the `ops` op (see
/// serve/protocol.h) exports all of it live. See DESIGN.md "Request
/// observability".
///
/// Besides accepted TCP connections, a shard serves any connected
/// stream socket handed to Adopt(); ServeStdio() uses that to run a
/// stdin/stdout session through the very same code.
///
/// Lifecycle: Start() binds and spawns shards; Stop() closes the
/// listeners, stops reading, drains every in-flight request, flushes
/// what the peers will accept, and joins. Stop this front end BEFORE
/// stopping the InferenceServer, so in-flight completions can drain.
class NetServer {
 public:
  /// The inference server must outlive this object and be Start()ed.
  NetServer(serve::InferenceServer* server, NetServerOptions options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  Status Start();
  void Stop();

  /// Hands a connected stream socket to shard 0, which serves it like an
  /// accepted connection and closes it when the session ends. Takes
  /// ownership of `fd` (closed here when the server is not running).
  Status Adopt(int fd);

  /// Bound port (after Start(); resolves a port-0 request).
  uint16_t port() const { return port_; }
  const NetServerOptions& options() const { return options_; }
  Shedder& shedder() { return shedder_; }
  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }

  /// The shard-side flight recorder (for tests and the "ops" op).
  obs::FlightRecorder& flight_recorder() { return flight_; }

 private:
  /// Per-request observability riding along with a response slot from
  /// ingress until the reply bytes are handed to the kernel. POD with
  /// an inline trace id so slots stay allocation-free to annotate.
  struct ReqMeta {
    char trace[obs::FlightRecord::kTraceBytes] = {};
    int64_t ingress_us = 0;  ///< Epoll-wake stamp when the line arrived.
    int64_t done_us = 0;     ///< Worker completion stamp (selects only).
    /// Ingress -> worker-dequeue residual not attributed to batch
    /// formation: socket parse, submit and queue wait. A residual by
    /// construction, so queue + batch_wait + compute + write == total.
    float queue_us = 0.0f;
    float batch_wait_us = 0.0f;  ///< Submit -> micro-batch formed.
    float compute_us = 0.0f;     ///< Worker dequeue -> response ready.
    obs::FlightRecord::Verdict verdict = obs::FlightRecord::Verdict::kError;
    bool traced = false;  ///< Record stage metrics + flight on flush.
  };

  /// One response slot; replies leave in slot order per connection.
  struct Slot {
    enum class Kind {
      kPending,  ///< Select in flight; `line` arrives via completion.
      kReady,    ///< `line` is final.
      kStats,    ///< Formatted lazily when it reaches the flush front,
                 ///< so the snapshot covers every earlier reply.
      kOps,      ///< Telemetry reply; formatted lazily like kStats.
    };
    Kind kind = Kind::kReady;
    int64_t id = -1;
    std::string line;
    std::string view;  ///< "ops" payload selector (kOps only).
    ReqMeta meta;
  };

  struct Conn {
    int fd = -1;
    uint64_t gen = 0;
    std::string rbuf;       ///< Unconsumed input (at most one partial line).
    std::string wbuf;       ///< Pending output.
    size_t woff = 0;        ///< Consumed prefix of wbuf.
    uint32_t armed = 0;     ///< Events currently registered with epoll.
    uint64_t base_seq = 0;  ///< Sequence number of slots.front().
    std::deque<Slot> slots;
    size_t pending = 0;     ///< Slots still waiting on a completion.
    bool stop_reading = false;  ///< EOF or quit seen (or server stopping).
    bool saw_quit = false;      ///< quit op: discard any later input too.
    bool paused = false;        ///< Reads off due to write backpressure.
    bool dead = false;          ///< Hard error: close, dropping output.
  };

  /// A resolved select request on its way back to the shard thread.
  struct Completion {
    int fd = -1;
    uint64_t gen = 0;
    uint64_t seq = 0;
    std::string line;
    // Stage attribution from the inference side, merged into the slot's
    // ReqMeta by DrainCompletions (which derives queue_us as the
    // ingress->dequeue residual, so it is not carried here).
    int64_t done_us = 0;
    float batch_wait_us = 0.0f;
    float compute_us = 0.0f;
    obs::FlightRecord::Verdict verdict = obs::FlightRecord::Verdict::kError;
  };

  struct Shard {
    NetServer* owner = nullptr;
    size_t index = 0;
    int listen_fd = -1;
    int epoll_fd = -1;
    int wake_fd = -1;  ///< eventfd: completions, Adopt() or Stop().
    std::thread thread;
    uint64_t next_gen = 0;  ///< Generation source for accepted conns.
    uint64_t trace_seq = 0;  ///< Source for generated trace ids.
    std::map<int, std::unique_ptr<Conn>> conns;  ///< Shard-thread only.
    std::mutex done_mu;
    std::vector<Completion> done KDSEL_GUARDED_BY(done_mu);
    /// Sockets handed over by Adopt(), registered on the next wake.
    std::vector<int> adopted KDSEL_GUARDED_BY(done_mu);
    /// Select slots submitted but not yet seen back by this shard; the
    /// loop only exits once this drains (the InferenceServer resolves
    /// every accepted request, so this always terminates).
    std::atomic<uint64_t> outstanding{0};
    /// FlushConn's reusable staging area for traced slot metadata
    /// (shard-thread only; reused so flushing never allocates in steady
    /// state).
    std::vector<ReqMeta> flush_scratch;
  };

  void ShardLoop(Shard& shard);
  void AcceptReady(Shard& shard);
  /// Registers a non-blocking connected socket with the shard.
  void AddConn(Shard& shard, int fd);
  void ReadReady(Shard& shard, Conn& conn, int64_t now_us,
                 std::vector<serve::InferenceServer::AsyncItem>& submits);
  void ProcessLine(Shard& shard, Conn& conn, const std::string& line,
                   int64_t now_us,
                   std::vector<serve::InferenceServer::AsyncItem>& submits);
  void DrainCompletions(Shard& shard);
  void PushCompletion(Shard& shard, Completion completion);
  /// Moves ready slots into wbuf, writes what the socket accepts,
  /// updates epoll interest (EPOLLOUT, read pause/resume) and closes
  /// the connection when it is finished or broken.
  void FlushConn(Shard& shard, Conn& conn);
  /// FlushConn's second half: writes wbuf and records the staged traced
  /// metadata. Returns false when the connection was closed.
  bool SendStaged(Shard& shard, Conn& conn);
  void CloseConn(Shard& shard, Conn& conn);
  void EnqueueReady(Conn& conn, std::string line);
  void LineOverflow(Shard& shard, Conn& conn);
  /// Records stage histograms and the flight record for one traced
  /// slot whose reply bytes were just handed to the send loop.
  /// `flushed_us` is one timestamp shared by every slot SendStaged
  /// flushed in that pass.
  void RecordFlushed(const ReqMeta& meta, int64_t flushed_us);
  /// Formats one "ops" reply for the given (already validated) view,
  /// with this server's shedder state and flight recorder.
  std::string OpsLine(int64_t id, const std::string& view) const;

  serve::InferenceServer* server_;
  NetServerOptions options_;
  Shedder shedder_;
  obs::FlightRecorder flight_;
  std::vector<std::unique_ptr<Shard>> shards_;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> connections_accepted_{0};

  std::mutex lifecycle_mu_;
  bool started_ KDSEL_GUARDED_BY(lifecycle_mu_) = false;
  bool stopped_ KDSEL_GUARDED_BY(lifecycle_mu_) = false;
};

/// Serves one NDJSON session read from `in_fd` with replies written to
/// `out_fd` (stdin/stdout for `kdsel serve`), under the TCP contract:
/// the session is one connection of a listener-less, one-shard
/// NetServer, fed through a socketpair that this function relays on the
/// calling thread with poll(2) (so `in_fd` may be a regular file).
/// Returns after "quit" once every earlier reply is written, or after
/// EOF on `in_fd` (or SIGINT/SIGTERM, see net/signal.h) once every
/// request read has been answered. Does NOT stop `server`.
Status ServeStdio(int in_fd, int out_fd, serve::InferenceServer& server);

}  // namespace kdsel::net

#endif  // KDSEL_NET_SERVER_H_
