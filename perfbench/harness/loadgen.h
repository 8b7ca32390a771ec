// Open-loop load generator: one thread, an epoll loop over a few TCP
// connections, requests sent on a fixed schedule whatever the server
// does, and every latency timed from the request's due time.

#ifndef KDSEL_PERFBENCH_LOADGEN_H_
#define KDSEL_PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// What one rate step measured. Per-request vectors are indexed by the
/// step-local request number.
struct StepResult {
  double rate = 0.0;        ///< Nominal requests per second.
  double duration_s = 0.0;  ///< Sending window.
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t error_replies = 0;
  uint64_t missing = 0;     ///< No reply before the drain deadline.
  uint64_t out_of_order = 0;  ///< Reply id differs from the FIFO head.
  /// Reply time - due time; +inf for a request without an ok reply, so
  /// a failed request counts as above any latency limit.
  std::vector<double> latency_ms;
  std::vector<int> model_id;       ///< Selected model, -1 if not ok.
  double lag_p99_ms = 0.0;   ///< Generator lateness: write - due.
  size_t max_unsent = 0;     ///< Requests due but not yet written.
  size_t max_inflight = 0;   ///< Written, not yet answered.
  double drain_ms = 0.0;     ///< Last due time -> last reply.
  double busy_share = 0.0;   ///< Generator time outside epoll waits.
};

class LoadGenerator {
 public:
  /// Opens `connections` TCP connections to 127.0.0.1:`port`.
  LoadGenerator(uint16_t port, size_t connections);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Appends the body of request `i` of the step (the NDJSON object
  /// after its `{"id":N,` prefix, newline included) to `out`.
  using RequestBody = std::function<void(uint64_t i, std::string* out)>;

  /// Sends requests at `rate` for `duration_s`, request i due at
  /// start + i/rate, then waits up to `drain_timeout_s` past the last due
  /// time for the remaining replies. Ids start at `first_id`.
  StepResult RunStep(double rate, double duration_s, double drain_timeout_s,
                     uint64_t first_id, const RequestBody& body);

 private:
  struct Conn;
  std::vector<std::unique_ptr<Conn>> conns_;
  int epfd_ = -1;
};

/// Sends one request line on a fresh connection and returns the reply
/// line (for the "ops" snapshot scrape).
std::string RoundTrip(uint16_t port, const std::string& line);

}  // namespace perfbench

#endif  // KDSEL_PERFBENCH_LOADGEN_H_
