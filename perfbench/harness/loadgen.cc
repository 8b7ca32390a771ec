#include "harness/loadgen.h"

#include <errno.h>
#include <sys/epoll.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>

#include "harness/common.h"
#include "net/listener.h"

namespace perfbench {

struct LoadGenerator::Conn {
  int fd = -1;
  std::string out;         ///< Bytes not yet written.
  uint64_t out_base = 0;   ///< Stream offset of out[0].
  std::deque<uint64_t> unsent_ends;  ///< Stream end offset per unsent request.
  std::string in;
  std::deque<uint64_t> waiting;  ///< Step-local request numbers, FIFO.
  bool want_write = false;
};

namespace {

int Connect(uint16_t port) {
  kdsel::net::HostPort hp;
  hp.host = "127.0.0.1";
  hp.port = port;
  const int fd = MustOk(kdsel::net::ConnectTcp(hp), "connect");
  MustOk(kdsel::net::SetNonBlocking(fd), "nonblocking");
  return fd;
}

/// Parses the integer after `key` in `line`; false when absent.
bool FindInt(const std::string& line, const char* key, long long* value) {
  const size_t at = line.find(key);
  if (at == std::string::npos) return false;
  const char* p = line.c_str() + at + std::strlen(key);
  char* end = nullptr;
  *value = std::strtoll(p, &end, 10);
  return end != p;
}

// Busy-poll window before each due time.
constexpr uint64_t kSpinNs = 2'000'000;

}  // namespace

LoadGenerator::LoadGenerator(uint16_t port, size_t connections) {
  epfd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) Die("epoll_create1 failed");
  for (size_t i = 0; i < connections; ++i) {
    auto c = std::make_unique<Conn>();
    c->fd = Connect(port);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = c.get();
    if (epoll_ctl(epfd_, EPOLL_CTL_ADD, c->fd, &ev) != 0) Die("epoll_ctl");
    conns_.push_back(std::move(c));
  }
}

LoadGenerator::~LoadGenerator() {
  for (const auto& c : conns_) close(c->fd);
  if (epfd_ >= 0) close(epfd_);
}

StepResult LoadGenerator::RunStep(double rate, double duration_s,
                                  double drain_timeout_s, uint64_t first_id,
                                  const RequestBody& body) {
  StepResult r;
  r.rate = rate;
  r.duration_s = duration_s;
  const uint64_t total = static_cast<uint64_t>(rate * duration_s);
  r.latency_ms.assign(total, std::numeric_limits<double>::infinity());
  r.model_id.assign(total, -1);
  std::vector<uint64_t> due(total);
  std::vector<bool> answered(total, false);

  const uint64_t start = NowNs() + 2'000'000;  // 2 ms lead.
  const double interval_ns = 1e9 / rate;
  for (uint64_t i = 0; i < total; ++i) {
    due[i] = start + static_cast<uint64_t>(static_cast<double>(i) * interval_ns);
  }
  const uint64_t last_due = total > 0 ? due[total - 1] : start;
  const uint64_t deadline =
      last_due + static_cast<uint64_t>(drain_timeout_s * 1e9);

  uint64_t next = 0;
  uint64_t answered_count = 0;
  uint64_t last_reply = start;
  uint64_t busy_ns = 0;
  std::vector<double> lag_ms;
  lag_ms.reserve(total);
  epoll_event events[16];

  auto flush = [&](Conn* c) {
    while (!c->out.empty()) {
      const ssize_t n = write(c->fd, c->out.data(), c->out.size());
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        Die(std::string("write: ") + std::strerror(errno));
      }
      c->out.erase(0, static_cast<size_t>(n));
      c->out_base += static_cast<uint64_t>(n);
      while (!c->unsent_ends.empty() && c->unsent_ends.front() <= c->out_base) {
        c->unsent_ends.pop_front();
      }
    }
    const bool want = !c->out.empty();
    if (want != c->want_write) {
      epoll_event ev{};
      ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
      ev.data.ptr = c;
      epoll_ctl(epfd_, EPOLL_CTL_MOD, c->fd, &ev);
      c->want_write = want;
    }
  };

  auto on_line = [&](Conn* c, const std::string& line, uint64_t now) {
    if (c->waiting.empty()) {
      ++r.out_of_order;
      return;
    }
    const uint64_t i = c->waiting.front();
    c->waiting.pop_front();
    answered[i] = true;
    ++answered_count;
    last_reply = now;
    long long id = -1;
    if (!FindInt(line, "\"id\":", &id) ||
        static_cast<uint64_t>(id) != first_id + i) {
      ++r.out_of_order;
    }
    long long model = -1;
    if (line.find("\"ok\":true") != std::string::npos &&
        FindInt(line, "\"model_id\":", &model)) {
      ++r.ok;
      r.model_id[i] = static_cast<int>(model);
      r.latency_ms[i] = static_cast<double>(now - due[i]) / 1e6;
    } else {
      ++r.error_replies;
    }
  };

  char buf[1 << 16];
  const uint64_t wall_start = NowNs();
  for (;;) {
    uint64_t now = NowNs();
    const uint64_t work_start = now;
    bool appended = false;
    while (next < total && due[next] <= now) {
      Conn* c = conns_[next % conns_.size()].get();
      char prefix[32];
      std::snprintf(prefix, sizeof(prefix), "{\"id\":%llu,",
                    static_cast<unsigned long long>(first_id + next));
      c->out += prefix;
      body(next, &c->out);
      c->unsent_ends.push_back(c->out_base + c->out.size());
      c->waiting.push_back(next);
      lag_ms.push_back(static_cast<double>(now - due[next]) / 1e6);
      ++next;
      appended = true;
    }
    if (appended) {
      for (const auto& c : conns_) flush(c.get());
      size_t unsent = 0;
      size_t inflight = 0;
      for (const auto& c : conns_) {
        unsent += c->unsent_ends.size();
        inflight += c->waiting.size();
      }
      r.max_unsent = std::max(r.max_unsent, unsent);
      r.max_inflight = std::max(r.max_inflight, inflight - unsent);
    }
    now = NowNs();
    if (appended) busy_ns += now - work_start;
    if (next == total && answered_count == total) break;
    if (now >= deadline) break;

    // Sleep only until kSpinNs before the next due time, then poll: a
    // timer wake-up on a virtual CPU can arrive milliseconds late.
    const uint64_t wake = next < total ? due[next] : deadline;
    const uint64_t wait_ns =
        wake > now + kSpinNs && next < total ? wake - now - kSpinNs : 0;
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait_ns / 1'000'000'000ULL);
    ts.tv_nsec = static_cast<long>(wait_ns % 1'000'000'000ULL);
    const int n = epoll_pwait2(epfd_, events, 16, &ts, nullptr);
    if (n < 0 && errno != EINTR) Die("epoll_pwait2 failed");
    const uint64_t io_start = NowNs();
    for (int e = 0; e < n; ++e) {
      Conn* c = static_cast<Conn*>(events[e].data.ptr);
      if (events[e].events & EPOLLOUT) flush(c);
      if (events[e].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
        for (;;) {
          const ssize_t got = read(c->fd, buf, sizeof(buf));
          if (got > 0) {
            c->in.append(buf, static_cast<size_t>(got));
            continue;
          }
          if (got < 0 && errno == EINTR) continue;
          if (got == 0) Die("server closed a connection");
          break;  // EAGAIN.
        }
        const uint64_t at = NowNs();
        size_t begin = 0;
        for (size_t nl; (nl = c->in.find('\n', begin)) != std::string::npos;
             begin = nl + 1) {
          on_line(c, c->in.substr(begin, nl - begin), at);
        }
        c->in.erase(0, begin);
      }
    }
    if (n > 0) busy_ns += NowNs() - io_start;
  }
  const uint64_t wall_end = NowNs();

  r.sent = next;
  for (uint64_t i = 0; i < total; ++i) {
    if (!answered[i]) ++r.missing;
  }
  // Unanswered requests stay queued on their connection; a later step
  // must not match their replies, so the caller drops this generator
  // after a step with missing replies.
  r.lag_p99_ms = Quantile(lag_ms, 0.99);
  r.drain_ms =
      last_reply > last_due ? static_cast<double>(last_reply - last_due) / 1e6
                            : 0.0;
  r.busy_share = static_cast<double>(busy_ns) /
                 static_cast<double>(std::max<uint64_t>(1, wall_end - wall_start));
  return r;
}

std::string RoundTrip(uint16_t port, const std::string& line) {
  kdsel::net::HostPort hp;
  hp.host = "127.0.0.1";
  hp.port = port;
  const int fd = MustOk(kdsel::net::ConnectTcp(hp), "connect");
  std::string out = line + "\n";
  size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = write(fd, out.data() + off, out.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) Die("ops write failed");
    off += static_cast<size_t>(n);
  }
  std::string reply;
  char buf[1 << 16];
  while (reply.find('\n') == std::string::npos) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) Die("ops read failed");
    reply.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  return reply.substr(0, reply.find('\n'));
}

}  // namespace perfbench
