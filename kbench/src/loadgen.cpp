#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>

#include "serve/framing.hpp"

namespace kbench {

namespace sv = kcoup::serve;

namespace {

constexpr std::size_t kMaxResponseBytes = 1 << 20;
constexpr std::int64_t kGraceNs = 5'000'000'000;  // drain time after a phase

}  // namespace

LoadGen::LoadGen(const std::vector<Payload>& pool, const Reference& reference,
                 std::uint64_t seed, SpanRecorder* spans, const HostWatch* watch)
    : pool_(pool),
      reference_(reference),
      stream_(pool, seed),
      arrival_seed_(seed * 0x2545F4914F6CDD1DULL + 1),
      spans_(spans),
      watch_(watch) {}

LoadGen::~LoadGen() { disconnect(); }

bool LoadGen::connect(int port, std::size_t connections, std::string* error) {
  disconnect();
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    *error = std::string("epoll_create1: ") + std::strerror(errno);
    return false;
  }
  for (std::size_t i = 0; i < connections; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      *error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      *error = std::string("connect: ") + std::strerror(errno);
      ::close(fd);
      return false;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conns_.size();
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      *error = std::string("epoll_ctl: ") + std::strerror(errno);
      ::close(fd);
      return false;
    }
    Conn c;
    c.fd = fd;
    conns_.push_back(std::move(c));
  }
  broken_ = false;
  return true;
}

void LoadGen::disconnect() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  conns_.clear();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  epoll_fd_ = -1;
}

std::size_t LoadGen::outstanding() const {
  std::size_t n = 0;
  for (const Conn& c : conns_) n += c.inflight.size();
  return n;
}

void LoadGen::send(Conn& c, std::size_t payload, std::int64_t due_ns,
                   PhaseResult& r) {
  const std::uint64_t id = next_id_++;
  {
    ScopedSpan span(sampled(id), "framing.encode", -1, id);
    c.wbuf += sv::encode_frame(pool_[payload].json);
  }
  c.inflight.push_back(Pending{payload, due_ns, id});
  ++r.sent;
  ++total_sent_;
}

bool LoadGen::flush(Conn& c) {
  while (c.wpos < c.wbuf.size()) {
    const ssize_t n = ::send(c.fd, c.wbuf.data() + c.wpos,
                             c.wbuf.size() - c.wpos, MSG_NOSIGNAL);
    if (n > 0) {
      c.wpos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  c.wbuf.clear();
  c.wpos = 0;
  return true;
}

PhaseResult LoadGen::closed(double seconds, std::size_t depth,
                            double window_s) {
  return run(Mode::kClosed, seconds, depth, 0.0, window_s);
}

PhaseResult LoadGen::open(double seconds, double rate) {
  return run(Mode::kOpen, seconds, 0, rate, seconds);
}

PhaseResult LoadGen::each_once() {
  PhaseResult r;
  r.served[0].assign(pool_.size(), 0);
  r.served[1].assign(pool_.size(), 0);
  if (broken_ || conns_.empty()) return r;
  Windows w;
  w.t_start = now_ns();
  Conn& c = conns_.front();
  for (std::size_t i = 0; i < pool_.size() && !broken_; ++i) {
    send(c, i, now_ns(), r);
    const std::int64_t deadline = now_ns() + kGraceNs;
    bool ok = flush(c);
    while (ok && !c.inflight.empty() && now_ns() < deadline) {
      epoll_event ev[8];
      ::epoll_wait(epoll_fd_, ev, 8, 10);
      ok = receive(c, r, w, Mode::kOnce, false) && flush(c);
    }
    if (!c.inflight.empty()) {
      r.failures.unanswered += c.inflight.size();
      c.inflight.clear();
      broken_ = true;
    }
  }
  return r;
}

PhaseResult LoadGen::run(Mode mode, double seconds, std::size_t depth,
                         double rate, double window_s) {
  PhaseResult r;
  r.served[0].assign(pool_.size(), 0);
  r.served[1].assign(pool_.size(), 0);
  if (broken_ || conns_.empty() || seconds <= 0.0) return r;
  window_s = std::min(window_s, seconds);  // at least one full window
  const ScopedPin pin(kGeneratorCpu, 1);

  Windows w;
  w.t_start = now_ns();
  w.window_ns = std::max<std::int64_t>(1, static_cast<std::int64_t>(window_s * 1e9));
  const std::int64_t t_end = w.t_start + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t t_deadline = t_end + kGraceNs;
  const auto full_windows =
      static_cast<std::size_t>(std::floor(seconds / window_s + 1e-9));
  w.correct.assign(full_windows, 0);

  std::mt19937_64 arrivals(arrival_seed_++);
  std::exponential_distribution<double> gap_s(rate > 0.0 ? rate : 1.0);
  std::int64_t next_due = t_end;
  std::size_t rr = 0;
  if (mode == Mode::kClosed) {
    for (Conn& c : conns_) {
      for (std::size_t d = 0; d < depth; ++d) send(c, stream_.next(), w.t_start, r);
    }
  } else {
    next_due = w.t_start + static_cast<std::int64_t>(gap_s(arrivals) * 1e9);
  }

  epoll_event events[16];
  bool failed = false;
  while (!failed) {
    std::int64_t now = now_ns();
    while (next_due <= now && next_due < t_end) {
      Conn& c = conns_[rr++ % conns_.size()];
      r.lag_ms.push_back(static_cast<double>(now - next_due) * 1e-6);
      // Requests due while the generator could not run share one stall,
      // from the first of them to now.
      if (now - next_due > kStallLagNs &&
          (w.stalls.empty() || w.stalls.back().second != now)) {
        w.stalls.emplace_back(next_due, now);
      }
      send(c, stream_.next(), next_due, r);
      next_due += static_cast<std::int64_t>(gap_s(arrivals) * 1e9);
    }
    bool pending_writes = false;
    for (Conn& c : conns_) {
      if (!flush(c)) failed = true;
      pending_writes = pending_writes || !c.wbuf.empty();
    }
    if (failed) break;

    int timeout_ms = 10;
    if (pending_writes) {
      timeout_ms = 0;
    } else if (next_due < t_end) {
      const std::int64_t wait_ns = next_due - now_ns();
      timeout_ms = wait_ns < 1'500'000 ? 0 : static_cast<int>(wait_ns / 1'000'000) - 1;
    }
    const int n = ::epoll_wait(epoll_fd_, events, 16, timeout_ms);
    for (int i = 0; i < n && !failed; ++i) {
      Conn& c = conns_[events[i].data.u64];
      const bool refill = mode == Mode::kClosed && now_ns() < t_end;
      failed = !receive(c, r, w, mode, refill);
    }
    now = now_ns();
    if (now >= t_end && next_due >= t_end && outstanding() == 0) break;
    if (now >= t_deadline) break;
  }

  const std::size_t left = outstanding();
  if (failed || left > 0) {
    r.failures.unanswered += left;
    for (Conn& c : conns_) c.inflight.clear();
    broken_ = true;
  }
  if (mode == Mode::kClosed) {
    for (std::size_t i = 0; i < full_windows; ++i) {
      r.window_rps.push_back(static_cast<double>(w.correct[i]) / window_s);
    }
  }
  // A response whose request was in flight while the host ran neither the
  // generator nor some other CPU of the process is late by the host, not
  // by the program: leave it out.  A program thread that blocks (a reload
  // stalling readers, say) neither delays the generator's sends nor stops
  // a spinner without a context switch, so it stays in the figures.
  // Requests queued during a stall are still being answered after it ends,
  // and the ones that arrive meanwhile wait behind them: at the rates the
  // workloads use (well under a fifth of saturation) the backlog drains
  // within the stall's own length, so each stall is extended by that much.
  // The host takes vCPUs in bursts, and the stalls no spinner can see (the
  // host holding a vCPU while a program thread runs on it) come mostly
  // within tens of milliseconds of ones they do see: each stall is widened
  // by kStallMarginNs on both sides.
  std::vector<HostWatch::Interval> all = w.stalls;
  if (mode == Mode::kOpen && watch_ != nullptr) {
    const std::vector<HostWatch::Interval> host = watch_->stalls(w.t_start, now_ns());
    all.insert(all.end(), host.begin(), host.end());
  }
  for (const auto& [from, to] : all) r.stall_ms += static_cast<double>(to - from) * 1e-6;
  for (auto& [from, to] : all) {
    const std::int64_t length = to - from;
    from -= kStallMarginNs;
    to += length + kStallMarginNs;
  }
  w.stalls = merge_intervals(std::move(all));
  r.stalls = w.stalls.size();
  for (const auto& [due, recv] : w.timed) {
    // The first stall that ends at or after `due`; stalls are disjoint and
    // in time order.
    const auto it = std::lower_bound(
        w.stalls.begin(), w.stalls.end(), due,
        [](const auto& stall, std::int64_t t) { return stall.second < t; });
    const double ms = static_cast<double>(recv - due) * 1e-6;
    if (it != w.stalls.end() && it->first <= recv) {
      r.stalled_ms.push_back(ms);
      continue;
    }
    r.latency_ms.push_back(ms);
  }
  return r;
}

bool LoadGen::receive(Conn& c, PhaseResult& r, Windows& w, Mode mode,
                      bool refill) {
  char buf[65536];
  bool eof = false;
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
    if (n > 0) {
      c.rbuf.append(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof buf) break;
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    eof = true;
    break;
  }

  std::string payload;
  for (;;) {
    // The frame being decoded answers the oldest request in flight.
    SpanRecorder* rec = sampled(c.inflight.empty() ? 0 : c.inflight.front().id);
    const int span = rec != nullptr ? rec->begin("framing.decode") : -1;
    const sv::FrameDecodeStatus st =
        sv::decode_frame(c.rbuf, &c.rpos, kMaxResponseBytes, &payload);
    if (st == sv::FrameDecodeStatus::kNeedMore) {
      if (rec != nullptr) rec->discard(span);
      break;
    }
    if (rec != nullptr) rec->end(span);
    if (st != sv::FrameDecodeStatus::kFrame) {
      ++r.failures.failed;
      return false;
    }
    const std::int64_t t_recv = now_ns();
    if (c.inflight.empty()) {
      ++r.failures.mismatched;
      return false;
    }
    const Pending p = c.inflight.front();
    c.inflight.pop_front();
    std::uint64_t version = 0;
    bool ok = false;
    {
      ScopedSpan check(sampled(p.id), "check", -1, p.id);
      ok = reference_.check(p.payload, payload, &version);
    }
    if (ok) {
      ++r.served[identity_of_version(version)][p.payload];
      if (mode == Mode::kClosed) {
        const auto i = static_cast<std::size_t>((t_recv - w.t_start) / w.window_ns);
        if (i < w.correct.size()) ++w.correct[i];
      } else if (mode == Mode::kOpen) {
        w.timed.emplace_back(p.due_ns, t_recv);
      }
      if (refill) send(c, stream_.next(), t_recv, r);
      continue;
    }
    if (payload.find("\"code\":429") != std::string::npos) {
      ++r.failures.refused;
      return false;
    }
    if (payload.rfind("{\"ok\":false", 0) == 0) {
      ++r.failures.failed;
    } else {
      ++r.failures.mismatched;
    }
    if (mismatch_reports_++ < 3) {
      std::fprintf(stderr, "kbench: wrong reply to %s (version %llu): %.300s\n",
                   pool_[p.payload].json.c_str(),
                   static_cast<unsigned long long>(version), payload.c_str());
    }
  }
  if (c.rpos > 0 && c.rpos == c.rbuf.size()) {
    c.rbuf.clear();
    c.rpos = 0;
  } else if (c.rpos > (1u << 16)) {
    c.rbuf.erase(0, c.rpos);
    c.rpos = 0;
  }
  return !eof;
}

}  // namespace kbench
