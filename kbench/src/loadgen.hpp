#pragma once

// The benchmark's load generator: one thread, non-blocking sockets, the
// program's own framing (serve::encode_frame / decode_frame) and nothing of
// serve::Client, whose byte-at-a-time blocking reads would make the
// generator the bottleneck and rule out an open loop.  Connections are
// opened once; a refusal, EOF or deadline is a counted failure that ends
// the run (every later phase returns at once), never a hang.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "hostwatch.hpp"
#include "scenario.hpp"
#include "spans.hpp"

namespace kbench {

struct PhaseResult {
  std::uint64_t sent = 0;
  Failures failures;
  /// Closed loop: correct responses per second in each full window.
  std::vector<double> window_rps;
  /// Open loop: latency of each correct response, timed from when its
  /// request was due, leaving out requests in flight across a stall.
  std::vector<double> latency_ms;
  /// Open loop: how late each request was sent.
  std::vector<double> lag_ms;
  /// Open loop: stalls of the host — of the generator itself (a request
  /// sent more than kStallLagNs late) or seen by the HostWatch on any CPU —
  /// merged, their summed length, and the latencies of the correct
  /// responses left out of latency_ms because their request was in flight
  /// during one (widened as run() describes).
  std::uint64_t stalls = 0;
  double stall_ms = 0.0;
  std::vector<double> stalled_ms;
  /// Correct responses per (database, payload index).
  std::vector<std::uint64_t> served[2];
};

class LoadGen {
 public:
  /// `watch` (may be null) supplies the host stalls the open loop's
  /// latencies are filtered by, beside the generator's own.
  LoadGen(const std::vector<Payload>& pool, const Reference& reference,
          std::uint64_t seed, SpanRecorder* spans, const HostWatch* watch);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Open `connections` connections to 127.0.0.1:port; false (with a
  /// message) when any connect fails.
  bool connect(int port, std::size_t connections, std::string* error);
  void disconnect();

  /// Closed loop: every connection keeps `depth` frames in flight.
  PhaseResult closed(double seconds, std::size_t depth, double window_s);
  /// Open loop: Poisson arrivals at `rate` per second spread round-robin
  /// over the connections, each timed from when it was due.
  PhaseResult open(double seconds, double rate);

  /// Every payload once, in pool order, one at a time (warm-up and check).
  PhaseResult each_once();

  [[nodiscard]] bool broken() const { return broken_; }
  [[nodiscard]] std::uint64_t total_sent() const { return total_sent_; }

 private:
  struct Pending {
    std::size_t payload = 0;
    std::int64_t due_ns = 0;
    std::uint64_t id = 0;
  };
  struct Conn {
    int fd = -1;
    std::string rbuf;
    std::size_t rpos = 0;
    std::string wbuf;
    std::size_t wpos = 0;
    std::deque<Pending> inflight;
  };
  enum class Mode { kClosed, kOpen, kOnce };
  /// Per-phase accumulators the send and receive paths fill.
  struct Windows {
    std::int64_t t_start = 0;
    std::int64_t window_ns = 1;
    std::vector<std::uint64_t> correct;  ///< closed: per window
    /// Open: (due, received) of each correct response, and the generator's
    /// stalls as (due, sent) of the late sends, in time order.
    std::vector<std::pair<std::int64_t, std::int64_t>> timed;
    std::vector<std::pair<std::int64_t, std::int64_t>> stalls;
  };

  PhaseResult run(Mode mode, double seconds, std::size_t depth, double rate,
                  double window_s);
  void send(Conn& c, std::size_t payload, std::int64_t due_ns,
            PhaseResult& r);
  /// Non-blocking flush; false when the connection failed.
  bool flush(Conn& c);
  /// Read and handle every complete response; false when the connection
  /// ended (EOF, error, refusal or an undecodable frame).
  bool receive(Conn& c, PhaseResult& r, Windows& w, Mode mode, bool refill);
  [[nodiscard]] std::size_t outstanding() const;
  /// The recorder when request `id` is one the traced run samples (one in
  /// kTraceEvery, so a saturated closed loop cannot fill the span buffer
  /// before the later phases record), else nullptr.
  [[nodiscard]] SpanRecorder* sampled(std::uint64_t id) const {
    return id % kTraceEvery == 0 ? spans_ : nullptr;
  }
  static constexpr std::uint64_t kTraceEvery = 16;
  /// A send this late means the host did not run the generator's thread.
  /// In calm operation the generator is at most tens of microseconds late.
  static constexpr std::int64_t kStallLagNs = 1'000'000;
  /// How far on each side of a host stall responses are left out of the
  /// open loop's latencies.
  static constexpr std::int64_t kStallMarginNs = 50'000'000;

  const std::vector<Payload>& pool_;
  const Reference& reference_;
  PayloadStream stream_;
  std::uint64_t arrival_seed_;
  SpanRecorder* spans_;
  const HostWatch* watch_;
  std::vector<Conn> conns_;
  int epoll_fd_ = -1;
  bool broken_ = false;
  std::uint64_t next_id_ = 1;
  std::uint64_t total_sent_ = 0;
  std::size_t mismatch_reports_ = 0;
};

}  // namespace kbench
